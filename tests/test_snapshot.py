"""repro.snapshot: deterministic checkpoint/restore of mid-stream chip state.

Pins the subsystem's hard invariant — a simulator restored from a snapshot
produces a bit-identical schedule (and identical records, stats and
stores) to the uninterrupted run from that point — at every increment
boundary of a test scenario, plus the wire format's
round-trip/corruption/versioning behaviour and the capture guard rails.
"""

from __future__ import annotations

import copy
import hashlib
import json
import random
import struct
import time
from array import array
from dataclasses import replace

import pytest

from helpers import requires_numpy

from repro import __version__
from repro.arch.config import ChipConfig
from repro.arch.message import Message
from repro.arch.simulator import Simulator
from repro.graph.graph import DynamicGraph
from repro.graph.rpvo import Edge, EdgeSlot
from repro.arch.address import Address
from repro.harness.runner import (
    restore_scenario,
    resume_scenario,
    run_scenario,
    snapshot_at,
)
from repro.harness.scenario import ChipSpec, DatasetSpec, RunOptions, Scenario
from repro.runtime.device import AMCCADevice
from repro.snapshot import (
    Snapshot,
    SnapshotError,
    capture,
    capture_simulator,
    restore_simulator,
)
from repro.snapshot.format import SCHEMA_VERSION, pack_value, unpack_value


def tiny_scenario(**overrides) -> Scenario:
    """A 6-increment scenario small enough to restore at every boundary."""
    fields = dict(
        name="snap-tiny",
        dataset=DatasetSpec(vertices=60, edges=400, num_increments=6, seed=3),
        chip=ChipSpec(side=8, edge_list_capacity=4),
        algorithm="bfs",
    )
    fields.update(overrides)
    return Scenario(**fields)


# ----------------------------------------------------------------------
# Wire format
# ----------------------------------------------------------------------
class TestFormat:
    def test_value_codec_round_trip(self):
        value = {
            "none": None,
            "bools": (True, False),
            "int": 42,
            "neg": -7,
            "big": 1 << 80,
            "float": 3.141592653589793,
            "str": "schnappschuß",
            "bytes": b"\x00\xff",
            "ints": [1, 2, 3, 1 << 40],
            "mixed": [1, "two", None],
            "nested": {("a", 1): {"x": [Address(3, 4)]}},
            "edge": Edge(1, 2, 9),
            "slot": EdgeSlot(dst_addr=Address(5, 6), dst_vid=7, weight=2),
            7: "int key",
        }
        assert unpack_value(pack_value(value)) == value

    def test_int_array_round_trip_exact(self):
        series = [0, 1, -1, (1 << 62), -(1 << 62)]
        assert unpack_value(pack_value(series)) == series

    @pytest.mark.parametrize("values", [[], [0, 1, -1, 1 << 62, -(1 << 63)]],
                             ids=["empty", "non-empty"])
    def test_int64_array_round_trip(self, values):
        column = array("q", values)
        packed = pack_value(column)
        assert packed == (b"q" + struct.pack("<I", len(values))
                          + struct.pack(f"<{len(values)}q", *values))
        decoded = unpack_value(packed)
        assert type(decoded) is array and decoded.typecode == "q"
        assert decoded == column

    def test_big_endian_encode_swaps_a_copy(self, monkeypatch):
        from repro.snapshot import format as fmt

        column = array("q", [1, 2, 3])
        monkeypatch.setattr(fmt, "_SWAP", True)
        packed = pack_value(column)
        assert column == array("q", [1, 2, 3])  # the caller's buffer
        swapped = array("q", [1, 2, 3])
        swapped.byteswap()
        assert packed == b"q" + struct.pack("<I", 3) + swapped.tobytes()
        assert unpack_value(packed) == column

    def test_unencodable_value_is_actionable(self):
        with pytest.raises(SnapshotError, match="cannot serialise"):
            pack_value({"fn": lambda: None})
        with pytest.raises(SnapshotError, match="cannot serialise"):
            pack_value(array("d", [1.0]))

    def test_snapshot_bytes_round_trip(self):
        snap = Snapshot({"repro_version": __version__, "k": 1}, {"body": [1, 2]})
        clone = Snapshot.from_bytes(snap.to_bytes())
        assert clone.meta == snap.meta
        assert clone.body == snap.body
        assert clone.state_hash == snap.state_hash

    def test_bad_magic_is_rejected(self):
        data = Snapshot({"repro_version": __version__}, {}).to_bytes()
        with pytest.raises(SnapshotError, match="bad magic"):
            Snapshot.from_bytes(b"XX" + data[2:])

    def test_unknown_schema_version_is_rejected(self):
        # Schema 3 carried three per-cycle statistics series where schema 4
        # carries counts, so a schema-3 checkpoint is refused, not misread.
        for version in (2, 3, 99):
            data = bytearray(
                Snapshot({"repro_version": __version__}, {}).to_bytes())
            data[6:8] = struct.pack(">H", version)
            with pytest.raises(SnapshotError,
                               match=f"unsupported snapshot schema v{version} "):
                Snapshot.from_bytes(bytes(data))

    def test_v1_file_is_refused(self):
        data = bytearray(Snapshot({"repro_version": __version__}, {}).to_bytes())
        data[6:8] = struct.pack(">H", 1)
        with pytest.raises(SnapshotError,
                           match="unsupported snapshot schema v1 "):
            Snapshot.from_bytes(bytes(data))

    def test_corrupted_body_is_rejected(self):
        data = bytearray(Snapshot({"v": 1}, {"series": list(range(64))}).to_bytes())
        data[-40] ^= 0xFF  # flip a bit inside the body/digest region
        with pytest.raises(SnapshotError, match="corrupt|digest"):
            Snapshot.from_bytes(bytes(data))

    def test_truncated_file_is_rejected(self):
        data = Snapshot({"v": 1}, {"series": list(range(64))}).to_bytes()
        with pytest.raises(SnapshotError, match="truncated|corrupt"):
            Snapshot.from_bytes(data[: len(data) // 2])

    def test_truncation_inside_header_is_rejected(self):
        # Magic survives but the schema/lengths do not: every prefix must
        # fail as a SnapshotError, never a raw struct.error.
        data = Snapshot({"v": 1}, {"x": 1}).to_bytes()
        for cut in (6, 7, 9, 12):
            with pytest.raises(SnapshotError, match="truncated|corrupt"):
                Snapshot.from_bytes(data[:cut])

    def test_stale_repro_version_is_refused(self):
        snap = Snapshot({"repro_version": "0.0.1", "format": "graph"}, {})
        with pytest.raises(SnapshotError) as exc:
            snap.require_version()
        assert "0.0.1" in str(exc.value) and __version__ in str(exc.value)

    def test_save_load_round_trip(self, tmp_path):
        snap = Snapshot({"repro_version": __version__}, {"x": 5})
        path = snap.save(tmp_path / "a.snap")
        loaded = Snapshot.load(path)
        assert loaded.body == {"x": 5}
        assert loaded.state_hash == snap.state_hash

    def test_load_missing_file_is_actionable(self, tmp_path):
        with pytest.raises(SnapshotError, match="cannot read"):
            Snapshot.load(tmp_path / "nope.snap")


#: Hostile tagged values: 200 000 nested one-element lists, and a dict
#: keyed by a list (decodable tags, but not a hashable key).
HOSTILE = {
    "deep": b"l\x01\x00\x00\x00" * 200_000 + b"N",
    "list-key": b"d\x01\x00\x00\x00" + b"l\x00\x00\x00\x00" + b"N",
}


def _container(meta: bytes, body: bytes) -> bytes:
    """Snapshot file bytes around raw meta/body sections, digest intact."""
    return b"".join([
        b"RPSNAP", struct.pack(">H", SCHEMA_VERSION),
        struct.pack("<I", len(meta)), meta,
        struct.pack("<Q", len(body)), body,
        hashlib.sha256(body).digest(),
    ])


def _hostile_file(section: str, payload: str) -> bytes:
    empty = pack_value({})
    if section == "meta":
        return _container(HOSTILE[payload], empty)
    return _container(empty, HOSTILE[payload])


@pytest.mark.parametrize("payload", sorted(HOSTILE))
@pytest.mark.parametrize("section", ["meta", "body"])
def test_hostile_payload_is_a_snapshot_error(section, payload):
    """The digest covers the body only and is not a MAC, so a crafted file
    reaches the value decoder in either section."""
    with pytest.raises(SnapshotError, match="corrupt"):
        Snapshot.from_bytes(_hostile_file(section, payload))


def test_snapshot_info_reports_hostile_file(tmp_path, capsys):
    from repro.cli import main

    path = tmp_path / "deep.snap"
    path.write_bytes(_hostile_file("body", "deep"))
    assert main(["snapshot", "info", str(path)]) == 2
    assert "nested too deeply" in capsys.readouterr().err


def test_snapshot_info_prints_section_bytes(tmp_path, capsys):
    from repro.cli import main

    snap = capture_simulator(Simulator(ChipConfig(width=4, height=4)))
    path = snap.save(tmp_path / "bare.snap")
    assert main(["snapshot", "info", str(path)]) == 0
    sizes = {name: len(pack_value(value)) for name, value in snap.body.items()}
    assert sizes["sim"] > sizes["io"] > 0
    assert (f"section bytes: io={sizes['io']}, sim={sizes['sim']}"
            in capsys.readouterr().out.splitlines())


# ----------------------------------------------------------------------
# Bare-simulator mid-flight capture (numpy-free)
# ----------------------------------------------------------------------
def _sim_with_recorder(config: ChipConfig):
    sim = Simulator(config)
    executed = []

    def executor(cell, msg):
        executed.append((sim.cycle, cell.cc_id, msg.action, msg.operands))
        # Operand-dependent cost exercises parking and the wake wheel.
        return (1 + msg.operands[0] % 7, [])

    sim.set_executor(executor)
    return sim, executed


def _inject_wave(sim: Simulator, count: int) -> None:
    n = sim.config.num_cells
    for i in range(count):
        sim.inject_message(
            Message(src=(i * 3) % n, dst=(i * 11 + 5) % n, action="noop",
                    operands=(i,)))


@pytest.mark.parametrize("fidelity", ["cycle", "latency", "cycle-ref"])
def test_mid_flight_simulator_round_trip(fidelity):
    """Capture with messages in flight; the restored schedule is identical."""
    config = ChipConfig(width=8, height=8, fidelity=fidelity)
    sim, executed = _sim_with_recorder(config)
    _inject_wave(sim, 40)
    sim.run(max_cycles=6)  # mid-flight: deliveries, parked cells, queues
    snap = capture_simulator(sim)
    prefix = len(executed)
    sim.run()  # finish the uninterrupted run
    tail = executed[prefix:]
    stats_full = sim.finalize().summary()

    restored = restore_simulator(config, snap)
    executed2 = []

    def executor(cell, msg):
        executed2.append((restored.cycle, cell.cc_id, msg.action, msg.operands))
        return (1 + msg.operands[0] % 7, [])

    restored.set_executor(executor)
    restored.run()
    assert executed2 == tail
    assert restored.finalize().summary() == stats_full


def test_bare_capture_refuses_resident_memory():
    config = ChipConfig(width=4, height=4)
    sim = Simulator(config)
    sim.set_executor(lambda cell, msg: (1, []))
    sim.cell(0).allocate(object())
    with pytest.raises(SnapshotError, match="resident object"):
        capture_simulator(sim)


def test_capture_refuses_task_closures_in_queues():
    from repro.arch.cell import Task

    config = ChipConfig(width=4, height=4)
    sim = Simulator(config)
    sim.set_executor(lambda cell, msg: (1, []))
    sim.enqueue_task(0, Task(lambda: (1, []), label="closure"))
    with pytest.raises(SnapshotError, match="Task"):
        capture_simulator(sim)


def test_capture_refuses_tracing():
    config = ChipConfig(width=4, height=4)
    sim = Simulator(config, trace_every=1)
    sim.set_executor(lambda cell, msg: (1, []))
    with pytest.raises(SnapshotError, match="tracing"):
        capture_simulator(sim)


def test_pending_ghost_future_refuses_capture():
    device = AMCCADevice(ChipConfig(width=4, height=4))
    graph = DynamicGraph(device, 4, seed=1)
    graph.root_block(2).ghosts[0].set_pending()
    with pytest.raises(SnapshotError, match="pending ghost allocation"):
        capture(graph)


def test_malformed_bare_simulator_body_names_the_section():
    config = ChipConfig(width=4, height=4)
    sim, _executed = _sim_with_recorder(config)
    _inject_wave(sim, 8)
    sim.run()
    snap = capture_simulator(sim)
    del snap.body["sim"]["cells"]["remaining"]
    with pytest.raises(SnapshotError, match="malformed 'sim' section"):
        restore_simulator(config, Snapshot.from_bytes(snap.to_bytes()))


# ----------------------------------------------------------------------
# Graph-level round trips (the subsystem's acceptance invariant)
# ----------------------------------------------------------------------
@requires_numpy
class TestEveryBoundary:
    def test_restore_at_every_boundary_matches_uninterrupted(self):
        scenario = tiny_scenario()
        serial = run_scenario(scenario)
        total = scenario.dataset.num_increments
        for boundary in range(1, total + 1):
            snap = snapshot_at(scenario, boundary)
            # Round-trip through bytes: what the spill dir / CLI would see.
            resumed = resume_scenario(
                scenario, Snapshot.from_bytes(snap.to_bytes()))
            assert json.dumps(resumed, sort_keys=True) == \
                json.dumps(serial, sort_keys=True), f"boundary {boundary}"

    def test_state_hash_equality_and_inequality(self):
        scenario = tiny_scenario()
        a = snapshot_at(scenario, 3)
        b = snapshot_at(scenario, 3)
        c = snapshot_at(scenario, 4)
        assert a.state_hash == b.state_hash
        assert a.state_hash != c.state_hash

    def test_resumed_end_state_hashes_equal_uninterrupted(self):
        scenario = tiny_scenario()
        snap = snapshot_at(scenario, 2)
        dataset, device, graph, algorithm = restore_scenario(scenario, snap)
        for i in range(graph.increments_streamed, len(dataset.increments)):
            graph.stream_increment(dataset.increments[i],
                                   phase=f"increment-{i + 1}")
        resumed_end = capture(graph)
        uninterrupted_end = snapshot_at(scenario,
                                        scenario.dataset.num_increments)
        assert resumed_end.state_hash == uninterrupted_end.state_hash


@pytest.mark.parametrize("routing", ["yx", "xy"])
def test_truncated_boundaries_round_trip_with_messages_in_flight(routing):
    """A cycle budget cuts every increment off with messages in flight; each
    boundary's checkpoint restores to its own state hash and resumes to the
    uninterrupted record."""
    scenario = Scenario(
        name=f"snap-truncated-{routing}",
        dataset=DatasetSpec(vertices=100, edges=800, num_increments=6,
                            generator="uniform", seed=3),
        # Room for every edge: no ghost allocation is pending at a cut.
        chip=ChipSpec(side=8, edge_list_capacity=64, routing=routing),
        algorithm="bfs",
        options=RunOptions(max_cycles_per_increment=20),
    )
    serial = json.dumps(run_scenario(scenario), sort_keys=True)
    for boundary in range(1, scenario.dataset.num_increments + 1):
        data = snapshot_at(scenario, boundary).to_bytes()
        snap = Snapshot.from_bytes(data)
        assert snap.body["sim"]["noc"]["active"], boundary
        _dataset, _device, graph, _algorithm = restore_scenario(scenario, snap)
        assert capture(graph).state_hash == snap.state_hash, boundary
        resumed = resume_scenario(scenario, Snapshot.from_bytes(data))
        assert json.dumps(resumed, sort_keys=True) == serial, boundary


@requires_numpy
class TestRestoreGuards:
    def test_wrong_scenario_is_refused(self):
        snap = snapshot_at(tiny_scenario(), 2)
        other = tiny_scenario(algorithm="ingest")
        with pytest.raises(SnapshotError, match="not from"):
            restore_scenario(other, snap)

    def test_chip_mismatch_is_refused(self):
        snap = snapshot_at(tiny_scenario(), 2)
        snap.meta.pop("spec_hash")  # defeat the early hash check so the
        snap.meta.pop("scenario")   # chip-level check is what fires
        other = tiny_scenario(chip=ChipSpec(side=16, edge_list_capacity=4))
        with pytest.raises(SnapshotError, match="chip spec mismatch"):
            restore_scenario(other, snap)

    def test_stale_version_is_refused_end_to_end(self):
        snap = snapshot_at(tiny_scenario(), 2)
        meta = dict(snap.meta)
        meta["repro_version"] = "0.0.1"
        meta.pop("spec_hash")  # hash embeds the version; isolate the check
        stale = Snapshot(meta, snap.body)
        with pytest.raises(SnapshotError, match="0.0.1"):
            restore_scenario(tiny_scenario(), stale)

    def test_restore_target_must_be_fresh(self):
        scenario = tiny_scenario()
        snap = snapshot_at(scenario, 2)
        dataset, device, graph, algorithm = restore_scenario(scenario, snap)
        graph.stream_increment(dataset.increments[2], phase="increment-3")
        from repro.snapshot import restore_into

        with pytest.raises(SnapshotError, match="freshly built"):
            restore_into(graph, snap)


# ----------------------------------------------------------------------
# snapshot_every: resumable long runs
# ----------------------------------------------------------------------
@requires_numpy
def test_snapshot_every_checkpoints_are_resumable(tmp_path):
    from dataclasses import replace

    scenario = tiny_scenario()
    checkpointed = scenario.with_(options=replace(
        scenario.options, snapshot_every=2, snapshot_dir=str(tmp_path)))
    # Identity-free: the spec hash must not move when checkpointing is on.
    assert checkpointed.spec_hash() == scenario.spec_hash()
    serial = run_scenario(checkpointed)
    files = sorted(p.name for p in tmp_path.iterdir())
    assert files == [f"snap-tiny-inc{i:04d}.snap" for i in (2, 4, 6)]
    resumed = resume_scenario(scenario, Snapshot.load(tmp_path / files[1]))
    assert json.dumps(resumed, sort_keys=True) == \
        json.dumps(serial, sort_keys=True)


@requires_numpy
@pytest.mark.parametrize("pooled", [False, True])
def test_snapshot_every_survives_increment_sharding(tmp_path, pooled):
    """The checkpoint cadence must not be lost when a job runs as serve's
    tasks, parked at every span's end in-process or as one task on a pool
    worker (the pickled scenario carries it): a boundary past a task's
    start is saved by the task that streams it."""
    from dataclasses import replace

    from repro.harness.pool import DispatchPool
    from repro.harness.runner import _job_task

    scenario = tiny_scenario()
    serial = run_scenario(scenario)
    spill = str(tmp_path / "spill")
    checkpointed = scenario.with_(options=replace(
        scenario.options, snapshot_every=2, snapshot_dir=str(tmp_path)))
    if pooled:
        pool = DispatchPool(1)
        try:
            result = pool.run(_job_task, (checkpointed, 0, 3, spill),
                              timeout=120)
        finally:
            pool.shutdown()
        assert result.ok, result.error
        _boundary, record, _handoff = result.value
    else:
        start, record = 0, None
        while record is None:  # park at every span's end, 3 and 6
            start, record, _handoff = _job_task(checkpointed, start, 3,
                                                spill, park=lambda: True)
    assert json.dumps(record, sort_keys=True) == \
        json.dumps(serial, sort_keys=True)
    names = {p.name for p in tmp_path.iterdir()}
    assert {f"snap-tiny-inc{i:04d}.snap" for i in (2, 4, 6)} <= names
    resumed = resume_scenario(
        scenario, Snapshot.load(tmp_path / "snap-tiny-inc0004.snap"))
    assert json.dumps(resumed, sort_keys=True) == \
        json.dumps(serial, sort_keys=True)


@requires_numpy
def test_snapshot_every_survives_pooled_suite(tmp_path):
    """A pooled suite carries the checkpoint cadence to its workers: the
    option is identity-free, so it rides inside the pickled scenario."""
    from dataclasses import replace

    from repro.harness import run_suite
    from repro.harness.pool import DispatchPool

    scenarios = [tiny_scenario(), tiny_scenario(name="snap-tiny-2")]
    serial = run_scenario(scenarios[0])
    checkpointed = [s.with_(options=replace(
        s.options, snapshot_every=2, snapshot_dir=str(tmp_path)))
        for s in scenarios]
    pool = DispatchPool(2)
    try:
        report = run_suite(checkpointed, jobs=2, pool=pool, timeout=120)
    finally:
        pool.shutdown()
    assert not report.failures
    assert json.dumps(report.records[0], sort_keys=True) == \
        json.dumps(serial, sort_keys=True)
    names = {p.name for p in tmp_path.iterdir()}
    assert {f"{s.name}-inc{i:04d}.snap"
            for s in scenarios for i in (2, 4, 6)} <= names
    resumed = resume_scenario(
        scenarios[0], Snapshot.load(tmp_path / "snap-tiny-inc0004.snap"))
    assert json.dumps(resumed, sort_keys=True) == \
        json.dumps(serial, sort_keys=True)


# ----------------------------------------------------------------------
# Malformed bodies: a body that decodes but has the wrong shape
# ----------------------------------------------------------------------
def _with_body(snap: Snapshot, mutate) -> Snapshot:
    """``snap`` with a mutated copy of its body, re-encoded (fresh digest)."""
    body = copy.deepcopy(snap.body)
    mutate(body)
    return Snapshot.from_bytes(Snapshot(snap.meta, body).to_bytes())


def _delete_cell_counter(body):
    del body["sim"]["cells"]["remaining"]


def _shorten_cell_column(body):
    body["sim"]["cells"]["tasks"].pop()


def _shorten_block_column(body):
    body["graph"]["roots"]["depth"].pop()


def _offsets_not_from_zero(body):
    body["graph"]["roots"]["edge_offsets"][0] = 1


def _offsets_decrease(body):
    offsets = body["graph"]["roots"]["edge_offsets"]
    offsets[1] = offsets[-1] + 1


def _offsets_past_flat_end(body):
    body["graph"]["roots"]["mirror_offsets"][-1] += 1


def _shorten_slot_column(body):
    body["graph"]["ghosts"]["ghost_cc"].pop()


def _ghosts_as_roots(body):
    body["graph"]["roots"] = body["graph"]["ghosts"]


def _drop_section(body):
    del body["io"]


def _parked_not_bytes(body):
    body["sim"]["parked"] = 12


MALFORMED = [
    (_delete_cell_counter, "malformed 'sim' section .*remaining"),
    (_shorten_cell_column, "cell column 'tasks' has"),
    (_shorten_block_column, "roots column 'depth' has"),
    (_offsets_not_from_zero, "roots column 'edge_offsets' does not start"),
    (_offsets_decrease, "roots column 'edge_offsets' does not start"),
    (_offsets_past_flat_end, "roots column 'mirror' has"),
    (_shorten_slot_column, "ghosts column 'ghost_cc' has"),
    (_ghosts_as_roots, r"\d+ root blocks for 60 vertices"),
    (_drop_section, "malformed 'io' section"),
    (_parked_not_bytes, "parked flags"),
]


@pytest.fixture(scope="module")
def ghost_checkpoint():
    """A mid-run checkpoint of a scenario whose small edge lists overflow
    into ghost blocks."""
    snap = snapshot_at(tiny_scenario(), 3)
    assert len(snap.body["graph"]["ghosts"]["vid"]) > 0
    return snap


@requires_numpy
@pytest.mark.parametrize("mutate,match", MALFORMED,
                         ids=[m.__name__.lstrip("_") for m, _ in MALFORMED])
def test_malformed_body_is_a_snapshot_error(ghost_checkpoint, mutate, match):
    corrupt = _with_body(ghost_checkpoint, mutate)
    with pytest.raises(SnapshotError, match=match):
        restore_scenario(tiny_scenario(), corrupt)


#: The per-slot columns restore builds ghost futures and ghost addresses
#: from; each must agree with its twin.
GHOST_COLUMNS = ("future_cc", "future_obj", "ghost_cc", "ghost_obj")


@requires_numpy
@pytest.mark.parametrize("table", ["roots", "ghosts"])
@pytest.mark.parametrize("column", GHOST_COLUMNS)
def test_ghost_columns_disagreeing_are_refused(ghost_checkpoint, table,
                                               column):
    """A fulfilled future must name its resolved ghost, and a null future
    must have none: mutating any one of the four columns is refused."""
    slots = ghost_checkpoint.body["graph"][table]
    fulfilled = [j for j, cc in enumerate(slots["future_cc"]) if cc >= 0]
    null = [j for j, cc in enumerate(slots["future_cc"]) if cc < 0]
    assert fulfilled and null

    def retarget(body):
        # Point a resolved slot somewhere else in this one column.
        body["graph"][table][column][fulfilled[0]] += 1

    def resolve_null(body):
        # Give a null slot a cell in this one column.
        body["graph"][table][column][null[0]] = 0

    for mutate in (retarget, resolve_null):
        corrupt = _with_body(ghost_checkpoint, mutate)
        with pytest.raises(SnapshotError,
                           match=f"{table} ghost futures disagree"):
            restore_scenario(tiny_scenario(), corrupt)


@requires_numpy
def test_ghost_bearing_checkpoint_restores(ghost_checkpoint):
    _dataset, device, graph, _algorithm = restore_scenario(
        tiny_scenario(), ghost_checkpoint)
    ghosts = [block for cell in device.simulator.cells
              for block in cell.memory.values() if not block.is_root]
    assert ghosts and graph.ghost_blocks_allocated == len(ghosts)


@requires_numpy
def test_snapshot_restore_cli_exits_2_on_malformed_body(tmp_path, capsys):
    from repro.cli import main
    from repro.harness import get_suite

    scenario = next(s for s in get_suite("tiny") if s.name == "tiny-bfs")
    path = tmp_path / "bad.snap"
    _with_body(snapshot_at(scenario, 2), _delete_cell_counter).save(path)
    code = main(["snapshot", "restore", str(path), "--preset", "tiny",
                 "--scenario", "tiny-bfs"])
    assert code == 2
    assert "malformed 'sim' section" in capsys.readouterr().err


@requires_numpy
def test_byte_mutations_load_and_restore_or_raise_snapshot_error(
        ghost_checkpoint):
    """Seeded sweep: overwrite 1-3 body bytes, recompute the digest (it is
    not a MAC), and every load + restore either succeeds or raises a
    SnapshotError."""
    data = ghost_checkpoint.to_bytes()
    start = 12 + struct.unpack_from("<I", data, 8)[0] + 8
    body = data[start:-32]
    rng = random.Random(0)
    outcomes = {"restored": 0, "refused": 0}
    for _ in range(150):
        mutated = bytearray(body)
        for _ in range(rng.randint(1, 3)):
            mutated[rng.randrange(len(mutated))] = rng.randrange(256)
        mutated = bytes(mutated)
        try:
            snap = Snapshot.from_bytes(
                data[:start] + mutated + hashlib.sha256(mutated).digest())
            restore_scenario(tiny_scenario(), snap)
            outcomes["restored"] += 1
        except SnapshotError:
            outcomes["refused"] += 1
    assert outcomes["restored"] and outcomes["refused"]


@requires_numpy
def test_snapshot_capture_span_covers_the_save(tmp_path, monkeypatch):
    """The trace span around a checkpoint times the capture, the encode
    and the save, not only the walk over the chip."""
    saves = []
    real_save = Snapshot.save

    def timed_save(self, path):
        started = time.perf_counter_ns()
        result = real_save(self, path)
        saves.append(time.perf_counter_ns() - started)
        return result

    monkeypatch.setattr(Snapshot, "save", timed_save)
    scenario = tiny_scenario()
    trace = tmp_path / "trace.json"
    run_scenario(scenario.with_(options=replace(
        scenario.options, snapshot_every=1,
        snapshot_dir=str(tmp_path / "snaps"), trace_path=str(trace))))
    spans = [event["dur"] for event in json.loads(trace.read_text())
             ["traceEvents"] if event["name"] == "snapshot_capture"]
    assert len(spans) == len(saves) == scenario.dataset.num_increments
    for span_us, save_ns in zip(spans, saves):
        assert span_us * 1000 >= save_ns
