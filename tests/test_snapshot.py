"""repro.snapshot: deterministic checkpoint/restore of mid-stream chip state.

Pins the subsystem's hard invariant — a simulator restored from a snapshot
produces a bit-identical schedule (and identical records, stats and
stores) to the uninterrupted run from that point — at every increment
boundary of a test scenario, on both NoC kernels, plus the wire format's
round-trip/corruption/versioning behaviour and the capture guard rails.
"""

from __future__ import annotations

import hashlib
import json
import struct

import pytest

from helpers import requires_numpy

from repro import __version__
from repro.arch.config import ChipConfig
from repro.arch.message import Message
from repro.arch.simulator import Simulator
from repro.graph.rpvo import Edge, EdgeSlot, VertexBlock
from repro.arch.address import Address
from repro.harness.runner import (
    restore_scenario,
    resume_scenario,
    run_scenario,
    snapshot_at,
)
from repro.harness.scenario import ChipSpec, DatasetSpec, Scenario
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

    def test_unencodable_value_is_actionable(self):
        with pytest.raises(SnapshotError, match="cannot serialise"):
            pack_value({"fn": lambda: None})

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
        data = bytearray(Snapshot({"repro_version": __version__}, {}).to_bytes())
        data[6:8] = struct.pack(">H", 99)
        with pytest.raises(SnapshotError, match="schema v99"):
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
    config = ChipConfig(width=8, height=8, fidelity=fidelity, kernel="python")
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
    config = ChipConfig(width=4, height=4, kernel="python")
    sim = Simulator(config)
    sim.set_executor(lambda cell, msg: (1, []))
    sim.cell(0).allocate(object())
    with pytest.raises(SnapshotError, match="resident object"):
        capture_simulator(sim)


def test_capture_refuses_task_closures_in_queues():
    from repro.arch.cell import Task

    config = ChipConfig(width=4, height=4, kernel="python")
    sim = Simulator(config)
    sim.set_executor(lambda cell, msg: (1, []))
    sim.enqueue_task(0, Task(lambda: (1, []), label="closure"))
    with pytest.raises(SnapshotError, match="Task"):
        capture_simulator(sim)


def test_capture_refuses_tracing():
    config = ChipConfig(width=4, height=4, kernel="python")
    sim = Simulator(config, trace_every=1)
    sim.set_executor(lambda cell, msg: (1, []))
    with pytest.raises(SnapshotError, match="tracing"):
        capture_simulator(sim)


def test_pending_ghost_future_refuses_capture():
    block = VertexBlock(vid=0, capacity=2, ghost_slots=1)
    block.ghosts[0].set_pending()
    with pytest.raises(SnapshotError, match="pending ghost allocation"):
        block.to_state()


# ----------------------------------------------------------------------
# Graph-level round trips (the subsystem's acceptance invariant)
# ----------------------------------------------------------------------
kernels = ["python"]


@requires_numpy
class TestEveryBoundary:
    @pytest.mark.parametrize("kernel", kernels)
    def test_restore_at_every_boundary_matches_uninterrupted(self, kernel):
        scenario = tiny_scenario()
        serial = run_scenario(scenario, kernel=kernel)
        total = scenario.dataset.num_increments
        for boundary in range(1, total + 1):
            snap = snapshot_at(scenario, boundary, kernel=kernel)
            # Round-trip through bytes: what the spill dir / CLI would see.
            resumed = resume_scenario(
                scenario, Snapshot.from_bytes(snap.to_bytes()), kernel=kernel)
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
    """The checkpoint cadence must not be lost when a run is cut into
    spans, in-process or on a pool worker (the pickled scenario carries
    it): a boundary past a span's start is saved by the span it ends."""
    from dataclasses import replace

    from repro.harness.pool import DispatchPool
    from repro.harness.runner import _pipeline_span_task, plan_spans

    scenario = tiny_scenario()
    serial = run_scenario(scenario)
    spill = tmp_path / "spill"
    spill.mkdir()
    checkpointed = scenario.with_(options=replace(
        scenario.options, snapshot_every=2, snapshot_dir=str(tmp_path)))
    pool = DispatchPool(1) if pooled else None
    try:
        for _start, stop, snap_in, snap_out in plan_spans(checkpointed, 3,
                                                          str(spill)):
            args = (checkpointed, stop, snap_in, snap_out)
            if pool is None:
                _cycles, record, _handoff = _pipeline_span_task(*args)
            else:
                result = pool.run(_pipeline_span_task, args, timeout=120)
                assert result.ok, result.error
                _cycles, record, _handoff = result.value
    finally:
        if pool is not None:
            pool.shutdown()
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
