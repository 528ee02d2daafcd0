"""Tests for the native (C) sweep kernel tier.

Two halves, mirroring the extension's optional-by-design split:

* Fallback behaviour runs everywhere, numpy-free and compiler-free: an
  explicit ``kernel="native"`` pin (config or ``REPRO_KERNEL``) on an
  install without the compiled extension must warn and degrade to the
  pure-Python kernel — never raise — and ``build_noc`` must hand back the
  plain :class:`CycleAccurateNoC`.

* Equivalence runs only where the extension is built (skip-not-fail): the
  native NoC's drain schedules, stats, harness records and snapshot
  exports must be byte-identical to the python kernel's, because the
  deterministic-schedule contract is what makes the kernel a pure speed
  knob.
"""

import json
import random
from collections import deque

import pytest

from repro.arch import kernels
from repro.arch._native import HAVE_NATIVE
from repro.arch.config import ChipConfig
from repro.arch.kernels import resolve_kernel
from repro.arch.message import Message
from repro.arch.noc import CycleAccurateNoC, build_noc
from repro.arch.routing import make_routing
from repro.arch.stats import SimStats
from repro.harness.runner import run_scenario
from repro.harness.scenario import ChipSpec, DatasetSpec, Scenario

from test_noc_equivalence import drain_schedule

requires_native = pytest.mark.skipif(
    not HAVE_NATIVE, reason="native sweep extension not built")


def make_native_noc(width=8, height=8, routing="yx"):
    cfg = ChipConfig(width=width, height=height, routing=routing,
                     kernel="native")
    stats = SimStats(num_cells=cfg.num_cells)
    return kernels.NativeCycleAccurateNoC(cfg, make_routing(cfg), stats)


def small_scenario(**overrides):
    """A numpy-free scenario exercising bursts, parking and local traffic."""
    spec = dict(
        name="native-equiv",
        dataset=DatasetSpec(vertices=96, edges=700, num_increments=3,
                            generator="uniform", seed=11),
        chip=ChipSpec(side=8, edge_list_capacity=8),
        algorithm="bfs",
    )
    spec.update(overrides)
    return Scenario(**spec)


class TestNativeFallback:
    """Explicit native pins degrade gracefully when the extension is absent."""

    def test_explicit_native_without_extension_warns(self, monkeypatch):
        monkeypatch.setattr(kernels, "HAVE_NATIVE", False)
        with pytest.warns(RuntimeWarning, match="native.*not built"):
            assert resolve_kernel(
                ChipConfig(width=4, height=4, kernel="native")) == "python"

    def test_env_native_without_extension_warns(self, monkeypatch):
        monkeypatch.setenv(kernels.KERNEL_ENV, "native")
        monkeypatch.setattr(kernels, "HAVE_NATIVE", False)
        with pytest.warns(RuntimeWarning, match="falling back"):
            assert resolve_kernel(ChipConfig(width=4, height=4)) == "python"

    def test_build_noc_native_pin_falls_back_to_python_noc(self, monkeypatch):
        monkeypatch.setattr(kernels, "HAVE_NATIVE", False)
        cfg = ChipConfig(width=4, height=4, kernel="native")
        stats = SimStats(num_cells=cfg.num_cells)
        with pytest.warns(RuntimeWarning):
            noc = build_noc(cfg, stats)
        assert type(noc) is CycleAccurateNoC

    def test_auto_without_native_or_numpy_is_python(self, monkeypatch):
        monkeypatch.delenv(kernels.KERNEL_ENV, raising=False)
        monkeypatch.setattr(kernels, "HAVE_NATIVE", False)
        assert resolve_kernel(ChipConfig(width=4, height=4)) == "python"

    def test_native_pin_never_part_of_identity(self):
        base = Scenario(name="k", chip=ChipSpec(side=8))
        pinned = Scenario(name="k", chip=ChipSpec(side=8, kernel="native"))
        assert pinned.spec_hash() == base.spec_hash()
        assert "kernel" not in pinned.spec_dict()["chip"]


@requires_native
class TestNativeBuildSelection:
    def test_build_noc_selects_native(self):
        cfg = ChipConfig(width=4, height=4, kernel="native")
        stats = SimStats(num_cells=cfg.num_cells)
        noc = build_noc(cfg, stats)
        assert isinstance(noc, kernels.NativeCycleAccurateNoC)
        assert isinstance(noc, CycleAccurateNoC)
        assert noc.native_sweep

    def test_native_noc_holds_no_per_link_deques(self):
        """The python sweep's per-link FIFOs and stamps are not built: the
        native sweep queues on its flat slot lists."""
        cfg = ChipConfig(width=8, height=8, kernel="native")
        noc = build_noc(cfg, SimStats(num_cells=cfg.num_cells))
        assert not hasattr(noc, "_queues") and not hasattr(noc, "_stamp")
        assert not any(isinstance(value, deque)
                       for value in vars(noc).values())
        assert len(noc._vq_head) == noc.link_table.num_links

    def test_auto_prefers_native(self, monkeypatch):
        monkeypatch.delenv(kernels.KERNEL_ENV, raising=False)
        assert resolve_kernel(ChipConfig(width=4, height=4)) == "native"


@requires_native
class TestNativeSchedules:
    """The C sweep's schedules are bit-identical to the python sweep."""

    @pytest.mark.parametrize("routing", ["yx", "xy"])
    def test_random_storm_matches_python_kernel(self, routing):
        cfg = ChipConfig(width=8, height=8, routing=routing)
        stats = SimStats(num_cells=cfg.num_cells)
        py = CycleAccurateNoC(cfg, make_routing(cfg), stats)
        nk = make_native_noc(routing=routing)
        rng = random.Random(99)
        sched = sorted(
            (rng.randrange(25), rng.randrange(64), rng.randrange(64),
             rng.choice((2, 2, 8, 12)))
            for _ in range(400)
        )
        a = drain_schedule(py, sched)
        b = drain_schedule(nk, sched)
        assert a == b
        for field in ("hops", "link_busy", "messages_injected"):
            assert getattr(py.stats, field) == getattr(nk.stats, field), field

    def test_export_state_matches_python_mid_flight(self):
        cfg = ChipConfig(width=8, height=8)
        stats = SimStats(num_cells=cfg.num_cells)
        py = CycleAccurateNoC(cfg, make_routing(cfg), stats)
        nk = make_native_noc()
        rng = random.Random(17)
        sched = sorted(
            (rng.randrange(6), rng.randrange(64), rng.randrange(64), 2)
            for _ in range(120)
        )
        # Inject everything, advance a few cycles, then compare snapshots
        # while messages are genuinely in flight.
        for noc in (py, nk):
            pending = list(sched)
            for cycle in range(10):
                while pending and pending[0][0] == cycle:
                    _, src, dst, size = pending.pop(0)
                    noc.inject(
                        Message(src=src, dst=dst, action="a",
                                size_words=size), cycle)
                noc.advance(cycle)
        assert nk.in_flight == py.in_flight
        assert nk.in_flight > 0

        def canon(state):
            return json.dumps(state, sort_keys=True, default=repr)

        assert canon(nk.export_state()) == canon(py.export_state())

    def test_import_export_round_trip(self):
        nk = make_native_noc()
        rng = random.Random(23)
        for cycle in range(8):
            for _ in range(12):
                nk.inject(Message(src=rng.randrange(64),
                                  dst=rng.randrange(64), action="a"), cycle)
            nk.advance(cycle)
        exported = nk.export_state()
        fresh = make_native_noc()
        fresh.in_flight = nk.in_flight
        fresh._sweep = nk._sweep
        fresh.import_state(exported)
        assert fresh.export_state() == exported


@requires_native
class TestNativeRecords:
    """End-to-end: harness records are identical python vs native."""

    def test_records_identical(self):
        rp = run_scenario(small_scenario(), kernel="python")
        rn = run_scenario(small_scenario(), kernel="native")
        assert rp == rn

    def test_records_identical_under_truncation(self):
        from repro.harness.scenario import RunOptions

        scen = small_scenario(
            algorithm="ingest",
            options=RunOptions(max_cycles_per_increment=64))
        assert (run_scenario(scen, kernel="python")
                == run_scenario(scen, kernel="native"))

    def test_snapshot_roundtrip_state_hash(self, tmp_path):
        """Capture under native, restore under python (and back): the
        state_hash is kernel-independent."""
        from dataclasses import replace

        from repro.snapshot import Snapshot, capture
        from repro.harness.runner import restore_scenario

        scen = small_scenario()
        snapdir = tmp_path / "snaps"
        snapdir.mkdir()
        snapshotted = scen.with_(options=replace(
            scen.options, snapshot_every=1, snapshot_dir=str(snapdir)))
        record = run_scenario(snapshotted, kernel="native")
        assert record == run_scenario(scen, kernel="python")
        boundaries = sorted(snapdir.iterdir())
        assert boundaries
        snap = Snapshot.load(str(boundaries[0]))
        for restore_kernel in ("python", "native"):
            _ds, _dev, graph, _algo = restore_scenario(
                scen, snap, kernel=restore_kernel)
            assert capture(graph).state_hash == snap.state_hash
