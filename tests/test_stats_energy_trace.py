"""Tests for statistics collection, the energy model and the trace recorder."""

import json
import subprocess
import sys

import pytest

from hypothesis import given, strategies as st

from repro.arch.cell import Task
from repro.arch.config import ChipConfig
from repro.arch.energy import EnergyModel, estimate_energy
from repro.arch.message import Message
from repro.arch.simulator import Simulator
from repro.arch.stats import SimStats
from repro.arch.trace import TraceRecorder

from helpers import subprocess_env

#: Chip sides whose cell count is not a power of two: there ``c / n``
#: rounds, so a mean over per-cycle fractions depends on summation order.
NON_POW2_SIDES = (3, 5, 6, 7, 9, 10, 12)

#: Prints the record of each scenario spec in argv, with numpy blocked.
_NUMPY_BLOCKED_RECORDS = """
import json, sys
sys.modules["numpy"] = None
from repro.harness import Scenario, run_scenario
for spec in sys.argv[1:]:
    print(json.dumps(run_scenario(Scenario.from_dict(json.loads(spec))),
                     sort_keys=True))
"""


class TestSimStats:
    def test_record_cycle_appends_series(self):
        """Simulator.step counts every cycle once per quantity and, when a
        caller asks for it, appends the cycle's active cells to the series."""
        sim = Simulator(ChipConfig(width=2, height=2))
        sim.set_executor(lambda cell, msg: (1, []))
        msg = Message(src=0, dst=1, action="a")
        sim.enqueue_task(0, Task(lambda: (1, [msg])))
        sim.active_series = []
        sim.run()
        stats = sim.stats
        assert stats.cycles == sim.cycle > 2
        for counts in (stats.cycles_by_active_cells,
                       stats.cycles_by_in_flight,
                       stats.cycles_by_deliveries):
            assert sum(counts.values()) == stats.cycles
        # Cycle 0 runs the task, cycle 1 stages its message.
        assert sim.active_series[:2] == [1, 1]
        assert stats.cycles_by_active_cells == {
            k: sim.active_series.count(k) for k in set(sim.active_series)}
        assert stats.cycles_by_in_flight[1] >= 1
        assert stats.messages_delivered == stats.cycles_by_deliveries[1] == 1

    def test_mean_and_peak_activation(self):
        stats = SimStats(num_cells=4, cycles=3,
                         cycles_by_active_cells={0: 1, 2: 1, 4: 1})
        assert stats.mean_activation() == pytest.approx(0.5)
        assert stats.peak_activation() == pytest.approx(1.0)

    @pytest.mark.parametrize("side", [4, 8])
    @pytest.mark.parametrize("algorithm", ["ingest", "bfs"])
    def test_mean_activation_paths_agree_on_power_of_two_chips(
            self, side, algorithm):
        """On power-of-two chips every ``c / n`` is exact, so the integer
        division writes the same bits as a mean over per-cycle fractions
        summed in either order (numpy's pairwise mean or a plain sum).
        Every registered suite uses such chips, so their records keep the
        values they had when the mean was taken over fractions."""
        from repro._compat import HAVE_NUMPY
        from repro.harness import ChipSpec, DatasetSpec, Scenario, list_suites
        from repro.harness.runner import run_scenario_traced

        scenario = Scenario(
            name="pow2", algorithm=algorithm, chip=ChipSpec(side=side),
            dataset=DatasetSpec(vertices=200, edges=1200, sampling="edge",
                                seed=5, generator="uniform"))
        record, device = run_scenario_traced(scenario)
        series, cells = device.simulator.active_series, side * side
        mean = device.simulator.stats.mean_activation()
        assert record["stats"]["mean_activation"] == mean
        assert mean == sum(c / cells for c in series) / len(series)
        if HAVE_NUMPY:
            import numpy as np

            assert mean == float((np.asarray(series) / cells).mean())
        suite_sides = {s.chip.side for suite in list_suites()
                       for s in suite.build()}
        assert all(n & (n - 1) == 0 for n in suite_sides), suite_sides

    def test_mean_activation_is_one_integer_division(self):
        """On chips whose cell count is not a power of two, the record's
        mean is the traced series' integer sum divided once, and a run with
        numpy blocked writes the same record bytes."""
        from repro.harness import ChipSpec, DatasetSpec, Scenario
        from repro.harness.runner import run_scenario_traced

        scenarios = [
            Scenario(name=f"side-{side}", algorithm="bfs",
                     chip=ChipSpec(side=side),
                     dataset=DatasetSpec(vertices=200, edges=1600,
                                         sampling="edge", seed=5,
                                         generator="uniform"))
            for side in NON_POW2_SIDES]
        blocked = subprocess.run(
            [sys.executable, "-c", _NUMPY_BLOCKED_RECORDS,
             *(json.dumps(s.spec_dict()) for s in scenarios)],
            capture_output=True, text=True, check=True,
            env=subprocess_env(),
        ).stdout.splitlines()
        for scenario, blocked_record in zip(scenarios, blocked, strict=True):
            record, device = run_scenario_traced(scenario)
            series = device.simulator.active_series
            cells, cycles = scenario.chip.side ** 2, record["stats"]["cycles"]
            assert len(series) == cycles
            assert record["stats"]["mean_activation"] == (
                sum(series) / (cells * cycles)), scenario.name
            assert json.dumps(record, sort_keys=True) == blocked_record, \
                scenario.name

    def test_empty_series(self):
        stats = SimStats(num_cells=4)
        assert stats.mean_activation() == 0.0
        assert stats.peak_activation() == 0.0

    def test_merge_cell_counters(self):
        stats = SimStats(num_cells=4)
        stats.merge_cell_counters(10, 5, 3, 2, 40)
        stats.merge_cell_counters(1, 1, 1, 1, 1)
        assert stats.instructions == 11
        assert stats.messages_staged == 6
        assert stats.tasks_executed == 4
        assert stats.allocations == 3
        assert stats.memory_words_allocated == 41

    def test_summary_keys(self):
        stats = SimStats(num_cells=4)
        summary = stats.summary()
        assert {"cycles", "instructions", "hops", "mean_activation"} <= set(summary)


class TestEnergyModel:
    def test_energy_is_weighted_sum(self):
        cfg = ChipConfig(width=2, height=2)
        stats = SimStats(num_cells=4)
        stats.instructions = 100
        stats.messages_staged = 10
        stats.hops = 50
        stats.memory_words_allocated = 20
        stats.io_injections = 5
        model = EnergyModel(
            pj_per_instruction=1.0,
            pj_per_message_create=2.0,
            pj_per_hop=3.0,
            pj_per_word_allocated=4.0,
            pj_per_io_injection=5.0,
            pj_static_per_cell_cycle=0.0,
        )
        report = estimate_energy(stats, cfg, model)
        expected_pj = 100 * 1 + 10 * 2 + 50 * 3 + 20 * 4 + 5 * 5
        assert report.dynamic_uj == pytest.approx(expected_pj * 1e-6)
        assert report.static_uj == 0.0

    def test_static_energy_scales_with_cycles_and_cells(self):
        cfg = ChipConfig(width=4, height=4)
        stats = SimStats(num_cells=16)
        stats.cycles = 1000
        model = EnergyModel(pj_static_per_cell_cycle=1.0)
        report = estimate_energy(stats, cfg, model)
        assert report.static_uj == pytest.approx(1000 * 16 * 1e-6)

    def test_time_reflects_clock(self):
        cfg = ChipConfig(width=2, height=2, clock_ghz=1.0)
        stats = SimStats(num_cells=4)
        stats.cycles = 5000
        report = estimate_energy(stats, cfg)
        assert report.time_us == pytest.approx(5.0)

    def test_default_model_used_when_none(self):
        cfg = ChipConfig(width=2, height=2)
        stats = SimStats(num_cells=4)
        stats.instructions = 1
        report = estimate_energy(stats, cfg)
        assert report.total_uj > 0

    def test_report_as_dict(self):
        cfg = ChipConfig(width=2, height=2)
        report = estimate_energy(SimStats(num_cells=4), cfg)
        d = report.as_dict()
        assert {"dynamic_uj", "static_uj", "total_uj", "time_us"} <= set(d)

    def test_describe_lists_all_constants(self):
        assert len(EnergyModel().describe()) == 6

    @given(
        instructions=st.integers(min_value=0, max_value=10**6),
        hops=st.integers(min_value=0, max_value=10**6),
        extra=st.integers(min_value=1, max_value=10**5),
    )
    def test_property_energy_monotone_in_work(self, instructions, hops, extra):
        """More counted work never decreases the energy estimate."""
        cfg = ChipConfig(width=2, height=2)
        base = SimStats(num_cells=4)
        base.instructions, base.hops = instructions, hops
        more = SimStats(num_cells=4)
        more.instructions, more.hops = instructions + extra, hops + extra
        assert (
            estimate_energy(more, cfg).total_uj
            >= estimate_energy(base, cfg).total_uj
        )


class TestTraceRecorder:
    def test_disabled_by_default(self):
        trace = TraceRecorder(ChipConfig(width=4, height=4))
        trace.maybe_record(0, [1, 2])
        assert trace.frames == []

    def test_records_on_sampling_grid(self):
        trace = TraceRecorder(ChipConfig(width=4, height=4), sample_every=2)
        trace.maybe_record(0, [0])
        trace.maybe_record(1, [1])
        trace.maybe_record(2, [2])
        assert len(trace.frames) == 2
        assert trace.frame_cycles == [0, 2]

    def test_frame_marks_active_cells(self):
        cfg = ChipConfig(width=4, height=4)
        trace = TraceRecorder(cfg, sample_every=1)
        trace.maybe_record(0, [cfg.cc_at(1, 2)])
        assert trace.frame_at(0, 1, 2) == 1
        assert sum(trace.frames[0]) == 1

    def test_frames_are_stdlib_bytearrays(self):
        # Capture must not require numpy (only .npz export does).
        cfg = ChipConfig(width=3, height=2)
        trace = TraceRecorder(cfg, sample_every=1)
        trace.maybe_record(0, [cfg.cc_at(2, 1)])
        frame = trace.frames[0]
        assert isinstance(frame, bytearray)
        assert len(frame) == 6
        rows = trace.frame_rows(0)
        assert [bytes(r) for r in rows] == [b"\x00\x00\x00", b"\x00\x00\x01"]

    def test_ascii_frame(self):
        cfg = ChipConfig(width=3, height=2)
        trace = TraceRecorder(cfg, sample_every=1)
        trace.maybe_record(0, [cfg.cc_at(0, 0)])
        art = trace.ascii_frame(0)
        assert art.splitlines()[0][0] == "#"

    def test_ascii_animation_empty(self):
        trace = TraceRecorder(ChipConfig(width=2, height=2), sample_every=1)
        assert "no frames" in trace.ascii_animation()

    def test_npz_roundtrip(self, tmp_path):
        pytest.importorskip("numpy")  # .npz export is numpy-backed
        cfg = ChipConfig(width=3, height=3)
        trace = TraceRecorder(cfg, sample_every=1)
        trace.maybe_record(0, [0, 4])
        path = tmp_path / "trace.npz"
        trace.save_npz(path)
        frames, cycles = TraceRecorder.load_npz(path)
        assert frames.shape == (1, 3, 3)
        assert list(cycles) == [0]
