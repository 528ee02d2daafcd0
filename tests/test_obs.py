"""Tests for the observability layer (repro.obs): tracing, metrics, profiling.

The load-bearing property throughout is the **observer-only contract**:
attaching a tracer or metrics registry must never change what a run
computes — records are byte-identical with and without instrumentation, on
every kernel — and the disabled path must be free of side effects.
"""

from __future__ import annotations

import json

import pytest

from repro.arch.stats import SimStats
from repro.harness import (
    ChipSpec,
    DatasetSpec,
    ResultStore,
    Scenario,
    run_scenario,
    run_suite,
)
from repro.harness.runner import run_scenario_traced
from repro.harness.scenario import RunOptions
from repro.obs import (
    MetricsRegistry,
    POW2_BUCKETS,
    Tracer,
    collapse_stats,
    derive_trace_path,
    profile_to_collapsed,
    record_metrics,
    validate_trace,
    validate_trace_file,
)

from helpers import requires_numpy


def tiny_scenario(name="t", algorithm="ingest", **options) -> Scenario:
    return Scenario(
        name=name,
        dataset=DatasetSpec(vertices=64, edges=256, sampling="edge", seed=3),
        chip=ChipSpec(side=4),
        algorithm=algorithm,
        options=RunOptions(**options),
    )


# ----------------------------------------------------------------------
# Tracer (stdlib-only: no scenario runs, no numpy)
# ----------------------------------------------------------------------
class TestTracer:
    def test_events_validate(self, tmp_path):
        tracer = Tracer(process_name="test")
        tracer.thread_name(7, "worker-7")
        tracer.instant("jump", cat="sim", from_cycle=3, to_cycle=9)
        tracer.counter("phase_us", {"noc": 1.5, "cells": 2.0})
        start = tracer.now_ns()
        tracer.complete("span", "sim", start_ns=start, dur_ns=1000, k=1)
        with tracer.span("body", "harness"):
            pass
        assert validate_trace(tracer.to_dict()) == []
        path = tracer.save(tmp_path / "t.json")
        assert validate_trace_file(path) == []
        data = json.loads(path.read_text())
        phases = [e["ph"] for e in data["traceEvents"]]
        assert phases == ["M", "M", "i", "C", "X", "X"]

    def test_event_cap_drops_not_grows(self):
        tracer = Tracer(process_name="", max_events=3)
        for i in range(10):
            tracer.instant(f"e{i}")
        assert len(tracer.events) == 3
        assert tracer.dropped_events == 7
        assert tracer.to_dict()["otherData"]["dropped_events"] == 7
        assert validate_trace(tracer.to_dict()) == []

    def test_validate_rejects_malformed(self):
        assert validate_trace([]) != []
        assert validate_trace({"traceEvents": 3}) != []
        bad = {"traceEvents": [{"ph": "Z", "name": "x", "pid": 1, "tid": 0}]}
        assert any("unknown ph" in e for e in validate_trace(bad))
        no_dur = {"traceEvents": [
            {"ph": "X", "name": "x", "pid": 1, "tid": 0, "ts": 0.0}]}
        assert any("dur" in e for e in validate_trace(no_dur))

    def test_derive_trace_path(self):
        assert derive_trace_path("out.json", "s1") == "out-s1.json"
        assert derive_trace_path("a/b/out.json", "s1") == "a/b/out-s1.json"
        assert derive_trace_path("out", "s1") == "out-s1.json"


# ----------------------------------------------------------------------
# Metrics registry (stdlib-only)
# ----------------------------------------------------------------------
class TestMetricsRegistry:
    def test_counter_gauge_histogram(self):
        reg = MetricsRegistry()
        c = reg.counter("jobs_total", "jobs", ("status",))
        c.inc(status="ok")
        c.inc(2, status="error")
        g = reg.gauge("depth", "queue depth")
        g.set(4)
        g.add(-1)
        h = reg.histogram("lat", "latency", buckets=(1, 2, 4))
        for value in (0.5, 1.5, 3, 100):
            h.observe(value)
        snap = reg.snapshot()
        assert snap["jobs_total"]["series"] == [
            {"labels": {"status": "error"}, "value": 2},
            {"labels": {"status": "ok"}, "value": 1},
        ]
        assert snap["depth"]["series"][0]["value"] == 3
        cell = snap["lat"]["series"][0]["value"]
        assert cell["buckets"] == [1, 2, 3]  # cumulative, +Inf implied
        assert cell["count"] == 4

    def test_redeclare_same_shape_returns_existing(self):
        reg = MetricsRegistry()
        a = reg.counter("x_total", "x")
        assert reg.counter("x_total") is a
        with pytest.raises(ValueError, match="re-declared"):
            reg.gauge("x_total")
        with pytest.raises(ValueError, match="re-declared"):
            reg.counter("x_total", labels=("k",))

    def test_label_mismatch_raises(self):
        reg = MetricsRegistry()
        c = reg.counter("x_total", labels=("a",))
        with pytest.raises(ValueError, match="labels"):
            c.inc(b="1")

    def test_snapshot_roundtrip(self):
        reg = MetricsRegistry()
        reg.counter("c_total", "help me").inc(5)
        reg.gauge("g", labels=("k",)).set(2.5, k="v")
        reg.histogram("h", buckets=POW2_BUCKETS).observe(3)
        rebuilt = MetricsRegistry()
        rebuilt.merge_snapshot(reg.snapshot())
        assert rebuilt.snapshot() == reg.snapshot()

    def test_prometheus_roundtrip(self):
        reg = MetricsRegistry()
        c = reg.counter("c_total", "a counter", ("k",))
        c.inc(3, k="v1")
        c.inc(7, k="v2")
        reg.gauge("g", "a gauge").set(12)
        h = reg.histogram("h", "a histogram", ("s",), buckets=(1, 2, 4))
        h.observe(0.5, s="x")
        h.observe(3, s="x")
        expected = (
            "# HELP c_total a counter\n"
            "# TYPE c_total counter\n"
            'c_total{k="v1"} 3\n'
            'c_total{k="v2"} 7\n'
            "# HELP g a gauge\n"
            "# TYPE g gauge\n"
            "g 12\n"
            "# HELP h a histogram\n"
            "# TYPE h histogram\n"
            'h_bucket{le="1",s="x"} 1\n'
            'h_bucket{le="2",s="x"} 1\n'
            'h_bucket{le="4",s="x"} 2\n'
            'h_bucket{le="+Inf",s="x"} 2\n'
            'h_sum{s="x"} 3.5\n'
            'h_count{s="x"} 2\n'
        )
        assert reg.to_prometheus() == expected
        # The snapshot carries everything the exposition shows.
        rebuilt = MetricsRegistry()
        rebuilt.merge_snapshot(reg.snapshot())
        assert rebuilt.to_prometheus() == expected

    def test_merge_snapshot_widens_labels(self):
        per_record = MetricsRegistry()
        per_record.counter("sim_cycles_total").inc(100)
        per_record.histogram("d", buckets=(1, 2)).observe(1)
        agg = MetricsRegistry()
        agg.merge_snapshot(per_record.snapshot(), {"scenario": "a"})
        agg.merge_snapshot(per_record.snapshot(), {"scenario": "b"})
        snap = agg.snapshot()
        assert snap["sim_cycles_total"]["series"] == [
            {"labels": {"scenario": "a"}, "value": 100},
            {"labels": {"scenario": "b"}, "value": 100},
        ]
        assert snap["d"]["labels"] == ["scenario"]

    def test_merge_snapshot_accumulates_counters(self):
        src = MetricsRegistry()
        src.counter("n_total").inc(2)
        agg = MetricsRegistry()
        agg.merge_snapshot(src.snapshot())
        agg.merge_snapshot(src.snapshot())
        assert agg.snapshot()["n_total"]["series"][0]["value"] == 4


# ----------------------------------------------------------------------
# Profiling (stdlib-only)
# ----------------------------------------------------------------------
class TestProfiling:
    def test_profile_to_collapsed_writes_stacks(self, tmp_path):
        out = tmp_path / "prof.folded"

        def burn():
            return sum(i * i for i in range(20000))

        with profile_to_collapsed(out):
            burn()
        lines = out.read_text().strip().splitlines()
        assert lines, "collapsed output must not be empty"
        for line in lines:
            stack, _, weight = line.rpartition(" ")
            assert stack and ";" not in weight
            assert int(weight) >= 0
        assert (tmp_path / "prof.folded.pstats").exists()

    def test_collapse_stats_handles_empty(self):
        import cProfile
        import pstats

        prof = cProfile.Profile()
        prof.enable()
        prof.disable()
        folded = collapse_stats(pstats.Stats(prof))
        assert isinstance(folded, dict)


# ----------------------------------------------------------------------
# Record metrics + the observer-only contract (needs numpy for datasets)
# ----------------------------------------------------------------------
class TestRecordMetrics:
    @requires_numpy
    def test_records_embed_deterministic_metrics(self):
        record = run_scenario(tiny_scenario("m", "bfs"))
        metrics = record["metrics"]
        cycles = metrics["sim_cycles_total"]["series"][0]["value"]
        assert cycles == record["total_cycles"]
        hist = metrics["sim_active_cells_per_cycle"]
        assert hist["type"] == "histogram"
        assert hist["buckets"] == list(POW2_BUCKETS)
        assert hist["series"][0]["value"]["count"] == record["total_cycles"]
        # The whole snapshot must be JSON-round-trippable (it is stored).
        assert json.loads(json.dumps(metrics)) == metrics

    @pytest.mark.parametrize("values", [
        [], [0, 0, 1, 2, 3, 4096, 4097, 10**6], [5, 1, 5, 0, 300, 5]])
    def test_histograms_count_every_value_once(self, values):
        """The one-pass histograms equal observing value by value, for an
        empty series and for values past the last bound (+Inf only)."""
        stats = SimStats(num_cells=16, cycles=len(values),
                         active_cells_per_cycle=list(values),
                         messages_in_flight_per_cycle=values[::-1],
                         deliveries_per_cycle=[v // 2 for v in values])
        metrics = record_metrics(stats)
        for name, series in (
                ("sim_active_cells_per_cycle", stats.active_cells_per_cycle),
                ("sim_messages_in_flight_per_cycle",
                 stats.messages_in_flight_per_cycle),
                ("sim_deliveries_per_cycle", stats.deliveries_per_cycle)):
            reference = MetricsRegistry()
            histogram = reference.histogram(name, "", buckets=POW2_BUCKETS)
            histogram._cell(())
            for value in series:
                histogram.observe(value)
            assert metrics[name]["series"] == \
                reference.snapshot()[name]["series"], name

    @requires_numpy
    def test_metrics_identical_across_kernels(self):
        # "auto" runs the native kernel wherever the extension is built.
        scenario = tiny_scenario("k", "bfs")
        py = run_scenario(scenario, kernel="python")
        auto = run_scenario(scenario, kernel="auto")
        assert py["metrics"] == auto["metrics"]
        assert py == auto


class TestObserverOnly:
    @requires_numpy
    @pytest.mark.parametrize("kernel", ["python"])
    def test_traced_record_byte_identical(self, tmp_path, kernel):
        scenario = tiny_scenario("obs", "bfs")
        plain = run_scenario(scenario, kernel=kernel)
        trace_path = tmp_path / f"trace-{kernel}.json"
        traced_scenario = tiny_scenario("obs", "bfs",
                                        trace_path=str(trace_path))
        traced = run_scenario(traced_scenario, kernel=kernel)
        assert (json.dumps(traced, sort_keys=True)
                == json.dumps(plain, sort_keys=True))
        assert validate_trace_file(trace_path) == []

    @requires_numpy
    def test_run_spans_carry_executor_time(self, tmp_path):
        trace_path = tmp_path / "trace.json"
        run_scenario(tiny_scenario("obs", "bfs", trace_path=str(trace_path)))
        events = json.loads(trace_path.read_text())["traceEvents"]
        spans = [e for e in events if e["ph"] == "X" and e["cat"] == "sim"]
        assert spans
        for span in spans:
            assert 0 <= span["args"]["executor_us"] <= span["args"]["cells_us"]
        # The stacked counter keeps the five disjoint phases only.
        counters = [e for e in events if e["name"] == "sim_phase_us"]
        assert counters and all(
            set(e["args"]) == {"io", "noc", "dispatch", "cells", "account"}
            for e in counters)

    @requires_numpy
    def test_per_action_times_split_the_executor_line(self, tmp_path):
        """Per-action executor time sums to the executor line, rides on the
        run spans and gets its own stacked counter; the record is
        byte-identical to an untimed run's."""
        scenario = tiny_scenario("obs", "bfs")
        plain = run_scenario(scenario)
        trace_path = tmp_path / "trace.json"
        traced, device = run_scenario_traced(scenario,
                                             trace_path=str(trace_path))
        assert (json.dumps(traced, sort_keys=True)
                == json.dumps(plain, sort_keys=True))
        sim = device.simulator
        assert {"insert-edge-action", "bfs-action"} <= set(sim.action_ns)
        assert sum(sim.action_ns.values()) == sim.phase_ns["executor"]
        events = json.loads(trace_path.read_text())["traceEvents"]
        spans = [e for e in events if e["ph"] == "X" and e["cat"] == "sim"]
        assert spans
        for span in spans:
            # Each value is rounded to 0.1 us on its own.
            per_action = span["args"]["action_us"]
            assert sum(per_action.values()) == pytest.approx(
                span["args"]["executor_us"], abs=0.1 * (len(per_action) + 1))
        counters = [e for e in events if e["name"] == "sim_action_us"]
        assert len(counters) == len(spans)
        assert any("insert-edge-action" in e["args"] for e in counters)

    @requires_numpy
    def test_trace_path_is_identity_free(self, tmp_path):
        plain = tiny_scenario("obs", "bfs")
        traced = tiny_scenario("obs", "bfs",
                               trace_path=str(tmp_path / "t.json"))
        assert traced.spec_hash() == plain.spec_hash()
        assert traced.graph_seed() == plain.graph_seed()

    @requires_numpy
    def test_traced_store_byte_identical(self, tmp_path):
        suite = [tiny_scenario("s1", "ingest"), tiny_scenario("s2", "bfs")]
        plain_store = ResultStore(tmp_path / "plain.jsonl")
        run_suite(suite, store=plain_store)
        traced_store = ResultStore(tmp_path / "traced.jsonl")
        tracer = Tracer(process_name="test-suite")
        metrics = MetricsRegistry()
        run_suite(suite, store=traced_store, tracer=tracer, metrics=metrics,
                  trace_base=str(tmp_path / "suite.json"))
        assert ((tmp_path / "plain.jsonl").read_bytes()
                == (tmp_path / "traced.jsonl").read_bytes())
        assert validate_trace(tracer.to_dict()) == []
        names = [e["name"] for e in tracer.events]
        assert "suite_run" in names and "store_put" in names
        assert "suite_scenarios_total" in metrics
        # Per-scenario traces were derived next to the harness base path.
        for name in ("s1", "s2"):
            per = derive_trace_path(str(tmp_path / "suite.json"), name)
            assert validate_trace_file(per) == []

    @requires_numpy
    def test_pooled_traced_suite(self, tmp_path):
        suite = [tiny_scenario(f"p{i}", "ingest") for i in range(3)]
        store = ResultStore(tmp_path / "pooled.jsonl")
        tracer = Tracer(process_name="test-pool")
        metrics = MetricsRegistry()
        report = run_suite(suite, jobs=2, store=store, tracer=tracer,
                           metrics=metrics)
        assert not report.failures
        assert validate_trace(tracer.to_dict()) == []
        names = {e["name"] for e in tracer.events}
        assert "pool_task" in names
        snap = metrics.snapshot()
        assert snap["pool_tasks_total"]["series"] == [
            {"labels": {"status": "ok"}, "value": 3}]
        assert snap["pool_task_seconds"]["series"][0]["value"]["count"] == 3
        # Observers are detached when the suite ends.
        assert store.tracer is None and store.metrics is None

    @requires_numpy
    def test_disabled_path_has_no_observers(self):
        from repro.arch.config import ChipConfig
        from repro.runtime.device import AMCCADevice

        device = AMCCADevice(ChipConfig(width=4, height=4))
        sim = device.simulator
        assert sim.tracer is None and sim.phase_ns is None
        record = run_scenario(tiny_scenario("plain", "ingest"))
        assert "metrics" in record  # embedded metrics are unconditional

    @requires_numpy
    def test_phase_timers_cover_step(self):
        scenario = tiny_scenario("timers", "bfs")
        _record, device = run_scenario_traced(scenario)
        timers = device.simulator.phase_ns
        assert timers is not None
        assert set(timers) == {"io", "noc", "dispatch", "cells", "account",
                               "executor"}
        assert sum(timers.values()) > 0
        # The executor runs inside phase 4, so its line is a share of cells.
        assert 0 < timers["executor"] <= timers["cells"]
