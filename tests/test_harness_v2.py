"""Harness v2 tests: worker pool, span hand-off, timeouts, store lifecycle,
bench.

Covers the pool (driven by its caller's thread, with crash containment,
progress reports, park requests and workers kept warm across calls by the
pool's owner), jobs parked at span ends whose records and stores are
byte-identical to serial ones,
per-scenario timeouts that record an outcome without killing sibling
scenarios, `suite diff` on before/after stores, compaction/GC that
preserves latest-version records, crash-safe store rewrites, the CLI's
checks on store paths and presets, and the `repro bench` report/compare
pipeline.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time

import pytest

from repro import __version__
from repro.harness import (
    ChipSpec,
    DatasetSpec,
    ResultStore,
    DispatchPool,
    Scenario,
    diff_stores,
    record_identity,
    render_store_diff,
    run_bench,
    run_scenario,
    run_suite,
)
from repro.harness import pool as pool_module
from repro.harness.runner import _job_task, plan_spans
from repro.obs import Tracer
from repro.serve import ScenarioService, ServeConfig
from repro.harness.bench import (
    BENCH_SCHEMA,
    bench_payload,
    compare_bench,
    load_bench,
    write_bench,
)

from helpers import pid_alive, requires_numpy, requires_proc, subprocess_env


def tiny_scenario(name="t", algorithm="ingest", **dataset_kwargs) -> Scenario:
    """A scenario small enough that running it takes well under a second."""
    defaults = dict(vertices=64, edges=256, sampling="edge", seed=3)
    defaults.update(dataset_kwargs)
    return Scenario(
        name=name,
        dataset=DatasetSpec(**defaults),
        chip=ChipSpec(side=4),
        algorithm=algorithm,
    )


# Module-level task functions: pool tasks are pickled by reference.
def _double(x):
    return x * 2


def _sleep_then(seconds, value):
    time.sleep(seconds)
    return value


def _mark_then_sleep(path, seconds, value):
    open(path, "w").close()
    return _sleep_then(seconds, value)


def _boom():
    raise RuntimeError("task exploded")


def _die():
    os._exit(17)


def _report_each(values, pause_s):
    for value in values:
        time.sleep(pause_s)
        pool_module.report(value)
    return "reported"


def _wait_for_park(limit_s):
    """Poll the park flag for up to ``limit_s``; whether it was set."""
    deadline = time.monotonic() + limit_s
    while time.monotonic() < deadline:
        if pool_module.park_requested():
            return True
        time.sleep(0.01)
    return False


#: Owns a one-worker pool, prints the worker's pid once a task has run on
#: it (the worker is in its loop) and waits to be killed.
_POOL_OWNER = """
import time
from repro.harness.pool import DispatchPool
pool = DispatchPool(1)
assert pool.run(len, ("ready",)).value == 5
print(pool.worker_pids()[0], flush=True)
time.sleep(60)
"""

#: Prints its pool's worker pid as soon as ``DispatchPool(1)`` returns,
#: before the worker may have reached its loop, and waits to be killed.
_FRESH_POOL_OWNER = """
import time
from repro.harness.pool import DispatchPool
pool = DispatchPool(1)
print(pool.worker_pids()[0], flush=True)
time.sleep(60)
"""


def assert_worker_exits_with_its_owner(script):
    """Run ``script`` (it prints its pool's worker pid), SIGKILL it once
    the pid is printed, and require the worker alive before the kill and
    gone within 5 s after it."""
    owner = subprocess.Popen([sys.executable, "-c", script],
                             stdout=subprocess.PIPE, text=True,
                             env=subprocess_env())
    try:
        worker = int(owner.stdout.readline())
        assert pid_alive(worker)
    finally:
        owner.kill()  # SIGKILL: the owner runs no cleanup at all
        owner.wait()
        owner.stdout.close()
    deadline = time.monotonic() + 5
    while pid_alive(worker) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not pid_alive(worker)


@pytest.fixture()
def pool2():
    pool = DispatchPool(2)
    yield pool
    pool.shutdown()


def run_all(pool, tasks, timeout=None):
    """Run every task on the pool (the suite's pattern)."""
    return pool.run_all(tasks, timeout=timeout)


class TestDispatchPool:
    def test_results_in_submission_order(self, pool2):
        results = run_all(pool2, [(_double, (i,)) for i in range(7)])
        assert [r.value for r in results] == [0, 2, 4, 6, 8, 10, 12]
        assert all(r.ok for r in results)

    def test_task_error_is_contained(self, pool2):
        results = run_all(pool2, [(_boom, ()), (_double, (5,))])
        assert results[0].status == "error"
        assert "task exploded" in results[0].error
        assert results[1].ok and results[1].value == 10

    def test_worker_crash_is_contained_and_pool_recovers(self, pool2):
        results = run_all(pool2, [(_die, ()), (_double, (3,))])
        statuses = [r.status for r in results]
        assert statuses[0] == "error" and statuses[1] == "ok"
        # The pool replaced the dead worker and stays usable.
        again = run_all(pool2, [(_double, (4,))])
        assert again[0].value == 8 and pool2.size == 2

    def test_timeout_kills_only_the_overdue_task(self, pool2):
        results = run_all(
            pool2,
            [(_sleep_then, (10.0, "slow")), (_double, (6,)), (_double, (7,))],
            timeout=0.5,
        )
        assert results[0].status == "timeout"
        assert results[1].value == 12 and results[2].value == 14
        assert pool2.size == 2  # replacement spawned

    def test_timeout_is_traced_and_counted(self, pool2):
        from repro.obs import MetricsRegistry, Tracer, validate_trace

        tracer = Tracer(process_name="test-pool")
        metrics = MetricsRegistry()
        pool2.tracer, pool2.metrics = tracer, metrics
        (result,) = run_all(pool2, [(_sleep_then, (10.0, "slow"))],
                            timeout=0.2)
        assert result.status == "timeout"
        names = [e["name"] for e in tracer.events]
        assert "task_timeout" in names and "worker_respawn" in names
        assert validate_trace(tracer.to_dict()) == []
        snap = metrics.snapshot()
        assert snap["pool_tasks_total"]["series"] == [
            {"labels": {"status": "timeout"}, "value": 1}]
        assert snap["pool_respawns_total"]["series"][0]["value"] == 1
        assert pool2.respawns == 1

    def test_worker_dying_while_idle_is_replaced(self, pool2):
        import signal

        run_all(pool2, [(_double, (1,))])
        # Kill one worker between tasks (simulates an external OOM kill);
        # the next dispatch must replace it instead of crashing on send.
        victim_pid = pool2.worker_pids()[0]
        os.kill(victim_pid, signal.SIGKILL)
        time.sleep(0.2)  # let the SIGKILL land; is_alive() reaps the zombie
        results = run_all(pool2, [(_double, (i,)) for i in range(4)])
        assert [r.value for r in results] == [0, 2, 4, 6]
        assert pool2.size == 2

    @requires_proc
    def test_worker_exits_when_its_owner_is_killed(self):
        assert_worker_exits_with_its_owner(_POOL_OWNER)

    @requires_proc
    def test_worker_exits_when_its_owner_is_killed_right_after_the_fork(
            self):
        """No window at the fork: the owner is SIGKILLed as soon as
        ``DispatchPool(1)`` returns, whether or not its worker has reached
        its loop yet."""
        assert_worker_exits_with_its_owner(_FRESH_POOL_OWNER)

    def test_progress_arrives_in_order_before_the_result(self, pool2):
        seen = []
        results = pool2.run_all(
            [(_report_each, (["a", "b", "c"], 0.01)),
             (_report_each, ([1, 2], 0.01))],
            on_progress=lambda index, value: seen.append((index, value)))
        assert [r.value for r in results] == ["reported", "reported"]
        assert [v for i, v in seen if i == 0] == ["a", "b", "c"]
        assert [v for i, v in seen if i == 1] == [1, 2]
        # Reports sent back to back, the last just before the result, all
        # reach the callback before run() returns.
        got = []
        result = pool2.run(_report_each, (list(range(5)), 0),
                           on_progress=got.append)
        assert result.ok and got == list(range(5))

    def test_reports_renew_the_timeout(self, pool2):
        """The timeout bounds the silence between reports, not the task."""
        reporting = pool2.run(_report_each, (list(range(10)), 0.1),
                              timeout=0.3)
        assert reporting.ok and reporting.elapsed_s > 0.9
        silent = pool2.run(_sleep_then, (1.0, "late"), timeout=0.3)
        assert silent.status == "timeout"

    def test_report_and_park_are_inert_in_process(self):
        pool_module.report("nobody listens")
        assert pool_module.park_requested() is False

    def test_park_request_reaches_only_its_own_task(self):
        pool = DispatchPool(1)
        try:
            assert pool.run(_wait_for_park, (0.1,)).value is False
            asked = threading.Timer(0.2, pool.request_park)
            asked.start()
            assert pool.run(_wait_for_park, (30,)).value is True
            asked.join()
            # The flag still names the task that parked: the next task, and
            # a request made while the worker is idle, do not park.
            assert pool.run(_wait_for_park, (0.2,)).value is False
            pool.request_park()
            assert pool.run(_wait_for_park, (0.2,)).value is False
        finally:
            pool.shutdown()

    def test_workers_persist_across_batches(self, pool2):
        run_all(pool2, [(_double, (1,))])
        pids_first = sorted(pool2.worker_pids())
        run_all(pool2, [(_double, (2,)) for _ in range(4)])
        assert sorted(pool2.worker_pids()) == pids_first

    def test_pool_starts_no_thread(self):
        before = threading.active_count()
        pool = DispatchPool(2)
        try:
            assert [r.value for r in run_all(pool, [(_double, (1,))] * 3)] \
                == [2, 2, 2]
            assert threading.active_count() == before
        finally:
            pool.shutdown()

    def test_shutdown_from_another_thread_lets_the_running_task_finish(
            self, pool2, monkeypatch, tmp_path):
        # With a 0.05 s join grace, stopping the worker kills it mid-task:
        # only a shutdown that waits for the running call saves the task.
        monkeypatch.setattr("repro.harness.pool._JOIN_GRACE_S", 0.05)
        started = tmp_path / "started"
        results = []
        caller = threading.Thread(target=lambda: results.extend(run_all(
            pool2, [(_mark_then_sleep, (str(started), 0.5, "done"))])))
        caller.start()
        deadline = time.monotonic() + 30
        while not started.exists():  # the task is running on its worker
            assert time.monotonic() < deadline
            time.sleep(0.01)
        pool2.shutdown()
        caller.join(30)
        assert not caller.is_alive()
        assert [(r.status, r.value) for r in results] == [("ok", "done")]
        assert not pool2.alive and pool2.size == 0
        with pytest.raises(RuntimeError, match="shut down"):
            pool2.run(_double, (1,))

    def test_callers_pool_runs_the_suite_at_default_jobs(self, pool2):
        # A pool passed in sets the concurrency, whatever ``jobs`` says.
        suite = [tiny_scenario(f"u{seed}", "bfs", vertices=30, edges=120,
                               generator="uniform", seed=seed)
                 for seed in (1, 2)]
        tracer = Tracer(process_name="test-pool")
        pooled = run_suite(suite, pool=pool2, tracer=tracer)
        assert [e["name"] for e in tracer.events].count("pool_task") == 2
        assert pool2.alive  # the caller's pool is not shut down
        serial = run_suite(suite)
        assert [o.record for o in pooled.outcomes] == \
               [o.record for o in serial.outcomes]


@requires_numpy
class TestSharding:
    """A job parked at every span's end (``plan_spans``) hands off at
    checkpoints."""

    def test_sharded_record_byte_identical_to_serial(self, tmp_path):
        scenario = tiny_scenario("shard", "bfs")
        serial = run_scenario(scenario)
        assert plan_spans(scenario, 3) == [0, 3, 6, 9, 10]
        start, sharded, handoffs = 0, None, []
        while sharded is None:  # every later task restores the park
            start, sharded, handoff = _job_task(scenario, start, 3,
                                                str(tmp_path),
                                                park=lambda: True)
            handoffs.append(handoff)
        assert handoffs == ["fresh"] + ["restored"] * 3
        assert json.dumps(serial, sort_keys=True) == \
               json.dumps(sharded, sort_keys=True)

    def test_sharded_pooled_suite_store_byte_identical(self, tmp_path):
        # A suite served span by span on pool workers stores serial bytes.
        suite = [tiny_scenario("s1", "ingest"), tiny_scenario("s2", "bfs")]
        run_suite(suite, jobs=1, store=ResultStore(tmp_path / "serial.jsonl"))
        service = ScenarioService(ServeConfig(
            jobs=2, cadence=3, store=str(tmp_path / "sharded.jsonl"),
            work_dir=str(tmp_path / "spill")))
        service.start()
        try:
            for scenario in suite:  # one at a time: the store keeps order
                job, code = service.submit(scenario.spec_dict(), "suite")
                assert code == 201
                assert job.wait_until(lambda: job.terminal, timeout=120)
                assert job.state == "done", job.events
        finally:
            service.stop()
        assert (tmp_path / "serial.jsonl").read_bytes() == \
               (tmp_path / "sharded.jsonl").read_bytes()


@requires_numpy
class TestSuiteTimeouts:
    def test_timeout_recorded_without_killing_siblings(self, tmp_path):
        # The budget also covers pooled dispatch, so it sits far from both
        # runs on a busy host: `slow` simulates for well over 10 s (17.7 s
        # on a 2-vCPU VM), `fast` for under 40 ms pooled.
        store = ResultStore(tmp_path / "store.jsonl")
        slow = tiny_scenario("slow", "bfs", vertices=4000, edges=120000)
        fast = tiny_scenario("fast", "ingest")
        pool = DispatchPool(2)
        try:
            report = run_suite([slow, fast], jobs=2, store=store,
                               timeout=1.0, pool=pool)
        finally:
            pool.shutdown()
        by_name = {o.scenario.name: o for o in report.outcomes}
        assert by_name["slow"].status == "timeout"
        assert by_name["slow"].record is None
        assert by_name["fast"].status == "ok"
        # Only the completed scenario lands in the store.
        assert len(store) == 1
        assert store.get(fast.spec_hash()) is not None
        assert [o.scenario.name for o in report.failures] == ["slow"]

    def test_timeout_applies_with_serial_jobs(self, tmp_path):
        # timeout forces process isolation even at jobs=1.
        slow = tiny_scenario("slow", "bfs", vertices=1200, edges=12000)
        pool = DispatchPool(1)
        try:
            report = run_suite([slow], jobs=1, timeout=0.1, pool=pool)
        finally:
            pool.shutdown()
        assert report.outcomes[0].status == "timeout"

    def test_expect_cached_refuses_to_compute(self, tmp_path):
        store = ResultStore(tmp_path / "store.jsonl")
        scenario = tiny_scenario("cold")
        report = run_suite([scenario], store=store, expect_cached=True)
        assert report.outcomes[0].status == "uncached"
        assert len(store) == 0 and report.failures
        # Warm the cache, then expect_cached passes.
        run_suite([scenario], store=store)
        warm = run_suite([scenario], store=store, expect_cached=True)
        assert warm.cache_hits == 1 and not warm.failures


class TestStoreLifecycle:
    def _record(self, name, version, *, cycles=100, seed=3):
        scenario = tiny_scenario(name, seed=seed)
        record = {
            "spec_hash": f"{name}-{version}",
            "name": name,
            "repro_version": version,
            "scenario": scenario.spec_dict(),
            "total_cycles": cycles,
            "energy": {"total_uj": 1.0, "time_us": 2.0},
        }
        return record

    def test_atomic_rewrite_survives_failed_replace(self, tmp_path, monkeypatch):
        path = tmp_path / "store.jsonl"
        store = ResultStore(path)
        store.put({"spec_hash": "keep", "value": 1})
        before = path.read_bytes()

        def broken_replace(src, dst):
            raise OSError("disk detached mid-replace")

        monkeypatch.setattr(os, "replace", broken_replace)
        with pytest.raises(OSError):
            store.put({"spec_hash": "lost", "value": 2})
        monkeypatch.undo()
        # The original file is untouched and no temp litter remains.
        assert path.read_bytes() == before
        assert list(tmp_path.glob("*.tmp")) == []
        assert ResultStore(path).get("keep") == {"spec_hash": "keep", "value": 1}

    def test_put_many_preserves_concurrent_appends(self, tmp_path):
        path = tmp_path / "store.jsonl"
        ours = ResultStore(path)
        ours.put({"spec_hash": "ours-1", "value": 1})
        # A second process (fresh handle) appends its own record.
        theirs = ResultStore(path)
        theirs.put({"spec_hash": "theirs-1", "value": 2})
        # Our stale handle writes again: their record must survive.
        ours.put({"spec_hash": "ours-2", "value": 3})
        final = ResultStore(path)
        assert {r["spec_hash"] for r in final} == \
               {"ours-1", "ours-2", "theirs-1"}

    def test_compact_keeps_latest_version_per_identity(self, tmp_path):
        store = ResultStore(tmp_path / "store.jsonl")
        store.put_many([
            self._record("exp", "1.1.0", cycles=90),
            self._record("exp", "1.2.0", cycles=100),
            self._record("other", "1.2.0"),
        ])
        dropped = store.compact()
        assert [r["repro_version"] for r in dropped] == ["1.1.0"]
        assert len(store) == 2
        assert store.get("exp-1.2.0")["total_cycles"] == 100
        # On-disk form was rewritten too.
        assert len((tmp_path / "store.jsonl").read_text().splitlines()) == 2
        # Idempotent.
        assert store.compact() == []

    def test_gc_drops_all_non_current_versions(self, tmp_path):
        store = ResultStore(tmp_path / "store.jsonl")
        store.put_many([
            self._record("old-only", "1.1.0"),
            self._record("current", __version__),
        ])
        dropped = store.gc()
        assert [r["name"] for r in dropped] == ["old-only"]
        assert [r["name"] for r in store] == ["current"]

    def test_stale_records_report(self, tmp_path):
        store = ResultStore(tmp_path / "store.jsonl")
        store.put_many([
            self._record("old", "0.9.0"),
            self._record("new", __version__),
        ])
        assert [r["name"] for r in store.stale_records()] == ["old"]

    def test_record_identity_ignores_version(self):
        a = self._record("same", "1.1.0", cycles=1)
        b = self._record("same", "1.2.0", cycles=2)
        assert a["spec_hash"] != b["spec_hash"]
        assert record_identity(a) == record_identity(b)


class TestStoreDiff:
    def test_diff_matches_across_versions_and_reports_deltas(self, tmp_path):
        mk = TestStoreLifecycle()._record
        store_a = ResultStore(tmp_path / "a.jsonl")
        store_b = ResultStore(tmp_path / "b.jsonl")
        store_a.put_many([
            mk("shared", "0.1.0", cycles=100),
            mk("gone", "0.1.0"),
        ])
        store_b.put_many([
            mk("shared", "0.2.0", cycles=140),
            mk("added", "0.2.0"),
        ])
        diff = diff_stores(store_a, store_b)
        assert not diff.identical
        assert [e.name for e in diff.changed] == ["shared"]
        (delta,) = [d for d in diff.changed[0].deltas
                    if d.metric == "total_cycles"]
        assert (delta.before, delta.after, delta.delta) == (100, 140, 40)
        assert delta.pct == pytest.approx(40.0)
        assert [r["name"] for r in diff.only_a] == ["gone"]
        assert [r["name"] for r in diff.only_b] == ["added"]
        # Both stores hold non-current versions -> everything is stale.
        assert len(diff.stale_a) == 2 and len(diff.stale_b) == 2
        rendered = render_store_diff(diff, label_a="before", label_b="after")
        assert "total_cycles" in rendered and "+40.0%" in rendered
        assert "only in before" in rendered and "only in after" in rendered

    @requires_numpy
    def test_diff_of_identical_stores_is_clean(self, tmp_path):
        scenario = tiny_scenario("same", "ingest")
        store_a = ResultStore(tmp_path / "a.jsonl")
        store_b = ResultStore(tmp_path / "b.jsonl")
        run_suite([scenario], store=store_a)
        run_suite([scenario], store=store_b)
        diff = diff_stores(store_a, store_b)
        assert diff.identical and not diff.changed
        assert "agree" in render_store_diff(diff)


class TestBench:
    @requires_numpy
    def test_run_bench_interleaves_and_reports_medians(self):
        scenarios = [tiny_scenario("w1", "ingest"), tiny_scenario("w2", "bfs")]
        results = run_bench(scenarios, reps=2)
        assert [r.name for r in results] == ["w1", "w2"]
        for result in results:
            assert len(result.sim_wall_s) == 2
            assert result.median_cycles_per_sec() > 0
            assert result.total_cycles > 0

    def test_divergent_cycles_abort_the_bench(self, monkeypatch):
        import repro.harness.bench as bench

        reps = iter(range(10))

        def fake_run(scenario, *, timings):
            timings["sim_s"] = 0.5
            return {"total_cycles": 10 + next(reps), "spec_hash": "h"}

        monkeypatch.setattr(bench, "run_scenario", fake_run)
        with pytest.raises(RuntimeError, match="nondeterministic"):
            run_bench([tiny_scenario()], reps=2)

    @requires_numpy
    def test_payload_schema_and_round_trip(self, tmp_path):
        results = run_bench([tiny_scenario("w", "ingest")], reps=1)
        payload = bench_payload(results, tag="test", suite="custom", reps=1)
        assert payload["schema"] == BENCH_SCHEMA == "repro-bench/v3"
        assert payload["repro_version"] == __version__
        (workload,) = payload["workloads"]
        assert len(workload["sim_wall_s"]) == 1
        assert workload["median_cycles_per_sec"] > 0
        path = write_bench(tmp_path / "BENCH_test.json", payload)
        assert load_bench(path) == payload

    def test_load_rejects_wrong_schema(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"schema": "other/v9", "workloads": []}')
        with pytest.raises(ValueError, match="unsupported bench schema"):
            load_bench(path)
        # A v2 report keeps its medians per kernel, which v3 no longer has.
        path.write_text(json.dumps({
            "schema": "repro-bench/v2", "workloads": [
                {"name": "w", "total_cycles": 1000, "kernels": {
                    "auto": {"median_cycles_per_sec": 1000.0}}}]}))
        with pytest.raises(ValueError, match="unsupported bench schema"):
            load_bench(path)

    def _payload(self, medians, *, version=__version__, cycles=None):
        cycles = cycles or {name: 1000 for name in medians}
        return {
            "schema": BENCH_SCHEMA,
            "repro_version": version,
            "workloads": [
                {"name": name, "total_cycles": cycles[name],
                 "median_cycles_per_sec": median}
                for name, median in medians.items()
            ],
        }

    def test_compare_flags_regression_beyond_tolerance(self):
        baseline = self._payload({"w": 1000.0})
        ok = compare_bench(self._payload({"w": 800.0}), baseline,
                           tolerance=0.25)
        assert ok.passed
        bad = compare_bench(self._payload({"w": 700.0}), baseline,
                            tolerance=0.25)
        assert not bad.passed
        assert bad.failures[0].status == "regression"
        # Speedups never fail.
        fast = compare_bench(self._payload({"w": 5000.0}), baseline)
        assert fast.passed

    def test_compare_flags_cycle_drift_at_same_version(self):
        baseline = self._payload({"w": 1000.0}, cycles={"w": 1000})
        drift = compare_bench(
            self._payload({"w": 1000.0}, cycles={"w": 1001}), baseline)
        assert [r.status for r in drift.failures] == ["cycles-changed"]
        # A version bump legitimises changed cycles.
        bumped = compare_bench(
            self._payload({"w": 1000.0}, version="9.9.9",
                          cycles={"w": 1001}),
            baseline)
        assert bumped.passed

    def test_compare_flags_missing_and_new_workloads(self):
        baseline = self._payload({"kept": 1000.0, "dropped": 1000.0})
        current = self._payload({"kept": 1000.0, "added": 1000.0})
        comparison = compare_bench(current, baseline)
        statuses = {r.name: r.status for r in comparison.rows}
        assert statuses["dropped"] == "missing"
        assert statuses["added"] == "new"
        assert not comparison.passed  # missing fails, new does not


class TestCliIntegration:
    @requires_numpy
    def test_suite_run_pooled_store_matches_serial(self, tmp_path, capsys):
        from repro.cli import main

        store_a = tmp_path / "serial.jsonl"
        store_b = tmp_path / "pooled.jsonl"
        assert main(["suite", "run", "--preset", "tiny", "--serial",
                     "--store", str(store_a)]) == 0
        assert main(["suite", "run", "--preset", "tiny", "-j", "2",
                     "--store", str(store_b)]) == 0
        assert main(["suite", "diff", str(store_a), str(store_b)]) == 0
        capsys.readouterr()
        assert store_a.read_bytes() == store_b.read_bytes()

    @requires_numpy
    def test_suite_diff_exit_codes(self, tmp_path, capsys):
        from repro.cli import main

        store_a = tmp_path / "a.jsonl"
        store_b = tmp_path / "b.jsonl"
        run_suite([tiny_scenario("d")], store=ResultStore(store_a))
        run_suite([tiny_scenario("d")], store=ResultStore(store_b))
        assert main(["suite", "diff", str(store_a), str(store_b)]) == 0
        record = json.loads(store_b.read_text())
        record["total_cycles"] += 7
        store_b.write_text(json.dumps(record) + "\n")
        assert main(["suite", "diff", str(store_a), str(store_b)]) == 1
        out = capsys.readouterr().out
        assert "total_cycles" in out

    def test_diff_and_store_commands_reject_missing_paths(self, tmp_path, capsys):
        from repro.cli import main

        missing = str(tmp_path / "nope.jsonl")
        for argv in (["suite", "diff", missing, missing],
                     ["store", "compact", missing],
                     ["store", "gc", missing],
                     ["report", "--store", missing],
                     ["metrics", "--store", missing],
                     ["fuzz", "classify", "--store", missing]):
            assert main(argv) == 2, argv
            assert "no such result store" in capsys.readouterr().err, argv
        present = tmp_path / "store.jsonl"
        present.write_text("")
        for verb in (["report"], ["metrics"], ["fuzz", "classify"]):
            assert main([*verb, "--store", str(present),
                         "--preset", "no-such-preset"]) == 2, verb
            assert "no-such-preset" in capsys.readouterr().err, verb

    def test_store_compact_and_gc_commands(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "store.jsonl"
        mk = TestStoreLifecycle()._record
        ResultStore(path).put_many([
            mk("exp", "1.1.0"),
            mk("exp", __version__),
            mk("old-only", "1.0.0"),
        ])
        assert main(["store", "compact", str(path)]) == 0
        assert len(ResultStore(path)) == 2
        assert main(["store", "gc", str(path)]) == 0
        survivors = [r["name"] for r in ResultStore(path)]
        assert survivors == ["exp"]
        capsys.readouterr()

    @requires_numpy
    def test_bench_command_writes_and_compares(self, tmp_path, capsys):
        from repro.cli import main

        report = tmp_path / "BENCH_test.json"
        assert main(["bench", "--suite", "tiny", "--reps", "1",
                     "--tag", "test", "--json", str(report)]) == 0
        payload = load_bench(report)
        assert payload["tag"] == "test"
        assert {w["name"] for w in payload["workloads"]} == \
               {"tiny-ingest", "tiny-bfs"}
        # Wide tolerance: this asserts the compare wiring and exit code, not
        # perf stability (1-rep wall times of a ~50 ms workload are noisy).
        assert main(["bench", "--suite", "tiny", "--reps", "1",
                     "--baseline", str(report), "--tolerance", "0.9"]) == 0
        capsys.readouterr()
