"""Harness v2 tests: worker pool, sharding, timeouts, store lifecycle, bench.

Covers the PR-3 acceptance surface: sharded-parallel records byte-identical
to serial ones, per-task timeouts that record an outcome without killing
sibling scenarios, `suite diff` on before/after stores, compaction/GC that
preserves latest-version records, crash-safe store rewrites, and the
`repro bench` report/compare pipeline.
"""

from __future__ import annotations

import contextlib
import json
import os
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
    get_pool,
    record_identity,
    render_store_diff,
    run_bench,
    run_scenario,
    run_scenario_sharded,
    run_suite,
    shard_spans,
    shutdown_pool,
)
from repro.harness.bench import (
    BENCH_AB_SCHEMA,
    BENCH_SCHEMA,
    ab_payload,
    bench_payload,
    compare_bench,
    load_bench,
    run_bench_ab,
    write_bench,
)

from helpers import requires_numpy


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


def _boom():
    raise RuntimeError("task exploded")


def _die():
    os._exit(17)


def _pid_after(seconds=0.0):
    time.sleep(seconds)
    return os.getpid()


@pytest.fixture()
def pool2():
    pool = DispatchPool(2)
    yield pool
    pool.shutdown()


def run_all(pool, tasks, timeout=None):
    """Submit every task, then wait on each handle (the suite's pattern)."""
    handles = [pool.submit(fn, args, timeout=timeout) for fn, args in tasks]
    return [handle.wait(60) for handle in handles]


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

    def test_same_key_tasks_land_on_one_worker(self, pool2):
        pids = [pool2.run(_pid_after, affinity="job").value
                for _ in range(5)]
        assert len(set(pids)) == 1, pids

    def test_keyed_task_never_waits_for_its_busy_worker(self, pool2):
        home = pool2.run(_pid_after, affinity="job").value
        slow = pool2.submit(_pid_after, (2.0,), affinity="job")
        fast = pool2.run(_pid_after, affinity="job")
        assert not slow.done()
        assert fast.ok and fast.value != home
        assert slow.wait(30).value == home

    def test_workers_persist_across_batches(self, pool2):
        run_all(pool2, [(_double, (1,))])
        pids_first = sorted(pool2.worker_pids())
        run_all(pool2, [(_double, (2,)) for _ in range(4)])
        assert sorted(pool2.worker_pids()) == pids_first

    def test_shared_pool_reused_and_resized(self):
        shutdown_pool()  # earlier suites may have left a shared pool
        try:
            a = get_pool(2)
            assert get_pool(2) is a
            b = get_pool(3)  # a different size rebuilds
            assert b is not a and b.size == 3 and not a.alive
            c = get_pool(2)  # shrinking rebuilds too
            assert c is not b and c.size == 2 and not b.alive
        finally:
            shutdown_pool()


@requires_numpy
class TestSharding:
    def test_shard_spans_cover_contiguously(self):
        assert shard_spans(10, 3) == [(0, 3), (3, 7), (7, 10)]
        assert shard_spans(2, 8) == [(0, 1), (1, 2)]
        assert shard_spans(5, 1) == [(0, 5)]

    def test_sharded_record_byte_identical_to_serial(self):
        scenario = tiny_scenario("shard", "bfs")
        serial = run_scenario(scenario)
        sharded = run_scenario_sharded(scenario, 4)
        assert json.dumps(serial, sort_keys=True) == \
               json.dumps(sharded, sort_keys=True)

    def test_sharded_pooled_suite_store_byte_identical(self, tmp_path):
        suite = [tiny_scenario("s1", "ingest"), tiny_scenario("s2", "bfs")]
        serial_store = ResultStore(tmp_path / "serial.jsonl")
        sharded_store = ResultStore(tmp_path / "sharded.jsonl")
        run_suite(suite, jobs=1, store=serial_store)
        pool = DispatchPool(3)
        try:
            run_suite(suite, jobs=3, store=sharded_store, shard_increments=3,
                      pool=pool)
        finally:
            pool.shutdown()
        assert (tmp_path / "serial.jsonl").read_bytes() == \
               (tmp_path / "sharded.jsonl").read_bytes()

    def test_serial_jobs_still_shard_in_process(self, tmp_path, monkeypatch):
        # --shard-increments must not silently no-op at jobs=1: the serial
        # path routes through run_scenario_sharded (span hand-off exercised).
        from repro.harness import runner as runner_mod

        calls = []
        real = runner_mod.run_scenario_sharded

        def spy(scenario, shards, **kwargs):
            calls.append((scenario.name, shards))
            return real(scenario, shards, **kwargs)

        monkeypatch.setattr(runner_mod, "run_scenario_sharded", spy)
        store = ResultStore(tmp_path / "store.jsonl")
        report = run_suite([tiny_scenario("serial-shard", "bfs")],
                           jobs=1, store=store, shard_increments=3)
        assert calls == [("serial-shard", 3)]
        assert report.cache_misses == 1
        # Record equals the unsharded serial one.
        assert store.get(tiny_scenario("serial-shard", "bfs").spec_hash()) == \
               run_scenario(tiny_scenario("serial-shard", "bfs"))

    def test_sharded_runs_hit_the_same_cache(self, tmp_path):
        store = ResultStore(tmp_path / "store.jsonl")
        scenario = tiny_scenario("cacheable", "bfs")
        pool = DispatchPool(2)
        try:
            first = run_suite([scenario], jobs=2, store=store,
                              shard_increments=2, pool=pool)
        finally:
            pool.shutdown()
        assert first.cache_misses == 1
        second = run_suite([scenario], jobs=1, store=store)
        assert second.cache_hits == 1

    def test_suites_at_the_same_jobs_keep_warm_workers(self):
        shutdown_pool()  # earlier suites may have left a shared pool
        try:
            run_suite([tiny_scenario("w1"), tiny_scenario("w2")], jobs=2)
            pool = get_pool(2)
            pids = sorted(pool.worker_pids())
            # Fewer pending tasks than jobs must not resize the shared pool.
            run_suite([tiny_scenario("w3")], jobs=2, timeout=60)
            assert get_pool(2) is pool and pool.alive
            assert sorted(pool.worker_pids()) == pids
        finally:
            shutdown_pool()


@requires_numpy
class TestSuiteTimeouts:
    def test_timeout_recorded_without_killing_siblings(self, tmp_path):
        store = ResultStore(tmp_path / "store.jsonl")
        slow = tiny_scenario("slow", "bfs", vertices=1200, edges=12000)
        fast = tiny_scenario("fast", "ingest")
        pool = DispatchPool(2)
        try:
            report = run_suite([slow, fast], jobs=2, store=store,
                               timeout=0.1, pool=pool)
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
            assert result.median_cycles_per_sec > 0
            assert result.total_cycles > 0

    @requires_numpy
    def test_payload_schema_and_round_trip(self, tmp_path):
        results = run_bench([tiny_scenario("w", "ingest")], reps=1)
        payload = bench_payload(results, tag="test", suite="custom", reps=1)
        assert payload["schema"] == BENCH_SCHEMA
        assert payload["repro_version"] == __version__
        path = write_bench(tmp_path / "BENCH_test.json", payload)
        assert load_bench(path) == payload

    def test_load_rejects_wrong_schema(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"schema": "other/v9", "workloads": []}')
        with pytest.raises(ValueError, match="unsupported bench schema"):
            load_bench(path)

    def _payload(self, medians, *, version=__version__, cycles=None):
        cycles = cycles or {name: 1000 for name in medians}
        return {
            "schema": BENCH_SCHEMA,
            "repro_version": version,
            "workloads": [
                {"name": name, "median_cycles_per_sec": median,
                 "total_cycles": cycles[name]}
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


#: The A/B pair.  Without the extension the native leg warns and runs the
#: python fallback, so the harness is still exercised end to end.
AB_KERNELS = ["python", "native"]


def _native_fallback_warns():
    """``pytest.warns`` for the native fallback, or a no-op when built."""
    from repro.arch.kernels import HAVE_NATIVE

    if HAVE_NATIVE:
        return contextlib.nullcontext()
    return pytest.warns(RuntimeWarning, match="native.*not built")


class TestBenchAb:
    @requires_numpy
    def test_run_bench_ab_reports_per_kernel_medians(self):
        kernels = AB_KERNELS
        scenarios = [tiny_scenario("w1", "ingest"), tiny_scenario("w2", "bfs")]
        with _native_fallback_warns():
            results = run_bench_ab(scenarios, kernels, reps=2)
        assert sorted(results) == sorted(kernels)
        for kernel in kernels:
            assert [r.name for r in results[kernel]] == ["w1", "w2"]
            for result in results[kernel]:
                assert len(result.sim_wall_s) == 2
                assert result.median_cycles_per_sec > 0
        # The A/B doubles as a schedule-contract check: identical cycles.
        for i in range(2):
            assert len({results[k][i].total_cycles for k in kernels}) == 1

    def test_run_bench_ab_validates_kernel_list(self):
        with pytest.raises(ValueError, match="at least two"):
            run_bench_ab([tiny_scenario()], ["python"], reps=1)
        with pytest.raises(ValueError, match="duplicate"):
            run_bench_ab([tiny_scenario()], ["python", "python"], reps=1)

    @requires_numpy
    def test_ab_payload_schema_and_speedups(self, tmp_path):
        kernels = AB_KERNELS
        with _native_fallback_warns():
            results = run_bench_ab([tiny_scenario("w", "ingest")], kernels,
                                   reps=1)
        payload = ab_payload(results, tag="test", suite="custom", reps=1)
        assert payload["schema"] == BENCH_AB_SCHEMA
        assert payload["kernels"] == kernels
        (workload,) = payload["workloads"]
        assert workload["speedup_vs_first"][kernels[0]] == 1.0
        assert set(workload["kernels"]) == set(kernels)
        # write_bench round-trips, but load_bench guards the plain schema.
        path = write_bench(tmp_path / "BENCH_ab.json", payload)
        assert json.loads(path.read_text()) == payload

    @requires_numpy
    def test_cli_bench_ab(self, tmp_path, capsys, monkeypatch):
        from repro.arch import _native
        from repro.cli import main

        out_json = tmp_path / "BENCH_ab.json"
        argv = ["bench", "--suite", "tiny", "--reps", "1",
                "--ab", "python,native", "--json", str(out_json)]
        if not _native.HAVE_NATIVE:
            # The CLI refuses to time python against its own fallback...
            assert main(argv) == 2
            assert "not built" in capsys.readouterr().err
            # ...so get past that guard to exercise the report path.
            monkeypatch.setattr(_native, "HAVE_NATIVE", True)
        with _native_fallback_warns():
            assert main(argv) == 0
        out = capsys.readouterr().out
        assert "native speedup" in out
        assert json.loads(out_json.read_text())["schema"] == BENCH_AB_SCHEMA

    def test_cli_bench_ab_rejects_bad_flag_combinations(self, capsys):
        from repro.cli import main

        assert main(["bench", "--ab", "python",
                     "--suite", "tiny"]) == 2
        assert ">= 2 comma-separated kernels" in capsys.readouterr().err
        assert main(["bench", "--ab", "python,native", "--suite", "tiny",
                     "--baseline", "whatever.json"]) == 2
        assert "mutually exclusive" in capsys.readouterr().err


class TestCliIntegration:
    @requires_numpy
    def test_suite_run_shard_flags_round_trip(self, tmp_path, capsys):
        from repro.cli import main

        store_a = tmp_path / "serial.jsonl"
        store_b = tmp_path / "sharded.jsonl"
        assert main(["suite", "run", "--preset", "tiny", "--serial",
                     "--store", str(store_a)]) == 0
        assert main(["suite", "run", "--preset", "tiny", "-j", "2",
                     "--shard-increments", "2", "--store", str(store_b)]) == 0
        capsys.readouterr()
        assert store_a.read_bytes() == store_b.read_bytes()
        shutdown_pool()

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
        assert main(["suite", "diff", missing, missing]) == 2
        assert main(["store", "compact", missing]) == 2
        assert main(["store", "gc", missing]) == 2
        err = capsys.readouterr().err
        assert "no such result store" in err

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
