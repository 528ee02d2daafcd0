"""Experiment orchestration: declarative scenarios, parallel runs, caching.

The harness is the one place the repository fans experiments out:

* :mod:`repro.harness.scenario` — frozen :class:`Scenario` specs
  (dataset x chip x algorithm x options) with stable content hashes,
* :mod:`repro.harness.registry` — named suites covering the paper's
  evaluation plus chip/sampling/algorithm/fidelity sweeps and the
  ``perf`` benchmark workloads,
* :mod:`repro.harness.runner` — serial, pooled and timeout-guarded
  execution with deterministic per-scenario seeding, every run path
  streaming through one span function (and ``repro serve`` handing chip
  state between a job's spans as checkpoints),
* :mod:`repro.harness.pool` — the worker pool underneath, driven by the
  thread that calls it (per-task timeouts, crash isolation),
* :mod:`repro.harness.store` — a crash-safe JSONL result cache keyed by
  spec hash, with compaction/GC and cross-store diffing,
* :mod:`repro.harness.report` — folds stored records back into the
  paper's tables and figures (and renders store diffs),
* :mod:`repro.harness.bench` — the ``repro bench`` cycles/sec pipeline
  emitting schema-versioned ``BENCH_<tag>.json`` reports.

Runs can be observed without being perturbed: :mod:`repro.obs` tracers
and metric registries attach to the runner, pool and store as pure
observers (see docs/observability.md), and every record embeds a
deterministic ``metrics`` snapshot derived from :class:`SimStats`.

Typical use (also available as ``repro suite run``)::

    from repro.harness import ResultStore, get_suite, run_suite

    store = ResultStore("results/suite.jsonl")
    report = run_suite(get_suite("paper-tiny"), jobs=4, store=store)
    print(f"{report.cache_hits} hits, {report.cache_misses} computed")
"""

from repro.harness.bench import (
    BENCH_SCHEMA,
    BenchComparison,
    WorkloadResult,
    bench_payload,
    compare_bench,
    load_bench,
    run_bench,
    write_bench,
)
from repro.harness.pool import DispatchPool, TaskResult
from repro.harness.registry import (
    SuiteDef,
    build_paper_suite,
    get_suite,
    list_suites,
    register_suite,
)
from repro.harness.report import (
    ablation_rows_from_records,
    activation_rows_from_records,
    allocator_rows_from_records,
    baseline_rows_from_records,
    export_png_figures,
    fuzz_rows_from_records,
    increment_figures_from_records,
    render_store_diff,
    render_suite_report,
    suite_table_rows,
    table1_rows_from_records,
    table2_rows_from_records,
)
from repro.harness.runner import (
    ScenarioOutcome,
    SuiteReport,
    materialize_dataset,
    restore_scenario,
    resume_scenario,
    run_scenario,
    run_scenario_traced,
    run_suite,
    snapshot_at,
)
from repro.harness.scenario import (
    ChipSpec,
    DatasetSpec,
    RunOptions,
    Scenario,
)
from repro.harness.store import (
    ResultStore,
    StoreDiff,
    diff_stores,
    record_identity,
)

__all__ = [
    "BENCH_SCHEMA",
    "ablation_rows_from_records",
    "activation_rows_from_records",
    "allocator_rows_from_records",
    "baseline_rows_from_records",
    "export_png_figures",
    "fuzz_rows_from_records",
    "BenchComparison",
    "ChipSpec",
    "DatasetSpec",
    "DispatchPool",
    "ResultStore",
    "RunOptions",
    "Scenario",
    "ScenarioOutcome",
    "StoreDiff",
    "SuiteDef",
    "SuiteReport",
    "TaskResult",
    "WorkloadResult",
    "bench_payload",
    "build_paper_suite",
    "compare_bench",
    "diff_stores",
    "get_suite",
    "increment_figures_from_records",
    "list_suites",
    "load_bench",
    "materialize_dataset",
    "record_identity",
    "register_suite",
    "render_store_diff",
    "render_suite_report",
    "restore_scenario",
    "resume_scenario",
    "run_bench",
    "run_scenario",
    "run_scenario_traced",
    "run_suite",
    "snapshot_at",
    "suite_table_rows",
    "table1_rows_from_records",
    "table2_rows_from_records",
    "write_bench",
]
