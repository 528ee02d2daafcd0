"""Command-line interface: regenerate the paper's tables and figures.

Examples
--------
Reproduce Table 1 (dataset increments) at a laptop-friendly scale::

    repro table1 --scale tiny

Reproduce Table 2 (energy/time)::

    repro table2 --scale tiny --chip 16

Reproduce Figure 8/9 (cycles per increment) for snowball sampling::

    repro increments --vertices 800 --edges 8000 --sampling snowball

Reproduce Figure 6/7 (cell activation) and print an ASCII plot::

    repro activation --vertices 800 --edges 8000 --with-bfs

Run a whole scenario suite in parallel with cached results::

    repro suite run --preset paper-tiny -j 4
    repro suite run --preset paper-tiny -j 4 --timeout 120
    repro suite list
    repro report --preset paper-tiny

Checkpoint, inspect and resume mid-stream chip state::

    repro snapshot save --preset tiny --scenario tiny-bfs --increment 5 \
        --out results/tiny-bfs.snap
    repro snapshot info results/tiny-bfs.snap
    repro snapshot restore results/tiny-bfs.snap --preset tiny \
        --scenario tiny-bfs --verify

Render stored records (optionally as PNG figures)::

    repro report --store results/suite.jsonl --png results/figures

Compare stores and maintain them::

    repro suite diff results/before.jsonl results/after.jsonl
    repro store compact results/suite.jsonl
    repro store gc results/suite.jsonl

Track simulator throughput with a machine-readable report::

    repro bench --json BENCH_local.json
    repro bench --baseline benchmarks/BENCH_baseline.json --tolerance 0.25
    repro bench --reps 5 --kernel python,native     # interleaved kernel A/B

Observe runs without perturbing them (see docs/observability.md)::

    repro suite run --preset paper-tiny --trace results/suite-trace.json
    repro suite run --preset paper-tiny --metrics-out results/metrics.prom
    repro suite run --preset perf --no-store --profile results/perf.folded
    repro metrics --store results/suite.jsonl --format prometheus

Fuzz the determinism contract and classify workloads (docs/fuzzing.md)::

    repro fuzz run --profile ci --max-examples 25 --seed 0
    repro fuzz classify --store results/suite.jsonl
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace
from pathlib import Path
from typing import List, Optional

from repro.analysis.figures import FigureData, render_ascii_plot
from repro.analysis.tables import render_table, table1_rows
from repro.arch.config import KERNELS
from repro.datasets.streaming import SCALE_PRESETS, paper_dataset_configs
from repro.harness.scenario import ChipSpec, DatasetSpec, RunOptions, Scenario

#: Placement and ghost-allocation seed of the paper verbs, pinned to the
#: value they have always used so their printed numbers stay put.
VERB_GRAPH_SEED = 17


def _add_dataset_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--vertices", type=int, default=600, help="number of vertices")
    parser.add_argument("--edges", type=int, default=6000, help="number of streamed edges")
    parser.add_argument("--sampling", choices=("edge", "snowball"), default="edge")
    parser.add_argument("--increments", type=int, default=10)
    parser.add_argument("--seed", type=int, default=7)


def _add_chip_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--chip", type=int, default=32, help="chip side length (NxN cells)")
    parser.add_argument("--fidelity", choices=("cycle", "latency"), default="cycle")
    parser.add_argument("--allocator", choices=("vicinity", "random"), default="vicinity")


def cmd_table1(args: argparse.Namespace) -> int:
    datasets = paper_dataset_configs(scale=args.scale, seed=args.seed)
    print(f"Table 1 reproduction (scale={args.scale}):")
    print(render_table(table1_rows(datasets)))
    return 0


def _verb_scenario(args: argparse.Namespace, algorithm: str,
                   dataset: Optional[DatasetSpec] = None,
                   name: Optional[str] = None) -> Scenario:
    """One paper-verb run as a harness scenario built from the CLI flags.

    The dataset comes from the dataset flags unless one is given; the chip
    and the ghost allocator always come from the chip flags.
    """
    if dataset is None:
        dataset = DatasetSpec(vertices=args.vertices, edges=args.edges,
                              sampling=args.sampling,
                              num_increments=args.increments, seed=args.seed)
    return Scenario(
        name=name or f"{dataset.name}-{algorithm}",
        dataset=dataset,
        chip=ChipSpec(side=args.chip, fidelity=args.fidelity),
        algorithm=algorithm,
        options=RunOptions(ghost_allocator=args.allocator,
                           graph_seed=VERB_GRAPH_SEED),
    )


def cmd_table2(args: argparse.Namespace) -> int:
    from repro.harness import (build_paper_suite, run_scenario,
                               table2_rows_from_records)

    records = [
        run_scenario(_verb_scenario(args, s.algorithm,
                                    replace(s.dataset, seed=args.seed), s.name))
        for s in build_paper_suite(SCALE_PRESETS[args.scale])
    ]
    print(f"Table 2 reproduction (scale={args.scale}, chip={args.chip}x{args.chip}):")
    print(render_table(table2_rows_from_records(records)))
    return 0


def cmd_increments(args: argparse.Namespace) -> int:
    from repro.harness import increment_figures_from_records, run_scenario

    scenarios = [_verb_scenario(args, algorithm) for algorithm in ("ingest", "bfs")]
    ingest, bfs = (run_scenario(scenario) for scenario in scenarios)
    (fig,) = increment_figures_from_records([ingest, bfs])
    fig.title = f"Figure 8/9 analogue: {scenarios[0].dataset.name}"
    print(render_ascii_plot(fig))
    print()
    rows = [
        {"Increment": i, "Streaming Edges": a, "Streaming Edges with BFS": b}
        for i, (a, b) in enumerate(
            zip(ingest["increment_cycles"], bfs["increment_cycles"]), start=1)
    ]
    print(render_table(rows))
    return 0


def cmd_activation(args: argparse.Namespace) -> int:
    from repro.harness import run_scenario_traced

    record, device = run_scenario_traced(
        _verb_scenario(args, "bfs" if args.with_bfs else "ingest"))
    # Records keep only the mean/peak; the series comes off the device.
    fig = FigureData("Figure 6/7 analogue", "Cycles", "Percent of Cells Active")
    fig.add("Cells Active Percent", device.stats().activation_percent())
    print(render_ascii_plot(fig))
    print()
    print(f"total cycles: {record['total_cycles']}")
    print(f"mean activation: {record['stats']['mean_activation'] * 100:.1f}%")
    print(f"peak activation: {record['stats']['peak_activation'] * 100:.1f}%")
    return 0


def cmd_suite_list(args: argparse.Namespace) -> int:
    from repro.harness import get_suite, list_suites

    for suite in list_suites():
        scenarios = get_suite(suite.name)
        print(f"{suite.name} ({len(scenarios)} scenarios): {suite.description}")
        if args.scenarios:
            for scenario in scenarios:
                print(f"  - {scenario.describe()}")
    return 0


def cmd_algos_list(args: argparse.Namespace) -> int:
    """List the algorithm registry: names, capabilities, one-line summaries."""
    from repro.algorithms.registry import algorithm_infos

    infos = algorithm_infos()
    if args.json:
        print(json.dumps([info.as_dict() for info in infos], indent=2))
        return 0
    name_width = max(len(info.name) for info in infos)
    for info in infos:
        flags = []
        if info.caps.streaming:
            flags.append("streaming")
        if info.caps.query:
            flags.append("query")
        if info.caps.needs_root:
            flags.append("needs-root")
        if info.caps.symmetric_only:
            flags.append("symmetric-only")
        if not info.caps.supports_truncation:
            flags.append("no-truncation")
        caps = ",".join(flags) if flags else "-"
        print(f"{info.name:<{name_width}}  [{caps}]  {info.summary}")
    return 0


def _write_metrics(registry, path: str) -> None:
    """Write a metrics registry: Prometheus text unless the path ends .json."""
    out = Path(path)
    if out.parent != Path(""):
        out.parent.mkdir(parents=True, exist_ok=True)
    if out.suffix == ".json":
        out.write_text(json.dumps(registry.snapshot(), indent=2, sort_keys=True)
                       + "\n", encoding="utf-8")
    else:
        out.write_text(registry.to_prometheus(), encoding="utf-8")


def cmd_suite_run(args: argparse.Namespace) -> int:
    import contextlib

    from repro.harness import ResultStore, get_suite, render_suite_report, run_suite
    from repro.obs import MetricsRegistry, Tracer, profile_to_collapsed

    try:
        scenarios = get_suite(args.preset)
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    store = None if args.no_store else ResultStore(args.store)
    if args.snapshot_every:
        if not args.snapshot_dir:
            print("--snapshot-every requires --snapshot-dir", file=sys.stderr)
            return 2
        # Identity-free run options (stripped from spec hashes), so this
        # never invalidates caches — but cached scenarios are not re-run,
        # hence not re-checkpointed, unless --force is given.
        scenarios = [
            s.with_(options=replace(s.options,
                                    snapshot_every=args.snapshot_every,
                                    snapshot_dir=args.snapshot_dir))
            for s in scenarios
        ]
    jobs = 1 if args.serial else args.jobs
    # Observability is observer-only (records and caches are unaffected):
    # the harness tracer/metrics watch the suite itself, and --trace also
    # derives one per-scenario trace file next to the harness one.
    tracer = Tracer(process_name=f"repro:suite:{args.preset}") if args.trace else None
    metrics = MetricsRegistry() if (args.metrics_out or args.trace) else None
    profiler = (profile_to_collapsed(args.profile) if args.profile
                else contextlib.nullcontext())
    with profiler:
        report = run_suite(
            scenarios,
            jobs=jobs,
            store=store,
            force=args.force,
            progress=lambda line: print(line, flush=True),
            timeout=args.timeout,
            expect_cached=args.expect_cached,
            kernel=args.kernel,
            tracer=tracer,
            metrics=metrics,
            trace_base=args.trace,
        )
    if tracer is not None:
        print(f"harness trace: {tracer.save(args.trace)} "
              f"({len(tracer.events)} events)")
    if args.metrics_out:
        _write_metrics(metrics, args.metrics_out)
        print(f"metrics: {args.metrics_out}")
    if args.profile:
        print(f"profile (collapsed stacks): {args.profile}")
    print(
        f"\nsuite {args.preset!r}: {len(report.outcomes)} scenarios, "
        f"{report.cache_hits} cache hits, {report.cache_misses} computed "
        f"in {report.elapsed_s:.1f}s with {jobs} job(s)"
    )
    if store is not None:
        print(f"result store: {store.path} ({len(store)} records)")
    if report.failures:
        for outcome in report.failures:
            line = f"FAILED [{outcome.status}] {outcome.scenario.name}"
            if outcome.error:
                line += f"\n{outcome.error.rstrip()}"
            print(line, file=sys.stderr)
    if report.records:
        print()
        print(render_suite_report(report.records, tables=args.tables))
    return 1 if report.failures else 0


def _require_store_paths(*paths: str) -> bool:
    """Reject store paths that do not exist (ResultStore would silently
    treat them as empty, turning a typo into a vacuous pass)."""
    ok = True
    for path in paths:
        if not os.path.exists(path):
            print(f"no such result store: {path}", file=sys.stderr)
            ok = False
    return ok


def _stored_records(args: argparse.Namespace,
                    missing: Optional[List[str]] = None) -> Optional[List[dict]]:
    """The records in ``--store`` of the ``--preset`` suite's scenarios,
    or every stored record without a preset.  ``None`` (the verb exits 2)
    after reporting a missing store or an unknown preset.  ``missing``,
    when given, collects the names of the preset's unstored scenarios."""
    from repro.harness import ResultStore, get_suite

    if not _require_store_paths(args.store):
        return None
    store = ResultStore(args.store)
    if not args.preset:
        return store.records()
    try:
        scenarios = get_suite(args.preset)
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return None
    records = []
    for scenario in scenarios:
        record = store.get(scenario.spec_hash())
        if record is not None:
            records.append(record)
        elif missing is not None:
            missing.append(scenario.name)
    return records


def cmd_suite_diff(args: argparse.Namespace) -> int:
    from repro.harness import ResultStore, diff_stores, render_store_diff

    if not _require_store_paths(args.store_a, args.store_b):
        return 2
    store_a = ResultStore(args.store_a)
    store_b = ResultStore(args.store_b)
    diff = diff_stores(store_a, store_b)
    print(f"comparing {store_a.path} ({len(store_a)} records) "
          f"vs {store_b.path} ({len(store_b)} records)\n")
    print(render_store_diff(diff, label_a=str(args.store_a),
                            label_b=str(args.store_b)))
    # diff-like exit status: 0 = stores agree, 1 = they differ.
    return 0 if diff.identical else 1


def _print_dropped(records, verb: str) -> None:
    names = ", ".join(
        f"{r.get('name') or r.get('spec_hash', '?')[:12]}"
        f" (v{r.get('repro_version', '?')})"
        for r in records
    )
    print(f"{verb} {len(records)} record(s): {names}" if records
          else f"{verb} nothing; store already clean")


def cmd_store_compact(args: argparse.Namespace) -> int:
    from repro.harness import ResultStore

    if not _require_store_paths(args.store):
        return 2
    store = ResultStore(args.store)
    dropped = store.compact()
    _print_dropped(dropped, "compacted away")
    print(f"{store.path}: {len(store)} record(s) kept")
    return 0


def cmd_store_gc(args: argparse.Namespace) -> int:
    from repro import __version__
    from repro.harness import ResultStore

    if not _require_store_paths(args.store):
        return 2
    store = ResultStore(args.store)
    dropped = store.gc()
    _print_dropped(dropped, f"collected (not version {__version__})")
    print(f"{store.path}: {len(store)} record(s) kept")
    return 0


def cmd_snapshot_save(args: argparse.Namespace) -> int:
    from repro.harness.runner import snapshot_at

    scenario = _find_scenario(args.preset, args.scenario)
    if scenario is None:
        return 2
    try:
        snap = snapshot_at(scenario, args.increment, kernel=args.kernel)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    path = snap.save(args.out)
    print(f"captured {scenario.name!r} at increment boundary "
          f"{args.increment} -> {path} ({len(snap.to_bytes())} bytes, "
          f"state {snap.state_hash[:16]}…)")
    return 0


def cmd_snapshot_info(args: argparse.Namespace) -> int:
    from repro.snapshot import Snapshot, SnapshotError

    try:
        snap = Snapshot.load(args.path)
    except SnapshotError as exc:
        print(exc, file=sys.stderr)
        return 2
    info = snap.info()
    chip = info.pop("chip", {})
    sections = info.pop("sections")
    for key in sorted(info):
        print(f"{key}: {info[key]}")
    if chip:
        print("chip: " + ", ".join(f"{k}={v}" for k, v in sorted(chip.items())))
    print("section bytes: " + ", ".join(f"{name}={size}"
                                        for name, size in sections.items()))
    return 0


def cmd_snapshot_restore(args: argparse.Namespace) -> int:
    from repro.harness import ResultStore, resume_scenario, run_scenario
    from repro.snapshot import Snapshot, SnapshotError

    scenario = _find_scenario(args.preset, args.scenario)
    if scenario is None:
        return 2
    try:
        snap = Snapshot.load(args.path)
        record = resume_scenario(scenario, snap, kernel=args.kernel)
    except SnapshotError as exc:
        print(exc, file=sys.stderr)
        return 2
    print(f"resumed {scenario.name!r} from increment boundary "
          f"{snap.meta.get('increment', '?')}: "
          f"{record['total_cycles']} total cycles, "
          f"{record['edges_stored']} edges stored")
    if args.verify:
        fresh = run_scenario(scenario, kernel=args.kernel)
        if json.dumps(fresh, sort_keys=True) != json.dumps(record, sort_keys=True):
            print("VERIFY FAILED: resumed record differs from an "
                  "uninterrupted run", file=sys.stderr)
            return 1
        print("verify: resumed record is byte-identical to an uninterrupted run")
    if args.store:
        store = ResultStore(args.store)
        store.put(record)
        print(f"stored record in {store.path} ({len(store)} records)")
    return 0


def _find_scenario(preset: str, name: str):
    from repro.harness import get_suite

    try:
        scenarios = get_suite(preset)
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return None
    for scenario in scenarios:
        if scenario.name == name:
            return scenario
    print(f"no scenario {name!r} in suite {preset!r}; choose from: "
          + ", ".join(s.name for s in scenarios), file=sys.stderr)
    return None


def cmd_report(args: argparse.Namespace) -> int:
    from repro.harness import export_png_figures, render_suite_report
    from repro.harness.report import reportable_records

    missing: List[str] = []
    records = _stored_records(args, missing)
    if records is None:
        return 2
    if missing:
        total = len(records) + len(missing)
        print(f"{len(missing)} of {total} scenarios not in {args.store}: "
              + ", ".join(missing))
        print("run them with: repro suite run --preset " + args.preset)
    records = reportable_records(records)
    if not records:
        print("no records to report", file=sys.stderr)
        return 2
    print(render_suite_report(records, tables=args.tables))
    if args.png:
        written = export_png_figures(records, args.png)
        if written:
            print(f"\nwrote {len(written)} PNG figure(s) to {args.png}:")
            for path in written:
                print(f"  {path}")
        else:
            print("\nmatplotlib is not installed; skipped PNG export "
                  "(pip install matplotlib)")
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    from repro.analysis.tables import render_table
    from repro.harness import get_suite
    from repro.harness.bench import (
        bench_payload,
        compare_bench,
        load_bench,
        run_bench,
        write_bench,
    )

    try:
        scenarios = get_suite(args.suite)
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    baseline = None
    if args.baseline is not None:
        try:
            baseline = load_bench(args.baseline)
        except (OSError, ValueError) as exc:
            print(exc, file=sys.stderr)
            return 2

    kernels = [k.strip() for k in args.kernel.split(",")]
    try:
        results = run_bench(scenarios, kernels=kernels, reps=args.reps,
                            progress=lambda line: print(line, flush=True))
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(exc, file=sys.stderr)
        return 1
    rows = []
    for r in results:
        row = {"Workload": r.name, "Cycles": r.total_cycles}
        for kernel in kernels:
            row[f"{kernel} (cyc/s)"] = f"{r.median_cycles_per_sec(kernel):,.0f}"
        for kernel in kernels[1:]:
            speedup = (r.median_cycles_per_sec(kernel)
                       / r.median_cycles_per_sec(kernels[0]))
            row[f"{kernel} speedup"] = f"{speedup:.2f}x"
        rows.append(row)
    print()
    print(render_table(rows))
    payload = bench_payload(results, tag=args.tag, suite=args.suite,
                            reps=args.reps)
    if args.json:
        path = write_bench(args.json, payload)
        print(f"\nwrote {path}")
    if baseline is None:
        return 0

    comparison = compare_bench(payload, baseline, tolerance=args.tolerance)
    print(f"\nvs baseline {args.baseline} "
          f"(tolerance {100 * args.tolerance:.0f}%):")
    for row in comparison.rows:
        ratio = "" if row.ratio is None else f" ({row.ratio:.2f}x baseline)"
        detail = f" - {row.detail}" if row.detail else ""
        print(f"  [{row.status:<14}] {row.name} ({row.kernel}){ratio}{detail}")
    if not comparison.passed:
        print(f"\nFAILED: {len(comparison.failures)} workload(s) regressed",
              file=sys.stderr)
        return 1
    print("\nbench comparison passed")
    return 0


def cmd_metrics(args: argparse.Namespace) -> int:
    from repro.obs import MetricsRegistry

    records = _stored_records(args)
    if records is None:
        return 2
    registry = MetricsRegistry()
    skipped = 0
    for record in records:
        snapshot = record.get("metrics")
        if not snapshot:
            skipped += 1  # pre-1.3.0 record: no embedded metrics
            continue
        registry.merge_snapshot(
            snapshot, {"scenario": record.get("name", "?")})
    if skipped:
        print(f"note: {skipped} record(s) predate embedded metrics "
              "(repro < 1.3.0) and were skipped", file=sys.stderr)
    if not registry.metrics():
        print("no metrics found in stored records", file=sys.stderr)
        return 1
    if args.format == "json":
        text = json.dumps(registry.snapshot(), indent=2, sort_keys=True) + "\n"
    else:
        text = registry.to_prometheus()
    if args.out:
        out = Path(args.out)
        if out.parent != Path(""):
            out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(text, encoding="utf-8")
        print(f"wrote {args.out} ({len(registry.metrics())} metric families "
              f"from {len(records) - skipped} record(s))")
    else:
        print(text, end="")
    return 0


def cmd_fuzz_run(args: argparse.Namespace) -> int:
    try:
        from repro.fuzz.campaign import FUZZ_PROFILES, run_campaign  # noqa: F401
    except ImportError as exc:
        print(f"repro fuzz run needs the 'hypothesis' package: {exc}",
              file=sys.stderr)
        return 2
    from repro.obs import MetricsRegistry

    metrics = MetricsRegistry() if args.metrics_out else None
    corpus_dir = None if args.no_corpus else args.corpus_dir
    result = run_campaign(
        profile=args.profile,
        max_examples=args.max_examples,
        seed=args.seed,
        corpus_dir=corpus_dir,
        metrics=metrics,
        progress=(None if args.quiet
                  else lambda line: print(line, flush=True)),
    )
    from repro.analysis.tables import render_table

    print(f"\nfuzz campaign: profile={result.profile} seed={result.seed} "
          f"-> {result.examples} example(s) in {result.elapsed_s:.1f}s")
    print(render_table([
        {"Invariant": name,
         "OK": result.counters[name]["ok"],
         "Skip": result.counters[name]["skip"],
         "Fail": result.counters[name]["fail"]}
        for name in sorted(result.counters)
    ]))
    if args.json:
        out = Path(args.json)
        if out.parent != Path(""):
            out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(result.as_dict(), indent=2, sort_keys=True)
                       + "\n", encoding="utf-8")
        print(f"campaign report: {args.json}")
    if args.metrics_out:
        _write_metrics(metrics, args.metrics_out)
        print(f"metrics: {args.metrics_out}")
    if result.failure:
        failed = [o for o in result.failure["outcomes"]
                  if o["status"] == "fail"]
        print("\nDIVERGENCE (shrunk to the minimal scenario):",
              file=sys.stderr)
        for outcome in failed:
            print(f"  {outcome['invariant']}: {outcome['detail']}",
                  file=sys.stderr)
        print(f"  scenario: {json.dumps(result.failure['scenario'], sort_keys=True)}",
              file=sys.stderr)
        if result.corpus_file:
            print(f"  corpus entry written: {result.corpus_file} "
                  "(commit it — tier-1 replays tests/corpus/ forever)",
                  file=sys.stderr)
        return 1
    if not result.coverage_complete():
        print("coverage incomplete: some invariant did not run on every "
              "example", file=sys.stderr)
        return 1
    print("all invariants held on every example")
    return 0


def cmd_fuzz_classify(args: argparse.Namespace) -> int:
    from repro.harness import fuzz_rows_from_records

    records = _stored_records(args)
    if records is None:
        return 2
    rows = fuzz_rows_from_records(records)
    skipped = len(records) - len(rows)
    if skipped:
        print(f"note: {skipped} record(s) lack embedded metrics and were "
              "skipped", file=sys.stderr)
    if not rows:
        print("no classifiable records in the store", file=sys.stderr)
        return 1
    if args.json:
        from repro.fuzz.fingerprint import classify_record

        print(json.dumps(
            [classify_record(r) for r in records if r.get("metrics")],
            indent=2, sort_keys=True))
        return 0
    from repro.analysis.tables import render_table

    print("Workload regimes (fuzz fingerprint):")
    print(render_table(rows, max_width=36))
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve import ServeConfig, serve_forever

    config = ServeConfig(
        host=args.host,
        port=args.port,
        jobs=args.jobs,
        queue_depth=args.queue_depth,
        store=args.store,
        timeout=args.timeout,
        cadence=args.cadence,
        kernel=args.kernel,
    )
    serve_forever(config)
    return 0


def cmd_quickstart(args: argparse.Namespace) -> int:
    from repro.harness import run_scenario

    dataset = DatasetSpec(vertices=200, edges=1600, sampling="edge", seed=1)
    record = run_scenario(Scenario(
        name="quickstart", dataset=dataset, chip=ChipSpec(side=8),
        algorithm="bfs", options=RunOptions(graph_seed=VERB_GRAPH_SEED)))
    sizes, energy = record["increment_sizes"], record["energy"]
    print(f"streamed {sum(sizes)} edges over {len(sizes)} increments")
    print(f"total cycles: {record['total_cycles']}")
    print(f"BFS reached {record['algo_metrics']['reached']} of "
          f"{dataset.vertices} vertices")
    print(f"energy: {energy['total_uj']:.2f} uJ, time: {energy['time_us']:.2f} us")
    return 0


def build_parser() -> argparse.ArgumentParser:
    from repro.harness.report import REPORT_SECTIONS

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Streaming dynamic graph processing on a message-driven simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_t1 = sub.add_parser("table1", help="reproduce Table 1 (dataset increments)")
    p_t1.add_argument("--scale", choices=sorted(SCALE_PRESETS), default="tiny")
    p_t1.add_argument("--seed", type=int, default=7)
    p_t1.set_defaults(func=cmd_table1)

    p_t2 = sub.add_parser("table2", help="reproduce Table 2 (energy and time)")
    p_t2.add_argument("--scale", choices=sorted(SCALE_PRESETS), default="tiny")
    p_t2.add_argument("--seed", type=int, default=7)
    _add_chip_args(p_t2)
    p_t2.set_defaults(func=cmd_table2)

    p_inc = sub.add_parser("increments", help="reproduce Figure 8/9 (cycles per increment)")
    _add_dataset_args(p_inc)
    _add_chip_args(p_inc)
    p_inc.set_defaults(func=cmd_increments)

    p_act = sub.add_parser("activation", help="reproduce Figure 6/7 (cell activation)")
    _add_dataset_args(p_act)
    _add_chip_args(p_act)
    p_act.add_argument("--with-bfs", action="store_true", help="enable BFS propagation")
    p_act.set_defaults(func=cmd_activation)

    p_quick = sub.add_parser("quickstart", help="run a tiny end-to-end demo")
    p_quick.set_defaults(func=cmd_quickstart)

    p_suite = sub.add_parser(
        "suite", help="orchestrate scenario suites (parallel runs, cached results)"
    )
    suite_sub = p_suite.add_subparsers(dest="suite_command", required=True)

    def _add_report_args(sp: argparse.ArgumentParser) -> None:
        sp.add_argument(
            "--store", default="results/suite.jsonl",
            help="JSONL result store path (default: results/suite.jsonl)",
        )
        sp.add_argument(
            "--tables", nargs="+", choices=tuple(REPORT_SECTIONS),
            default=None, help="report sections to print (default: all with data)",
        )

    p_list = suite_sub.add_parser("list", help="list the registered suites")
    p_list.add_argument("--scenarios", action="store_true",
                        help="also list every scenario of every suite")
    p_list.set_defaults(func=cmd_suite_list)

    p_run = suite_sub.add_parser("run", help="run a suite (skipping cached scenarios)")
    p_run.add_argument("--preset", required=True, help="suite name (see: repro suite list)")
    p_run.add_argument("-j", "--jobs", type=int, default=1,
                       help="worker processes (default 1 = serial)")
    p_run.add_argument("--serial", action="store_true",
                       help="force serial in-process execution (overrides -j)")
    p_run.add_argument("--force", action="store_true",
                       help="re-run scenarios even when cached, replacing records")
    p_run.add_argument("--no-store", action="store_true",
                       help="do not read or write the result store")
    p_run.add_argument("--snapshot-every", type=int, default=0, metavar="N",
                       help="checkpoint every N streamed increments (resumable "
                            "runs; requires --snapshot-dir, see repro snapshot)")
    p_run.add_argument("--snapshot-dir", default=None, metavar="DIR",
                       help="directory receiving --snapshot-every checkpoints")
    p_run.add_argument("--timeout", type=float, default=None, metavar="SECONDS",
                       help="per-scenario wall-clock budget; an overdue "
                            "scenario records a timeout outcome instead of "
                            "hanging the suite")
    p_run.add_argument("--expect-cached", action="store_true",
                       help="fail (exit 1) if any scenario would be computed "
                            "instead of served from the store")
    p_run.add_argument("--kernel", choices=KERNELS, default=None,
                       help="pin the NoC kernel for every scenario (speed "
                            "knob only: schedules and cache keys are "
                            "identical across kernels)")
    p_run.add_argument("--trace", default=None, metavar="PATH",
                       help="write a Chrome trace-event JSON of the harness "
                            "here, plus PATH-<scenario>.json per computed "
                            "scenario (observer-only: records are unchanged)")
    p_run.add_argument("--metrics-out", default=None, metavar="PATH",
                       help="write harness metrics (Prometheus text, or JSON "
                            "when PATH ends in .json)")
    p_run.add_argument("--profile", default=None, metavar="PATH",
                       help="cProfile the whole run and write collapsed "
                            "stacks here (flamegraph.pl-compatible; also "
                            "writes PATH.pstats)")
    _add_report_args(p_run)
    p_run.set_defaults(func=cmd_suite_run)

    p_diff = suite_sub.add_parser(
        "diff", help="compare two result stores (metric deltas, stale versions)"
    )
    p_diff.add_argument("store_a", help="baseline JSONL store")
    p_diff.add_argument("store_b", help="comparison JSONL store")
    p_diff.set_defaults(func=cmd_suite_diff)

    p_algos = sub.add_parser(
        "algos", help="inspect the algorithm registry")
    algos_sub = p_algos.add_subparsers(dest="algos_command", required=True)
    p_algos_list = algos_sub.add_parser(
        "list", help="list registered algorithms with their capabilities")
    p_algos_list.add_argument("--json", action="store_true",
                              help="emit the registry as JSON")
    p_algos_list.set_defaults(func=cmd_algos_list)

    p_store = sub.add_parser(
        "store", help="result-store lifecycle (compaction, garbage collection)"
    )
    store_sub = p_store.add_subparsers(dest="store_command", required=True)
    p_compact = store_sub.add_parser(
        "compact",
        help="drop superseded-version records, keeping the newest per scenario",
    )
    p_compact.add_argument("store", nargs="?", default="results/suite.jsonl",
                           help="JSONL store path (default: results/suite.jsonl)")
    p_compact.set_defaults(func=cmd_store_compact)
    p_gc = store_sub.add_parser(
        "gc", help="drop every record not written by the current repro version"
    )
    p_gc.add_argument("store", nargs="?", default="results/suite.jsonl",
                      help="JSONL store path (default: results/suite.jsonl)")
    p_gc.set_defaults(func=cmd_store_gc)

    p_snap = sub.add_parser(
        "snapshot",
        help="checkpoint/restore mid-stream chip state (see docs/snapshot.md)",
    )
    snap_sub = p_snap.add_subparsers(dest="snapshot_command", required=True)
    p_snap_save = snap_sub.add_parser(
        "save", help="run a scenario to an increment boundary and checkpoint it"
    )
    p_snap_save.add_argument("--preset", required=True,
                             help="suite name (see: repro suite list)")
    p_snap_save.add_argument("--scenario", required=True,
                             help="scenario name inside the suite")
    p_snap_save.add_argument("--increment", type=int, required=True,
                             metavar="K",
                             help="capture after the K-th streamed increment")
    p_snap_save.add_argument("--out", required=True, metavar="PATH",
                             help="snapshot file to write")
    p_snap_save.add_argument("--kernel", choices=KERNELS,
                             default=None, help="NoC kernel pin (speed only)")
    p_snap_save.set_defaults(func=cmd_snapshot_save)
    p_snap_info = snap_sub.add_parser(
        "info", help="describe a snapshot file (schema, provenance, state hash)"
    )
    p_snap_info.add_argument("path", help="snapshot file")
    p_snap_info.set_defaults(func=cmd_snapshot_info)
    p_snap_restore = snap_sub.add_parser(
        "restore", help="restore a snapshot and resume the run to completion"
    )
    p_snap_restore.add_argument("path", help="snapshot file")
    p_snap_restore.add_argument("--preset", required=True,
                                help="suite name (see: repro suite list)")
    p_snap_restore.add_argument("--scenario", required=True,
                                help="scenario name inside the suite")
    p_snap_restore.add_argument("--verify", action="store_true",
                                help="also run the scenario uninterrupted and "
                                     "fail unless the records are identical")
    p_snap_restore.add_argument("--store", default=None, metavar="PATH",
                                help="write the resumed record into this "
                                     "JSONL result store")
    p_snap_restore.add_argument("--kernel", choices=KERNELS, default=None,
                                help="NoC kernel pin (speed only)")
    p_snap_restore.set_defaults(func=cmd_snapshot_restore)

    p_report = sub.add_parser(
        "report",
        help="render stored records as text tables and optional PNG figures",
    )
    _add_report_args(p_report)
    p_report.add_argument("--preset", default=None,
                          help="restrict to one suite's scenarios and list "
                               "those missing from the store (default: "
                               "every stored record)")
    p_report.add_argument("--png", default=None, metavar="DIR",
                          help="export PNG figures here (requires matplotlib; "
                               "skips cleanly when it is absent)")
    p_report.set_defaults(func=cmd_report)

    p_bench = sub.add_parser(
        "bench",
        help="run the perf suite and emit/compare a machine-readable report",
    )
    p_bench.add_argument("--suite", default="perf",
                         help="suite to benchmark (default: perf)")
    p_bench.add_argument("--reps", type=int, default=3,
                         help="interleaved repetitions per workload (default 3)")
    p_bench.add_argument("--tag", default="local",
                         help="tag stamped into the report (default: local)")
    p_bench.add_argument("--json", default=None, metavar="PATH",
                         help="write the BENCH_<tag>.json report here")
    p_bench.add_argument("--baseline", default=None, metavar="PATH",
                         help="compare against this bench JSON; exit 1 on regression")
    p_bench.add_argument("--tolerance", type=float, default=0.25,
                         help="tolerated relative cycles/sec drop (default 0.25)")
    p_bench.add_argument("--kernel", default="auto", metavar="K1[,K2...]",
                         help="NoC kernel(s) out of " + ", ".join(KERNELS)
                              + " (default: auto); two or more concrete "
                              "kernels run interleaved inside each "
                              "(rep, workload) pair "
                              "as an A/B with speedups vs the first, and "
                              "must report identical cycle counts")
    p_bench.set_defaults(func=cmd_bench)

    p_fuzz = sub.add_parser(
        "fuzz",
        help="property-based fuzzing of the determinism contract "
             "(see docs/fuzzing.md)",
    )
    fuzz_sub = p_fuzz.add_subparsers(dest="fuzz_command", required=True)
    p_fuzz_run = fuzz_sub.add_parser(
        "run",
        help="fuzz random scenarios through the differential oracle "
             "(kernels, snapshots, parking, span hand-off, tracing, "
             "conservation)",
    )
    p_fuzz_run.add_argument("--profile", choices=("ci", "deep"), default="ci",
                            help="example budget profile (default: ci)")
    p_fuzz_run.add_argument("--max-examples", type=int, default=None,
                            metavar="N",
                            help="override the profile's example budget")
    p_fuzz_run.add_argument("--seed", type=int, default=0,
                            help="campaign seed (default 0; campaigns with "
                                 "the same seed and budget generate the "
                                 "same scenarios)")
    p_fuzz_run.add_argument("--corpus-dir", default="tests/corpus",
                            metavar="DIR",
                            help="where a shrunk failing spec is persisted "
                                 "(default: tests/corpus, replayed by tier-1)")
    p_fuzz_run.add_argument("--no-corpus", action="store_true",
                            help="do not persist a failing spec")
    p_fuzz_run.add_argument("--json", default=None, metavar="PATH",
                            help="write the campaign report (counters, "
                                 "failure) as JSON here")
    p_fuzz_run.add_argument("--metrics-out", default=None, metavar="PATH",
                            help="write campaign metrics (Prometheus text, "
                                 "or JSON when PATH ends in .json)")
    p_fuzz_run.add_argument("--quiet", action="store_true",
                            help="suppress the per-example progress lines")
    p_fuzz_run.set_defaults(func=cmd_fuzz_run)
    p_fuzz_classify = fuzz_sub.add_parser(
        "classify",
        help="label stored records with workload regimes "
             "(park/diffusion/storm)",
    )
    p_fuzz_classify.add_argument("--store", default="results/suite.jsonl",
                                 help="JSONL result store path "
                                      "(default: results/suite.jsonl)")
    p_fuzz_classify.add_argument("--preset", default=None,
                                 help="restrict to one suite's scenarios "
                                      "(default: every stored record)")
    p_fuzz_classify.add_argument("--json", action="store_true",
                                 help="emit full classification rows as JSON")
    p_fuzz_classify.set_defaults(func=cmd_fuzz_classify)

    p_serve = sub.add_parser(
        "serve",
        help="long-lived scenario service over the warm pool, result store "
             "and snapshots (see docs/serve.md)",
    )
    p_serve.add_argument("--host", default="127.0.0.1",
                         help="bind address (default: 127.0.0.1)")
    p_serve.add_argument("--port", type=int, default=8631,
                         help="bind port; 0 picks an ephemeral port "
                              "(default: 8631)")
    p_serve.add_argument("--jobs", type=int, default=2,
                         help="warm pool workers = jobs simulating "
                              "concurrently (default: 2)")
    p_serve.add_argument("--queue-depth", type=int, default=8,
                         help="max admitted-but-unfinished jobs; further "
                              "submissions get HTTP 429 (default: 8)")
    p_serve.add_argument("--store", default="results/serve.jsonl",
                         help="JSONL result store path "
                              "(default: results/serve.jsonl)")
    p_serve.add_argument("--timeout", type=float, default=None,
                         metavar="SECONDS",
                         help="per-span wall-clock budget; an overdue span "
                              "fails its job and respawns the worker "
                              "(default: unlimited)")
    p_serve.add_argument("--cadence", type=int, default=1,
                         metavar="INCREMENTS",
                         help="increments per execution span — the "
                              "progress/pause granularity (default: 1)")
    p_serve.add_argument("--kernel", choices=KERNELS, default=None,
                         help="default NoC kernel pin for submitted jobs "
                              "(identity-free; per-job POST field overrides)")
    p_serve.set_defaults(func=cmd_serve)

    p_metrics = sub.add_parser(
        "metrics",
        help="aggregate the metrics embedded in stored records "
             "(JSON or Prometheus text)",
    )
    p_metrics.add_argument("--store", default="results/suite.jsonl",
                           help="JSONL result store path "
                                "(default: results/suite.jsonl)")
    p_metrics.add_argument("--preset", default=None,
                           help="restrict to one suite's scenarios "
                                "(default: every stored record)")
    p_metrics.add_argument("--format", choices=("json", "prometheus"),
                           default="json",
                           help="output format (default: json)")
    p_metrics.add_argument("--out", default=None, metavar="PATH",
                           help="write here instead of stdout")
    p_metrics.set_defaults(func=cmd_metrics)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # Downstream pipe (e.g. ``repro suite list | head``) closed early;
        # exit quietly like standard Unix tools instead of tracebacking.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
