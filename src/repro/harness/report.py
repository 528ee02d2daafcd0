"""Fold stored harness records back into the paper's tables and figures.

Records (plain dicts from :func:`repro.harness.runner.run_scenario`, or
loaded back from a :class:`~repro.harness.store.ResultStore`) carry enough
to rebuild the Table 1 / Table 2 rows and the Figure 8/9 per-increment
series without re-running anything.  These views are the only source of
those tables: the paper verbs of ``repro`` and the benchmarks render them
through the :mod:`repro.analysis` helpers too.
"""

from __future__ import annotations

import warnings
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.analysis.figures import FigureData
from repro.analysis.tables import render_table
from repro.harness.store import StoreDiff

Record = Dict[str, Any]

#: What every report view reads off a record: the ``suite`` overview is
#: always rendered, and the figures read the per-increment series.
_RECORD_FIELDS = ("name", "scenario", "total_cycles", "edges_stored",
                  "energy", "increment_sizes", "increment_cycles")
_SCENARIO_FIELDS = ("dataset", "chip", "algorithm")


def reportable_records(records: Sequence[Record]) -> List[Record]:
    """The records the report views can read, in order.

    A store keeps any JSON object with a ``spec_hash`` (hand-written or
    foreign lines included), but the views need a harness record.  Every
    other line is skipped with one warning naming its spec hash and the
    missing fields.
    """
    kept: List[Record] = []
    for record in records:
        missing = [key for key in _RECORD_FIELDS if key not in record]
        spec = record.get("scenario")
        if isinstance(spec, dict):
            missing += [f"scenario.{key}" for key in _SCENARIO_FIELDS
                        if key not in spec]
        elif "scenario" not in missing:
            missing.append("scenario")
        if missing:
            warnings.warn(
                f"skipped store record {record.get('spec_hash')!r}: not a "
                f"harness record (no {', '.join(missing)})", RuntimeWarning)
            continue
        kept.append(record)
    return kept


def suite_table_rows(records: Sequence[Record]) -> List[Dict[str, object]]:
    """A one-row-per-scenario overview table of a suite run."""
    rows: List[Dict[str, object]] = []
    for record in records:
        spec = record["scenario"]
        dataset, chip = spec["dataset"], spec["chip"]
        row: Dict[str, object] = {
            "Scenario": record["name"],
            "Algorithm": spec["algorithm"],
            "Chip": f"{chip['side']}x{chip['side']}",
            "Sampling": dataset["sampling"].capitalize(),
            "Edges": record["edges_stored"],
            "Cycles": record["total_cycles"],
            "Energy (uJ)": round(record["energy"]["total_uj"], 1),
            "Time (us)": round(record["energy"]["time_us"], 2),
        }
        metrics = record.get("algo_metrics") or {}
        row["Result"] = ", ".join(f"{k}={v}" for k, v in metrics.items()) or "-"
        rows.append(row)
    return rows


def table1_rows_from_records(records: Sequence[Record]) -> List[Dict[str, object]]:
    """Table 1 rows (edges per increment) from stored records.

    One row per distinct dataset spec, preserving suite order; matches the
    column layout of :func:`repro.analysis.tables.table1_rows`.
    """
    rows: List[Dict[str, object]] = []
    seen = set()
    for record in records:
        dataset = record["scenario"]["dataset"]
        key = tuple(sorted(dataset.items()))
        if key in seen:
            continue
        seen.add(key)
        row: Dict[str, object] = {
            "Vertices": dataset["vertices"],
            "Sampling Type": dataset["sampling"].capitalize(),
        }
        for i, size in enumerate(record["increment_sizes"], start=1):
            row[f"Inc {i}"] = size
        row["Final Edges"] = sum(record["increment_sizes"])
        rows.append(row)
    return rows


def _pair_records(records: Sequence[Record]) -> Dict[Tuple, Dict[str, Record]]:
    """Group records into {dataset+chip+options key: {algorithm: record}}.

    Run options are part of the key so e.g. vicinity- and random-allocator
    runs of the same dataset/chip never collapse into one pair.
    """
    pairs: Dict[Tuple, Dict[str, Record]] = {}
    for record in records:
        spec = record["scenario"]
        key = (
            tuple(sorted(spec["dataset"].items())),
            tuple(sorted(spec["chip"].items())),
            tuple(sorted(spec["options"].items())),
        )
        pairs.setdefault(key, {})[spec["algorithm"]] = record
    return pairs


def table2_rows_from_records(records: Sequence[Record]) -> List[Dict[str, object]]:
    """Table 2 rows (energy/time, ingestion vs ingestion+BFS) from records.

    Pairs each ``ingest`` record with the ``bfs`` record sharing its dataset,
    chip and run options; unpaired records are skipped.  The row label is
    the ingest scenario's name without its ``-ingest`` suffix.
    """
    rows: List[Dict[str, object]] = []
    for group in _pair_records(records).values():
        ingest, bfs = group.get("ingest"), group.get("bfs")
        if ingest is None or bfs is None:
            continue
        label = ingest["name"].rsplit("-ingest", 1)[0]
        rows.append(
            {
                "Dataset": label,
                "Sampling Type": ingest["scenario"]["dataset"]["sampling"].capitalize(),
                "Ingestion Energy (uJ)": round(ingest["energy"]["total_uj"], 1),
                "Ingestion Time (us)": round(ingest["energy"]["time_us"], 2),
                "Ingestion & BFS Energy (uJ)": round(bfs["energy"]["total_uj"], 1),
                "Ingestion & BFS Time (us)": round(bfs["energy"]["time_us"], 2),
            }
        )
    return rows


def activation_rows_from_records(records: Sequence[Record]) -> List[Dict[str, object]]:
    """Figure 6/7 analogue: per-scenario cell-activation summaries.

    The full per-cycle activation series is not persisted in records (it is
    O(cycles) per scenario); the stored mean/peak pair captures the
    figures' headline content — sustained parallel activity during
    streaming, higher with BFS enabled — for every scenario in the store.
    """
    rows: List[Dict[str, object]] = []
    for record in records:
        stats = record.get("stats") or {}
        if "mean_activation" not in stats:
            continue
        rows.append(
            {
                "Scenario": record["name"],
                "Algorithm": record["scenario"]["algorithm"],
                "Cycles": record["total_cycles"],
                "Mean Active %": round(100 * stats["mean_activation"], 2),
                "Peak Active %": round(100 * stats["peak_activation"], 2),
            }
        )
    return rows


def ablation_rows_from_records(records: Sequence[Record]) -> List[Dict[str, object]]:
    """Ablation sweep table: one row per ``ablation-<knob>-<value>`` record.

    Groups the ``ablations`` suite's stored records by the knob being
    varied (allocator / routing / fidelity) so the cycle, hop, ghost and
    energy movements the ``bench_ablation_*`` benchmarks print are
    readable straight from the store.
    """
    rows: List[Dict[str, object]] = []
    for record in records:
        name = str(record.get("name", ""))
        if not name.startswith("ablation-"):
            continue
        parts = name.split("-", 2)
        knob, value = (parts[1], parts[2]) if len(parts) == 3 else ("?", name)
        stats = record.get("stats") or {}
        rows.append(
            {
                "Knob": knob,
                "Value": value,
                "Cycles": record["total_cycles"],
                "Hops": stats.get("hops", "-"),
                "Ghost Blocks": record.get("ghost_blocks", "-"),
                "Edges": record.get("edges_stored", "-"),
                "Energy (uJ)": round(record["energy"]["total_uj"], 1),
            }
        )
    rows.sort(key=lambda r: (str(r["Knob"]), str(r["Value"])))
    return rows


def allocator_rows_from_records(records: Sequence[Record]) -> List[Dict[str, object]]:
    """Figure 5 analogue: ghost-placement quality per allocator.

    One row per ``allocator-comparison-*`` record, read straight from the
    stored ghost metrics (``ghost_blocks`` / ``ghost_distance`` /
    ``ghost_max_depth``) — the vicinity-vs-random trade-off the
    ``examples/allocator_comparison.py`` demo prints, rebuilt from the
    store without re-simulating.  Records predating the ghost-distance
    fields render ``-`` in those columns.
    """
    rows: List[Dict[str, object]] = []
    for record in records:
        name = str(record.get("name", ""))
        if not name.startswith("allocator-comparison-"):
            continue
        stats = record.get("stats") or {}
        distance = record.get("ghost_distance")
        rows.append(
            {
                "Allocator": record["scenario"]["options"].get(
                    "ghost_allocator", "?"),
                "Cycles": record["total_cycles"],
                "Hops": stats.get("hops", "-"),
                "Ghost Blocks": record.get("ghost_blocks", "-"),
                "Mean Distance": (round(distance, 2)
                                  if isinstance(distance, (int, float))
                                  else "-"),
                "Max Depth": record.get("ghost_max_depth", "-"),
                "Energy (uJ)": round(record["energy"]["total_uj"], 1),
            }
        )
    rows.sort(key=lambda r: str(r["Allocator"]))
    return rows


def baseline_rows_from_records(records: Sequence[Record]) -> List[Dict[str, object]]:
    """Baseline comparison: incremental chip cycles vs the BSP estimator.

    Pairs ``baseline-ingest``/``baseline-bfs`` records and recomputes the
    bulk-synchronous strawman's per-increment cost estimate from the
    dataset spec (cheap: the BSP engine is functional, no chip is
    simulated).  Skips the BSP columns cleanly when the dataset generators
    are unavailable (numpy-free install).
    """
    rows: List[Dict[str, object]] = []
    for group in _pair_records(records).values():
        ingest, bfs = group.get("ingest"), group.get("bfs")
        if ingest is None or bfs is None:
            continue
        if not str(ingest.get("name", "")).startswith("baseline-"):
            continue
        ingest_cycles = ingest["increment_cycles"]
        bfs_cycles = bfs["increment_cycles"]
        bsp_results = None
        try:
            from repro.baselines.bsp import bsp_incremental_bfs
            from repro.harness.runner import materialize_dataset
            from repro.harness.scenario import DatasetSpec

            spec = bfs["scenario"]
            dataset = materialize_dataset(DatasetSpec(**spec["dataset"]))
            side = spec["chip"]["side"]
            bsp_results = bsp_incremental_bfs(
                dataset.num_vertices, dataset.increments,
                root=spec["options"]["root"], num_workers=side * side,
            )
        except RuntimeError:
            pass  # numpy-free install: dataset generation unavailable
        for i in range(len(bfs_cycles)):
            row: Dict[str, object] = {
                "Increment": i + 1,
                "Incremental (ingest+BFS)": bfs_cycles[i],
                "Incremental BFS overhead": max(
                    0, bfs_cycles[i] - ingest_cycles[i]),
            }
            if bsp_results is not None:
                row["BSP estimate"] = bsp_results[i].estimated_cycles
                row["BSP supersteps"] = bsp_results[i].supersteps
            rows.append(row)
    return rows


def fuzz_rows_from_records(records: Sequence[Record]) -> List[Dict[str, object]]:
    """Workload-regime classification rows (``repro fuzz classify``).

    Classifies every record that embeds a metrics snapshot via
    :func:`repro.fuzz.fingerprint.classify_record`; records predating
    embedded metrics are skipped (the fingerprint needs the per-cycle
    histograms).  Import is deferred: :mod:`repro.fuzz` itself imports the
    harness, and the section should not cost anything when unused.
    """
    from repro.fuzz.fingerprint import classify_record

    rows: List[Dict[str, object]] = []
    for record in records:
        if not record.get("metrics"):
            continue
        c = classify_record(record)
        rows.append(
            {
                "Scenario": c["name"],
                "Regime": c["regime"],
                "Cycles": c["cycles"],
                "Mean Active %": round(100 * c["mean_activation"], 2),
                "Idle %": round(100 * c["idle_fraction"], 2),
                "Peak In-Flight": c["peak_in_flight"],
                "Storm %": round(100 * c["storm_fraction"], 2),
            }
        )
    return rows


def increment_figures_from_records(records: Sequence[Record]) -> List[FigureData]:
    """Figure 8/9 analogues (cycles per increment) from paired records."""
    figures: List[FigureData] = []
    for group in _pair_records(records).values():
        ingest, bfs = group.get("ingest"), group.get("bfs")
        if ingest is None or bfs is None:
            continue
        label = ingest["name"].rsplit("-ingest", 1)[0]
        fig = FigureData(
            title=f"Cycles per increment ({label})",
            x_label="Increment",
            y_label="Cycles",
        )
        fig.add("Streaming Edges", ingest["increment_cycles"])
        fig.add("Streaming Edges with BFS", bfs["increment_cycles"])
        figures.append(fig)
    return figures


#: Report section registry: key -> (title, row builder, render_table width).
#: ``suite`` is always emitted; every other section is skipped when empty.
REPORT_SECTIONS: Dict[str, Tuple[str, Any, Optional[int]]] = {
    "suite": ("Suite results", suite_table_rows, 36),
    "table1": ("Table 1 analogue (edges per increment)",
               table1_rows_from_records, None),
    "table2": ("Table 2 analogue (energy and time)",
               table2_rows_from_records, 36),
    "activation": ("Figure 6/7 analogue (cell activation)",
                   activation_rows_from_records, 36),
    "ablation": ("Ablation sweeps (allocator / routing / fidelity)",
                 ablation_rows_from_records, 36),
    "allocators": ("Ghost allocator comparison (vicinity vs random)",
                   allocator_rows_from_records, 36),
    "baselines": ("Baseline comparison (incremental vs BSP estimate)",
                  baseline_rows_from_records, None),
    "fuzz": ("Workload regimes (fuzz fingerprint)",
             fuzz_rows_from_records, 36),
}


def report_sections(records: Sequence[Record], *,
                    tables: Optional[Sequence[str]] = None,
                    ) -> List[Tuple[str, str]]:
    """``(title, rendered table)`` pairs for a suite report.

    The shared section pipeline behind the plain-text ``repro report`` and
    the ``repro serve`` HTML view — both render exactly these tables, so
    the two surfaces can never drift.  ``tables`` selects section keys out
    of :data:`REPORT_SECTIONS` (default: every section that has data; the
    ``suite`` overview is included even when empty).
    """
    wanted = tuple(tables) if tables is not None else tuple(REPORT_SECTIONS)
    sections: List[Tuple[str, str]] = []
    for key in wanted:
        if key not in REPORT_SECTIONS:
            continue
        title, build_rows, max_width = REPORT_SECTIONS[key]
        rows = build_rows(records)
        if not rows and key != "suite":
            continue
        body = (render_table(rows, max_width=max_width)
                if max_width is not None else render_table(rows))
        sections.append((title, body))
    return sections


def render_suite_report(records: Sequence[Record], *,
                        tables: Optional[Sequence[str]] = None) -> str:
    """Render a full text report for a suite's records.

    ``tables`` selects sections out of :data:`REPORT_SECTIONS`; by default
    every section that has data is included.
    """
    return "\n\n".join(f"{title}:\n{body}"
                       for title, body in report_sections(records,
                                                          tables=tables))


def export_png_figures(records: Sequence[Record], outdir) -> List:
    """Write PNG figures rebuilt from stored records (``repro report --png``).

    Emits one cycles-per-increment figure per ingest/BFS pair (Figure 8/9
    analogue) plus one mean/peak activation summary over every scenario
    that recorded activation stats (Figure 6/7 analogue).  Returns the
    written paths; an **empty list when matplotlib is not installed** — the
    optional dependency is probed through :mod:`repro._compat`, so callers
    skip cleanly rather than crash.
    """
    from pathlib import Path

    from repro._compat import get_matplotlib

    plt = get_matplotlib()
    if plt is None:
        return []
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    written: List[Path] = []

    for figure in increment_figures_from_records(records):
        fig, ax = plt.subplots(figsize=(7, 4.5))
        for label, series in figure.series.items():
            ax.plot(range(1, len(series) + 1), series, marker="o", label=label)
        ax.set_title(figure.title)
        ax.set_xlabel(figure.x_label)
        ax.set_ylabel(figure.y_label)
        ax.legend()
        fig.tight_layout()
        slug = "".join(c if c.isalnum() or c in "-_" else "-"
                       for c in figure.title.lower())[:60]
        path = outdir / f"increments-{slug}.png"
        fig.savefig(path, dpi=120)
        plt.close(fig)
        written.append(path)

    rows = activation_rows_from_records(records)
    if rows:
        fig, ax = plt.subplots(figsize=(max(7, 1.2 * len(rows)), 4.5))
        xs = range(len(rows))
        ax.bar([x - 0.2 for x in xs], [r["Mean Active %"] for r in rows],
               width=0.4, label="Mean active %")
        ax.bar([x + 0.2 for x in xs], [r["Peak Active %"] for r in rows],
               width=0.4, label="Peak active %")
        ax.set_xticks(list(xs))
        ax.set_xticklabels([str(r["Scenario"]) for r in rows],
                           rotation=30, ha="right")
        ax.set_ylabel("Compute cells active (%)")
        ax.set_title("Cell activation by scenario")
        ax.legend()
        fig.tight_layout()
        path = outdir / "activation.png"
        fig.savefig(path, dpi=120)
        plt.close(fig)
        written.append(path)
    return written


def _record_labels(records: Sequence[Record]) -> str:
    return ", ".join(str(r.get("name") or r.get("spec_hash", "?")[:12])
                     for r in records)


def render_store_diff(diff: StoreDiff, *, label_a: str = "A",
                      label_b: str = "B") -> str:
    """Render a :class:`~repro.harness.store.StoreDiff` as a text report.

    One row per (scenario, changed metric); scenarios only present on one
    side and stale-version records get their own summary lines, so the
    output answers "what did this simulator change do to every stored
    measurement" at a glance.
    """
    sections: List[str] = []
    shared = len(diff.matched)
    if diff.changed:
        rows = [
            {
                "Scenario": entry.name,
                "Metric": delta.metric,
                label_a: delta.before,
                label_b: delta.after,
                "Delta": round(delta.delta, 6),
                "Delta %": ("-" if delta.pct is None else f"{delta.pct:+.1f}%"),
            }
            for entry in diff.changed
            for delta in entry.deltas
        ]
        sections.append(
            f"{len(diff.changed)} of {shared} shared scenarios differ:\n"
            + render_table(rows, max_width=36)
        )
    else:
        sections.append(f"all {shared} shared scenarios agree")
    if diff.only_a:
        sections.append(f"only in {label_a} ({len(diff.only_a)}): "
                        + _record_labels(diff.only_a))
    if diff.only_b:
        sections.append(f"only in {label_b} ({len(diff.only_b)}): "
                        + _record_labels(diff.only_b))
    if diff.stale_a:
        sections.append(
            f"stale versions in {label_a} ({len(diff.stale_a)} records): "
            + _record_labels(diff.stale_a))
    if diff.stale_b:
        sections.append(
            f"stale versions in {label_b} ({len(diff.stale_b)} records): "
            + _record_labels(diff.stale_b))
    return "\n\n".join(sections)
