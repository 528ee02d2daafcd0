#!/usr/bin/env python3
"""The paper's headline experiment, end to end, at laptop scale.

Reproduces the measurement behind Figures 8/9 and Table 2 for one dataset
configuration: stream a GraphChallenge-like graph twice -- once with BFS
propagation disabled ("Streaming Edges") and once with it enabled
("Streaming Edges with BFS") -- and report per-increment cycles, the
activation summary, and the energy/time estimate of the 1 GHz chip.

The workload is the registered ``graphchallenge-demo`` harness suite, so
results land in a shared store (default ``results/demo.jsonl``): re-running
the demo serves cached records instead of re-simulating, and the same
tables can be rebuilt later with::

    repro report --preset graphchallenge-demo --store results/demo.jsonl

Run with:  python examples/streaming_graphchallenge.py [edge|snowball]
"""

import sys

from repro.analysis.figures import FigureData, render_ascii_plot
from repro.analysis.tables import render_table
from repro.harness import (
    ResultStore,
    get_suite,
    render_suite_report,
    run_suite,
)


def main() -> None:
    sampling = sys.argv[1] if len(sys.argv) > 1 else "snowball"
    if sampling not in ("edge", "snowball"):
        raise SystemExit("usage: streaming_graphchallenge.py [edge|snowball]")

    # A 1/50-scale 50K-class graph on a 16x16 chip keeps the demo under a
    # minute; the suite also carries the other sampling order, so restrict
    # to the requested one.
    scenarios = [s for s in get_suite("graphchallenge-demo")
                 if s.dataset.sampling == sampling]
    dataset = scenarios[0].dataset
    chip = scenarios[0].chip
    print(f"streaming {dataset.edges} edges ({sampling} sampling) over "
          f"{dataset.num_increments} increments on a "
          f"{chip.side}x{chip.side} chip...")

    store = ResultStore("results/demo.jsonl")
    report = run_suite(scenarios, store=store,
                       progress=lambda line: print(line, flush=True))
    if report.failures:
        raise SystemExit(f"{len(report.failures)} scenario(s) failed")
    records = {r["scenario"]["algorithm"]: r for r in report.records}
    ingest, bfs = records["ingest"], records["bfs"]

    # Figure 8/9 analogue: cycles per increment for both configurations.
    fig = FigureData(title=f"Cycles per increment ({dataset.name})",
                     x_label="Increment", y_label="Cycles")
    fig.add("Streaming Edges", ingest["increment_cycles"])
    fig.add("Streaming Edges with BFS", bfs["increment_cycles"])
    print()
    print(render_ascii_plot(fig, max_points=10))

    rows = [
        {
            "Increment": i + 1,
            "Edges": ingest["increment_sizes"][i],
            "Streaming Edges": ingest["increment_cycles"][i],
            "Streaming Edges with BFS": bfs["increment_cycles"][i],
        }
        for i in range(len(ingest["increment_cycles"]))
    ]
    print()
    print(render_table(rows))

    # Table 2 / Figure 6-7 analogues straight from the stored records.
    print()
    print(render_suite_report(report.records,
                              tables=("table2", "activation", "fuzz")))

    metrics = bfs.get("algo_metrics") or {}
    print(f"\nBFS reached {metrics.get('reached', '?')} of "
          f"{dataset.vertices} vertices; "
          f"ghost blocks allocated: {bfs['ghost_blocks']}")
    print(f"records cached in {store.path} "
          f"({report.cache_hits} hit(s), {report.cache_misses} computed)")


if __name__ == "__main__":
    main()
