"""E6 -- Figure 9: cycles per increment, 500 K-class graph.

Same measurement as Figure 8 but on the larger (500 K-class) graph, where
the snowball-sampling growth and the BFS overhead are more pronounced.
"""

import numpy as np
import pytest

from conftest import BENCH_SCALE, FIGURE_GRAPH_SEED, paper_pair

from repro.analysis.figures import render_ascii_plot
from repro.analysis.tables import render_table
from repro.harness import increment_figures_from_records, run_suite


@pytest.mark.parametrize("sampling", ["edge", "snowball"])
def test_fig9_cycles_per_increment_500k(benchmark, sampling):
    scenarios = list(paper_pair("graphchallenge-500k", sampling, FIGURE_GRAPH_SEED).values())
    report = benchmark.pedantic(lambda: run_suite(scenarios), rounds=1, iterations=1)
    ingest_record, bfs_record = report.records
    (fig,) = increment_figures_from_records(report.records)
    fig.title = (f"Figure 9{'a' if sampling == 'edge' else 'b'} "
                 f"({sampling} sampling, scale={BENCH_SCALE})")
    print()
    print(render_ascii_plot(fig, max_points=10))
    rows = [
        {
            "Increment": i + 1,
            "Streaming Edges": ingest_record["increment_cycles"][i],
            "Streaming Edges with BFS": bfs_record["increment_cycles"][i],
        }
        for i in range(len(ingest_record["increment_cycles"]))
    ]
    print(render_table(rows))

    ingest = np.array(ingest_record["increment_cycles"], dtype=float)
    with_bfs = np.array(bfs_record["increment_cycles"], dtype=float)
    assert with_bfs.sum() > ingest.sum()
    sizes = ingest_record["increment_sizes"]
    if sampling == "edge":
        # Edge sampling: similar ingestion cost per (equal-sized) increment.
        # Below paper scale the band is wide: the 500 K-class config overflows
        # every root block (average degree ~20 vs capacity 16), so later
        # increments pay progressively deeper ghost-chain forwarding, and in
        # that congestion-dominated tail the exact cycle counts are sensitive
        # to the simulator's (deterministic) service order.
        assert ingest.max() <= 4.0 * ingest.min()
    else:
        # Snowball sampling: increment sizes grow monotonically (Table 1).
        assert sum(sizes[-3:]) > sum(sizes[:3])
    # The larger graph takes more total cycles than the smaller one would;
    # sanity-check against a trivially small bound.
    assert with_bfs.sum() > 10 * len(sizes)
