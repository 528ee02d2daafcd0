"""E5 -- Figure 8: cycles per increment, 50 K-class graph.

Regenerates the paper's Figure 8: on a 32x32 chip, the simulation cycles
taken by each of the ten streaming increments of the 50 K-class graph, for
"Streaming Edges" (ingestion only) and "Streaming Edges with BFS", under both
sampling orders.
"""

import numpy as np
import pytest

from conftest import BENCH_SCALE, FIGURE_GRAPH_SEED, paper_pair

from repro.analysis.figures import render_ascii_plot
from repro.analysis.tables import render_table
from repro.harness import increment_figures_from_records, run_suite


@pytest.mark.parametrize("sampling", ["edge", "snowball"])
def test_fig8_cycles_per_increment_50k(benchmark, sampling):
    scenarios = list(paper_pair("graphchallenge-50k", sampling, FIGURE_GRAPH_SEED).values())
    report = benchmark.pedantic(lambda: run_suite(scenarios), rounds=1, iterations=1)
    ingest_record, bfs_record = report.records
    (fig,) = increment_figures_from_records(report.records)
    fig.title = (f"Figure 8{'a' if sampling == 'edge' else 'b'} "
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
    # The BFS curve sits above the ingestion-only curve overall.
    assert with_bfs.sum() > ingest.sum()
    if sampling == "edge":
        # Edge sampling: every increment has the same edge count, so ingestion
        # time per increment stays within a small band once ghost chains form.
        assert ingest.max() <= 3.0 * ingest.min()
    else:
        # Snowball sampling: the increments themselves grow (Table 1), which
        # is what drives the growing curves in the published figure.  At
        # laptop scale the per-increment cycles are congestion-dominated, so
        # the size growth is the robust check.
        sizes = ingest_record["increment_sizes"]
        assert sum(sizes[-3:]) > sum(sizes[:3])
