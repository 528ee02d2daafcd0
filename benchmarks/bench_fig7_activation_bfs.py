"""E4 -- Figure 7: compute-cell activation per cycle, ingestion with BFS.

Regenerates the paper's Figure 7: the same activation-per-cycle measurement
as Figure 6 but with the streaming dynamic BFS enabled, so inserted edges
trigger bfs-action diffusions on top of the ingestion traffic.
"""

import pytest

from conftest import BENCH_SCALE, FIGURE_GRAPH_SEED, paper_pair

from repro.analysis.figures import FigureData, activation_percent, render_ascii_plot
from repro.harness import run_scenario_traced


@pytest.mark.parametrize("sampling", ["edge", "snowball"])
def test_fig7_activation_with_bfs(benchmark, sampling):
    pair = paper_pair("graphchallenge-500k", sampling, FIGURE_GRAPH_SEED)
    runs = benchmark.pedantic(
        lambda: {algorithm: run_scenario_traced(scenario)
                 for algorithm, scenario in pair.items()},
        rounds=1, iterations=1,
    )
    # Records keep only the mean/peak; the series come off the devices.
    record, device = runs["bfs"]
    series = activation_percent(device)
    fig = FigureData(f"Figure 7{'a' if sampling == 'edge' else 'b'} "
                     f"({sampling} sampling, scale={BENCH_SCALE})",
                     "Cycles", "Percent of Cells Active")
    fig.add("Cells Active Percent", series)
    print()
    print(render_ascii_plot(fig, max_points=100))
    print(f"cycles={len(series)}, mean={series.mean():.1f}%, peak={series.max():.1f}%")

    # Figure 7 vs Figure 6: BFS adds work, so the run is longer and the chip
    # is at least as busy as in the ingestion-only experiment.
    ingestion_series = activation_percent(runs["ingest"][1])
    assert len(series) > len(ingestion_series)
    assert series.max() >= ingestion_series.max() * 0.8
    assert record["algo_metrics"]["reached"] > 0
