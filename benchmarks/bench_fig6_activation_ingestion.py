"""E3 -- Figure 6: compute-cell activation per cycle, streaming ingestion only.

Regenerates the paper's Figure 6: for the 500 K-class graph (scaled) under
edge and snowball sampling, the percent of compute cells active per cycle of
a 32x32 chip while edges are streamed with BFS propagation disabled.
"""

import numpy as np
import pytest

from conftest import BENCH_SCALE, FIGURE_GRAPH_SEED, paper_pair

from repro.analysis.figures import (
    FigureData,
    activation_percent,
    downsample_series,
    render_ascii_plot,
)
from repro.harness import run_scenario_traced


@pytest.mark.parametrize("sampling", ["edge", "snowball"])
def test_fig6_activation_ingestion_only(benchmark, sampling):
    scenario = paper_pair("graphchallenge-500k", sampling, FIGURE_GRAPH_SEED)["ingest"]
    _, device = benchmark.pedantic(
        lambda: run_scenario_traced(scenario),
        rounds=1,
        iterations=1,
    )
    # Records keep only the mean/peak; the series comes off the device.
    series = activation_percent(device)
    fig = FigureData(f"Figure 6{'a' if sampling == 'edge' else 'b'} "
                     f"({sampling} sampling, scale={BENCH_SCALE})",
                     "Cycles", "Percent of Cells Active")
    fig.add("Cells Active Percent", series)
    print()
    print(render_ascii_plot(fig, max_points=100))
    print(f"cycles={len(series)}, mean={series.mean():.1f}%, peak={series.max():.1f}%")

    # Figure 6's qualitative content: sustained parallel activity during
    # streaming, dropping to idle once the stream drains.
    assert series.max() > 8.0
    assert series[-1] < series.max()
    # The bulk of the run keeps a significant share of the chip busy.
    busy = downsample_series(series, 50)
    assert np.median(busy[: len(busy) // 2]) > 1.0
