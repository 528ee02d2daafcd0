"""Shared configuration for the benchmark harness.

Every benchmark regenerates one of the paper's tables or figures (see the
paper-to-module map in docs/architecture.md) and prints the reproduced
rows/series so ``pytest benchmarks/ --benchmark-only -s`` doubles as the
reproduction report.  Every run is a harness scenario
(:class:`repro.harness.Scenario`), so the benchmarks measure exactly what
``repro suite run`` executes.  Because the substrate is a pure-Python
cycle-accurate simulator, the default inputs are scaled-down versions of the
paper's graphs; set ``REPRO_BENCH_SCALE`` to ``tiny`` (default), ``small``,
``medium``, ``large`` or ``paper`` to change that.
"""

from __future__ import annotations

import os
from dataclasses import replace

import pytest

from repro.arch.config import ChipConfig
from repro.datasets.streaming import SCALE_PRESETS
from repro.harness import build_paper_suite

#: Benchmark scale preset, overridable from the environment.
BENCH_SCALE = os.environ.get("REPRO_BENCH_SCALE", "tiny")
if BENCH_SCALE not in SCALE_PRESETS:
    raise RuntimeError(
        f"REPRO_BENCH_SCALE must be one of {sorted(SCALE_PRESETS)}, got {BENCH_SCALE!r}"
    )

#: Scale factor applied to the paper's graph sizes.
SCALE_FACTOR = SCALE_PRESETS[BENCH_SCALE]

#: The paper's evaluation platform: a 32x32 chip at 1 GHz, YX routing.
PAPER_CHIP = ChipConfig.paper_chip()

#: Seed shared by every benchmark so results are directly comparable.
BENCH_SEED = 7

#: Placement and ghost-allocation seed of the figure benchmarks (Figures
#: 6-9), the value their shape bounds were set at.
FIGURE_GRAPH_SEED = 17


def paper_pair(klass: str, sampling: str, graph_seed: int):
    """``{"ingest": scenario, "bfs": scenario}`` for one paper workload.

    The two scenarios of dataset class ``klass`` (``graphchallenge-50k`` or
    ``graphchallenge-500k``) and one sampling order in the harness's paper
    suite at the benchmark scale, with the graph seed pinned.  Below paper
    scale the 50 K class runs on a 16x16 mesh: shrinking the mesh with the
    input keeps the load ratio (edges per increment per compute cell) in
    the regime the paper operates in.
    """
    return {
        s.algorithm: s.with_(options=replace(s.options, graph_seed=graph_seed))
        for s in build_paper_suite(SCALE_FACTOR, benchmark_floors=True)
        if s.name.startswith(f"{klass}-{sampling}-")
    }


@pytest.fixture(scope="session", autouse=True)
def announce_scale():
    print(
        f"\n[repro benchmarks] scale={BENCH_SCALE} (factor {SCALE_FACTOR:g}), "
        f"chip {PAPER_CHIP.width}x{PAPER_CHIP.height}"
    )
    yield
