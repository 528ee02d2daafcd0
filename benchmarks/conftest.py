"""Shared configuration for the benchmark harness.

Every benchmark regenerates one of the paper's tables or figures (see the
paper-to-module map in docs/architecture.md) and prints the reproduced
rows/series so ``pytest benchmarks/ --benchmark-only -s`` doubles as the
reproduction report.  Because the substrate is a pure-Python cycle-accurate simulator,
the default inputs are scaled-down versions of the paper's graphs; set
``REPRO_BENCH_SCALE`` to ``tiny`` (default), ``small``, ``medium``, ``large``
or ``paper`` to change that.
"""

from __future__ import annotations

import os

import pytest

from repro.arch.config import ChipConfig
from repro.datasets.streaming import SCALE_PRESETS, make_streaming_dataset
from repro.harness.registry import BENCH_AVG_DEGREE, BENCH_MIN_VERTICES

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

#: The chip used for the smaller (50 K-class) benchmark inputs below paper
#: scale.  Shrinking the mesh with the input keeps the load ratio (edges per
#: increment per compute cell) in the regime the paper operates in, which is
#: what makes the per-increment cycle shapes comparable; at scale "paper" the
#: 32x32 chip is used for everything, exactly as published.
CHIP_50K = PAPER_CHIP if BENCH_SCALE == "paper" else ChipConfig(width=16, height=16)
CHIP_500K = PAPER_CHIP

#: Seed shared by every benchmark so results are directly comparable.
BENCH_SEED = 7

#: Minimum benchmark graph sizes (vertices) and preserved average
#: out-degree, shared with the harness's paper suite (single source of
#: truth: :mod:`repro.harness.registry`) so ported and un-ported benchmarks
#: always measure the same workloads.
MIN_VERTICES_50K = BENCH_MIN_VERTICES["graphchallenge-50k"]
MIN_VERTICES_500K = BENCH_MIN_VERTICES["graphchallenge-500k"]
AVG_DEGREE = BENCH_AVG_DEGREE


def scaled(value: int, minimum: int = 64) -> int:
    """Scale one of the paper's workload sizes by the benchmark scale factor."""
    return max(minimum, int(round(value * SCALE_FACTOR)))


def dataset_50k(sampling: str):
    """The 50 K-vertex / 1.0 M-edge GraphChallenge configuration, scaled."""
    n = max(MIN_VERTICES_50K, scaled(50_000))
    m = max(AVG_DEGREE * n, scaled(1_000_000))
    return make_streaming_dataset(
        n, m, sampling=sampling, seed=BENCH_SEED,
        name=f"graphchallenge-50k-{sampling}",
    )


def dataset_500k(sampling: str):
    """The 500 K-vertex / 10.2 M-edge GraphChallenge configuration, scaled."""
    n = max(MIN_VERTICES_500K, scaled(500_000))
    m = max(AVG_DEGREE * n, scaled(10_200_000))
    return make_streaming_dataset(
        n, m, sampling=sampling, seed=BENCH_SEED,
        name=f"graphchallenge-500k-{sampling}",
    )


@pytest.fixture(scope="session", autouse=True)
def announce_scale():
    print(
        f"\n[repro benchmarks] scale={BENCH_SCALE} (factor {SCALE_FACTOR:g}), "
        f"chip {PAPER_CHIP.width}x{PAPER_CHIP.height}"
    )
    yield
