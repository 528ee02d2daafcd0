"""Named scenario suites: the paper's evaluation plus new sweeps.

A *suite* is a named, ordered list of :class:`~repro.harness.scenario.Scenario`
objects.  Built-in suites cover the paper's Tables 1–2 and Figures 6–9
(``paper-tiny`` / ``paper-small``, at the same scale presets the analysis
layer uses) and the new sweeps the north star asks for: chip sizes 4→32,
edge vs snowball sampling, all six algorithms, and both NoC fidelities.

``register_suite`` lets downstream code (tests, future PRs) add suites;
the CLI's ``repro suite`` subcommands resolve names through
:func:`get_suite`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List

from repro.harness.scenario import ChipSpec, DatasetSpec, RunOptions, Scenario

#: Default seed shared by the built-in suites (same as the benchmarks).
SUITE_SEED = 7


@dataclass(frozen=True)
class SuiteDef:
    """A named suite: description + builder producing fresh Scenario lists."""

    name: str
    description: str
    build: Callable[[], List[Scenario]]


_SUITES: Dict[str, SuiteDef] = {}


def register_suite(name: str, description: str,
                   build: Callable[[], List[Scenario]]) -> None:
    """Register (or replace) a named suite."""
    _SUITES[name] = SuiteDef(name=name, description=description, build=build)


def get_suite(name: str) -> List[Scenario]:
    """The scenarios of a named suite (fresh instances every call)."""
    if name not in _SUITES:
        known = ", ".join(sorted(_SUITES))
        raise KeyError(f"unknown suite {name!r}; known suites: {known}")
    return _SUITES[name].build()


def list_suites() -> List[SuiteDef]:
    """All registered suites, sorted by name."""
    return [_SUITES[name] for name in sorted(_SUITES)]


# ----------------------------------------------------------------------
# Built-in suites
# ----------------------------------------------------------------------
#: Benchmark workload floors (from the original benchmark harness): the
#: GraphChallenge graphs have an average out-degree of ~20, preserved at
#: every scale, and the per-class vertex counts never shrink below these so
#: the load ratio (edges per increment per compute cell) stays in the
#: regime the paper operates in.
BENCH_MIN_VERTICES = {"graphchallenge-50k": 1_600, "graphchallenge-500k": 3_200}
BENCH_AVG_DEGREE = 20


def _paper_configs(factor: float, benchmark_floors: bool) -> List[tuple]:
    """The Table 1 dataset classes at a scale factor, with their chips.

    Below paper scale the 50 K-class graphs run on a 16x16 mesh (like the
    benchmarks: shrinking the mesh with the input keeps edges per increment
    per cell in the paper's regime); the 500 K-class stays on the paper's
    32x32 chip.
    """
    side_50k = 32 if factor >= 1.0 else 16
    configs = []
    for base, vertices, edges, side in (
        ("graphchallenge-50k", 50_000, 1_000_000, side_50k),
        ("graphchallenge-500k", 500_000, 10_200_000, 32),
    ):
        if benchmark_floors:
            n = max(BENCH_MIN_VERTICES[base], int(round(vertices * factor)))
            m = max(BENCH_AVG_DEGREE * n, int(round(edges * factor)))
        else:
            n = max(64, int(round(vertices * factor)))
            m = max(4 * n, int(round(edges * factor)))
        configs.append((base, n, m, side))
    return configs


def build_paper_suite(factor: float, *, benchmark_floors: bool = False) -> List[Scenario]:
    """Tables 1–2 / Figures 8–9 analogue: 4 dataset configs x {ingest, bfs}.

    ``benchmark_floors=True`` applies the benchmark harness's minimum
    workload sizes (:data:`BENCH_MIN_VERTICES`, :data:`BENCH_AVG_DEGREE`)
    so the per-cell load regime matches the published measurements even at
    small scale factors; the interactive ``paper-tiny`` / ``paper-small``
    presets stay floor-free so they finish in seconds.
    """
    scenarios: List[Scenario] = []
    for base, n, m, side in _paper_configs(factor, benchmark_floors):
        for sampling in ("edge", "snowball"):
            dataset = DatasetSpec(vertices=n, edges=m, sampling=sampling,
                                  seed=SUITE_SEED)
            chip = ChipSpec(side=side)
            for algorithm in ("ingest", "bfs"):
                scenarios.append(
                    Scenario(
                        name=f"{base}-{sampling}-{algorithm}",
                        dataset=dataset,
                        chip=chip,
                        algorithm=algorithm,
                    )
                )
    return scenarios


def _tiny_suite() -> List[Scenario]:
    """A two-scenario smoke suite that finishes in seconds (CI)."""
    dataset = DatasetSpec(vertices=100, edges=800, sampling="edge", seed=SUITE_SEED)
    chip = ChipSpec(side=8)
    return [
        Scenario(name=f"tiny-{algorithm}", dataset=dataset, chip=chip,
                 algorithm=algorithm)
        for algorithm in ("ingest", "bfs")
    ]


def _chip_sweep() -> List[Scenario]:
    """Streaming BFS across mesh sizes 4x4 → 32x32 on one fixed dataset."""
    dataset = DatasetSpec(vertices=160, edges=1280, sampling="edge", seed=SUITE_SEED)
    return [
        Scenario(
            name=f"chip-sweep-{side}x{side}-bfs",
            dataset=dataset,
            chip=ChipSpec(side=side),
            algorithm="bfs",
        )
        for side in (4, 8, 16, 32)
    ]


def _sampling_sweep() -> List[Scenario]:
    """Edge vs snowball sampling, ingestion-only and with BFS."""
    scenarios = []
    for sampling in ("edge", "snowball"):
        dataset = DatasetSpec(vertices=200, edges=2000, sampling=sampling,
                              seed=SUITE_SEED)
        for algorithm in ("ingest", "bfs"):
            scenarios.append(
                Scenario(
                    name=f"sampling-{sampling}-{algorithm}",
                    dataset=dataset,
                    chip=ChipSpec(side=16),
                    algorithm=algorithm,
                )
            )
    return scenarios


def _algorithm_sweep() -> List[Scenario]:
    """Every registered algorithm (plus ingestion-only) on one symmetrised graph.

    Enumerates the algorithm registry, so a newly dropped-in workload file
    appears in the ``algorithms`` suite (and in ``repro suite run``'s
    reports) with no harness change.
    """
    from repro.algorithms.registry import algorithm_names

    scenarios = []
    for algorithm in algorithm_names():
        dataset = DatasetSpec(
            vertices=120,
            edges=700,
            sampling="edge",
            symmetric=True,
            weighted=algorithm == "sssp",
            seed=5,
        )
        scenarios.append(
            Scenario(
                name=f"algo-{algorithm}",
                dataset=dataset,
                chip=ChipSpec(side=8, edge_list_capacity=8),
                algorithm=algorithm,
            )
        )
    return scenarios


def _fidelity_sweep() -> List[Scenario]:
    """Cycle-accurate vs latency-model NoC on the same BFS workload."""
    dataset = DatasetSpec(vertices=200, edges=2000, sampling="edge", seed=SUITE_SEED)
    return [
        Scenario(
            name=f"fidelity-{fidelity}-bfs",
            dataset=dataset,
            chip=ChipSpec(side=16, fidelity=fidelity),
            algorithm="bfs",
        )
        for fidelity in ("cycle", "latency")
    ]


def _noc_sweep() -> List[Scenario]:
    """NoC model comparison grid: cycle-accurate vs latency x mesh sizes.

    The workload (one fixed streamed graph, ingest + BFS) is held constant
    while the mesh grows, so stored records expose how link contention
    (cycle model) versus pure Manhattan delay (latency model) scales with
    chip size — the sweep backing the NoC fast-path speedup measurements.
    """
    dataset = DatasetSpec(vertices=160, edges=1280, sampling="edge", seed=SUITE_SEED)
    return [
        Scenario(
            name=f"noc-{fidelity}-{side}x{side}-bfs",
            dataset=dataset,
            chip=ChipSpec(side=side, fidelity=fidelity),
            algorithm="bfs",
        )
        for fidelity in ("cycle", "latency")
        for side in (8, 16, 32)
    ]


register_suite("tiny", "2-scenario smoke suite (seconds; used by CI)", _tiny_suite)
register_suite(
    "paper-tiny",
    "Tables 1-2 / Figures 8-9 analogue at 1/500 scale: "
    "4 dataset configs x {ingest, bfs} (8 scenarios)",
    lambda: build_paper_suite(1 / 500),
)
register_suite(
    "paper-small",
    "Tables 1-2 / Figures 8-9 analogue at 1/100 scale (8 scenarios)",
    lambda: build_paper_suite(1 / 100),
)
register_suite("chip-sweep", "streaming BFS across 4x4 -> 32x32 meshes", _chip_sweep)
register_suite("sampling-sweep", "edge vs snowball sampling x {ingest, bfs}",
               _sampling_sweep)
register_suite("algorithms", "all six algorithms + ingest on one streamed graph",
               _algorithm_sweep)
register_suite("fidelity-sweep", "cycle vs latency NoC fidelity (BFS workload)",
               _fidelity_sweep)
register_suite("noc-sweep",
               "cycle vs latency NoC x {8,16,32}-wide meshes (6 scenarios)",
               _noc_sweep)


def _graphchallenge_demo() -> List[Scenario]:
    """The quick-start demo workload as a stored suite.

    One 1/50-scale 50 K-class graph on a 16x16 chip, edge and snowball
    sampling, ingestion-only and with BFS — the exact configuration
    ``examples/streaming_graphchallenge.py`` measures.  The example now
    drives this suite through the harness, so demo runs land in the shared
    result store and ``repro suite show --preset graphchallenge-demo``
    (or ``repro report``) rebuilds its tables without re-simulating.
    """
    scenarios = []
    for sampling in ("edge", "snowball"):
        dataset = DatasetSpec(vertices=1000, edges=20_000, sampling=sampling,
                              seed=7)
        for algorithm in ("ingest", "bfs"):
            scenarios.append(
                Scenario(
                    name=f"graphchallenge-demo-{sampling}-{algorithm}",
                    dataset=dataset,
                    chip=ChipSpec(side=16),
                    algorithm=algorithm,
                )
            )
    return scenarios


register_suite("graphchallenge-demo",
               "the examples/ demo workload: 1/50-scale 50K-class graph, "
               "edge + snowball x {ingest, bfs} (4 scenarios)",
               _graphchallenge_demo)


def _chip_animation() -> List[Scenario]:
    """The animation demo workload as a stored suite.

    The exact scenario ``examples/chip_animation.py`` traces: streaming
    dynamic BFS over a snowball-sampled 300-vertex graph on a 16x16 chip
    with a deliberately small per-cell edge list (so ghosting and control
    transfer stay visible in the frames).  The example drives this suite
    definition through the traced runner; because instrumentation is
    observer-only, the record it stores is byte-identical to an untraced
    ``repro suite run --preset chip-animation`` of the same spec.
    """
    return [
        Scenario(
            name="chip-animation",
            dataset=DatasetSpec(vertices=300, edges=3000,
                                sampling="snowball", seed=9),
            chip=ChipSpec(side=16, edge_list_capacity=8),
            algorithm="bfs",
            options=RunOptions(),
        )
    ]


register_suite("chip-animation",
               "the examples/ animation workload: streaming BFS on a 16x16 "
               "chip with tight edge lists (1 scenario)",
               _chip_animation)


def _figures_500k() -> List[Scenario]:
    """Figures 6/7/9 workloads as a stored suite (ports ``bench_fig6/7/9``).

    The 500 K-class GraphChallenge configuration at benchmark floors (the
    same inputs the pytest benchmarks run at ``REPRO_BENCH_SCALE=tiny``),
    edge and snowball sampling, ingestion-only (Figure 6) and with BFS
    (Figure 7); the per-increment cycle series of each pair is Figure 9.
    Stored records carry the increment cycle series plus the mean/peak
    activation summary, so ``repro suite show --preset figures-500k``
    rebuilds the figures' content from the shared store without re-running.
    """
    by_name = {s.name: s
               for s in build_paper_suite(1 / 500, benchmark_floors=True)}
    return [
        by_name[f"graphchallenge-500k-{sampling}-{algorithm}"].with_(
            name=f"fig-500k-{sampling}-{algorithm}")
        for sampling in ("edge", "snowball")
        for algorithm in ("ingest", "bfs")
    ]


register_suite(
    "figures-500k",
    "Figures 6/7/9 workloads: 500K-class x {edge,snowball} x {ingest,bfs} "
    "at benchmark floors (4 scenarios)",
    _figures_500k,
)


def _ablation_suite() -> List[Scenario]:
    """The paper's ablations as stored scenarios (ports ``bench_ablation_*``).

    One skewed workload — snowball sampling concentrates edges on hub
    vertices, and a small edge-list capacity forces them into ghost chains
    — swept over the three knobs the ablation benchmarks vary: ghost
    allocator (Figure 5: vicinity vs random), dimension-order routing (YX
    vs XY) and NoC fidelity (cycle-accurate vs latency).  The
    ``ablation`` report section groups the stored records per knob.
    """
    dataset = DatasetSpec(vertices=200, edges=2400, sampling="snowball",
                          seed=SUITE_SEED)
    scenarios = [
        Scenario(
            name=f"ablation-allocator-{allocator}",
            dataset=dataset,
            chip=ChipSpec(side=16, edge_list_capacity=8),
            algorithm="bfs",
            options=RunOptions(ghost_allocator=allocator),
        )
        for allocator in ("vicinity", "random")
    ]
    scenarios += [
        Scenario(
            name=f"ablation-routing-{routing}",
            dataset=dataset,
            chip=ChipSpec(side=16, edge_list_capacity=8, routing=routing),
            algorithm="bfs",
        )
        for routing in ("yx", "xy")
    ]
    scenarios += [
        Scenario(
            name=f"ablation-fidelity-{fidelity}",
            dataset=dataset,
            chip=ChipSpec(side=16, edge_list_capacity=8, fidelity=fidelity),
            algorithm="bfs",
        )
        for fidelity in ("cycle", "latency")
    ]
    return scenarios


register_suite(
    "ablations",
    "allocator/routing/fidelity ablations on one skewed workload "
    "(6 scenarios; ports bench_ablation_*)",
    _ablation_suite,
)


def _baseline_comparison() -> List[Scenario]:
    """The chip side of ``bench_baseline_comparison`` as a stored pair.

    Ingest and ingest+BFS on one edge-sampled workload; the ``baselines``
    report section puts the stored incremental cycle counts next to the
    bulk-synchronous (Pregel-style) estimator's per-increment cost, which
    is recomputed cheaply from the dataset spec at render time.
    """
    dataset = DatasetSpec(vertices=320, edges=3200, sampling="edge",
                          seed=SUITE_SEED)
    chip = ChipSpec(side=16)
    return [
        Scenario(name=f"baseline-{algorithm}", dataset=dataset, chip=chip,
                 algorithm=algorithm)
        for algorithm in ("ingest", "bfs")
    ]


register_suite(
    "baseline-comparison",
    "incremental message-driven BFS vs the BSP strawman "
    "(2 scenarios; ports bench_baseline_comparison)",
    _baseline_comparison,
)


def _allocator_comparison() -> List[Scenario]:
    """The ``examples/allocator_comparison.py`` workload as a stored suite.

    One R-MAT graph (2**10 vertices, edge factor 10 — the strongly skewed
    degree distribution overflows hub vertices into long ghost chains)
    streamed in 5 edge-sampled increments onto a 16x16 chip with small
    edge lists, once per ghost allocator.  The ``allocators`` report
    section reads the stored placement-quality metrics (ghost blocks,
    mean allocation distance, max chain depth) straight from the store —
    the Figure 5 trade-off without re-simulating.
    """
    dataset = DatasetSpec(vertices=1024, edges=10_240, sampling="edge",
                          num_increments=5, seed=3, generator="rmat")
    return [
        Scenario(
            name=f"allocator-comparison-{allocator}",
            dataset=dataset,
            chip=ChipSpec(side=16, edge_list_capacity=8),
            algorithm="bfs",
            options=RunOptions(ghost_allocator=allocator),
        )
        for allocator in ("vicinity", "random")
    ]


register_suite(
    "allocator-comparison",
    "vicinity vs random ghost allocation on a skewed R-MAT stream "
    "(2 scenarios; ports examples/allocator_comparison.py)",
    _allocator_comparison,
)


def _perf_suite() -> List[Scenario]:
    """Fixed workloads behind ``repro bench`` (cycles/sec tracking).

    The Fig 8-class workloads whose simulator throughput the ROADMAP perf
    numbers track.  The two 50 K-class runs use a 1/125 scale factor (4x
    the ``paper-tiny`` inputs) so each simulates for a few hundred
    milliseconds — at 1/500 scale they finish in ~50 ms, where scheduler
    noise alone can swing a median past CI's 25% regression tolerance.
    The 500 K-class run stays at 1/500 scale (~1.4 s of simulation) and
    covers the 32x32 chip.
    """
    by_name_50k = {s.name: s for s in build_paper_suite(1 / 125)}
    by_name_500k = {s.name: s for s in build_paper_suite(1 / 500)}
    return [
        by_name_50k["graphchallenge-50k-edge-ingest"],
        by_name_50k["graphchallenge-50k-edge-bfs"],
        by_name_500k["graphchallenge-500k-snowball-bfs"],
    ]


register_suite("perf",
               "fixed cycles/sec workloads behind `repro bench` "
               "(Fig 8-class graphs sized for stable medians)",
               _perf_suite)
