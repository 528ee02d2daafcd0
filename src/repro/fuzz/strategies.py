"""Hypothesis strategies over the harness's declarative scenario space.

:func:`scenarios` generates *valid* random :class:`~repro.harness.scenario.
Scenario` specs spanning every axis the determinism contract quantifies
over: mesh sizes, dataset families and sampling orders, increment counts,
fidelities, routings, kernels, cell capacities, truncation budgets and
snapshot cadences.  Sizes are kept deliberately tiny — the oracle runs each
example ~8 times (kernels x snapshots x shards x traces), so one example
must stay in the tens-of-milliseconds range.

Shrinking
---------
Every axis is drawn so hypothesis's built-in shrinker moves toward the
simplest scenario that still fails:

* integers (vertices, edges, mesh side, increments, seeds, capacities)
  shrink toward their minimum bound — smaller graph, smaller chip, fewer
  increments;
* ``sampled_from`` axes shrink toward the first element, so the orderings
  below put the simplest choice first (``ingest`` before algorithms,
  ``cycle`` before the exotic fidelities, ``uniform`` before ``sbm``,
  ``auto`` before pinned kernels);
* optional axes (truncation) shrink toward ``None`` via ``one_of``.

A shrunk failing example is therefore directly readable as a minimal
reproduction: the smallest graph, fewest increments and plainest chip that
still exhibit the divergence.
"""

from __future__ import annotations

from dataclasses import replace

from hypothesis import strategies as st

from repro._compat import HAVE_NUMPY
from repro.arch._native import HAVE_NATIVE
from repro.arch.config import KERNELS
from repro.algorithms.registry import algorithm_infos
from repro.harness.scenario import (
    ChipSpec,
    DatasetSpec,
    RunOptions,
    Scenario,
)

#: Upper bounds of the generated space.  Small on purpose (see module
#: docstring); the ``deep`` profile widens coverage by drawing more
#: examples, not bigger ones.
MAX_VERTICES = 40
MAX_EDGES = 96
MAX_SIDE = 6
MAX_INCREMENTS = 4

@st.composite
def dataset_specs(draw, numpy_ok: bool = None) -> DatasetSpec:
    """A valid :class:`DatasetSpec`; shrinks toward the tiniest uniform set.

    ``numpy_ok=False`` restricts to the pure-stdlib ``uniform`` generator
    (the SBM family refuses to run without numpy); the default follows the
    installed environment.
    """
    numpy_ok = HAVE_NUMPY if numpy_ok is None else numpy_ok
    generators = ("uniform", "sbm") if numpy_ok else ("uniform",)
    return DatasetSpec(
        vertices=draw(st.integers(8, MAX_VERTICES)),
        edges=draw(st.integers(8, MAX_EDGES)),
        sampling=draw(st.sampled_from(("edge", "snowball"))),
        num_increments=draw(st.integers(2, MAX_INCREMENTS)),
        symmetric=draw(st.booleans()),
        weighted=draw(st.booleans()),
        seed=draw(st.integers(0, 2**16 - 1)),
        generator=draw(st.sampled_from(generators)),
    )


@st.composite
def chip_specs(draw) -> ChipSpec:
    """A valid :class:`ChipSpec`; shrinks toward a plain 2x2 cycle chip.

    The compiled C sweep joins the kernel axis only when the extension is
    built; on compiler-less installs the axis shrinks rather than failing.
    """
    kernels = tuple(k for k in KERNELS if k != "native" or HAVE_NATIVE)
    return ChipSpec(
        side=draw(st.integers(2, MAX_SIDE)),
        fidelity=draw(st.sampled_from(("cycle", "cycle-ref", "latency"))),
        routing=draw(st.sampled_from(("yx", "xy"))),
        edge_list_capacity=draw(st.integers(1, 8)),
        ghost_slots=draw(st.integers(1, 2)),
        kernel=draw(st.sampled_from(kernels)),
    )


@st.composite
def scenarios(draw, numpy_ok: bool = None) -> Scenario:
    """A valid random :class:`Scenario` covering the whole contract space.

    The algorithm axis enumerates the registry, so a newly registered
    workload is fuzzed automatically; its declared capabilities steer the
    draw (``symmetric_only`` forces ``symmetric=True``, algorithms that
    don't support truncation never draw a cycle budget).  The scenario
    name is fixed (names are spec-hash salt, not behaviour), so shrinking
    never wanders through cosmetic axes.
    """
    dataset = draw(dataset_specs(numpy_ok=numpy_ok))
    info = draw(st.sampled_from(algorithm_infos()))
    algorithm = info.name
    if info.caps.symmetric_only and not dataset.symmetric:
        dataset = replace(dataset, symmetric=True)
    # Scenario itself rejects truncation + query-phase algorithms
    # (ValueError), so the strategy never draws the combination.
    truncation = (None if not info.caps.supports_truncation
                  else draw(st.one_of(st.none(), st.integers(32, 96))))
    options = RunOptions(
        root=draw(st.integers(0, dataset.vertices - 1)),
        max_cycles_per_increment=truncation,
        snapshot_every=draw(st.integers(1, 2)),
    )
    return Scenario(
        name="fuzz",
        dataset=dataset,
        chip=draw(chip_specs()),
        algorithm=algorithm,
        options=options,
    )
