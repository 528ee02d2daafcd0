"""Registry-parameterised conformance suite for the Algorithm contract.

Every algorithm registered in :mod:`repro.algorithms.registry` — including
drop-in additions — is run through the same battery: registry metadata is
well-formed, the attach/seed/stream/run/results lifecycle round-trips
against the NetworkX reference, ``summarize`` is deterministic across NoC
kernels, and per-block algorithm state survives a snapshot
capture/restore.  A new workload file passes this suite or it does not
ship; nothing here is specialised per algorithm beyond what its declared
capabilities say.
"""

from __future__ import annotations

import pytest

from repro.algorithms import Algorithm, QueryAlgorithm, StreamingAlgorithm
from repro.algorithms.registry import (
    algorithm_infos,
    algorithm_names,
    get_algorithm,
    query_algorithm_names,
    streaming_algorithm_names,
)
from repro.arch.config import ChipConfig
from repro.baselines.networkx_ref import build_networkx
from repro.datasets.sbm import symmetrize
from repro.graph.graph import DynamicGraph
from repro.harness import ChipSpec, DatasetSpec, RunOptions, Scenario
from repro.harness.runner import run_scenario
from repro.runtime.device import AMCCADevice
from repro.snapshot import capture, restore_into

from helpers import random_edges, requires_numpy

#: Concrete registry entries (``ingest`` has no class to conform).
CONCRETE = [info for info in algorithm_infos() if info.cls is not None]
CONCRETE_IDS = [info.name for info in CONCRETE]

NUM_VERTICES = 20
NUM_EDGES = 60
SEED = 5


def fixed_edges(info):
    """One small fixed dataset everything agrees on: symmetrised, and
    weighted only where the algorithm consumes weights."""
    edges = random_edges(NUM_VERTICES, NUM_EDGES, seed=SEED,
                         weights=info.name == "sssp")
    return symmetrize(edges)


def attach_fresh(info, *, seed_algorithm=True):
    algorithm = info.instantiate(root=0)
    device = AMCCADevice(ChipConfig.small(edge_list_capacity=4))
    graph = DynamicGraph(device, NUM_VERTICES, seed=SEED)
    graph.attach(algorithm)
    if seed_algorithm:
        algorithm.seed(graph, root=0)
    return device, graph, algorithm


# ----------------------------------------------------------------------
# Registry metadata
# ----------------------------------------------------------------------
def test_registry_lists_ingest_first_and_the_new_workloads():
    names = algorithm_names()
    assert names[0] == "ingest"
    assert {"bfs", "sssp", "components", "pagerank", "triangles",
            "jaccard", "kcore", "labelprop"} <= set(names)


@pytest.mark.parametrize("info", CONCRETE, ids=CONCRETE_IDS)
def test_registry_entry_well_formed(info):
    assert issubclass(info.cls, Algorithm)
    # The decorator stamps identity and capabilities onto the class.
    assert info.cls.name == info.name
    assert info.cls.caps is info.caps
    assert info.summary  # one-line docstring summary feeds `repro algos list`
    assert info.caps.result_arity in ("vertex", "pair", "aggregate", "none")
    assert info.caps.streaming or info.caps.query
    # A query phase needs fully drained increments.
    if info.caps.query:
        assert not info.caps.supports_truncation
    assert info.as_dict()["name"] == info.name


def test_ingest_is_a_classless_pseudo_entry():
    info = get_algorithm("ingest")
    assert info.cls is None
    assert info.instantiate(root=3) is None
    assert info.caps.result_arity == "none"


def test_capability_views_partition_the_registry():
    assert set(streaming_algorithm_names()) == {
        name for name in algorithm_names()
        if get_algorithm(name).caps.streaming}
    assert set(query_algorithm_names()) == {
        name for name in algorithm_names()
        if get_algorithm(name).caps.query}


# ----------------------------------------------------------------------
# Base contract: no duck-typing required
# ----------------------------------------------------------------------
def test_base_contract_defaults_make_hasattr_unnecessary():
    # The runner calls seed()/run() unconditionally; the base class makes
    # both safe no-ops, so `hasattr` duck-typing is gone by construction.
    class Minimal(Algorithm):
        def init_state(self, block):
            block.state.setdefault("x", 0)

    algo = Minimal()
    device = AMCCADevice(ChipConfig.small(edge_list_capacity=2))
    graph = DynamicGraph(device, 4, seed=1)
    graph.attach(algo)
    assert algo.graph is graph
    algo.seed(graph, root=0)          # base no-op
    assert algo.run(graph) is None    # base no-op: no query phase
    assert algo.summarize({}) == {}


@pytest.mark.parametrize("info", CONCRETE, ids=CONCRETE_IDS)
def test_no_override_reintroduces_required_duck_typing(info):
    # Every registered class exposes the full lifecycle surface.
    for method in ("attach", "init_state", "seed", "on_edge_inserted",
                   "run", "results", "reference", "verify", "summarize"):
        assert callable(getattr(info.cls, method)), (info.name, method)


def test_legacy_register_and_aliases_keep_working():
    # Pre-1.4 subclasses called graph.attach -> algorithm.register(graph);
    # the aliases and the register() entry point survive, deprecated.
    assert StreamingAlgorithm is Algorithm
    assert QueryAlgorithm is Algorithm

    calls = []

    class Legacy(Algorithm):
        def register(self, graph):  # old-style override
            calls.append(graph)
            self.graph = graph

        def init_state(self, block):
            pass

    device = AMCCADevice(ChipConfig.small(edge_list_capacity=2))
    graph = DynamicGraph(device, 4, seed=1)
    graph.attach(Legacy())
    assert calls == [graph]

    with pytest.warns(DeprecationWarning):
        Algorithm().register(graph)


def test_harness_algorithm_constants_are_deprecated_registry_views():
    import repro.harness as harness
    import repro.harness.scenario as scenario_mod

    for module in (harness, scenario_mod):
        with pytest.warns(DeprecationWarning):
            assert module.ALGORITHMS == algorithm_names()
        with pytest.warns(DeprecationWarning):
            assert module.QUERY_ALGORITHMS == query_algorithm_names()


# ----------------------------------------------------------------------
# Lifecycle round-trip against the reference
# ----------------------------------------------------------------------
@pytest.mark.parametrize("info", CONCRETE, ids=CONCRETE_IDS)
def test_lifecycle_results_agree_with_reference(info):
    edges = fixed_edges(info)
    _, graph, algorithm = attach_fresh(info)
    graph.stream_increment(edges)
    result = algorithm.run(graph)
    if info.caps.query:
        assert result is not None and result.cycles > 0
    results = algorithm.results(graph)
    kwargs = {"root": 0} if info.caps.needs_root else {}
    try:
        reference = algorithm.reference(build_networkx(edges, NUM_VERTICES),
                                        **kwargs)
    except ImportError as exc:
        # e.g. networkx's pagerank needs numpy/scipy on no-numpy installs.
        pytest.skip(f"{info.name} reference needs an optional dependency: {exc}")
    assert algorithm.verify(results, reference), (
        f"{info.name}: chip results disagree with reference")
    summary = algorithm.summarize(results)
    assert isinstance(summary, dict) and summary
    assert summary == algorithm.summarize(results)  # pure function


# ----------------------------------------------------------------------
# Kernel-independence of the whole record (summarize included)
# ----------------------------------------------------------------------
def contract_scenario(name):
    info = get_algorithm(name)
    return Scenario(
        name=f"contract-{name}",
        dataset=DatasetSpec(vertices=NUM_VERTICES, edges=48, sampling="edge",
                            num_increments=2, symmetric=True,
                            weighted=name == "sssp", seed=SEED,
                            generator="uniform"),
        chip=ChipSpec(side=4, edge_list_capacity=4),
        algorithm=name,
        options=RunOptions(root=0),
    )


@requires_numpy
@pytest.mark.parametrize("name", CONCRETE_IDS)
def test_record_identical_across_kernels(name):
    # "auto" runs the native kernel wherever the extension is built.
    python_record = run_scenario(contract_scenario(name), kernel="python")
    auto_record = run_scenario(contract_scenario(name), kernel="auto")
    assert python_record == auto_record
    assert python_record["algo_metrics"]


# ----------------------------------------------------------------------
# Snapshot capture/restore of per-block algorithm state
# ----------------------------------------------------------------------
@pytest.mark.parametrize("info", CONCRETE, ids=CONCRETE_IDS)
def test_snapshot_roundtrip_preserves_algorithm_state(info):
    edges = fixed_edges(info)
    half = len(edges) // 2
    _, graph, algorithm = attach_fresh(info)
    graph.stream_increment(edges[:half])
    snap = capture(graph)

    # Fresh device/graph/algorithm; snapshot overlays the seeded state, so
    # host-side seeding is skipped (mirrors the harness restore path).
    _, fresh_graph, fresh_algorithm = attach_fresh(info, seed_algorithm=False)
    restore_into(fresh_graph, snap)
    assert capture(fresh_graph).state_hash == snap.state_hash

    # Both halves continue identically: same streamed schedule, same query
    # phase, same results, same per-block state hash at the end.
    graph.stream_increment(edges[half:])
    fresh_graph.stream_increment(edges[half:])
    result = algorithm.run(graph)
    fresh_result = fresh_algorithm.run(fresh_graph)
    if info.caps.query:
        assert result.cycles == fresh_result.cycles
    assert algorithm.results(graph) == fresh_algorithm.results(fresh_graph)
    assert (algorithm.summarize(algorithm.results(graph))
            == fresh_algorithm.summarize(fresh_algorithm.results(fresh_graph)))
    assert capture(graph).state_hash == capture(fresh_graph).state_hash
