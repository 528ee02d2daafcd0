"""Registry-parameterised conformance suite for the Algorithm contract.

Every algorithm registered in :mod:`repro.algorithms.registry` — including
drop-in additions — is run through the same battery: registry metadata is
well-formed, the attach/seed/stream/run/results lifecycle round-trips
against the NetworkX reference, and per-block algorithm state survives a
snapshot capture/restore.  A new workload file passes this suite or it does not
ship; nothing here is specialised per algorithm beyond what its declared
capabilities say.
"""

from __future__ import annotations

from array import array

import pytest

from repro.algorithms import Algorithm
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
from repro.runtime.device import AMCCADevice
from repro.snapshot import Snapshot, capture, restore_into

from helpers import random_edges

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


def _containers(value, found):
    """ids of the mutable containers reachable from ``value``."""
    if isinstance(value, (dict, list, set, array)):
        found.add(id(value))
    if isinstance(value, dict):
        for item in value.values():
            _containers(item, found)
    elif isinstance(value, (list, tuple, set)):
        for item in value:
            _containers(item, found)
    return found


def _block_containers(graph):
    found = set()
    for cell in graph.device.simulator.cells:
        for block in cell.memory.values():
            for value in (block.state, block.edges, block.mirror,
                          block.ghosts, block.ghost_addrs):
                _containers(value, found)
    return found


def test_jaccard_snapshot_shares_no_mutable_state_with_the_run():
    """Jaccard nests a pair map in every block's state: neither the
    captured body nor a run restored from it may alias the other."""
    info = get_algorithm("jaccard")
    _, graph, algorithm = attach_fresh(info)
    graph.stream_increment(fixed_edges(info))
    algorithm.run(graph)
    assert any(graph.vertex_state(v, algorithm.state_key)
               for v in range(NUM_VERTICES))
    snap = capture(graph)
    body = _containers(snap.body, set())
    assert not body & _block_containers(graph)

    _, fresh_graph, _ = attach_fresh(info, seed_algorithm=False)
    restore_into(fresh_graph, snap)
    assert not body & _block_containers(fresh_graph)
    encoded = snap.to_bytes()
    for vid in range(NUM_VERTICES):
        fresh_graph.root_block(vid).state[algorithm.state_key][(-1, -1)] = 0.5
    assert Snapshot(snap.meta, snap.body).to_bytes() == encoded
