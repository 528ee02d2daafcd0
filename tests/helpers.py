"""Shared test helpers, imported explicitly as ``from helpers import ...``.

These used to live in ``tests/conftest.py`` and be imported with
``from conftest import ...``, but pytest's rootdir-based sys.path insertion
made that resolve to ``benchmarks/conftest.py`` when both directories were
collected in one run (the ``conftest`` module name is first-come-first-served
in ``sys.modules``).  A uniquely named helper module has no such collision.
"""

from __future__ import annotations

import os
import random
import sys
from typing import Any, Dict, List, Tuple

import pytest
from hypothesis import HealthCheck, settings

from repro._compat import HAVE_NUMPY
from repro.analysis.figures import activation_percent
from repro.arch.config import ChipConfig
from repro.algorithms.bfs import StreamingBFS
from repro.graph.graph import DynamicGraph
from repro.graph.rpvo import Edge
from repro.harness import (ChipSpec, DatasetSpec, RunOptions, Scenario,
                           run_scenario_traced)
from repro.runtime.device import AMCCADevice

#: Marker for tests that need numpy-backed features (dataset generation,
#: analysis series).  The simulator itself runs numpy-free -- the no-numpy
#: CI job executes everything that is not marked with this.
requires_numpy = pytest.mark.skipif(
    not HAVE_NUMPY, reason="requires numpy (dataset generation / analysis)")

#: Marker for tests that find processes through Linux ``/proc``.
requires_proc = pytest.mark.skipif(
    not os.path.isdir("/proc"), reason="reads processes from Linux /proc")

#: Health checks every whole-stack property test suppresses: one example
#: simulates a full chip, so hypothesis's per-example timing heuristics
#: misfire, and composite scenario strategies filter (symmetry, roots).
HYPOTHESIS_SUPPRESS = [
    HealthCheck.too_slow,
    HealthCheck.data_too_large,
    HealthCheck.filter_too_much,
]


def register_hypothesis_profiles() -> None:
    """Register the repo-wide hypothesis profiles (called from conftest).

    ``ci`` (default) keeps property tests in the seconds range; ``deep``
    is the soak budget, mirroring ``repro fuzz run``'s campaign profiles
    (:data:`repro.fuzz.campaign.FUZZ_PROFILES`).  Select with
    ``--hypothesis-profile=deep`` or ``REPRO_HYPOTHESIS_PROFILE=deep``;
    per-test ``@settings(...)`` overrides still apply on top.
    """
    settings.register_profile(
        "ci", max_examples=20, deadline=None,
        suppress_health_check=HYPOTHESIS_SUPPRESS)
    settings.register_profile(
        "deep", max_examples=200, deadline=None,
        suppress_health_check=HYPOTHESIS_SUPPRESS)
    settings.load_profile(os.environ.get("REPRO_HYPOTHESIS_PROFILE", "ci"))


def subprocess_env(**extra: str) -> Dict[str, str]:
    """Environment for a child interpreter that imports what this one does."""
    return {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path), **extra}


def _proc_stat(pid: int) -> List[str]:
    """The fields of ``/proc/<pid>/stat`` after the command name."""
    with open(f"/proc/{pid}/stat", encoding="ascii", errors="replace") as f:
        return f.read().rsplit(")", 1)[1].split()


def pid_alive(pid: int) -> bool:
    """Whether process ``pid`` runs (an unreaped zombie does not)."""
    try:
        return _proc_stat(pid)[0] not in ("Z", "X")
    except OSError:
        return False


def child_pids(pid: int) -> List[int]:
    """Live processes whose parent is ``pid``."""
    children = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                fields = _proc_stat(int(entry))
            except OSError:  # exited while listed
                continue
            if int(fields[1]) == pid and fields[0] not in ("Z", "X"):
                children.append(int(entry))
    return children


def random_edges(num_vertices: int, num_edges: int, seed: int = 0,
                 weights: bool = False) -> List[Edge]:
    """A reproducible random directed edge list without self loops."""
    rng = random.Random(seed)
    edges: List[Edge] = []
    while len(edges) < num_edges:
        u = rng.randrange(num_vertices)
        v = rng.randrange(num_vertices)
        if u == v:
            continue
        w = rng.randint(1, 9) if weights else 1
        edges.append(Edge(u, v, w))
    return edges


def build_bfs_graph(
    chip: ChipConfig,
    num_vertices: int,
    *,
    root: int = 0,
    seed: int = 3,
    ghost_allocator: str = "vicinity",
    ingest_only: bool = False,
) -> Tuple[AMCCADevice, DynamicGraph, StreamingBFS]:
    """Device + graph + seeded BFS, ready for streaming."""
    device = AMCCADevice(chip)
    graph = DynamicGraph(
        device,
        num_vertices,
        seed=seed,
        ghost_allocator=ghost_allocator,
        ingest_only=ingest_only,
    )
    bfs = StreamingBFS(root=root)
    graph.attach(bfs)
    bfs.seed(graph, root=root)
    return device, graph, bfs


#: Placement and ghost-allocation seed pinned by the paper-shape tests (the
#: value their bounds were set at).
SHAPE_GRAPH_SEED = 17


def shape_scenario(name: str, dataset: DatasetSpec, chip: ChipSpec,
                   algorithm: str) -> Scenario:
    """A paper-shape test run: the given workload, graph seed pinned."""
    return Scenario(name=name, dataset=dataset, chip=chip, algorithm=algorithm,
                    options=RunOptions(graph_seed=SHAPE_GRAPH_SEED))


def run_paper_pair(name: str, dataset: DatasetSpec, chip: ChipSpec,
                   ) -> Tuple[Dict[str, Dict[str, Any]], Dict[str, Any]]:
    """The paper's paired measurement: ingestion only, then with BFS.

    Returns ``(records, activation)``, both keyed ``"ingest"``/``"bfs"``:
    the run records (named ``<name>-ingest``/``<name>-bfs``) and each run's
    per-cycle percent of cells active, which records do not store.
    """
    records, activation = {}, {}
    for algorithm in ("ingest", "bfs"):
        record, device = run_scenario_traced(
            shape_scenario(f"{name}-{algorithm}", dataset, chip, algorithm))
        records[algorithm] = record
        activation[algorithm] = activation_percent(device)
    return records, activation
