"""Rebuild live simulation state from snapshot sections.

Restores are *reconstruct-then-overlay*: the caller rebuilds the code side
(device, action registry, graph skeleton, algorithm) from its declarative
spec exactly as a fresh run would, and the snapshot then overlays every
piece of captured data state.  Nothing executable is ever deserialised.

The hard invariant (pinned by ``tests/test_snapshot.py``): a simulator
restored from a snapshot produces a **bit-identical schedule** — and
therefore identical statistics, records and stores — to the uninterrupted
run from the capture point, on every kernel.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING

from repro.arch.config import ChipConfig
from repro.arch.simulator import Simulator
from repro.graph.graph import DynamicGraph
from repro.snapshot.capture import _chip_meta
from repro.snapshot.format import SnapshotError

if TYPE_CHECKING:  # pragma: no cover
    from repro.snapshot import Snapshot


def _check_chip(snapshot: "Snapshot", config: ChipConfig) -> None:
    expected = snapshot.meta.get("chip")
    actual = _chip_meta(config)
    if expected != actual:
        diffs = sorted(
            k for k in set(expected) | set(actual)
            if expected.get(k) != actual.get(k)
        )
        raise SnapshotError(
            "chip spec mismatch between snapshot and restore target "
            f"(differing fields: {', '.join(diffs)}); restore onto the "
            "configuration the snapshot was captured from")


def restore_into(graph: DynamicGraph, snapshot: "Snapshot") -> DynamicGraph:
    """Overlay a graph-format snapshot onto a freshly built graph.

    ``graph`` must be constructed from the same scenario as the captured
    run (same chip spec, vertices, placement, seeds, algorithm) and must
    not have streamed anything yet.  Returns the graph for chaining.
    """
    snapshot.require_version()
    if snapshot.meta.get("format") != "graph":
        raise SnapshotError(
            f"snapshot format {snapshot.meta.get('format')!r} cannot be "
            "restored into a graph (expected a graph-level capture)")
    _check_chip(snapshot, graph.config)
    body = snapshot.body
    sim = graph.device.simulator
    sim.restore_state(body["sim"])
    sim.io.import_state(body["io"])
    graph.device.restore_state(body["device"])
    graph.restore_snapshot_state(body["graph"])
    _maybe_inject_fault(sim)
    return graph


def _maybe_inject_fault(sim: Simulator) -> None:
    """Test-only fault injection for the fuzz oracle (see repro.fuzz).

    ``REPRO_FUZZ_INJECT=restore-stats`` perturbs one restored counter so a
    resumed run diverges from the uninterrupted one.  The fuzz self-tests
    set it to prove the differential oracle actually detects (and shrinks)
    a broken restore; it must never be set outside those tests.  The check
    lives on the restore path only — the cold side of every differential
    pair — so both the resumed-record and recapture-hash invariants see
    the corruption.
    """
    mode = os.environ.get("REPRO_FUZZ_INJECT")
    if not mode:
        return
    if mode == "restore-stats":
        sim.stats.hops += 1
    else:
        raise SnapshotError(f"unknown REPRO_FUZZ_INJECT mode {mode!r}")


def restore_simulator(config: ChipConfig, snapshot: "Snapshot") -> Simulator:
    """Rebuild a bare simulator from a simulator-format snapshot.

    The returned simulator has **no executor installed** — dispatch
    wiring is code, so the caller re-installs its executor (and
    re-registers any actions) before stepping, exactly as it did for the
    original run.
    """
    snapshot.require_version()
    if snapshot.meta.get("format") != "simulator":
        raise SnapshotError(
            f"snapshot format {snapshot.meta.get('format')!r} is not a "
            "bare-simulator capture (use restore_into for graph snapshots)")
    _check_chip(snapshot, config)
    sim = Simulator(config)
    sim.restore_state(snapshot.body["sim"])
    sim.io.import_state(snapshot.body["io"])
    return sim
