"""Rebuild live simulation state from snapshot sections.

Restores are *reconstruct-then-overlay*: the caller rebuilds the code side
(device, action registry, graph skeleton, algorithm) from its declarative
spec exactly as a fresh run would, and the snapshot then overlays every
piece of captured data state.  Nothing executable is ever deserialised.

The hard invariant (pinned by ``tests/test_snapshot.py``): a simulator
restored from a snapshot produces a **bit-identical schedule** — and
therefore identical statistics, records and stores — to the uninterrupted
run from the capture point.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Any, Callable

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
    if not isinstance(expected, dict):
        raise SnapshotError(
            "corrupt snapshot: meta carries no chip spec to check the "
            "restore target against")
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
    sim = graph.device.simulator
    _overlay(snapshot, "sim", sim.restore_state)
    _overlay(snapshot, "io", sim.io.import_state)
    _overlay(snapshot, "device", graph.device.restore_state)
    _overlay(snapshot, "graph", graph.restore_snapshot_state)
    _maybe_inject_fault(sim)
    return graph


def _overlay(snapshot: "Snapshot", section: str,
             restore: Callable[[Any], None]) -> None:
    """Restore one body section, reporting a malformed one by name.

    The digest only proves the body is the one that was written, not that
    a valid capture wrote it: a body that decodes but has the wrong shape
    (a missing key, a column of the wrong type) fails here as a
    :class:`SnapshotError` instead of a raw lookup or type error.
    """
    try:
        restore(snapshot.body[section])
    except (KeyError, IndexError, TypeError, ValueError, AttributeError,
            OverflowError) as exc:
        raise SnapshotError(
            f"corrupt snapshot: malformed {section!r} section "
            f"({type(exc).__name__}: {exc})") from exc


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
    _overlay(snapshot, "sim", sim.restore_state)
    _overlay(snapshot, "io", sim.io.import_state)
    return sim
