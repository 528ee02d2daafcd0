"""Walk a live simulation and produce snapshot sections.

Two capture granularities exist:

* :func:`capture` — the full mid-stream state of a streaming-graph run:
  the :class:`~repro.arch.simulator.Simulator` (clock, wake wheel, cells,
  statistics, NoC in-flight state), the IO channels, the device runtime
  counters and the graph side (RPVO blocks, ghost allocator RNG, ingest
  cursor).  This is what ``repro serve``'s span hand-off and
  ``snapshot_every`` use.
* :func:`capture_simulator` — a bare :class:`Simulator` with no graph on
  top (used by architecture-level tests and custom harnesses).  Cell
  memories must be empty — arbitrary resident objects cannot be
  serialised — and the caller re-installs its executor after restore.

Both refuse state that is not plain data (Task closures, pending ghost
futures, registered continuations, enabled tracing) with errors that name
the offender; at the boundary of a drained increment none of these exist,
so such captures always succeed.  An increment truncated by
``max_cycles_per_increment`` can leave continuations registered.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro import __version__
from repro.arch.config import ChipConfig
from repro.arch.simulator import Simulator
from repro.graph.graph import DynamicGraph
from repro.snapshot.format import SnapshotError


def _chip_meta(config: ChipConfig) -> Dict[str, Any]:
    """The chip fields a restore must agree on."""
    return {
        "width": config.width,
        "height": config.height,
        "routing": config.routing,
        "fidelity": config.fidelity,
        "io_sides": tuple(config.io_sides),
        "edge_list_capacity": config.edge_list_capacity,
        "ghost_slots": config.ghost_slots,
        "max_message_words": config.max_message_words,
    }


def _check_capturable(sim: Simulator) -> None:
    if sim.trace.enabled:
        raise SnapshotError(
            "cannot snapshot while tracing is enabled (trace frames are "
            "not serialised); build the simulator with trace_every=0")


def capture_sections(graph: DynamicGraph) -> Dict[str, Any]:
    """The four body sections of a graph-level snapshot (plain values)."""
    device = graph.device
    sim = device.simulator
    _check_capturable(sim)
    return {
        "sim": sim.snapshot_state(),
        "io": sim.io.export_state(),
        "device": device.snapshot_state(),
        "graph": graph.snapshot_state(),
    }


def capture(graph: DynamicGraph, *,
            extra_meta: Optional[Dict[str, Any]] = None):
    """Snapshot the full mid-stream state of a streaming-graph run.

    ``extra_meta`` entries (e.g. the harness's ``spec_hash``) are folded
    into the snapshot's meta section so a restore can verify provenance.
    """
    from repro.snapshot import Snapshot

    body = capture_sections(graph)
    sim = graph.device.simulator
    meta: Dict[str, Any] = {
        "format": "graph",
        "repro_version": __version__,
        "cycle": sim.cycle,
        "increments_streamed": graph.increments_streamed,
        "num_vertices": graph.num_vertices,
        "chip": _chip_meta(graph.config),
    }
    if extra_meta:
        meta.update(extra_meta)
    return Snapshot(meta, body)


def capture_simulator(sim: Simulator, *,
                      extra_meta: Optional[Dict[str, Any]] = None):
    """Snapshot a bare simulator (no graph layer on top).

    Cell memories must be empty: resident objects belong to whatever layer
    allocated them, and only the graph layer knows how to serialise its
    own (use :func:`capture` there).  Pending IO items are refused for the
    same reason — their message factory is a closure the bare-simulator
    restore cannot rebuild.
    """
    from repro.snapshot import Snapshot

    _check_capturable(sim)
    for cell in sim.cells:
        if cell.memory:
            raise SnapshotError(
                f"cell {cell.cc_id} has {len(cell.memory)} resident "
                "object(s); bare-simulator snapshots cannot serialise cell "
                "memory — capture through the graph layer instead")
    if not sim.io.drained:
        raise SnapshotError(
            f"{sim.io.pending} IO item(s) still queued; bare-simulator "
            "snapshots cannot rebuild the transfer factory — drain the IO "
            "stream or capture through the graph layer")
    body = {
        "sim": sim.snapshot_state(),
        "io": sim.io.export_state(),
    }
    meta: Dict[str, Any] = {
        "format": "simulator",
        "repro_version": __version__,
        "cycle": sim.cycle,
        "chip": _chip_meta(sim.config),
    }
    if extra_meta:
        meta.update(extra_meta)
    return Snapshot(meta, body)
