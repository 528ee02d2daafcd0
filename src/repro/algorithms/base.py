"""The uniform :class:`Algorithm` contract for message-driven graph algorithms.

Every algorithm in the zoo — streaming or query, paper workload or
follow-on — implements **one lifecycle**:

``attach(graph)``
    Wire the algorithm to a :class:`~repro.graph.graph.DynamicGraph`:
    register its actions on the device.  Called by ``graph.attach``.
``init_state(block)``
    Initialise this algorithm's per-block state fields (called for every
    root block at attach time; per-block state is what snapshots capture).
``seed(graph, root=...)``
    Host-side seeding before streaming starts (BFS/SSSP root injection).
    A no-op by default — the runner calls it unconditionally, so there is
    no ``hasattr`` duck-typing anywhere in the harness.
``on_edge_inserted(ctx, block, slot)``
    Streaming hook: called by ``insert-edge-action`` right after an edge
    lands in a block.  A no-op by default (query-only algorithms).
``run(graph)``
    Post-stream query diffusion.  Returns a
    :class:`~repro.runtime.device.RunResult` — or ``None`` (the default)
    for algorithms whose result is maintained entirely while streaming.
``results(graph)``
    Read the converged result off the chip.
``reference(nx_graph)``
    Ground truth for the same edge set, computed host-side (NetworkX or a
    direct reimplementation of the algorithm's deterministic semantics).
``verify(results, reference)``
    Whether a chip result agrees with the reference.  Exact equality by
    default; statistically-converging algorithms (PageRank) override it.
``summarize(results)``
    Small deterministic scalars for the result record's ``algo_metrics``
    field — the registry-driven replacement for the harness's old
    per-kind ``_algorithm_metrics`` branches.

Which hooks do real work is declared as data on the class
(``cls.caps``, a :class:`~repro.algorithms.registry.Capabilities`) by the
:func:`~repro.algorithms.registry.register_algorithm` decorator; the
harness, fuzzer, suites and CLI read those capabilities instead of
hardcoding algorithm sets.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, TYPE_CHECKING

import networkx as nx

from repro.runtime.actions import ActionContext
from repro.graph.rpvo import EdgeSlot, VertexBlock

if TYPE_CHECKING:  # pragma: no cover
    from repro.graph.graph import DynamicGraph
    from repro.runtime.device import RunResult


class Algorithm:
    """Base class of every registered algorithm (see the module docstring)."""

    #: short identifier used in action names and reports; stamped by
    #: :func:`~repro.algorithms.registry.register_algorithm`.
    name = "abstract"

    def __init__(self) -> None:
        self.graph: "DynamicGraph | None" = None

    # -- wiring ---------------------------------------------------------
    def attach(self, graph: "DynamicGraph") -> None:
        """Register this algorithm's actions on the graph's device."""
        self.graph = graph

    def init_state(self, block: VertexBlock) -> None:
        """Initialise this algorithm's per-block state fields."""
        raise NotImplementedError

    def seed(self, graph: "DynamicGraph", root: Optional[int] = None,
             **kwargs: Any) -> None:
        """Host-side seeding before streaming starts (no-op by default)."""
        return None

    # -- streaming hook -------------------------------------------------
    def on_edge_inserted(self, ctx: ActionContext, block: VertexBlock,
                         slot: EdgeSlot) -> None:
        """Called right after an edge lands in ``block`` (no-op by default)."""
        return None

    # -- query phase ----------------------------------------------------
    def run(self, graph: "DynamicGraph",
            max_cycles: int | None = None) -> "RunResult | None":
        """Post-stream query diffusion (no-op by default, returning ``None``)."""
        return None

    # -- results --------------------------------------------------------
    def results(self, graph: "DynamicGraph") -> Dict[Any, Any]:
        """Read the algorithm's converged result from the chip."""
        raise NotImplementedError

    def reference(self, nx_graph: "nx.DiGraph | nx.Graph",
                  **kwargs: Any) -> Dict[Any, Any]:
        """Ground-truth result computed host-side on the same edge set."""
        raise NotImplementedError

    def verify(self, results: Dict[Any, Any],
               reference: Dict[Any, Any]) -> bool:
        """Chip result vs reference (exact equality unless overridden)."""
        return results == reference

    def summarize(self, results: Dict[Any, Any]) -> Dict[str, Any]:
        """Small deterministic scalars for the record's ``algo_metrics``."""
        return {}

    # -- common helpers -------------------------------------------------
    def _forward_to_ghosts(self, ctx: ActionContext, block: VertexBlock,
                           action: str, *operands: Any) -> None:
        """Propagate an update down the block's ghost hierarchy.

        Fulfilled ghost futures get an immediate message; pending ones get a
        closure queued on the future so the update is not lost (the same
        mechanism Listing 6 uses for overflowing edge insertions).
        """
        for i, future in enumerate(block.ghosts):
            if future.is_fulfilled:
                ctx.propagate(action, future.get(), *operands)
            elif future.is_pending:
                def resume(resume_ctx: ActionContext, _future=future,
                           _action=action, _ops=operands) -> None:
                    resume_ctx.propagate(_action, _future.get(), *_ops)

                future.enqueue(resume)
