"""Message-driven k-core decomposition (coreness maintenance).

The distributed algorithm of Montresor, De Pellegrini and Miorandi fits
the diffusive model exactly: every vertex maintains a monotonically
*decreasing* upper bound on its coreness, starting at its degree.  When a
vertex learns a neighbour's bound it recomputes its own as the largest
``k`` such that at least ``k`` neighbours have a bound of at least ``k``
(an h-index over neighbour bounds, each capped at the vertex's current
bound).  Any decrease is re-broadcast.  Because bounds only ever fall and
the update operator is monotone, the asynchronous, unordered delivery of
messages cannot change the fixed point — the converged bounds **are** the
exact core numbers — it only changes how much work the chip does getting
there.

Per-message work is tiny but every decrease triggers a full-neighbourhood
re-broadcast, so dense regions produce cascading waves of small messages:
a different NoC stress pattern from the bulk neighbour-list probes of
triangles/Jaccard.

Neighbour sets are read from the root block's *mirror* (the compact list
of destination ids the root records for every insertion); coreness is
defined on the undirected simple graph, so the algorithm is
``symmetric_only`` and self-loops are ignored.
"""

from __future__ import annotations

from typing import Dict, List, TYPE_CHECKING

from repro.algorithms.base import Algorithm
from repro.algorithms.registry import register_algorithm
from repro.graph.rpvo import VertexBlock
from repro.runtime.actions import ActionContext, action_cost
from repro.runtime.terminator import Terminator

if TYPE_CHECKING:  # pragma: no cover
    import networkx as nx

    from repro.graph.graph import DynamicGraph
    from repro.runtime.device import RunResult

KCORE_START_ACTION = "kcore-start-action"
KCORE_BOUND_ACTION = "kcore-bound-action"


@register_algorithm("kcore", query=True, symmetric_only=True)
class KCoreDecomposition(Algorithm):
    """Exact per-vertex core numbers of the currently ingested graph."""

    state_key = "core"

    def __init__(self) -> None:
        super().__init__()
        self.updates = 0
        self.stale_bounds = 0

    # ------------------------------------------------------------------
    def attach(self, graph: "DynamicGraph") -> None:
        super().attach(graph)
        graph.device.register_action(KCORE_START_ACTION, self.start_action,
                                     size_words=2)
        graph.device.register_action(KCORE_BOUND_ACTION, self.bound_action,
                                     size_words=3)

    def init_state(self, block: VertexBlock) -> None:
        block.state.setdefault(self.state_key, 0)
        # Last bound heard from each neighbour (monotone: only decreases).
        block.state.setdefault("kcore_nbr", {})

    @staticmethod
    def _neighbours(block: VertexBlock) -> List[int]:
        """Distinct neighbours, self-loops excluded (coreness is simple)."""
        return sorted(set(block.mirror) - {block.vid})

    def _recompute(self, block: VertexBlock) -> int:
        """H-index of neighbour bounds, capped at the current own bound.

        Neighbours not heard from yet count at the cap: their true bound
        can only lower the result later, never raise it.
        """
        cur = block.state[self.state_key]
        known: Dict[int, int] = block.state["kcore_nbr"]
        count = [0] * (cur + 1)
        for v in self._neighbours(block):
            count[min(cur, known.get(v, cur))] += 1
        total = 0
        for k in range(cur, 0, -1):
            total += count[k]
            if total >= k:
                return k
        return 0

    # ------------------------------------------------------------------
    # Actions
    # ------------------------------------------------------------------
    def start_action(self, ctx: ActionContext, block: VertexBlock) -> None:
        """Adopt the degree as the initial bound and tell every neighbour."""
        graph = self.graph
        assert graph is not None
        neighbours = self._neighbours(block)
        bound = len(neighbours)
        block.state[self.state_key] = bound
        ctx.charge(action_cost("state_update"))
        ctx.charge(action_cost("edge_scan", max(1, len(neighbours))))
        for v in neighbours:
            ctx.propagate(KCORE_BOUND_ACTION, graph.address_of(v),
                          block.vid, bound)

    def bound_action(self, ctx: ActionContext, block: VertexBlock,
                     u: int, bound: int) -> None:
        """Record a neighbour's (lower) bound; re-broadcast on any decrease."""
        graph = self.graph
        assert graph is not None
        known: Dict[int, int] = block.state["kcore_nbr"]
        prev = known.get(u)
        ctx.charge(action_cost("compare"))
        if prev is not None and prev <= bound:
            # Bounds fall monotonically at the sender; a higher (reordered
            # or duplicate) value carries no information.
            self.stale_bounds += 1
            return
        known[u] = bound
        ctx.charge(action_cost("state_update"))
        cur = block.state[self.state_key]
        new = self._recompute(block)
        ctx.charge(action_cost("edge_scan",
                               max(1, len(self._neighbours(block)))))
        if new >= cur:
            return
        block.state[self.state_key] = new
        ctx.charge(action_cost("state_update"))
        self.updates += 1
        for v in self._neighbours(block):
            ctx.propagate(KCORE_BOUND_ACTION, graph.address_of(v),
                          block.vid, new)

    # ------------------------------------------------------------------
    # Host API
    # ------------------------------------------------------------------
    def run(self, graph: "DynamicGraph",
            max_cycles: int | None = None) -> "RunResult":
        """Seed every vertex with its degree bound and run to convergence."""
        terminator = Terminator("kcore")
        for vid in range(graph.num_vertices):
            if graph.root_block(vid).mirror:
                graph.device.send(KCORE_START_ACTION, graph.address_of(vid))
        return graph.device.run(terminator=terminator, max_cycles=max_cycles,
                                phase="kcore")

    def results(self, graph: "DynamicGraph") -> Dict[int, int]:
        """Vertex id -> exact core number (0 for isolated vertices)."""
        return {
            vid: graph.vertex_state(vid, self.state_key, 0)
            for vid in range(graph.num_vertices)
        }

    def reference(self, nx_graph: "nx.DiGraph | nx.Graph", **_: object) -> Dict[int, int]:
        """NetworkX ground truth on the undirected simple graph."""
        import networkx as nx

        undirected = nx.Graph(nx_graph.to_undirected()
                              if nx_graph.is_directed() else nx_graph)
        undirected.remove_edges_from(nx.selfloop_edges(undirected))
        return dict(nx.core_number(undirected))

    def summarize(self, results: Dict[int, int]) -> Dict[str, int]:
        """Record metrics: the degeneracy and how many vertices have a core."""
        values = list(results.values())
        return {
            "max_core": max(values) if values else 0,
            "cored_vertices": sum(1 for c in values if c > 0),
        }
