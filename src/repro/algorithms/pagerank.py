"""Asynchronous push-based PageRank maintained by residual diffusion.

This is the classic "PageRank-delta" formulation, which fits the diffusive
model naturally: every vertex keeps a ``rank`` and a ``residual``.  Pushing a
vertex moves its residual into its rank and spreads ``damping * residual /
out_degree`` to its neighbours; a vertex whose residual crosses the
threshold schedules itself for another push.  The process terminates when
every residual is below the threshold, which the terminator detects like any
other diffusion.

The algorithm runs as a query over the ingested graph (``run``), but it also
exposes the streaming hook: inserting an edge adds fresh residual at the
source, so ranks can be kept approximately up to date while edges stream.
Verification is statistical (rank mass conservation and rank correlation
with NetworkX's PageRank) because asynchronous delta propagation converges
to the same fixed point only up to the chosen threshold.
"""

from __future__ import annotations

from typing import Dict, TYPE_CHECKING

from repro.algorithms.base import Algorithm
from repro.algorithms.registry import register_algorithm
from repro.graph.rpvo import VertexBlock
from repro.runtime.actions import ActionContext, action_cost
from repro.runtime.terminator import Terminator

if TYPE_CHECKING:  # pragma: no cover
    import networkx as nx

    from repro.graph.graph import DynamicGraph
    from repro.runtime.device import RunResult

PR_PUSH_ACTION = "pr-push-action"
PR_ACCUM_ACTION = "pr-accum-action"


@register_algorithm("pagerank", streaming=True, query=True)
class PageRankDelta(Algorithm):
    """Residual-propagation PageRank over the message-driven graph."""

    def __init__(self, damping: float = 0.85, epsilon: float = 1e-3) -> None:
        super().__init__()
        if not 0.0 < damping < 1.0:
            raise ValueError("damping must be in (0, 1)")
        if epsilon <= 0.0:
            raise ValueError("epsilon must be positive")
        self.damping = damping
        self.epsilon = epsilon
        self.pushes = 0

    # ------------------------------------------------------------------
    def attach(self, graph: "DynamicGraph") -> None:
        super().attach(graph)
        graph.device.register_action(PR_PUSH_ACTION, self.push_action, size_words=2)
        graph.device.register_action(PR_ACCUM_ACTION, self.accum_action, size_words=3)

    def init_state(self, block: VertexBlock) -> None:
        block.state.setdefault("rank", 0.0)
        block.state.setdefault("residual", 1.0 - self.damping)
        block.state.setdefault("pr_queued", False)

    # ------------------------------------------------------------------
    # Actions
    # ------------------------------------------------------------------
    def push_action(self, ctx: ActionContext, block: VertexBlock) -> None:
        """Move residual into rank and spread it to out-neighbours."""
        graph = self.graph
        assert graph is not None
        block.state["pr_queued"] = False
        residual = block.state.get("residual", 0.0)
        ctx.charge(action_cost("compare"))
        if residual < self.epsilon:
            return
        block.state["rank"] = block.state.get("rank", 0.0) + residual
        block.state["residual"] = 0.0
        ctx.charge(action_cost("state_update", 2))
        self.pushes += 1
        neighbours = block.mirror
        if not neighbours:
            return
        share = self.damping * residual / len(neighbours)
        ctx.charge(action_cost("edge_scan", len(neighbours)))
        for dst in neighbours:
            ctx.propagate(PR_ACCUM_ACTION, graph.address_of(dst), share)

    def accum_action(self, ctx: ActionContext, block: VertexBlock, share: float) -> None:
        """Accumulate incoming residual; self-schedule a push when it matters."""
        graph = self.graph
        assert graph is not None
        block.state["residual"] = block.state.get("residual", 0.0) + share
        ctx.charge(action_cost("state_update"))
        if block.state["residual"] >= self.epsilon and not block.state.get("pr_queued", False):
            block.state["pr_queued"] = True
            ctx.propagate(PR_PUSH_ACTION, graph.address_of(block.vid))

    # ------------------------------------------------------------------
    # Streaming hook (optional incremental maintenance)
    # ------------------------------------------------------------------
    def on_edge_inserted(self, ctx: ActionContext, block: VertexBlock, slot) -> None:
        """A new edge redistributes this vertex's influence: add fresh residual."""
        graph = self.graph
        assert graph is not None
        block.state["residual"] = block.state.get("residual", 0.0) + (1.0 - self.damping) * 0.1
        if block.state["residual"] >= self.epsilon and not block.state.get("pr_queued", False):
            block.state["pr_queued"] = True
            ctx.propagate(PR_PUSH_ACTION, graph.address_of(block.vid))

    # ------------------------------------------------------------------
    # Host API
    # ------------------------------------------------------------------
    def run(self, graph: "DynamicGraph", max_cycles: int | None = None) -> "RunResult":
        """Seed every vertex with its initial residual push and run to quiescence."""
        terminator = Terminator("pagerank")
        for vid in range(graph.num_vertices):
            block = graph.root_block(vid)
            if not block.state.get("pr_queued", False):
                block.state["pr_queued"] = True
                graph.device.send(PR_PUSH_ACTION, graph.address_of(vid))
        return graph.device.run(terminator=terminator, max_cycles=max_cycles, phase="pagerank")

    def results(self, graph: "DynamicGraph") -> Dict[int, float]:
        """Normalised rank per vertex (sums to 1 over the whole graph)."""
        raw = {
            vid: graph.vertex_state(vid, "rank", 0.0)
            + graph.vertex_state(vid, "residual", 0.0)
            for vid in range(graph.num_vertices)
        }
        total = sum(raw.values())
        if total <= 0:
            return raw
        return {vid: value / total for vid, value in raw.items()}

    def reference(self, nx_graph: "nx.DiGraph | nx.Graph", **kwargs) -> Dict[int, float]:
        """NetworkX PageRank on the same edge set (same damping factor)."""
        import networkx as nx

        return dict(nx.pagerank(nx_graph, alpha=self.damping, **kwargs))

    def verify(self, results: Dict[int, float],
               reference: Dict[int, float]) -> bool:
        """Statistical agreement: asynchronous delta propagation converges
        to the reference fixed point only up to the residual threshold, so
        exact equality is the wrong test.  Checks the same vertex set and
        an L1 distance within the epsilon-derived tolerance."""
        if set(results) != set(reference):
            return False
        budget = max(0.05, len(results) * self.epsilon / (1.0 - self.damping))
        l1 = sum(abs(results[v] - reference[v]) for v in results)
        return l1 <= budget

    def summarize(self, results: Dict[int, float]) -> Dict[str, float]:
        """Record metrics: rank coverage and (conserved) rank mass."""
        return {
            "vertices_ranked": len(results),
            "rank_mass": round(sum(results.values()), 9),
        }
