"""Streaming connected components via min-label propagation.

Every vertex starts in its own component, labelled with its own id.  When an
edge ``u -> v`` is inserted, ``u`` tells ``v`` its current label; a vertex
adopting a smaller label diffuses it along all of its stored edges.  Labels
only ever decrease, so the asynchronous diffusion converges to the minimum
vertex id of each (weakly) connected component when the edge stream is
symmetrized, which is how the datasets package emits undirected graphs.
"""

from __future__ import annotations

from typing import Dict, TYPE_CHECKING

from repro.algorithms.base import Algorithm
from repro.algorithms.registry import register_algorithm
from repro.graph.rpvo import EdgeSlot, VertexBlock
from repro.runtime.actions import ActionContext, action_cost

if TYPE_CHECKING:  # pragma: no cover
    import networkx as nx

    from repro.graph.graph import DynamicGraph

CC_ACTION = "cc-action"


@register_algorithm("components", streaming=True, symmetric_only=True)
class StreamingConnectedComponents(Algorithm):
    """Incremental connected-component labels under edge insertions."""

    state_key = "comp"

    def __init__(self) -> None:
        super().__init__()
        self.relabels = 0
        self.stale_messages = 0

    # ------------------------------------------------------------------
    def attach(self, graph: "DynamicGraph") -> None:
        super().attach(graph)
        graph.device.register_action(CC_ACTION, self.cc_action, size_words=3)

    def init_state(self, block: VertexBlock) -> None:
        block.state.setdefault(self.state_key, block.vid)

    # ------------------------------------------------------------------
    def on_edge_inserted(self, ctx: ActionContext, block: VertexBlock, slot: EdgeSlot) -> None:
        """Tell the destination this block's current component label."""
        label = block.get_state(self.state_key, block.vid)
        ctx.charge(action_cost("compare"))
        ctx.propagate(CC_ACTION, slot.dst_addr, label)

    def cc_action(self, ctx: ActionContext, block: VertexBlock, label: int) -> None:
        current = block.get_state(self.state_key, block.vid)
        ctx.charge(action_cost("compare"))
        if label >= current:
            self.stale_messages += 1
            return
        block.set_state(self.state_key, label)
        ctx.charge(action_cost("state_update"))
        self.relabels += 1
        for slot in block.edges:
            ctx.charge(action_cost("edge_scan"))
            ctx.propagate(CC_ACTION, slot.dst_addr, label)
        self._forward_to_ghosts(ctx, block, CC_ACTION, label)

    # ------------------------------------------------------------------
    def results(self, graph: "DynamicGraph") -> Dict[int, int]:
        """Vertex id -> component label (smallest vertex id in its component)."""
        return {
            vid: graph.vertex_state(vid, self.state_key, vid)
            for vid in range(graph.num_vertices)
        }

    def reference(self, nx_graph: "nx.DiGraph | nx.Graph", **_: object) -> Dict[int, int]:
        """Ground truth labels from NetworkX (undirected view of the edge set)."""
        import networkx as nx

        undirected = nx_graph.to_undirected() if nx_graph.is_directed() else nx_graph
        labels: Dict[int, int] = {}
        for component in nx.connected_components(undirected):
            smallest = min(component)
            for vid in component:
                labels[vid] = smallest
        return labels

    def summarize(self, results: Dict[int, int]) -> Dict[str, int]:
        """Record metrics: how many distinct components remain."""
        return {"components": len(set(results.values()))}
