"""Streaming single-source shortest paths (weighted generalisation of BFS).

The structure is identical to :mod:`repro.algorithms.bfs` -- a monotone
distance relaxation diffused by actions -- but edge weights are taken into
account: relaxing a vertex at distance ``d`` sends ``d + w(e)`` along every
stored edge ``e``.  This is one of the "more complex message-driven
streaming dynamic algorithms" the paper's conclusion points to.
"""

from __future__ import annotations

from typing import Dict, Optional, TYPE_CHECKING

from repro.algorithms.base import Algorithm
from repro.algorithms.registry import register_algorithm
from repro.graph.rpvo import EdgeSlot, INFINITY, VertexBlock
from repro.runtime.actions import ActionContext, action_cost

if TYPE_CHECKING:  # pragma: no cover
    import networkx as nx

    from repro.graph.graph import DynamicGraph

SSSP_ACTION = "sssp-action"


@register_algorithm("sssp", streaming=True, needs_root=True)
class StreamingSSSP(Algorithm):
    """Incremental weighted shortest-path distances under edge insertions."""

    state_key = "dist"

    def __init__(self, root: Optional[int] = None) -> None:
        super().__init__()
        self.root = root
        self.relaxations = 0
        self.stale_messages = 0

    # ------------------------------------------------------------------
    def attach(self, graph: "DynamicGraph") -> None:
        super().attach(graph)
        graph.device.register_action(SSSP_ACTION, self.sssp_action, size_words=3)

    def init_state(self, block: VertexBlock) -> None:
        block.state.setdefault(self.state_key, INFINITY)

    def seed(self, graph: "DynamicGraph", root: Optional[int] = None,
             distance: int = 0, via_action: bool = False) -> None:
        """Set the source vertex's distance to zero."""
        root = self.root if root is None else root
        if root is None:
            raise ValueError("an SSSP source vertex must be provided")
        self.root = root
        if via_action:
            graph.device.send(SSSP_ACTION, graph.address_of(root), distance)
        else:
            graph.root_block(root).set_state(self.state_key, distance)

    # ------------------------------------------------------------------
    def on_edge_inserted(self, ctx: ActionContext, block: VertexBlock, slot: EdgeSlot) -> None:
        dist = block.get_state(self.state_key, INFINITY)
        ctx.charge(action_cost("compare"))
        if dist != INFINITY:
            ctx.propagate(SSSP_ACTION, slot.dst_addr, dist + slot.weight)

    def sssp_action(self, ctx: ActionContext, block: VertexBlock, dist: int) -> None:
        current = block.get_state(self.state_key, INFINITY)
        ctx.charge(action_cost("compare"))
        if dist >= current:
            self.stale_messages += 1
            return
        block.set_state(self.state_key, dist)
        ctx.charge(action_cost("state_update"))
        self.relaxations += 1
        for slot in block.edges:
            ctx.charge(action_cost("edge_scan"))
            ctx.propagate(SSSP_ACTION, slot.dst_addr, dist + slot.weight)
        self._forward_to_ghosts(ctx, block, SSSP_ACTION, dist)

    # ------------------------------------------------------------------
    def results(self, graph: "DynamicGraph") -> Dict[int, int]:
        out: Dict[int, int] = {}
        for vid in range(graph.num_vertices):
            dist = graph.vertex_state(vid, self.state_key, INFINITY)
            if dist != INFINITY:
                out[vid] = dist
        return out

    def reference(self, nx_graph: "nx.DiGraph | nx.Graph",
                  root: Optional[int] = None) -> Dict[int, int]:
        import networkx as nx

        root = self.root if root is None else root
        if root is None:
            raise ValueError("an SSSP source vertex must be provided")
        if root not in nx_graph:
            return {}
        lengths = nx.single_source_dijkstra_path_length(nx_graph, root, weight="weight")
        return {v: int(d) for v, d in lengths.items()}

    def summarize(self, results: Dict[int, int]) -> Dict[str, int]:
        """Record metrics: how many vertices the SSSP reached."""
        return {"reached": len(results)}
