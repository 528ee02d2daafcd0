"""Message-driven triangle counting (one of the paper's future-work algorithms).

Implemented as a *query diffusion* launched after ingestion quiesces, using
the standard "forward" algorithm: for every edge ``(u, v)`` with ``u < v``,
vertex ``u`` sends ``v`` the subset of ``u``'s neighbours with id greater
than ``v``; ``v`` intersects it with its own neighbour set restricted to ids
greater than ``v``.  Each triangle ``u < v < w`` is therefore counted exactly
once, at its middle vertex ``v``.

The probe messages carry neighbour-id lists, so their ``size_words`` grows
with the payload and the NoC charges multiple flits for large probes -- the
cost of moving adjacency data through the mesh is part of what this
algorithm measures.

Neighbour sets are read from the root block's *mirror* (the compact list of
destination ids the root records for every insertion, see
:mod:`repro.graph.rpvo`), so the query works regardless of how the edges are
spread over ghost blocks.
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

TC_START_ACTION = "tc-start-action"
TC_PROBE_ACTION = "tc-probe-action"


@register_algorithm("triangles", query=True, symmetric_only=True,
                    result_arity="aggregate")
class TriangleCounting(Algorithm):
    """Exact triangle count of the currently ingested (undirected) graph."""

    state_key = "triangles"

    def __init__(self) -> None:
        super().__init__()
        self.probes_sent = 0

    # ------------------------------------------------------------------
    def attach(self, graph: "DynamicGraph") -> None:
        super().attach(graph)
        graph.device.register_action(TC_START_ACTION, self.start_action, size_words=2)
        graph.device.register_action(TC_PROBE_ACTION, self.probe_action, size_words=4)

    def init_state(self, block: VertexBlock) -> None:
        block.state.setdefault(self.state_key, 0)

    # ------------------------------------------------------------------
    # Actions
    # ------------------------------------------------------------------
    def start_action(self, ctx: ActionContext, block: VertexBlock) -> None:
        """Send one probe per neighbour with a larger id (forward algorithm)."""
        graph = self.graph
        assert graph is not None
        u = block.vid
        neighbours = sorted(set(block.mirror))
        ctx.charge(action_cost("edge_scan", max(1, len(neighbours))))
        for v in neighbours:
            if v <= u or v == block.vid:
                continue
            higher = [w for w in neighbours if w > v]
            self.probes_sent += 1
            ctx.propagate(
                TC_PROBE_ACTION,
                graph.address_of(v),
                u,
                tuple(higher),
                size_words=2 + len(higher),
            )

    def probe_action(self, ctx: ActionContext, block: VertexBlock,
                     u: int, higher_neighbours_of_u: tuple) -> None:
        """Count common neighbours with id greater than this vertex's id."""
        v = block.vid
        mine = {w for w in set(block.mirror) if w > v}
        ctx.charge(action_cost("edge_scan", max(1, len(mine) + len(higher_neighbours_of_u))))
        common = mine.intersection(higher_neighbours_of_u)
        if common:
            block.state[self.state_key] = block.get_state(self.state_key, 0) + len(common)
            ctx.charge(action_cost("state_update"))

    # ------------------------------------------------------------------
    # Host API
    # ------------------------------------------------------------------
    def run(self, graph: "DynamicGraph", max_cycles: int | None = None) -> "RunResult":
        """Launch the query over every vertex and run until it terminates."""
        terminator = Terminator("triangle-counting")
        for vid in range(graph.num_vertices):
            if graph.root_block(vid).mirror:
                graph.device.send(TC_START_ACTION, graph.address_of(vid))
        return graph.device.run(terminator=terminator, max_cycles=max_cycles,
                                phase="triangle-counting")

    def results(self, graph: "DynamicGraph") -> Dict[str, int]:
        """Total triangle count plus the per-vertex (middle-vertex) counts."""
        per_vertex = {
            vid: graph.vertex_state(vid, self.state_key, 0)
            for vid in range(graph.num_vertices)
        }
        return {"total": sum(per_vertex.values()), "per_vertex": per_vertex}

    def reference(self, nx_graph: "nx.DiGraph | nx.Graph", **_: object) -> Dict[str, int]:
        """NetworkX ground truth (triangles of the undirected simple graph)."""
        import networkx as nx

        undirected = nx.Graph(nx_graph.to_undirected() if nx_graph.is_directed() else nx_graph)
        undirected.remove_edges_from(nx.selfloop_edges(undirected))
        per_vertex = nx.triangles(undirected)
        return {"total": sum(per_vertex.values()) // 3, "per_vertex": dict(per_vertex)}

    def verify(self, results: Dict[str, int], reference: Dict[str, int]) -> bool:
        """The total must match exactly; per-vertex counts differ in *where*
        a triangle is attributed (the chip counts at the middle vertex)."""
        return int(results["total"]) == int(reference["total"])

    def summarize(self, results: Dict[str, int]) -> Dict[str, int]:
        """Record metrics: the exact triangle total."""
        return {"triangles": int(results["total"])}
