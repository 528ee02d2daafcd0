"""Message-driven Jaccard coefficients (one of the paper's future-work algorithms).

For every stored edge ``(u, v)`` with ``u < v`` the coefficient

    J(u, v) = |N(u) ∩ N(v)| / |N(u) ∪ N(v)|

is computed where it is cheapest in the message-driven model: ``u`` sends its
neighbour set to ``v`` and ``v`` finishes the computation locally, storing
the result in its own state.  Like triangle counting this is a query
diffusion launched after ingestion quiesces, and probe messages are charged
multi-flit costs proportional to the neighbour list they carry.
"""

from __future__ import annotations

from typing import Dict, Tuple, TYPE_CHECKING

from repro.algorithms.base import Algorithm
from repro.algorithms.registry import register_algorithm
from repro.graph.rpvo import VertexBlock
from repro.runtime.actions import ActionContext, action_cost
from repro.runtime.terminator import Terminator

if TYPE_CHECKING:  # pragma: no cover
    import networkx as nx

    from repro.graph.graph import DynamicGraph
    from repro.runtime.device import RunResult

JACCARD_START_ACTION = "jaccard-start-action"
JACCARD_PROBE_ACTION = "jaccard-probe-action"


@register_algorithm("jaccard", query=True, symmetric_only=True,
                    result_arity="pair")
class JaccardCoefficient(Algorithm):
    """Per-edge Jaccard similarity of the currently ingested graph."""

    state_key = "jaccard"

    def __init__(self) -> None:
        super().__init__()
        self.probes_sent = 0

    # ------------------------------------------------------------------
    def attach(self, graph: "DynamicGraph") -> None:
        super().attach(graph)
        graph.device.register_action(JACCARD_START_ACTION, self.start_action, size_words=2)
        graph.device.register_action(JACCARD_PROBE_ACTION, self.probe_action, size_words=4)

    def init_state(self, block: VertexBlock) -> None:
        block.state.setdefault(self.state_key, {})

    # ------------------------------------------------------------------
    def start_action(self, ctx: ActionContext, block: VertexBlock) -> None:
        """Send this vertex's neighbour set to every larger-id neighbour."""
        graph = self.graph
        assert graph is not None
        u = block.vid
        neighbours = sorted(set(block.mirror))
        ctx.charge(action_cost("edge_scan", max(1, len(neighbours))))
        for v in neighbours:
            if v <= u:
                continue
            self.probes_sent += 1
            ctx.propagate(
                JACCARD_PROBE_ACTION,
                graph.address_of(v),
                u,
                tuple(neighbours),
                size_words=2 + len(neighbours),
            )

    def probe_action(self, ctx: ActionContext, block: VertexBlock,
                     u: int, neighbours_of_u: tuple) -> None:
        """Finish the coefficient locally and store it under the edge key."""
        v = block.vid
        mine = set(block.mirror)
        other = set(neighbours_of_u)
        ctx.charge(action_cost("edge_scan", max(1, len(mine) + len(other))))
        union = mine | other
        if not union:
            value = 0.0
        else:
            value = len(mine & other) / len(union)
        block.state[self.state_key][(u, v)] = value
        ctx.charge(action_cost("state_update"))

    # ------------------------------------------------------------------
    def run(self, graph: "DynamicGraph", max_cycles: int | None = None) -> "RunResult":
        """Launch the query over every vertex and run until it terminates."""
        terminator = Terminator("jaccard")
        for vid in range(graph.num_vertices):
            if graph.root_block(vid).mirror:
                graph.device.send(JACCARD_START_ACTION, graph.address_of(vid))
        return graph.device.run(terminator=terminator, max_cycles=max_cycles, phase="jaccard")

    def results(self, graph: "DynamicGraph") -> Dict[Tuple[int, int], float]:
        """Mapping ``(u, v) -> J(u, v)`` for every stored edge with ``u < v``."""
        out: Dict[Tuple[int, int], float] = {}
        for vid in range(graph.num_vertices):
            out.update(graph.vertex_state(vid, self.state_key, {}))
        return out

    def reference(self, nx_graph: "nx.DiGraph | nx.Graph",
                  **_: object) -> Dict[Tuple[int, int], float]:
        """NetworkX ground truth over the undirected simple graph."""
        import networkx as nx

        undirected = nx.Graph(nx_graph.to_undirected() if nx_graph.is_directed() else nx_graph)
        undirected.remove_edges_from(nx.selfloop_edges(undirected))
        pairs = [(min(u, v), max(u, v)) for u, v in undirected.edges() if u != v]
        out: Dict[Tuple[int, int], float] = {}
        for u, v, value in nx.jaccard_coefficient(undirected, pairs):
            out[(min(u, v), max(u, v))] = value
        return out

    def verify(self, results: Dict[Tuple[int, int], float],
               reference: Dict[Tuple[int, int], float]) -> bool:
        """Same pair set, coefficients equal up to float tolerance."""
        if set(results) != set(reference):
            return False
        return all(abs(results[k] - reference[k]) < 1e-9 for k in results)

    def summarize(self, results: Dict[Tuple[int, int], float]) -> Dict[str, float]:
        """Record metrics: pair coverage and the strongest similarity."""
        top = round(max(results.values()), 9) if results else 0.0
        return {"pairs": len(results), "max_coefficient": top}
