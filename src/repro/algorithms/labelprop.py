"""Synchronous label-propagation community detection.

Label propagation is the classic lightweight community detector: every
vertex starts in its own community and repeatedly adopts the label most
common among its neighbours.  The *asynchronous* variant is notoriously
order-dependent, which would wreck this repository's determinism
contract, so the implementation here is the **synchronous** variant run
as host-mediated super-steps.  Each round is two diffusions:

1. *broadcast* — every vertex tells each neighbour its current label
   (``lp-tell`` messages accumulate in the receiver's inbox, keyed by
   sender, so duplicate delivery is idempotent);
2. *adopt* — once the network has quiesced, every vertex switches to the
   most frequent label in its inbox, breaking ties toward the smallest
   label, and clears the inbox.

Because adoption only reads the quiesced inbox, the result is a pure
function of the graph — message timing cannot change it — and the
host-side :meth:`reference` reproduces it exactly by running the same
rule (same tie-break, same round cap) on the undirected simple graph.

The round cap matters: synchronous propagation can oscillate between two
labelings (a bipartite graph two-colours itself forever), so the loop
stops after :data:`MAX_ROUNDS` even if labels are still changing, and
the reference applies the identical cap.
"""

from __future__ import annotations

from typing import Dict, List, TYPE_CHECKING

from repro.algorithms.base import Algorithm
from repro.algorithms.registry import register_algorithm
from repro.graph.rpvo import VertexBlock
from repro.runtime.actions import ActionContext, action_cost
from repro.runtime.device import RunResult
from repro.runtime.terminator import Terminator

if TYPE_CHECKING:  # pragma: no cover
    import networkx as nx

    from repro.graph.graph import DynamicGraph

LP_BCAST_ACTION = "lp-bcast-action"
LP_TELL_ACTION = "lp-tell-action"
LP_ADOPT_ACTION = "lp-adopt-action"

# Synchronous propagation can oscillate (a bipartite graph swaps its
# two-colouring forever), so rounds are capped.  The reference applies
# the same cap, keeping chip and host in exact agreement either way.
MAX_ROUNDS = 16


def _top_label(labels: List[int]) -> int:
    """Most frequent label; ties break toward the smallest label."""
    counts: Dict[int, int] = {}
    for label in labels:
        counts[label] = counts.get(label, 0) + 1
    return min(counts, key=lambda label: (-counts[label], label))


@register_algorithm("labelprop", query=True, symmetric_only=True)
class LabelPropagation(Algorithm):
    """Community labels from synchronous majority-label propagation."""

    state_key = "label"

    def __init__(self) -> None:
        super().__init__()
        self.rounds = 0
        self.changes = 0

    # ------------------------------------------------------------------
    def attach(self, graph: "DynamicGraph") -> None:
        super().attach(graph)
        graph.device.register_action(LP_BCAST_ACTION, self.bcast_action,
                                     size_words=2)
        graph.device.register_action(LP_TELL_ACTION, self.tell_action,
                                     size_words=3)
        graph.device.register_action(LP_ADOPT_ACTION, self.adopt_action,
                                     size_words=2)

    def init_state(self, block: VertexBlock) -> None:
        block.state.setdefault(self.state_key, block.vid)
        # Labels heard this round, keyed by sender for idempotence.
        block.state.setdefault("lp_inbox", {})

    @staticmethod
    def _neighbours(block: VertexBlock) -> List[int]:
        """Distinct neighbours, self-loops excluded (communities are simple)."""
        return sorted(set(block.mirror) - {block.vid})

    # ------------------------------------------------------------------
    # Actions
    # ------------------------------------------------------------------
    def bcast_action(self, ctx: ActionContext, block: VertexBlock) -> None:
        """Tell every neighbour this vertex's current label."""
        graph = self.graph
        assert graph is not None
        label = block.state[self.state_key]
        neighbours = self._neighbours(block)
        ctx.charge(action_cost("edge_scan", max(1, len(neighbours))))
        for v in neighbours:
            ctx.propagate(LP_TELL_ACTION, graph.address_of(v),
                          block.vid, label)

    def tell_action(self, ctx: ActionContext, block: VertexBlock,
                    u: int, label: int) -> None:
        """File the sender's label in the inbox for this round."""
        block.state["lp_inbox"][u] = label
        ctx.charge(action_cost("state_update"))

    def adopt_action(self, ctx: ActionContext, block: VertexBlock) -> None:
        """Switch to the most frequent inbox label (ties: smallest)."""
        inbox: Dict[int, int] = block.state["lp_inbox"]
        ctx.charge(action_cost("compare"))
        if inbox:
            new = _top_label(list(inbox.values()))
            ctx.charge(action_cost("edge_scan", max(1, len(inbox))))
            if new != block.state[self.state_key]:
                block.state[self.state_key] = new
                ctx.charge(action_cost("state_update"))
                self.changes += 1
        block.state["lp_inbox"] = {}

    # ------------------------------------------------------------------
    # Host API
    # ------------------------------------------------------------------
    def run(self, graph: "DynamicGraph",
            max_cycles: int | None = None) -> RunResult:
        """Run synchronous super-steps until labels stabilise (or the cap)."""
        self.rounds = 0
        total_cycles = 0
        start_cycle = graph.device.simulator.cycle
        last: RunResult | None = None
        for _ in range(MAX_ROUNDS):
            self.changes = 0
            for phase_action in (LP_BCAST_ACTION, LP_ADOPT_ACTION):
                terminator = Terminator(f"labelprop-{phase_action}")
                for vid in range(graph.num_vertices):
                    if graph.root_block(vid).mirror:
                        graph.device.send(phase_action, graph.address_of(vid))
                last = graph.device.run(terminator=terminator,
                                        max_cycles=max_cycles,
                                        phase="labelprop")
                total_cycles += last.cycles
            self.rounds += 1
            if self.changes == 0:
                break
        assert last is not None
        return RunResult(
            cycles=total_cycles,
            start_cycle=start_cycle,
            end_cycle=last.end_cycle,
            stats=last.stats,
            phase="labelprop",
            extra={"rounds": self.rounds},
        )

    def results(self, graph: "DynamicGraph") -> Dict[int, int]:
        """Vertex id -> community label (a vertex id within the community)."""
        return {
            vid: graph.vertex_state(vid, self.state_key, vid)
            for vid in range(graph.num_vertices)
        }

    def reference(self, nx_graph: "nx.DiGraph | nx.Graph", **_: object) -> Dict[int, int]:
        """Host re-execution of the identical synchronous rule.

        Chip and host compute the same pure function of the graph, so
        agreement is exact — including when the cap stops an oscillation.
        """
        import networkx as nx

        undirected = nx.Graph(nx_graph.to_undirected()
                              if nx_graph.is_directed() else nx_graph)
        undirected.remove_edges_from(nx.selfloop_edges(undirected))
        labels = {vid: vid for vid in nx_graph.nodes()}
        for _ in range(MAX_ROUNDS):
            incoming = {
                vid: [labels[nbr] for nbr in undirected.neighbors(vid)]
                for vid in labels
                if vid in undirected
            }
            changes = 0
            for vid, heard in incoming.items():
                if not heard:
                    continue
                new = _top_label(heard)
                if new != labels[vid]:
                    labels[vid] = new
                    changes += 1
            if changes == 0:
                break
        return labels

    def summarize(self, results: Dict[int, int]) -> Dict[str, int]:
        """Record metrics: community count and rounds to stabilise."""
        return {
            "communities": len(set(results.values())),
            "rounds": self.rounds,
        }
