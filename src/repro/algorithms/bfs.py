"""Streaming dynamic Breadth-First Search (the paper's application).

Two actions implement the algorithm (paper Listings 4 and 5):

* ``insert-edge-action`` (owned by :mod:`repro.graph.ingest`) calls
  :meth:`StreamingBFS.on_edge_inserted` after storing an edge; if the source
  vertex already has a valid BFS level the destination is informed with a
  ``bfs-action`` carrying ``level + 1``.
* ``bfs-action`` relaxes a vertex's level: if the incoming level improves on
  the stored one, the vertex adopts it and diffuses ``level + 1`` along every
  locally stored edge, plus the unchanged level down its ghost hierarchy so
  ghost blocks stay in sync with the root.

Because level relaxation is monotone, the asynchronous, unordered delivery
of actions cannot produce a wrong result -- only extra work -- and previously
computed levels are updated incrementally, never recomputed from scratch.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple, TYPE_CHECKING

from repro.algorithms.base import Algorithm, forward_on_fulfil
from repro.algorithms.registry import register_algorithm
from repro.arch.cell import ComputeCell
from repro.arch.message import Message
from repro.graph.rpvo import EdgeSlot, INFINITY, VertexBlock
from repro.runtime.actions import ActionContext, action_cost
from repro.runtime.futures import FutureState

#: Costs resolved once at import; per-invocation handlers charge these
#: constants instead of re-calling action_cost in the hot path.
_COST_COMPARE = action_cost("compare")
_COST_STATE_UPDATE = action_cost("state_update")
_COST_EDGE_SCAN = action_cost("edge_scan")
#: A stale level costs the base instruction and the compare; a relaxation
#: adds the state write, plus one edge scan per stored edge.
_STALE_COST = 1 + _COST_COMPARE
_RELAX_COST = 1 + _COST_COMPARE + _COST_STATE_UPDATE

if TYPE_CHECKING:  # pragma: no cover
    import networkx as nx

    from repro.graph.graph import DynamicGraph

#: Registered name of the BFS relaxation action (paper: ``bfs-action``).
BFS_ACTION = "bfs-action"
#: Payload words of a relaxation message.
BFS_WORDS = 3


@register_algorithm("bfs", streaming=True, needs_root=True)
class StreamingBFS(Algorithm):
    """Incremental BFS levels maintained under streaming edge insertions."""

    state_key = "level"

    def __init__(self, root: Optional[int] = None) -> None:
        super().__init__()
        self.root = root
        # counters for reports / tests
        self.relaxations = 0
        self.stale_messages = 0

    # ------------------------------------------------------------------
    def attach(self, graph: "DynamicGraph") -> None:
        super().attach(graph)
        self._settle = graph.device.settle
        graph.device.register_executor(BFS_ACTION, self.execute,
                                       size_words=BFS_WORDS)

    def init_state(self, block: VertexBlock) -> None:
        block.state.setdefault(self.state_key, INFINITY)

    def seed(self, graph: "DynamicGraph", root: Optional[int] = None,
             level: int = 0, via_action: bool = False) -> None:
        """Give the BFS root its level.

        ``via_action=False`` (default) writes the level host-side before
        streaming starts, matching the paper's setup where the root has a
        valid level when edges begin to arrive.  ``via_action=True`` sends a
        ``bfs-action`` through the chip instead, which also relaxes any
        already-present edges.
        """
        root = self.root if root is None else root
        if root is None:
            raise ValueError("a BFS root vertex must be provided")
        self.root = root
        if via_action:
            graph.device.send(BFS_ACTION, graph.address_of(root), level)
        else:
            graph.root_block(root).set_state(self.state_key, level)

    # ------------------------------------------------------------------
    # Actions
    # ------------------------------------------------------------------
    def on_edge_inserted(self, ctx: ActionContext, block: VertexBlock, slot: EdgeSlot) -> None:
        """Listing 4: inform the destination only if this block has a valid level."""
        # get_state/charge inlined: this hook runs once per inserted edge.
        level = block.state.get(self.state_key, INFINITY)
        ctx._extra_cost += _COST_COMPARE
        if level != INFINITY:
            ctx.propagate(BFS_ACTION, slot.dst_addr, level + 1)

    def execute(self, cell: ComputeCell, msg: Message) -> Tuple[int, List[Message]]:
        """Listing 5, as a direct executor: relax the level and diffuse.

        A level that does not improve on the block's is stale.  An
        improving one is stored and sent on, ``level + 1``, along every
        stored edge, and unchanged down the ghost hierarchy so ghost blocks
        stay in sync with the root: a resolved ghost gets a message, a
        pending one the closure :meth:`Algorithm._forward_to_ghosts` queues.
        """
        block = cell.memory[msg.target.obj_id]
        operands = msg.operands
        level = operands[0]
        state = block.state
        key = self.state_key
        if level >= state.get(key, INFINITY):
            self.stale_messages += 1
            self._settle(0)
            return _STALE_COST, []
        state[key] = level
        self.relaxations += 1
        cc_id = cell.cc_id
        edges = block.edges
        onward = (level + 1,)
        out = [Message(cc_id, slot.dst_addr.cc_id, BFS_ACTION, slot.dst_addr,
                       onward, BFS_WORDS) for slot in edges]
        for future in block.ghosts:
            if future.state is FutureState.FULFILLED:
                ghost = future.value
                out.append(Message(cc_id, ghost.cc_id, BFS_ACTION, ghost,
                                   operands, BFS_WORDS))
            elif future.state is FutureState.PENDING:
                future.enqueue(forward_on_fulfil(future, BFS_ACTION, operands))
        self._settle(len(out))
        return _RELAX_COST + _COST_EDGE_SCAN * len(edges), out

    # ------------------------------------------------------------------
    # Results and verification
    # ------------------------------------------------------------------
    def results(self, graph: "DynamicGraph") -> Dict[int, int]:
        """Vertex id -> BFS level for every reached vertex."""
        out: Dict[int, int] = {}
        for vid in range(graph.num_vertices):
            level = graph.vertex_state(vid, self.state_key, INFINITY)
            if level != INFINITY:
                out[vid] = level
        return out

    def reference(self, nx_graph: "nx.DiGraph | nx.Graph",
                  root: Optional[int] = None) -> Dict[int, int]:
        """Ground truth: shortest-path lengths from the root (NetworkX)."""
        import networkx as nx

        root = self.root if root is None else root
        if root is None:
            raise ValueError("a BFS root vertex must be provided")
        if root not in nx_graph:
            return {}
        return dict(nx.single_source_shortest_path_length(nx_graph, root))

    def summarize(self, results: Dict[int, int]) -> Dict[str, int]:
        """Record metrics: how many vertices the BFS reached."""
        return {"reached": len(results)}
