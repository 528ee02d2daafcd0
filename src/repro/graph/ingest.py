"""Streaming edge ingestion: the ``insert-edge-action``.

This module implements the paper's Listing 6.  An insert action is sent to a
vertex's root block; the action:

1. inserts the edge into the block's local edge list if there is room, then
   hands control to the attached streaming algorithm (Listing 4's BFS
   propagation along the new edge);
2. otherwise, recurses into the ghost hierarchy:

   * if the ghost future is *null*, the future is set to *pending*, this
     insertion is enqueued on the future as a dependent closure, and a
     continuation is launched that allocates a ghost block on a compute cell
     chosen by the ghost allocator (Figure 3);
   * if the ghost future is *pending*, the insertion is enqueued on it
     (Figure 4, state 2);
   * if the ghost future is fulfilled, the insertion is recursively
     propagated to the ghost block's address.

The action registers a direct executor (:meth:`EdgeIngestor.execute`).
It forwards into a resolved ghost and stores a hook-free edge without an
:class:`~repro.runtime.actions.ActionContext`, and runs the algorithm hook
of a hooked store on the device's pooled context itself; only the two
branches that wait on an unresolved ghost (starting its allocation,
queueing on its pending future) run :meth:`EdgeIngestor.handle` through a
generic executor.
"""

from __future__ import annotations

import copy
from typing import TYPE_CHECKING, List, Tuple

from repro.arch.address import Address
from repro.arch.cell import ComputeCell
from repro.arch.message import Message
from repro.runtime.actions import ActionContext, action_cost
from repro.graph.rpvo import EdgeSlot, VertexBlock

if TYPE_CHECKING:  # pragma: no cover
    from repro.graph.graph import DynamicGraph

#: Costs resolved once at import; per-invocation handlers charge these
#: constants instead of re-calling action_cost in the hot path.
_COST_INSERT = action_cost("insert")
_COST_COMPARE = action_cost("compare")
_COST_STATE_UPDATE = action_cost("state_update")
#: What the direct branches cost: the base instruction plus the insert, or
#: plus the room check that sends the edge on to a ghost.
_STORE_COST = 1 + _COST_INSERT
_FORWARD_COST = 1 + _COST_COMPARE

#: The registered name of the ingestion action (paper: ``insert-edge-action``).
INSERT_EDGE_ACTION = "insert-edge-action"
#: Payload words of an insert message.
INSERT_EDGE_WORDS = 4


class EdgeIngestor:
    """Binds the insert-edge action to one :class:`~repro.graph.graph.DynamicGraph`."""

    def __init__(self, graph: "DynamicGraph") -> None:
        self.graph = graph
        # Counters exposed for tests / reports.
        self.edges_inserted = 0
        self.ghosts_allocated = 0
        self.ghost_forwards = 0
        self.future_enqueues = 0

    # ------------------------------------------------------------------
    def register(self) -> None:
        """Register the ingestion action on the graph's device."""
        device = self.graph.device
        self._handle_in_context = device.context_executor(self.handle)
        self._settle = device.settle
        self._ctx = device._pooled_ctx
        device.register_executor(INSERT_EDGE_ACTION, self.execute,
                                 size_words=INSERT_EDGE_WORDS)

    # ------------------------------------------------------------------
    # The action (paper Listing 6)
    # ------------------------------------------------------------------
    def execute(self, cell: ComputeCell, msg: Message) -> Tuple[int, List[Message]]:
        """Direct executor: insert ``msg``'s edge slot into the target block.

        Stores into a block with room, running the algorithm hook (if any)
        on the device's pooled context, and forwards into a resolved ghost
        (read from ``block.ghost_addrs``) with no context; an unresolved
        ghost runs :meth:`handle`.
        """
        block = cell.memory[msg.target.obj_id]
        operands = msg.operands
        slot = operands[0]
        block.inserts_seen += 1
        if block.is_root:
            # The root sees every insertion of its logical vertex first and
            # keeps a compact mirror of destination ids for analytics queries.
            block.mirror.append(slot.dst_vid)
        edges = block.edges
        if len(edges) < block.capacity:
            edges.append(slot)
            self.edges_inserted += 1
            graph = self.graph
            algorithm = graph.algorithm
            if graph.ingest_only or algorithm is None:
                self._settle(0)
                return _STORE_COST, []
            # Inline of the generic executor's context reset, with the
            # insert charged up front.
            ctx = self._ctx
            ctx.cell = cell
            ctx._extra_cost = _COST_INSERT
            ctx._messages = None
            ctx._spawned_tasks = None
            algorithm.on_edge_inserted(ctx, block, slot)
            return ctx.finish()
        # Edge list full: the ghost slot block.ghost_slot_for picks.
        ghost_addrs = block.ghost_addrs
        ghost = ghost_addrs[slot.dst_vid % len(ghost_addrs)]
        if ghost is not None:
            block.forwards += 1
            self.ghost_forwards += 1
            self._settle(1)
            return _FORWARD_COST, [Message(
                cell.cc_id, ghost.cc_id, INSERT_EDGE_ACTION, ghost,
                operands, INSERT_EDGE_WORDS)]
        return self._handle_in_context(cell, msg)

    def handle(self, ctx: ActionContext, block: VertexBlock, slot: EdgeSlot) -> None:
        """The overflow branches that need a context, after :meth:`execute`.

        ``block`` is full and the ghost for ``slot`` unresolved: a null
        future starts the ghost allocation, a pending one queues the
        insert on it.
        """
        ctx.charge(_COST_COMPARE)
        slot_index = block.ghost_slot_for(slot.dst_vid)
        future = block.ghosts[slot_index]

        if future.is_null:
            # First overflow for this slot: start the asynchronous allocation.
            future.set_pending()
            self._enqueue_pending_insert(ctx, block, future, slot)
            self._allocate_ghost(ctx, block, slot_index)
            return

        # Future is pending: someone else already started the allocation.
        self._enqueue_pending_insert(ctx, block, future, slot)

    # ------------------------------------------------------------------
    def _enqueue_pending_insert(self, ctx: ActionContext, block: VertexBlock,
                                future, slot: EdgeSlot) -> None:
        """Park this insertion on the pending ghost future (Figure 4, state 2)."""
        self.future_enqueues += 1
        ctx.charge(_COST_STATE_UPDATE)

        def resume(resume_ctx: ActionContext) -> None:
            # Runs after the future is fulfilled; recursively propagate the
            # insertion to the freshly allocated ghost block.
            resume_ctx.propagate(INSERT_EDGE_ACTION, future.get(), slot)

        future.enqueue(resume)

    def _allocate_ghost(self, ctx: ActionContext, block: VertexBlock, slot_index: int) -> None:
        """Launch the continuation that allocates a ghost block remotely."""
        graph = self.graph
        destination_cc = graph.ghost_allocator.choose(ctx.cc_id)
        vid = block.vid
        depth = block.depth + 1
        # Snapshot of the parent's algorithm state: the new ghost block starts
        # from the vertex state known at allocation time and is kept up to
        # date afterwards by the algorithm's ghost forwarding.  Deep copy:
        # nested containers (jaccard pair maps, kcore neighbour bounds) must
        # not alias state the root block keeps mutating — a restored run
        # rebuilds ghosts without the alias, and organic vs restored chip
        # state must stay bit-identical.
        state_snapshot = copy.deepcopy(block.state)
        capacity = graph.capacity
        ghost_slots = graph.ghost_slots

        def factory() -> VertexBlock:
            return VertexBlock(
                vid=vid,
                capacity=capacity,
                ghost_slots=ghost_slots,
                is_root=False,
                depth=depth,
                state=state_snapshot,
            )

        future = block.ghosts[slot_index]
        self.ghosts_allocated += 1
        graph.ghost_blocks_allocated += 1

        def then(cont_ctx: ActionContext, address: Address) -> None:
            # Figure 3 step 3: the continuation returned with the ghost's
            # address; fulfil the future and release its dependent tasks.
            block.ghost_addrs[slot_index] = address
            released = future.fulfil(address)
            cont_ctx.charge(_COST_STATE_UPDATE)
            for closure in released:
                cont_ctx.schedule_local(closure, label="future-release")

        words = VertexBlock(vid, capacity, ghost_slots, is_root=False).words()
        ctx.call_cc_allocate(factory, words, destination_cc, then)
