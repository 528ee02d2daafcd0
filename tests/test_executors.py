"""Tests for the per-action executor table and the direct executors.

``insert-edge-action`` and ``bfs-action`` run through direct executors that
build their messages and counters without an action context; every other
action runs its context-style handler through a generic executor.  Each
branch is driven here by handing one message to the action's executor, as
the simulator's cell loop does, and checking the cost, the emitted
messages, the block and ingestor counters and the terminator's books.
These tests build chips with the default kernel, so the native lane runs
them against the C cell loop too.
"""

from __future__ import annotations

import pytest

from repro.algorithms.bfs import BFS_ACTION, BFS_WORDS, StreamingBFS
from repro.arch._native import HAVE_NATIVE
from repro.arch.address import Address
from repro.arch.config import ChipConfig
from repro.arch.message import Message
from repro.graph.graph import DynamicGraph
from repro.graph.ingest import INSERT_EDGE_ACTION, INSERT_EDGE_WORDS, EdgeIngestor
from repro.graph.rpvo import Edge, EdgeSlot, VertexBlock
from repro.runtime.actions import ActionContext
from repro.runtime.continuations import SYS_ALLOCATE
from repro.runtime.device import AMCCADevice
from repro.runtime.futures import FutureState
from repro.runtime.terminator import TerminationError, Terminator


def make_graph(algorithm=None, *, ingest_only=False, capacity=2,
               kernel="auto"):
    device = AMCCADevice(ChipConfig(width=4, height=4, kernel=kernel))
    graph = DynamicGraph(device, 8, capacity=capacity, ghost_slots=1,
                         seed=1, ingest_only=ingest_only)
    if algorithm is not None:
        graph.attach(algorithm)
    return device, graph


def slot_to(graph, vid, weight=1):
    return EdgeSlot(graph.address_of(vid), vid, weight)


def fill(block, graph, count):
    """Store ``count`` edges in ``block`` host-side."""
    for i in range(count):
        block.edges.append(slot_to(graph, i % graph.num_vertices))


def resolve_ghost(device, block, cc_id=5):
    """Allocate a ghost block for ``block``'s slot 0 and fulfil its future."""
    ghost = VertexBlock(block.vid, block.capacity, len(block.ghosts),
                        is_root=False, depth=block.depth + 1)
    addr = device.allocate_on(cc_id, ghost, words=ghost.words())
    block.ghosts[0].set_pending()
    block.ghost_addrs[0] = addr
    block.ghosts[0].fulfil(addr)
    return ghost, addr


def install_terminator(device, outstanding=1):
    """A terminator with ``outstanding`` delivered messages, as run() has."""
    terminator = Terminator()
    terminator.on_sent(outstanding)
    device._terminator = terminator
    return terminator


def execute(device, msg):
    """Run ``msg`` on its destination cell through its action's executor."""
    cell = device.simulator.cell(msg.dst)
    return device.registry.executors[msg.action](cell, msg)


def insert_message(target, slot):
    return Message(0, target.cc_id, INSERT_EDGE_ACTION, target, (slot,),
                   INSERT_EDGE_WORDS)


def bfs_message(target, level):
    return Message(0, target.cc_id, BFS_ACTION, target, (level,), BFS_WORDS)


def shape(msg):
    return (msg.src, msg.dst, msg.action, msg.target, msg.operands,
            msg.size_words)


def books(terminator):
    return (terminator.outstanding, terminator.total_sent,
            terminator.total_completed)


class TestInsertExecutor:
    def test_store_with_room_and_no_algorithm(self):
        device, graph = make_graph()
        term = install_terminator(device)
        root, addr = graph.root_block(0), graph.address_of(0)
        slot = slot_to(graph, 3)
        cost, msgs = execute(device, insert_message(addr, slot))
        assert (cost, msgs) == (3, [])
        assert root.edges == [slot] and root.mirror == [3]
        assert root.inserts_seen == 1 and root.forwards == 0
        assert graph.ingestor.edges_inserted == 1
        assert books(term) == (0, 1, 1)

    def test_store_with_room_ingest_only_skips_the_hook(self):
        bfs = StreamingBFS(root=0)
        device, graph = make_graph(bfs, ingest_only=True)
        bfs.seed(graph)
        term = install_terminator(device)
        slot = slot_to(graph, 3)
        cost, msgs = execute(device, insert_message(graph.address_of(0), slot))
        assert (cost, msgs) == (3, [])
        assert graph.root_block(0).edges == [slot]
        assert books(term) == (0, 1, 1)

    def test_store_with_room_runs_the_algorithm_hook(self):
        bfs = StreamingBFS(root=0)
        device, graph = make_graph(bfs)
        bfs.seed(graph)
        term = install_terminator(device)
        addr = graph.address_of(0)
        slot = slot_to(graph, 3)
        cost, msgs = execute(device, insert_message(addr, slot))
        # insert (2) + the hook's level compare (1) + the base instruction
        assert cost == 4
        assert [shape(m) for m in msgs] == [
            (addr.cc_id, slot.dst_addr.cc_id, BFS_ACTION, slot.dst_addr,
             (1,), BFS_WORDS)]
        assert graph.root_block(0).edges == [slot]
        assert graph.ingestor.edges_inserted == 1
        assert books(term) == (1, 2, 1)

    def test_hooked_store_never_enters_handle(self, monkeypatch):
        # The direct executor runs a hooked store on the pooled context
        # itself; handle() is left to overflows that wait on a ghost.
        handle, room = EdgeIngestor.handle, []

        def spy(self, ctx, block, slot):
            room.append(len(block.edges) < block.capacity)
            handle(self, ctx, block, slot)

        monkeypatch.setattr(EdgeIngestor, "handle", spy)
        bfs = StreamingBFS(root=0)
        device, graph = make_graph(bfs)
        bfs.seed(graph)
        graph.stream_increment([Edge(0, v) for v in range(1, 8)]
                               + [Edge(v, v + 1) for v in range(1, 7)])
        assert graph.ingestor.edges_inserted == 13
        assert room and not any(room)
        assert bfs.results(graph)[7] == 1

    def test_forward_at_a_root(self):
        device, graph = make_graph()
        term = install_terminator(device)
        root, addr = graph.root_block(0), graph.address_of(0)
        fill(root, graph, root.capacity)
        _ghost, ghost_addr = resolve_ghost(device, root)
        slot = slot_to(graph, 4)
        cost, msgs = execute(device, insert_message(addr, slot))
        assert cost == 2
        assert [shape(m) for m in msgs] == [
            (addr.cc_id, ghost_addr.cc_id, INSERT_EDGE_ACTION, ghost_addr,
             (slot,), INSERT_EDGE_WORDS)]
        assert root.forwards == 1 and root.inserts_seen == 1
        assert root.mirror == [4] and len(root.edges) == root.capacity
        assert graph.ingestor.ghost_forwards == 1
        assert graph.ingestor.edges_inserted == 0
        assert books(term) == (1, 2, 1)

    def test_forward_at_a_ghost(self):
        device, graph = make_graph()
        term = install_terminator(device)
        ghost, ghost_addr = resolve_ghost(device, graph.root_block(0))
        fill(ghost, graph, ghost.capacity)
        _next, next_addr = resolve_ghost(device, ghost, cc_id=9)
        slot = slot_to(graph, 6)
        cost, msgs = execute(device, insert_message(ghost_addr, slot))
        assert cost == 2
        assert [shape(m) for m in msgs] == [
            (ghost_addr.cc_id, next_addr.cc_id, INSERT_EDGE_ACTION,
             next_addr, (slot,), INSERT_EDGE_WORDS)]
        # Only a root mirrors its vertex's inserts.
        assert ghost.mirror == [] and ghost.forwards == 1
        assert graph.ingestor.ghost_forwards == 1
        assert books(term) == (1, 2, 1)

    def test_null_future_starts_the_allocation(self):
        device, graph = make_graph()
        term = install_terminator(device)
        root, addr = graph.root_block(0), graph.address_of(0)
        fill(root, graph, root.capacity)
        slot = slot_to(graph, 4)
        cost, msgs = execute(device, insert_message(addr, slot))
        # the room check (1) + parking the insert (1) + the base instruction
        assert cost == 3
        [alloc] = msgs
        assert (alloc.src, alloc.action, alloc.size_words) == (
            addr.cc_id, SYS_ALLOCATE, 4)
        assert alloc.dst == alloc.target.cc_id and alloc.target.obj_id == -1
        words = VertexBlock(0, graph.capacity, 1, is_root=False).words()
        assert alloc.operands[1:3] == (words, addr.cc_id)
        future = root.ghosts[0]
        assert future.state is FutureState.PENDING
        assert future.queue_length == 1 and root.ghost_addrs == [None]
        ingestor = graph.ingestor
        assert (ingestor.ghosts_allocated, ingestor.future_enqueues,
                ingestor.ghost_forwards) == (1, 1, 0)
        assert root.inserts_seen == 1 and root.mirror == [4]
        assert books(term) == (1, 2, 1)

    def test_pending_future_queues_the_insert(self):
        device, graph = make_graph()
        term = install_terminator(device)
        root, addr = graph.root_block(0), graph.address_of(0)
        fill(root, graph, root.capacity)
        root.ghosts[0].set_pending()
        cost, msgs = execute(device, insert_message(addr, slot_to(graph, 4)))
        assert (cost, msgs) == (3, [])
        assert root.ghosts[0].queue_length == 1
        assert graph.ingestor.future_enqueues == 1
        assert graph.ingestor.ghosts_allocated == 0
        assert books(term) == (0, 1, 1)


class TestBFSExecutor:
    def test_stale_level(self):
        bfs = StreamingBFS(root=0)
        device, graph = make_graph(bfs)
        bfs.seed(graph)
        term = install_terminator(device)
        root = graph.root_block(0)
        fill(root, graph, 2)
        cost, msgs = execute(device, bfs_message(graph.address_of(0), 5))
        assert (cost, msgs) == (2, [])
        assert root.state["level"] == 0
        assert (bfs.stale_messages, bfs.relaxations) == (1, 0)
        assert books(term) == (0, 1, 1)

    def test_relaxation_diffuses_along_every_edge(self):
        bfs = StreamingBFS(root=0)
        device, graph = make_graph(bfs)
        term = install_terminator(device)
        block, addr = graph.root_block(2), graph.address_of(2)
        fill(block, graph, 2)
        cost, msgs = execute(device, bfs_message(addr, 3))
        # compare + state write + one scan per edge + the base instruction
        assert cost == 3 + 2
        assert [shape(m) for m in msgs] == [
            (addr.cc_id, s.dst_addr.cc_id, BFS_ACTION, s.dst_addr, (4,),
             BFS_WORDS) for s in block.edges]
        assert block.state["level"] == 3
        assert (bfs.stale_messages, bfs.relaxations) == (0, 1)
        assert books(term) == (2, 3, 1)

    def test_resolved_ghost_gets_the_same_level(self):
        bfs = StreamingBFS(root=0)
        device, graph = make_graph(bfs)
        term = install_terminator(device)
        block, addr = graph.root_block(2), graph.address_of(2)
        fill(block, graph, 1)
        _ghost, ghost_addr = resolve_ghost(device, block)
        cost, msgs = execute(device, bfs_message(addr, 3))
        assert cost == 3 + 1
        edge = block.edges[0].dst_addr
        assert [shape(m) for m in msgs] == [
            (addr.cc_id, edge.cc_id, BFS_ACTION, edge, (4,), BFS_WORDS),
            (addr.cc_id, ghost_addr.cc_id, BFS_ACTION, ghost_addr, (3,),
             BFS_WORDS)]
        assert books(term) == (2, 3, 1)

    def test_pending_ghost_queues_the_level(self):
        bfs = StreamingBFS(root=0)
        device, graph = make_graph(bfs)
        term = install_terminator(device)
        block, addr = graph.root_block(2), graph.address_of(2)
        future = block.ghosts[0]
        future.set_pending()
        cost, msgs = execute(device, bfs_message(addr, 3))
        assert (cost, msgs) == (3, [])
        assert future.queue_length == 1
        assert books(term) == (0, 1, 1)
        # Released, the closure sends the unchanged level to the ghost (run
        # here outside a diffusion, as no release task was sent for it).
        device._terminator = None
        ghost_addr = Address(9, 0)
        [closure] = future.fulfil(ghost_addr)
        ctx = ActionContext(device, device.simulator.cell(addr.cc_id))
        closure(ctx)
        _cost, released = ctx.finish()
        assert [shape(m) for m in released] == [
            (addr.cc_id, 9, BFS_ACTION, ghost_addr, (3,), BFS_WORDS)]


class TestSettle:
    def test_direct_executor_with_no_outstanding_work_raises(self):
        device, graph = make_graph()
        term = install_terminator(device, outstanding=0)
        with pytest.raises(TerminationError, match="went negative"):
            execute(device, insert_message(graph.address_of(0), slot_to(graph, 3)))
        assert (term.outstanding, term.total_completed) == (-1, 1)

    def test_pre_run_sends_settle_without_a_terminator(self):
        device, graph = make_graph()
        root, addr = graph.root_block(0), graph.address_of(0)
        fill(root, graph, root.capacity - 1)
        _ghost, _ghost_addr = resolve_ghost(device, root)
        device.terminator_hook_sent(2)
        # A store retires one send and creates none.
        execute(device, insert_message(addr, slot_to(graph, 3)))
        assert device._pre_run_sends == 1
        # A forward retires one and creates one.
        execute(device, insert_message(addr, slot_to(graph, 4)))
        assert device._pre_run_sends == 1
        execute(device, insert_message(addr, slot_to(graph, 5)))
        execute(device, insert_message(addr, slot_to(graph, 6)))
        assert device._pre_run_sends == 1
        # With nothing outstanding the tally does not go negative.
        device._pre_run_sends = 0
        execute(device, insert_message(graph.address_of(1), slot_to(graph, 2)))
        assert device._pre_run_sends == 0


class TestExecutorTable:
    def test_registered_actions_fill_the_simulators_table(self):
        bfs = StreamingBFS(root=0)
        device, graph = make_graph(bfs)
        table = device.simulator.executors
        assert table is device.registry.executors
        assert table[INSERT_EDGE_ACTION] == graph.ingestor.execute
        assert table[BFS_ACTION] == bfs.execute
        device.register_action("late", lambda ctx, obj: None)
        assert "late" in table

    @pytest.mark.parametrize("kernel", [
        "python",
        pytest.param("native", marks=pytest.mark.skipif(
            not HAVE_NATIVE, reason="native sweep extension not built")),
    ])
    def test_unregistered_action_raises(self, kernel):
        device, _graph = make_graph(kernel=kernel)
        device.simulator.inject_message(
            Message(0, 5, "no-such-action", Address(5, -1)))
        with pytest.raises(KeyError, match="no-such-action"):
            device.simulator.run(max_cycles=50)

    def test_generic_executor_charges_and_sends_as_the_handler_asks(self):
        device, _graph = make_graph()
        device.register_action("ping", lambda ctx, obj: None, size_words=2)

        def handler(ctx, obj, n):
            ctx.charge(n)
            for _ in range(n):
                ctx.propagate("ping", Address(3, -1), n)

        device.register_action("fan", handler, size_words=2)
        term = install_terminator(device)
        cost, msgs = execute(device, Message(0, 1, "fan", Address(1, -1),
                                             (2,)))
        assert cost == 3
        assert [shape(m) for m in msgs] == [
            (1, 3, "ping", Address(3, -1), (2,), 2)] * 2
        assert books(term) == (2, 3, 1)
