"""Network-on-chip models for the AM-CCA mesh.

Three fidelity levels are provided (a documented knob, see
docs/architecture.md):

* :class:`CycleAccurateNoC` -- hop-by-hop movement on flat arrays keyed by
  integer link id.  Each directed mesh link carries at most one message per
  cycle; messages queue FIFO at every link, so congestion on hot links shows
  up as real delay.  This is the default and is what all correctness tests
  and the paper-shaped benchmarks use.
* :class:`ReferenceCycleAccurateNoC` -- the original dictionary-of-deques
  implementation of the same model, kept as the executable specification.
  It is selectable via ``fidelity="cycle-ref"`` and the equivalence tests
  assert that both implementations produce byte-identical schedules.
* :class:`LatencyNoC` -- contention-free model that delivers every message
  after its minimal (Manhattan) delay.  Useful for very large inputs where
  the qualitative behaviour is dominated by work counts rather than link
  contention.  Its default *batched* mode drains all same-deadline messages
  in one bucket pop instead of one heap pop per message.

All models charge one hop per link traversal per flit to the statistics so
the energy model sees identical accounting structure.

Within-cycle ordering contract
------------------------------
Both cycle-accurate implementations sweep the active links **in the order
they became active** (FIFO), move each link's head-of-queue message exactly
one hop, and deliver local (``src == dst``) messages first.  Links activated
during a sweep are not revisited until the next cycle.  This order is part
of the simulator's deterministic schedule: it fixes the relative order of
same-cycle deliveries and therefore of task execution on the destination
cells.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from typing import Deque, Dict, List, Tuple

from repro.arch.config import ChipConfig
from repro.arch.message import Message
from repro.arch.routing import RoutingPolicy, make_routing
from repro.arch.stats import SimStats


class BaseNoC:
    """Common interface of the NoC models."""

    def __init__(self, config: ChipConfig, routing: RoutingPolicy, stats: SimStats) -> None:
        self.config = config
        self.routing = routing
        self.stats = stats
        self.in_flight = 0

    # -- interface ------------------------------------------------------
    def inject(self, msg: Message, cycle: int) -> None:
        """Accept a newly staged message from a compute cell or IO cell."""
        raise NotImplementedError

    def advance(self, cycle: int) -> List[Message]:
        """Advance the network by one cycle and return delivered messages."""
        raise NotImplementedError

    @property
    def is_empty(self) -> bool:
        """True when no message is in flight."""
        return self.in_flight == 0

    def untraversed_hops(self) -> int:
        """Flit-hops charged to ``stats.hops`` but not yet traversed.

        Models that prepay a message's whole route at injection (the fast
        cycle sweeps, the latency model) report the in-flight remainder
        here so truncated runs can account for it explicitly
        (``SimStats.hops_untraversed``).  Models that accrue per traversal
        (:class:`ReferenceCycleAccurateNoC`) never over-charge and return 0.
        """
        return 0

    # -- snapshot support (see repro.snapshot) -------------------------
    def export_state(self) -> Dict:
        """In-flight state as plain values (model-specific; see subclasses)."""
        raise NotImplementedError

    def import_state(self, state: Dict) -> None:
        """Restore :meth:`export_state` output into a freshly built model."""
        raise NotImplementedError


class CycleAccurateNoC(BaseNoC):
    """Hop-by-hop mesh NoC with per-link serialization, on flat arrays.

    All per-link state is preallocated and keyed by the integer link id of
    :class:`~repro.arch.routing.LinkTable` (``cell * 4 + direction``):

    * ``_queues[lid]`` -- FIFO of messages waiting to traverse the link,
    * ``_stamp[lid]`` -- sweep stamp deduplicating the active list,
    * ``_active`` -- the link ids with queued messages, in activation order.

    A dimension-ordered route is two straight legs, each an arithmetic
    progression in link-id space (:meth:`RoutingPolicy.route_legs`).  At
    injection the message takes its legs as five ints on private slots: the
    current leg's step and last link id, the second leg's first and last
    link id (``_noc_turn`` is -1 once the message has turned, or when its
    route has one leg), and the route length.  The per-cycle sweep therefore
    does no routing, hashing or dictionary work and reads no route list: it
    pops a head, steps to ``lid + step`` (or takes the turn once), and
    appends the message to the next link's preallocated queue.
    ``Message.hops`` is written once, at delivery.  The active list is swept
    in place and ping-ponged with a scratch list instead of being snapshot
    via ``list()`` every cycle.

    Congestion semantics are identical to the original dictionary model
    (:class:`ReferenceCycleAccurateNoC`): per cycle at most one message
    crosses each link; everything else waits, which is how contention around
    hot vertices (the paper's snowball-sampling observation) materialises in
    simulated cycles.

    Accounting note: flit-hop statistics are prepaid per route at injection
    rather than accrued per traversal, so ``stats.hops`` (and the energy
    estimate built on it) matches the reference model exactly at quiescence
    but includes in-flight messages' untraversed remainder if a run is
    truncated mid-flight by a cycle budget.
    """

    def __init__(self, config: ChipConfig, routing: RoutingPolicy, stats: SimStats) -> None:
        super().__init__(config, routing, stats)
        table = routing.link_table
        self.link_table = table
        num_links = table.num_links
        #: one preallocated FIFO per directed link id (border slots unused).
        self._queues: List[Deque[Message]] = [deque() for _ in range(num_links)]
        #: link ids with queued messages, in the order they became active.
        self._active: List[int] = []
        self._next_active: List[int] = []
        #: sweep-stamp dedupe: _stamp[lid] == _sweep marks lid as already on
        #: the pending list.  Bumping _sweep each advance retires the whole
        #: array in O(1), so the sweep needs no flag-clearing pre-pass.
        self._stamp: List[int] = [0] * num_links
        self._sweep = 1
        # messages delivered without entering the mesh (src == dst)
        self._local_deliveries: List[Message] = []
        self._flit_words = max(1, config.max_message_words)
        #: bound leg lookup, hoisted out of the per-injection attr chase.
        self._legs_fn = routing.route_legs

    # ------------------------------------------------------------------
    def _place(self, msg: Message, hop: int) -> int:
        """Arm ``msg``'s leg state at route index ``hop``; return its link id.

        Sets the private slots the sweep reads: the current leg's step and
        last link id, the second leg's first and last link id while the
        turn lies ahead (``_noc_turn`` is -1 otherwise), and the route
        length that ``hops`` takes at delivery.
        """
        a, step_a, len_a, b, step_b, len_b = self._legs_fn(msg.src, msg.dst)
        msg._noc_len = len_a + len_b
        msg._noc_turn_end = b + step_b * (len_b - 1)
        if hop < len_a:
            msg._noc_step = step_a
            msg._noc_end = a + step_a * (len_a - 1)
            msg._noc_turn = b if len_b else -1
            return a + step_a * hop
        msg._noc_step = step_b
        msg._noc_end = msg._noc_turn_end
        msg._noc_turn = -1
        return b + step_b * (hop - len_a)

    def _traversed(self, msg: Message, lid: int) -> int:
        """Links ``msg`` has crossed while it queues on link ``lid``.

        The two legs run in different directions, so the direction of
        ``lid`` names the leg it lies on.
        """
        a, step_a, len_a, b, step_b, _ = self._legs_fn(msg.src, msg.dst)
        if len_a and (lid & 3) == (a & 3):
            return (lid - a) // step_a
        return len_a + (lid - b) // step_b

    def inject(self, msg: Message, cycle: int) -> None:
        stats = self.stats
        stats.messages_injected += 1
        if msg.src == msg.dst:
            # Local delivery: no network traversal, delivered next cycle.
            self._local_deliveries.append(msg)
            return
        lid = self._place(msg, 0)
        size = msg.size_words
        fw = self._flit_words
        # Flit-hops are prepaid for the whole route: the totals equal the
        # reference model's per-hop accrual whenever the network is empty,
        # and the sweep saves one accumulation per link traversal.  Caveat:
        # if a run is truncated (max_cycles) with messages still in flight,
        # stats.hops includes their untraversed remainder, where the
        # reference model would not — hop/energy totals are exact only at
        # quiescence.
        n = msg._noc_len
        stats.hops += n if size <= fw else (-(-size // fw)) * n
        self._queues[lid].append(msg)
        sweep = self._sweep
        stamp = self._stamp
        if stamp[lid] != sweep:
            stamp[lid] = sweep
            self._active.append(lid)
        self.in_flight += 1

    def advance(self, cycle: int) -> List[Message]:
        delivered: List[Message] = self._local_deliveries
        self._local_deliveries = []

        active = self._active
        if not active:
            return delivered

        queues = self._queues
        stamp = self._stamp
        steps = self.link_table.steps
        nxt = self._next_active
        nxt_append = nxt.append
        # Start a fresh sweep: every stamp from the previous sweep is stale,
        # so links earn their next-cycle slot by being stamped anew.
        sweep = self._sweep = self._sweep + 1
        deliveries = 0
        for lid in active:
            q = queues[lid]
            if not q:  # pragma: no cover - defensive; invariant keeps q nonempty
                continue
            # Traverse link lid: its cycle-start head moves exactly one hop.
            msg = q.popleft()
            if lid != msg._noc_end:
                nlid = lid + msg._noc_step
            else:
                nlid = msg._noc_turn
                if nlid >= 0:
                    # Last link of the first leg: turn onto the second.
                    msg._noc_turn = -1
                    msg._noc_step = steps[nlid & 3]
                    msg._noc_end = msg._noc_turn_end
            if nlid >= 0:
                queues[nlid].append(msg)
                if stamp[nlid] != sweep:
                    stamp[nlid] = sweep
                    nxt_append(nlid)
            else:
                # Last link of the route.
                msg.hops = msg._noc_len
                delivered.append(msg)
                deliveries += 1
            if q and stamp[lid] != sweep:
                stamp[lid] = sweep
                nxt_append(lid)
        self.in_flight -= deliveries
        self.stats.link_busy += len(nxt)
        # Ping-pong the active list with the scratch list: no list() snapshot
        # copy, no per-cycle allocation.
        self._active = nxt
        active.clear()
        self._next_active = active
        return delivered

    @property
    def is_empty(self) -> bool:
        return self.in_flight == 0 and not self._local_deliveries

    def untraversed_hops(self) -> int:
        """Prepaid flit-hops still ahead of the in-flight messages.

        A message queued on a link has crossed :meth:`_traversed` links of
        its route, so the rest of its prepaid charge is still untraversed.
        Local deliveries never charge hops and are excluded.
        """
        fw = self._flit_words
        total = 0
        for lid in self._active:
            for msg in self._queues[lid]:
                total += msg.flits(fw) * (msg._noc_len - self._traversed(msg, lid))
        return total

    # ------------------------------------------------------------------
    # Snapshot support.  Queued messages are exported in (activation,
    # queue) order together with their route index (the links they have
    # crossed, also written to ``hops``); the legs are a pure function of
    # (src, dst) and are recomputed at import, so the snapshot never embeds
    # link-id tables.  Sweep stamps do not need their historical values --
    # only active-list membership and order matter to the schedule -- so
    # import re-stamps against the fresh instance's sweep counter.
    # ------------------------------------------------------------------
    def export_state(self) -> Dict:
        queued = sum(len(q) for q in self._queues)
        if queued != self.in_flight:
            raise RuntimeError(  # pragma: no cover - invariant guard
                "NoC in-flight count out of sync with link queues")
        active_out = []
        for lid in self._active:
            entries = []
            for msg in self._queues[lid]:
                msg.hops = hop = self._traversed(msg, lid)
                entries.append((msg.to_state(), hop))
            active_out.append((lid, entries))
        return {
            "kind": "cycle",
            "local": [msg.to_state() for msg in self._local_deliveries],
            "active": active_out,
        }

    def import_state(self, state: Dict) -> None:
        self._local_deliveries = [Message.from_state(s) for s in state["local"]]
        sweep = self._sweep
        stamp = self._stamp
        in_flight = 0
        for lid, entries in state["active"]:
            q = self._queues[lid]
            for msg_state, hop in entries:
                msg = Message.from_state(msg_state)
                self._place(msg, hop)
                q.append(msg)
                in_flight += 1
            stamp[lid] = sweep
            self._active.append(lid)
        self.in_flight = in_flight


class ReferenceCycleAccurateNoC(BaseNoC):
    """The original dictionary-of-deques cycle-accurate NoC (executable spec).

    Link queues are keyed by ``(from_cc, to_cc)`` tuples and created lazily;
    the active set is an insertion-ordered dict so the sweep follows the same
    FIFO activation order as :class:`CycleAccurateNoC` (see the module
    docstring's ordering contract).  Routing is re-derived hop by hop via
    ``next_hop``, and ``Message.hops`` accrues one per traversal.  A queued
    message sits at its link's source cell, so the model tracks no message
    position; its one-hop-per-cycle guard is the set of messages it moved
    in the current sweep.  This model exists to pin down the semantics: the
    equivalence tests assert the array implementation produces byte-identical
    delivery schedules and link statistics.  Select it with
    ``fidelity="cycle-ref"``.
    """

    def __init__(self, config: ChipConfig, routing: RoutingPolicy, stats: SimStats) -> None:
        super().__init__(config, routing, stats)
        # link queues keyed by (from_cc, to_cc); created lazily.
        self.links: Dict[Tuple[int, int], Deque[Message]] = {}
        # insertion-ordered set of links with queued messages.
        self._active_links: Dict[Tuple[int, int], None] = {}
        # messages delivered without entering the mesh (src == dst)
        self._local_deliveries: List[Message] = []

    # ------------------------------------------------------------------
    def _link(self, u: int, v: int) -> Deque[Message]:
        key = (u, v)
        q = self.links.get(key)
        if q is None:
            q = deque()
            self.links[key] = q
        return q

    def inject(self, msg: Message, cycle: int) -> None:
        self.stats.messages_injected += 1
        if msg.src == msg.dst:
            # Local delivery: no network traversal, delivered next cycle.
            self._local_deliveries.append(msg)
            return
        nxt = self.routing.next_hop(msg.src, msg.dst)
        q = self._link(msg.src, nxt)
        q.append(msg)
        self._active_links[(msg.src, nxt)] = None
        self.in_flight += 1

    def advance(self, cycle: int) -> List[Message]:
        delivered: List[Message] = self._local_deliveries
        self._local_deliveries = []

        new_active: Dict[Tuple[int, int], None] = {}
        flit_words = max(1, self.config.max_message_words)
        # Messages moved this sweep (a message hashes by identity).
        moved = set()
        # Snapshot so messages pushed onto downstream links this cycle do not
        # move again in the same cycle (at most one hop per cycle).
        for key in list(self._active_links):
            q = self.links.get(key)
            if not q:
                continue
            msg = q[0]
            if msg in moved:
                # already moved this cycle (defensive; should not trigger)
                new_active[key] = None
                continue
            q.popleft()
            moved.add(msg)
            v = key[1]
            # Traverse the link to v.
            hops = msg.flits(flit_words)
            msg.hops += 1
            self.stats.hops += hops
            if v == msg.dst:
                delivered.append(msg)
                self.in_flight -= 1
            else:
                nxt = self.routing.next_hop(v, msg.dst)
                nq = self._link(v, nxt)
                nq.append(msg)
                new_active[(v, nxt)] = None
            if q:
                new_active[key] = None
        self._active_links = new_active
        self.stats.link_busy += len(new_active)
        return delivered

    @property
    def is_empty(self) -> bool:
        return self.in_flight == 0 and not self._local_deliveries

    # -- snapshot support ----------------------------------------------
    def export_state(self) -> Dict:
        return {
            "kind": "cycle-ref",
            "local": [msg.to_state() for msg in self._local_deliveries],
            "active": [
                (key[0], key[1],
                 [msg.to_state() for msg in self.links.get(key, ())])
                for key in self._active_links
            ],
        }

    def import_state(self, state: Dict) -> None:
        self._local_deliveries = [Message.from_state(s) for s in state["local"]]
        in_flight = 0
        for u, v, entries in state["active"]:
            q = self._link(u, v)
            for msg_state in entries:
                q.append(Message.from_state(msg_state))
                in_flight += 1
            self._active_links[(u, v)] = None
        self.in_flight = in_flight


class LatencyNoC(BaseNoC):
    """Contention-free NoC: delivery after exactly Manhattan-distance cycles.

    In the default *batched* mode, messages are bucketed by delivery deadline
    (a list per deadline plus a heap of distinct deadlines), so one cycle's
    deliveries drain in a single bucket pop instead of one heap pop per
    message.  ``batched=False`` keeps the original per-message heap; both
    modes deliver in the identical order (ascending deadline, injection order
    within a deadline).
    """

    def __init__(self, config: ChipConfig, routing: RoutingPolicy, stats: SimStats,
                 batched: bool = True) -> None:
        super().__init__(config, routing, stats)
        self.batched = batched
        self._heap: List[Tuple[int, int, Message]] = []
        self._seq = itertools.count()
        #: batched mode: deadline -> messages, plus a heap of distinct deadlines.
        self._buckets: Dict[int, List[Message]] = {}
        self._deadlines: List[int] = []

    def inject(self, msg: Message, cycle: int) -> None:
        self.stats.messages_injected += 1
        dist = self.config.manhattan(msg.src, msg.dst)
        flit_words = max(1, self.config.max_message_words)
        hops = dist * msg.flits(flit_words)
        msg.hops = dist
        self.stats.hops += hops
        deliver_at = cycle + max(1, dist)
        if self.batched:
            bucket = self._buckets.get(deliver_at)
            if bucket is None:
                self._buckets[deliver_at] = [msg]
                heapq.heappush(self._deadlines, deliver_at)
            else:
                bucket.append(msg)
        else:
            heapq.heappush(self._heap, (deliver_at, next(self._seq), msg))
        self.in_flight += 1

    def advance(self, cycle: int) -> List[Message]:
        delivered: List[Message] = []
        if self.batched:
            deadlines = self._deadlines
            buckets = self._buckets
            while deadlines and deadlines[0] <= cycle:
                batch = buckets.pop(heapq.heappop(deadlines))
                delivered += batch
                self.in_flight -= len(batch)
            return delivered
        while self._heap and self._heap[0][0] <= cycle:
            _, _, msg = heapq.heappop(self._heap)
            delivered.append(msg)
            self.in_flight -= 1
        return delivered

    def untraversed_hops(self) -> int:
        """Whole prepaid charge of every undelivered message.

        The latency model teleports messages at their deadline, so until
        delivery none of the Manhattan-distance charge has been traversed.
        """
        fw = max(1, self.config.max_message_words)
        man = self.config.manhattan
        if self.batched:
            pending = (m for bucket in self._buckets.values() for m in bucket)
        else:
            pending = (m for _, _, m in self._heap)
        return sum(man(msg.src, msg.dst) * msg.flits(fw) for msg in pending)

    # -- snapshot support ----------------------------------------------
    def export_state(self) -> Dict:
        if self.batched:
            pending = {deadline: [msg.to_state() for msg in msgs]
                       for deadline, msgs in self._buckets.items()}
            heap: List = []
            next_seq = 0
        else:
            pending = {}
            heap = [(deadline, seq, msg.to_state())
                    for deadline, seq, msg in self._heap]
            next_seq = max((seq for _, seq, _ in self._heap), default=-1) + 1
        return {
            "kind": "latency",
            "batched": self.batched,
            "buckets": pending,
            "deadlines": list(self._deadlines),
            "heap": heap,
            "next_seq": next_seq,
        }

    def import_state(self, state: Dict) -> None:
        if state["batched"] != self.batched:  # pragma: no cover - config guard
            raise RuntimeError("latency NoC batching mode mismatch")
        in_flight = 0
        if self.batched:
            for deadline, entries in state["buckets"].items():
                self._buckets[deadline] = [Message.from_state(s) for s in entries]
                in_flight += len(entries)
            self._deadlines = list(state["deadlines"])
            heapq.heapify(self._deadlines)
        else:
            self._heap = [(deadline, seq, Message.from_state(s))
                          for deadline, seq, s in state["heap"]]
            heapq.heapify(self._heap)
            in_flight = len(self._heap)
            self._seq = itertools.count(state["next_seq"])
        self.in_flight = in_flight


def build_noc(config: ChipConfig, stats: SimStats, routing: RoutingPolicy | None = None) -> BaseNoC:
    """Construct the NoC model selected by ``config.fidelity`` and kernel.

    ``config.kernel`` (plus the ``REPRO_KERNEL`` environment variable, see
    :func:`repro.arch.kernels.resolve_kernel`) picks the sweep
    implementation for the cycle fidelity; the latency and reference
    models have one implementation each (the latency model still resolves
    the kernel, so a bad ``REPRO_KERNEL`` or an unbuilt native pin is
    reported there too).
    """
    routing = routing or make_routing(config)
    if config.fidelity == "cycle-ref":
        return ReferenceCycleAccurateNoC(config, routing, stats)
    from repro.arch.kernels import NativeCycleAccurateNoC, resolve_kernel

    kernel = resolve_kernel(config)
    if config.fidelity == "latency":
        return LatencyNoC(config, routing, stats)
    if kernel == "native":
        return NativeCycleAccurateNoC(config, routing, stats)
    return CycleAccurateNoC(config, routing, stats)
