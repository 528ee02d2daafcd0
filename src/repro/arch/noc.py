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
    * ``_in_active[lid]`` -- occupancy flag deduplicating the active list,
    * ``_active`` -- the link ids with queued messages, in activation order.

    A message's whole route is computed once at injection as a list of link
    ids (two ``range()`` progressions for the dimension-ordered policies) and
    stored on the message, so the per-cycle sweep does no routing, hashing or
    dictionary work at all: it pops a head, bumps counters, and appends the
    message to the next link's preallocated queue.  The active list is swept
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
        #: destination cell per link id, for position updates.
        self._link_dst: List[int] = table.dst
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
        #: bound route lookup, hoisted out of the per-injection attr chase.
        self._route_fn = routing.route_lids_cached

    # ------------------------------------------------------------------
    def inject(self, msg: Message, cycle: int) -> None:
        if msg.created_cycle < 0:
            msg.created_cycle = cycle
        stats = self.stats
        stats.messages_injected += 1
        if msg.src == msg.dst:
            # Local delivery: no network traversal, delivered next cycle.
            msg.delivered_cycle = cycle
            self._local_deliveries.append(msg)
            return
        route = self._route_fn(msg.src, msg.dst)
        # NoC-private in-flight state, attached to the message so the sweep
        # needs no side table: the precomputed (shared, read-only) link-id
        # route and the index of the link the message currently queues on.
        # (msg.position already equals msg.src from construction.)
        msg._noc_route = route
        msg._noc_hop = 0
        size = msg.size_words
        fw = self._flit_words
        # Flit-hops are prepaid for the whole route: the totals equal the
        # reference model's per-hop accrual whenever the network is empty,
        # and the sweep saves one accumulation per link traversal.  Caveat:
        # if a run is truncated (max_cycles) with messages still in flight,
        # stats.hops includes their untraversed remainder, where the
        # reference model would not — hop/energy totals are exact only at
        # quiescence.
        stats.hops += len(route) if size <= fw else (-(-size // fw)) * len(route)
        lid = route[0]
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
        link_dst = self._link_dst
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
            msg.hops += 1
            route = msg._noc_route
            i = msg._noc_hop + 1
            if i == len(route):
                # position is kept coarse in flight (source until delivery);
                # the reference model tracks it hop by hop.
                msg.position = link_dst[lid]
                msg.delivered_cycle = cycle
                delivered.append(msg)
                deliveries += 1
            else:
                msg._noc_hop = i
                nlid = route[i]
                queues[nlid].append(msg)
                if stamp[nlid] != sweep:
                    stamp[nlid] = sweep
                    nxt_append(nlid)
            if q and stamp[lid] != sweep:
                stamp[lid] = sweep
                nxt_append(lid)
        self.in_flight -= deliveries
        stats = self.stats
        stats.link_busy += len(nxt)
        per_link = stats.link_busy_per_link
        if per_link is not None:
            for lid in nxt:
                per_link[lid] += 1
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

        A message queued on ``route[_noc_hop]`` has traversed ``_noc_hop``
        links, so ``len(route) - _noc_hop`` of its prepaid charge is still
        untraversed.  Local deliveries never charge hops and are excluded.
        """
        fw = self._flit_words
        total = 0
        for lid in self._active:
            for msg in self._queues[lid]:
                total += msg.flits(fw) * (len(msg._noc_route) - msg._noc_hop)
        return total

    # ------------------------------------------------------------------
    # Snapshot support.  Queued messages are exported in (activation,
    # queue) order together with their route *index*; the route itself is
    # a pure function of (src, dst) and is recomputed at import, so the
    # snapshot never embeds link-id tables.  Sweep stamps do not need
    # their historical values -- only active-list membership and order
    # matter to the schedule -- so import re-stamps against the fresh
    # instance's sweep counter.
    # ------------------------------------------------------------------
    def export_state(self) -> Dict:
        queued = sum(len(q) for q in self._queues)
        if queued != self.in_flight:
            raise RuntimeError(  # pragma: no cover - invariant guard
                "NoC in-flight count out of sync with link queues")
        return {
            "kind": "cycle",
            "local": [msg.to_state() for msg in self._local_deliveries],
            "active": [
                (lid, [(msg.to_state(), msg._noc_hop)
                       for msg in self._queues[lid]])
                for lid in self._active
            ],
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
                msg._noc_route = self._route_fn(msg.src, msg.dst)
                msg._noc_hop = hop
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
    ``next_hop``.  This model exists to pin down the semantics: the
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
        msg.created_cycle = cycle if msg.created_cycle < 0 else msg.created_cycle
        self.stats.messages_injected += 1
        if msg.src == msg.dst:
            # Local delivery: no network traversal, delivered next cycle.
            msg.delivered_cycle = cycle
            self._local_deliveries.append(msg)
            return
        nxt = self.routing.next_hop(msg.src, msg.dst)
        q = self._link(msg.src, nxt)
        msg.position = msg.src
        msg.last_moved = cycle
        q.append(msg)
        self._active_links[(msg.src, nxt)] = None
        self.in_flight += 1

    def advance(self, cycle: int) -> List[Message]:
        delivered: List[Message] = self._local_deliveries
        self._local_deliveries = []

        new_active: Dict[Tuple[int, int], None] = {}
        flit_words = max(1, self.config.max_message_words)
        # Snapshot so messages pushed onto downstream links this cycle do not
        # move again in the same cycle (at most one hop per cycle).
        for key in list(self._active_links):
            q = self.links.get(key)
            if not q:
                continue
            msg = q[0]
            if msg.last_moved == cycle and msg.position != key[0]:
                # already moved this cycle (defensive; should not trigger)
                new_active[key] = None
                continue
            q.popleft()
            u, v = key
            # Traverse link u -> v.
            hops = msg.flits(flit_words)
            msg.hops += 1
            self.stats.hops += hops
            msg.position = v
            msg.last_moved = cycle
            if v == msg.dst:
                msg.delivered_cycle = cycle
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
        per_link = self.stats.link_busy_per_link
        if per_link is not None:
            table = self.routing.link_table
            for u, v in new_active:
                per_link[table.lid(u, v)] += 1
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
        msg.created_cycle = cycle if msg.created_cycle < 0 else msg.created_cycle
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
                for msg in batch:
                    msg.delivered_cycle = cycle
                    msg.position = msg.dst
                delivered += batch
                self.in_flight -= len(batch)
            return delivered
        while self._heap and self._heap[0][0] <= cycle:
            _, _, msg = heapq.heappop(self._heap)
            msg.delivered_cycle = cycle
            msg.position = msg.dst
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
