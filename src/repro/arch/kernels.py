"""NoC kernel selection and the native (C) link sweep.

Kernel selection
----------------
``ChipConfig.kernel`` picks the implementation of the cycle-accurate NoC's
per-cycle link sweep, out of :data:`repro.arch.config.KERNELS`:
``"python"`` (the pure-Python sweep in :mod:`repro.arch.noc`, always
available), ``"native"`` (:class:`NativeCycleAccurateNoC`, requires the
self-built C extension of :mod:`repro.arch._native`) or ``"auto"`` (the
default: honours the ``REPRO_KERNEL`` environment variable, otherwise native
when the extension is built and python when it is not).  The kernel is a
speed knob only -- **every kernel produces the bit-identical deterministic
schedule** (same delivery cycles, same delivery order, same statistics), so
it is deliberately *not* part of a scenario's identity hash and stored
results remain valid across kernels.  ``tests/test_noc_equivalence.py`` and
``tests/test_native_kernel.py`` pin this equivalence against the executable
spec.
"""

from __future__ import annotations

import os
import warnings
from array import array
from typing import Dict, List, Optional, Tuple

from repro.arch._native import HAVE_NATIVE, _sweep
from repro.arch.config import KERNELS, ChipConfig
from repro.arch.message import Message
from repro.arch.noc import BaseNoC, CycleAccurateNoC
from repro.arch.routing import RoutingPolicy
from repro.arch.stats import SimStats

#: Environment variable consulted when ``ChipConfig.kernel == "auto"``.
KERNEL_ENV = "REPRO_KERNEL"


def resolve_kernel(config: ChipConfig) -> str:
    """The concrete kernel (``"python"`` or ``"native"``) a config resolves to.

    Explicit config values win; ``"auto"`` consults ``REPRO_KERNEL`` and
    otherwise picks the compiled native sweep when its extension is built,
    the pure-Python sweep when not.  Asking for ``native`` without the
    compiled extension *warns and falls back to python* — the extension is
    best-effort by design (``Extension(..., optional=True)``: installs
    without a compiler simply skip it), so an explicit pin degrades
    gracefully instead of failing environments that cannot build C.
    """
    kernel = config.kernel
    if kernel == "auto":
        kernel = os.environ.get(KERNEL_ENV, "").strip().lower() or "auto"
        if kernel not in KERNELS:
            raise ValueError(
                f"{KERNEL_ENV}={kernel!r}: expected one of {KERNELS}")
        if kernel == "auto":
            return "native" if HAVE_NATIVE else "python"
    if kernel == "native" and not HAVE_NATIVE:
        warnings.warn(
            "kernel 'native' requested but the repro.arch._native._sweep "
            "extension is not built (no compiler at install time?); falling "
            "back to the pure-Python kernel.  Build it with "
            "'python setup.py build_ext --inplace' or reinstall with a C "
            "compiler available.  Schedules are bit-identical across "
            "kernels, so results are unaffected.",
            RuntimeWarning, stacklevel=2)
        return "python"
    return kernel


class NativeCycleAccurateNoC(CycleAccurateNoC):
    """Cycle-accurate NoC whose per-cycle link sweep runs in compiled C.

    Semantically identical to :class:`repro.arch.noc.CycleAccurateNoC` —
    the bit-identical-schedule contract is the safety net — but the
    in-flight state lives in flat buffers the C code reads through the
    buffer protocol.  Every in-flight message occupies an integer *slot*.
    ``_vpos[slot]`` is the absolute index (into the flat route pool) of the
    link the message currently queues on; routes are expanded from their
    legs (:meth:`RoutingPolicy.route_lids`) once per ``(src, dst)`` pair
    into int64 runs stored sentinel-terminated (a ``-1`` after the last
    link id), so the sweep discovers delivery and the next link with a
    single pool read.  Per-link FIFOs are intrusive linked lists
    (``_vq_head``/``_vq_tail`` per link, ``_vnext`` per slot), all
    ``array('q')``.  ``advance`` is one call into
    :mod:`repro.arch._native._sweep`'s ``advance_links``, which pops each
    active link's head, moves it one hop and stamp-dedupes next-cycle
    activations exactly like the Python sweep.

    As in the python sweep, ``Message.hops`` is not incremented per
    traversal; it is set at delivery (the route length) and at export
    (hops so far).

    Snapshot interop: ``export_state`` emits the exact python-representation
    dict (hop index recovered as ``vpos - pool offset``), so captured
    ``state_hash`` values are identical across kernels.

    The class attribute ``native_sweep`` lets the simulator detect the
    native tier (and enable its C dispatch/burn loops) without re-running
    kernel resolution.
    """

    native_sweep = True

    def __init__(self, config: ChipConfig, routing: RoutingPolicy,
                 stats: SimStats) -> None:
        # BaseNoC, not CycleAccurateNoC: the python sweep's per-link deques
        # and stamp list would sit unused beside the flat buffers below.
        BaseNoC.__init__(self, config, routing, stats)
        if _sweep is None:  # pragma: no cover - build_noc resolves first
            raise RuntimeError(
                "native kernel requested but repro.arch._native._sweep is "
                "not built")
        self.link_table = routing.link_table
        num_links = routing.link_table.num_links
        self._num_cells = config.num_cells
        #: link ids with queued messages, in activation order (ping-ponged
        #: with _next_active), as in the python sweep.
        self._active: List[int] = []
        self._next_active: List[int] = []
        self._sweep = 1
        self._local_deliveries: List[Message] = []
        self._flit_words = max(1, config.max_message_words)

        # Per-link queue heads/tails (slot ids, -1 = empty) + sweep-stamp
        # activation dedupe, all C-readable through the buffer protocol.
        self._vq_head = array("q", [-1]) * num_links
        self._vq_tail = array("q", [-1]) * num_links
        self._vstamp = array("q", [0]) * num_links

        # Per-slot state; capacity doubles on demand (growth only ever
        # happens inside inject/import, never while a C call holds views).
        cap = 256
        self._cap = cap
        self._vnext = array("q", [-1]) * cap
        self._vpos = array("q", [0]) * cap
        self._vrlen = array("q", [0]) * cap
        self._vslot_msg: List[Optional[Message]] = [None] * cap
        self._vfree: List[int] = list(range(cap - 1, -1, -1))

        # Flat sentinel-terminated route pool, directly as array('q') so the
        # C sweep reads it through the same buffer protocol as the slots.
        self._pool = array("q")
        #: route key -> (pool offset, route length, first link id).
        self._pool_memo: Dict[int, Tuple[int, int, int]] = {}
        #: whole link-id routes, expanded from the legs once per pair.
        self._route_fn = routing.route_lids
        self._advance_c = _sweep.advance_links

    # ------------------------------------------------------------------
    # Buffer management
    # ------------------------------------------------------------------
    def _grow_slots(self) -> None:
        """Double the slot capacity (the array('q') buffers are reallocated)."""
        old = self._cap
        for name in ("_vnext", "_vpos", "_vrlen"):
            buf = getattr(self, name)
            grown = array("q", buf)
            grown.extend([0] * old)
            setattr(self, name, grown)
        self._vslot_msg.extend([None] * old)
        self._vfree.extend(range(old * 2 - 1, old - 1, -1))
        self._cap = old * 2

    def _pool_route(self, key: int, route: List[int]) -> Tuple[int, int, int]:
        """Memoise a link-id route into the flat pool (with sentinel)."""
        pool = self._pool
        if len(pool) > (1 << 21) and not self.in_flight:
            # Epoch reset: pool offsets are only referenced by in-flight
            # slots, so the pool may be emptied whenever the network is.
            del pool[:]
            self._pool_memo.clear()
        off = len(pool)
        pool.extend(route)
        pool.append(-1)  # sentinel: one read finds both next-link and delivery
        memo = (off, len(route), route[0])
        self._pool_memo[key] = memo
        return memo

    # ------------------------------------------------------------------
    # Injection: route memoised into the pool, message into a fresh slot
    # ------------------------------------------------------------------
    def inject(self, msg: Message, cycle: int) -> None:
        stats = self.stats
        stats.messages_injected += 1
        src = msg.src
        dst = msg.dst
        if src == dst:
            # Local delivery: no network traversal, delivered next cycle.
            self._local_deliveries.append(msg)
            return
        key = src * self._num_cells + dst
        memo = self._pool_memo.get(key)
        if memo is None:
            memo = self._pool_route(key, self._route_fn(src, dst))
        off, rlen, first_lid = memo
        size = msg.size_words
        fw = self._flit_words
        # Flit-hops prepaid for the whole route (same caveat as the python
        # sweep: exact at quiescence).
        stats.hops += rlen if size <= fw else (-(-size // fw)) * rlen
        vfree = self._vfree
        if not vfree:
            self._grow_slots()
        s = vfree.pop()
        self._vslot_msg[s] = msg
        self._vpos[s] = off
        self._vrlen[s] = rlen
        self._vnext[s] = -1
        t = self._vq_tail[first_lid]
        if t == -1:
            self._vq_head[first_lid] = s
        else:
            self._vnext[t] = s
        self._vq_tail[first_lid] = s
        if self._vstamp[first_lid] != self._sweep:
            self._vstamp[first_lid] = self._sweep
            self._active.append(first_lid)
        self.in_flight += 1

    # ------------------------------------------------------------------
    # Advance: one C call per cycle.  The wrapper keeps the bookkeeping the
    # C sweep does not own (in-flight count, stats, active-list ping-pong);
    # buffer views are acquired and released inside the call, so inject may
    # grow the slot buffers freely between cycles.
    # ------------------------------------------------------------------
    def advance(self, cycle: int) -> List[Message]:
        delivered: List[Message] = self._local_deliveries
        self._local_deliveries = []
        active = self._active
        if not active:
            return delivered
        nxt = self._next_active
        sweep = self._sweep = self._sweep + 1
        deliveries = self._advance_c(
            active, nxt, self._vq_head, self._vq_tail, self._vnext,
            self._vpos, self._vrlen, self._pool, self._vstamp,
            self._vslot_msg, self._vfree, delivered, sweep)
        self.in_flight -= deliveries
        self.stats.link_busy += len(nxt)
        self._active = nxt
        active.clear()
        self._next_active = active
        return delivered

    # ------------------------------------------------------------------
    # Snapshot support: export emits the python-representation dict
    # directly from the flat slots (the hop index is vpos minus the route's
    # pool offset), byte-identical to CycleAccurateNoC.export_state.
    # Import loads straight into flat slots, recomputing routes.
    # ------------------------------------------------------------------
    def export_state(self) -> Dict:
        memo = self._pool_memo
        n = self._num_cells
        vq_head = self._vq_head
        vnext = self._vnext
        vpos = self._vpos
        vslot_msg = self._vslot_msg
        queued = 0
        active_out = []
        for lid in self._active:
            entries = []
            s = vq_head[lid]
            while s != -1:
                msg = vslot_msg[s]
                hop = vpos[s] - memo[msg.src * n + msg.dst][0]
                msg.hops = hop
                entries.append((msg.to_state(), hop))
                queued += 1
                s = vnext[s]
            active_out.append((lid, entries))
        if queued != self.in_flight:
            raise RuntimeError(  # pragma: no cover - invariant guard
                "NoC in-flight count out of sync with link queues")
        return {
            "kind": "cycle",
            "local": [msg.to_state() for msg in self._local_deliveries],
            "active": active_out,
        }

    def untraversed_hops(self) -> int:
        """Prepaid-but-untraversed flit-hops, read off the flat slots.

        A slot's hop index is ``vpos - pool offset``, so its untraversed
        remainder is ``vrlen`` minus that; mirrors
        :meth:`CycleAccurateNoC.untraversed_hops`.
        """
        fw = self._flit_words
        memo = self._pool_memo
        n = self._num_cells
        vq_head = self._vq_head
        vnext = self._vnext
        vpos = self._vpos
        vrlen = self._vrlen
        vslot_msg = self._vslot_msg
        total = 0
        for lid in self._active:
            s = vq_head[lid]
            while s != -1:
                msg = vslot_msg[s]
                off = memo[msg.src * n + msg.dst][0]
                total += msg.flits(fw) * (vrlen[s] - (vpos[s] - off))
                s = vnext[s]
        return total

    def import_state(self, state: Dict) -> None:
        self._local_deliveries = [Message.from_state(s)
                                  for s in state["local"]]
        sweep = self._sweep
        memo_get = self._pool_memo.get
        n = self._num_cells
        in_flight = 0
        for lid, entries in state["active"]:
            prev = -1
            for msg_state, hop in entries:
                msg = Message.from_state(msg_state)
                key = msg.src * n + msg.dst
                memo = memo_get(key)
                if memo is None:
                    memo = self._pool_route(
                        key, self._route_fn(msg.src, msg.dst))
                if not self._vfree:
                    self._grow_slots()
                s = self._vfree.pop()
                self._vslot_msg[s] = msg
                self._vpos[s] = memo[0] + hop
                self._vrlen[s] = memo[1]
                self._vnext[s] = -1
                if prev == -1:
                    self._vq_head[lid] = s
                else:
                    self._vnext[prev] = s
                prev = s
                in_flight += 1
            self._vq_tail[lid] = prev
            self._vstamp[lid] = sweep
            self._active.append(lid)
        self.in_flight = in_flight
