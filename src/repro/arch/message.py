"""Messages (active-message carriers) moving through the AM-CCA mesh.

Every action invocation that crosses compute-cell boundaries is carried by a
:class:`Message`.  A message names the action to invoke, the global address
of the target object, and the operand payload.  The paper assumes 256-bit
links so that the small messages of its applications fit in a single flit and
traverse one hop per cycle; the NoC charges extra flits for oversized
payloads (see :mod:`repro.arch.noc`).
"""

from __future__ import annotations

import itertools
from typing import Optional, Tuple

from repro.arch.address import Address

_msg_counter = itertools.count()


class Message:
    """An active message in flight between two compute cells.

    A ``__slots__`` class rather than a dataclass: hundreds of thousands of
    messages are created and moved per simulated run, so instance size and
    attribute-access speed matter.  Equality is identity (each in-flight
    message is a unique object with a unique ``msg_id``).

    Parameters
    ----------
    src:
        Compute cell that created (staged) the message.
    dst:
        Compute cell hosting the target object.
    action:
        Name of the registered action to invoke on delivery.
    target:
        Global address of the object the action operates on (may be ``None``
        for cell-level system actions).
    operands:
        Positional operand payload delivered to the action handler.
    size_words:
        Payload size in 32-bit words, used for flit accounting.
    """

    __slots__ = (
        "src",
        "dst",
        "action",
        "target",
        "operands",
        "size_words",
        "msg_id",
        "created_cycle",
        "delivered_cycle",
        "hops",
        "position",
        "last_moved",
        # NoC-private in-flight state (set by CycleAccurateNoC.inject): the
        # shared read-only link-id route and the index of the link the
        # message currently queues on.
        "_noc_route",
        "_noc_hop",
    )

    def __init__(
        self,
        src: int,
        dst: int,
        action: str,
        target: Optional[Address] = None,
        operands: Tuple = (),
        size_words: int = 2,
    ) -> None:
        self.src = src
        self.dst = dst
        self.action = action
        self.target = target
        self.operands = operands
        self.size_words = size_words
        self.msg_id = next(_msg_counter)
        self.created_cycle = -1
        self.delivered_cycle = -1
        self.hops = 0
        #: position of the message while in flight (cell currently holding it)
        self.position = src
        #: cycle of the last movement.  Only the reference cycle-accurate
        #: NoC maintains it (per hop, as its one-hop-per-cycle guard); the
        #: array fast path guarantees single-hop movement structurally and
        #: leaves this at -1.
        self.last_moved = -1

    @property
    def latency(self) -> int:
        """Delivery latency in cycles (valid once delivered)."""
        if self.delivered_cycle < 0 or self.created_cycle < 0:
            return -1
        return self.delivered_cycle - self.created_cycle

    def flits(self, max_words_per_flit: int) -> int:
        """Number of flits needed to carry this message on the chip links."""
        if max_words_per_flit <= 0:
            return 1
        return max(1, -(-self.size_words // max_words_per_flit))

    # ------------------------------------------------------------------
    # Snapshot support (see repro.snapshot).  NoC-private route state is
    # deliberately excluded: routes are a pure function of (src, dst) and
    # are recomputed at restore, so snapshots stay route-table-free.
    # ------------------------------------------------------------------
    def to_state(self) -> Tuple:
        """The message as a tuple of plain values (snapshot capture)."""
        return (
            self.src, self.dst, self.action, self.target, self.operands,
            self.size_words, self.created_cycle, self.delivered_cycle,
            self.hops, self.position, self.last_moved,
        )

    @classmethod
    def from_state(cls, state: Tuple) -> "Message":
        """Rebuild a message captured by :meth:`to_state` (fresh ``msg_id``)."""
        (src, dst, action, target, operands, size_words, created_cycle,
         delivered_cycle, hops, position, last_moved) = state
        msg = cls(src, dst, action, target, tuple(operands), size_words)
        msg.created_cycle = created_cycle
        msg.delivered_cycle = delivered_cycle
        msg.hops = hops
        msg.position = position
        msg.last_moved = last_moved
        return msg

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Message(#{self.msg_id} {self.action} {self.src}->{self.dst} "
            f"target={self.target} hops={self.hops})"
        )

