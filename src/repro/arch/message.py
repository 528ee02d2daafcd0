"""Messages (active-message carriers) moving through the AM-CCA mesh.

Every action invocation that crosses compute-cell boundaries is carried by a
:class:`Message`.  A message names the action to invoke, the global address
of the target object, and the operand payload.  The paper assumes 256-bit
links so that the small messages of its applications fit in a single flit and
traverse one hop per cycle; the NoC charges extra flits for oversized
payloads (see :mod:`repro.arch.noc`).
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.arch.address import Address


class Message:
    """An active message in flight between two compute cells.

    A ``__slots__`` class rather than a dataclass: hundreds of thousands of
    messages are created and moved per simulated run, so instance size and
    attribute-access speed matter.  A message carries only what the chip
    reads: its action, its target's global address and its operands, plus
    the route index ``hops``.  Equality is identity.

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

    ``hops`` is the message's route index, the links it has crossed; each
    NoC model writes it by its own rule (see :mod:`repro.arch.noc`), and a
    snapshot carries it.
    """

    __slots__ = (
        "src",
        "dst",
        "action",
        "target",
        "operands",
        "size_words",
        "hops",
        # NoC-private in-flight state (set by CycleAccurateNoC.inject): the
        # route's two legs as the current leg's link-id step and last link,
        # the second leg's first and last link (-1 first once turned), and
        # the route length.
        "_noc_step",
        "_noc_end",
        "_noc_turn",
        "_noc_turn_end",
        "_noc_len",
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
        self.hops = 0

    def flits(self, max_words_per_flit: int) -> int:
        """Number of flits needed to carry this message on the chip links."""
        if max_words_per_flit <= 0:
            return 1
        return max(1, -(-self.size_words // max_words_per_flit))

    # ------------------------------------------------------------------
    # Snapshot support (see repro.snapshot).  NoC-private leg state is
    # deliberately excluded: routes are a pure function of (src, dst) and
    # are recomputed at restore, so snapshots stay route-table-free.
    # ------------------------------------------------------------------
    def to_state(self) -> Tuple:
        """The message as a tuple of plain values (snapshot capture)."""
        return (
            self.src, self.dst, self.action, self.target, self.operands,
            self.size_words, self.hops,
        )

    @classmethod
    def from_state(cls, state: Tuple) -> "Message":
        """Rebuild a message captured by :meth:`to_state`."""
        src, dst, action, target, operands, size_words, hops = state
        msg = cls(src, dst, action, target, tuple(operands), size_words)
        msg.hops = hops
        return msg

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Message({self.action} {self.src}->{self.dst} "
            f"target={self.target} hops={self.hops})"
        )

