"""Continuations: asynchronous control transfer for remote operations.

The paper uses ``call/cc`` together with the ``future`` LCO to allocate ghost
vertices on remote compute cells without blocking (Listing 6, Figure 3):

0. the runtime sends the ``allocate`` system action, configured with a return
   trigger, to a remote compute cell;
1. the remote cell allocates memory;
2. the memory address is sent back as the trigger action targeted at the
   originating cell;
3. the trigger resumes the suspended action state (e.g. fulfils the future).

In this implementation the "anonymous action" the paper's compiler would
generate is a closure stored in the originating cell's continuation table;
the trigger message carries only the table index and the returned value, so
message sizes stay single-flit.
"""

from __future__ import annotations

from typing import Any, Callable, TYPE_CHECKING

from repro.arch.address import Address

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.actions import ActionContext
    from repro.runtime.device import AMCCADevice

#: Name of the system action performing remote allocation.
SYS_ALLOCATE = "__sys_allocate__"
#: Name of the system action resuming a stored continuation.
SYS_CONTINUATION = "__sys_continuation__"


class ContinuationManager:
    """Creates continuation/allocation message pairs and tracks their counts."""

    def __init__(self, device: "AMCCADevice") -> None:
        self.device = device
        self.created = 0
        self.resumed = 0

    # ------------------------------------------------------------------
    def install_system_actions(self) -> None:
        """Register the allocate / continuation system actions on the device."""
        self.device.register_action(SYS_ALLOCATE, self._sys_allocate, size_words=4)
        self.device.register_action(SYS_CONTINUATION, self._sys_continuation, size_words=3)

    # ------------------------------------------------------------------
    def call_cc_allocate(
        self,
        ctx: "ActionContext",
        factory: Callable[[], Any],
        words: int,
        destination_cc: int,
        then: Callable[["ActionContext", Address], None],
    ) -> None:
        """Start an asynchronous remote allocation (Figure 3, step 0)."""
        cont_id = ctx.cell.register_continuation(then)
        self.created += 1
        # The allocate system action is addressed to the destination cell as a
        # cell-level action (no target object).
        ctx.propagate(
            SYS_ALLOCATE,
            Address(destination_cc, -1),
            factory,
            words,
            ctx.cc_id,
            cont_id,
        )

    # ------------------------------------------------------------------
    # System action handlers
    # ------------------------------------------------------------------
    def _sys_allocate(self, ctx: "ActionContext", _target: Any,
                      factory: Callable[[], Any], words: int,
                      reply_cc: int, cont_id: int) -> None:
        """Remote side: allocate the object and send the address back (steps 1-2)."""
        address = ctx.allocate_local(factory(), words=words)
        ctx.propagate(SYS_CONTINUATION, Address(reply_cc, -1), cont_id, address)

    def _sys_continuation(self, ctx: "ActionContext", _target: Any,
                          cont_id: int, value: Any) -> None:
        """Originating side: pop the stored closure and resume it (step 3)."""
        then = ctx.cell.pop_continuation(cont_id)
        self.resumed += 1
        then(ctx, value)
