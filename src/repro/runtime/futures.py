"""The ``future`` Local Control Object (LCO).

A future starts *null* (unset, nothing waiting), becomes *pending* while a
continuation is out fetching its value (for the paper's use case: while a
remote compute cell allocates a ghost vertex), and is finally *fulfilled*
with a value.  While pending, dependent tasks are enqueued on the future as
closures; at fulfilment every queued closure is released, exactly once, in
FIFO order (Figure 4 of the paper).

Futures are purely local objects: they live in one compute cell's memory and
are only ever touched by actions executing on that cell, which is what keeps
them synchronization-free in the decentralized model.
"""

from __future__ import annotations

import enum
from typing import Any, Callable, List, Optional


class FutureState(enum.Enum):
    """Life-cycle states of a future LCO."""

    NULL = "null"
    PENDING = "pending"
    FULFILLED = "fulfilled"


class FutureError(RuntimeError):
    """Raised on illegal future transitions (e.g. fulfilling twice)."""


class Future:
    """A future of some value type (the paper uses ``Future Pointer``).

    The dependent-task queue stores zero-argument closures.  The future never
    runs them itself; :meth:`fulfil` returns them so the caller (an action
    handler, which owns the compute cell's execution) can schedule them as
    local tasks and charge their cost to simulated time.
    """

    __slots__ = ("state", "value", "_queue", "fulfilled_count")

    def __init__(self) -> None:
        self.state = FutureState.NULL
        self.value: Any = None
        self._queue: List[Callable[[], Any]] = []
        self.fulfilled_count = 0

    # ------------------------------------------------------------------
    @property
    def is_null(self) -> bool:
        return self.state is FutureState.NULL

    @property
    def is_pending(self) -> bool:
        return self.state is FutureState.PENDING

    @property
    def is_fulfilled(self) -> bool:
        return self.state is FutureState.FULFILLED

    @property
    def queue_length(self) -> int:
        """Number of dependent closures currently waiting."""
        return len(self._queue)

    # ------------------------------------------------------------------
    def set_pending(self) -> None:
        """Move from null to pending (a continuation is now in flight)."""
        if self.state is not FutureState.NULL:
            raise FutureError(f"cannot set_pending from state {self.state}")
        self.state = FutureState.PENDING

    def enqueue(self, closure: Callable[[], Any]) -> None:
        """Queue a dependent task to run once the future is fulfilled."""
        if self.state is not FutureState.PENDING:
            raise FutureError(f"cannot enqueue on a future in state {self.state}")
        self._queue.append(closure)

    def fulfil(self, value: Any) -> List[Callable[[], Any]]:
        """Set the value and release the dependent-task queue.

        Returns the closures that were waiting, in FIFO order; the queue is
        emptied (Figure 4, state 4).  Fulfilling a future twice is an error.
        """
        if self.state is FutureState.FULFILLED:
            raise FutureError("future already fulfilled")
        self.state = FutureState.FULFILLED
        self.value = value
        self.fulfilled_count += 1
        released, self._queue = self._queue, []
        return released

    def discard(self) -> None:
        """Drop the waiting closures unrun (their run is being closed)."""
        self._queue = []

    def get(self) -> Any:
        """Return the value of a fulfilled future."""
        if self.state is not FutureState.FULFILLED:
            raise FutureError(f"future not fulfilled (state {self.state})")
        return self.value

    def peek(self) -> Optional[Any]:
        """Value if fulfilled, else ``None`` (never raises)."""
        return self.value if self.state is FutureState.FULFILLED else None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Future({self.state.value}, value={self.value!r}, queued={len(self._queue)})"
