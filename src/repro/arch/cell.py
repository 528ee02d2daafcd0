"""Compute cells: the homogeneous building block of the AM-CCA chip.

A compute cell (CC) owns a local scratchpad memory, a task queue of pending
action invocations and an output staging queue of messages waiting to enter
the network.  Per simulation cycle a CC performs exactly one operation:

* execute one instruction of the action currently in progress, or
* create and stage one new outgoing message (the cost of ``propagate``), or
* start the next queued task (which counts as executing its first
  instruction).

This mirrors the paper's execution rule ("a single CC can perform either of
the two operations: a computing instruction contained in the action, or the
creation and staging of a new message when propagate is called").  The
rule itself runs in :meth:`repro.arch.simulator.Simulator.step`, which
sweeps every active cell per cycle; a :class:`ComputeCell` holds the state
it reads and writes.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Dict, List, Tuple

from repro.arch.address import Address
from repro.arch.message import Message

#: A task's ``run`` callable returns the instruction cost of the action body
#: and the list of messages it wants to propagate.
TaskResult = Tuple[int, List[Message]]


class Task:
    """A unit of work queued on a compute cell.

    ``run`` executes the action body against the cell's local memory and
    returns ``(instruction_cost, outgoing_messages)``.  The cell then charges
    ``instruction_cost`` compute cycles and one staging cycle per outgoing
    message, so simulated time reflects the amount of work the action did
    even though the Python body runs atomically.
    """

    __slots__ = ("run", "label")

    def __init__(self, run: Callable[[], TaskResult], label: str = "") -> None:
        self.run = run
        self.label = label

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Task({self.label or 'anonymous'})"


class ComputeCell:
    """A single compute cell: memory + logic + network port.

    The cell's memory is a dictionary from object id to Python object; the
    pair ``(cc_id, obj_id)`` forms a global :class:`~repro.arch.address.Address`.
    Memory occupancy is tracked in words so allocation pressure and the
    energy model can be driven from it.
    """

    __slots__ = (
        "cc_id",
        "x",
        "y",
        "memory",
        "_next_obj_id",
        "memory_words",
        "task_queue",
        "staging",
        "_held_messages",
        "_remaining_instructions",
        "continuations",
        "_next_cont_id",
        "instructions_executed",
        "messages_staged",
        "tasks_executed",
        "allocations",
    )

    def __init__(self, cc_id: int, x: int, y: int) -> None:
        self.cc_id = cc_id
        self.x = x
        self.y = y
        self.memory: Dict[int, Any] = {}
        self._next_obj_id = 0
        self.memory_words = 0
        self.task_queue: Deque[Task] = deque()
        self.staging: Deque[Message] = deque()
        # Messages produced by the in-progress action; they move to the
        # staging queue once its instruction cycles have been charged.
        self._held_messages: List[Message] = []
        self._remaining_instructions = 0
        # Continuation table for call/cc-style asynchronous control transfer.
        self.continuations: Dict[int, Callable[[Any], TaskResult]] = {}
        self._next_cont_id = 0
        # Counters for the statistics / energy model.
        self.instructions_executed = 0
        self.messages_staged = 0
        self.tasks_executed = 0
        self.allocations = 0

    @property
    def busy_cycles(self) -> int:
        """Cycles this cell performed an operation.

        Every busy cycle is exactly one executed instruction or one staged
        message, so the counter is derived instead of stored -- one fewer
        increment on the per-operation hot path, and it provably cannot
        drift from its components.
        """
        return self.instructions_executed + self.messages_staged

    # ------------------------------------------------------------------
    # Memory
    # ------------------------------------------------------------------
    def allocate(self, obj: Any, words: int = 1) -> Address:
        """Allocate ``obj`` in this cell's memory and return its global address."""
        obj_id = self._next_obj_id
        self._next_obj_id += 1
        self.memory[obj_id] = obj
        self.memory_words += max(1, words)
        self.allocations += 1
        return Address(self.cc_id, obj_id)

    def deallocate(self, address: Address, words: int = 1) -> None:
        """Free an object previously allocated on this cell."""
        if address.cc_id != self.cc_id:
            raise ValueError(f"address {address} does not belong to cell {self.cc_id}")
        del self.memory[address.obj_id]
        self.memory_words -= max(1, words)

    def get(self, address: Address) -> Any:
        """Return the object stored at ``address`` (must be local)."""
        if address.cc_id != self.cc_id:
            raise ValueError(
                f"cell {self.cc_id} cannot dereference remote address {address}"
            )
        return self.memory[address.obj_id]

    def objects(self) -> List[Any]:
        """All objects currently resident in this cell's memory."""
        return list(self.memory.values())

    # ------------------------------------------------------------------
    # Continuations
    # ------------------------------------------------------------------
    def register_continuation(self, fn: Callable[[Any], TaskResult]) -> int:
        """Store a continuation body and return its local id."""
        cont_id = self._next_cont_id
        self._next_cont_id += 1
        self.continuations[cont_id] = fn
        return cont_id

    def pop_continuation(self, cont_id: int) -> Callable[[Any], TaskResult]:
        """Remove and return a registered continuation body."""
        return self.continuations.pop(cont_id)

    # ------------------------------------------------------------------
    # Work
    # ------------------------------------------------------------------
    def enqueue_task(self, task: Task) -> None:
        """Queue a task (an action invocation) for execution on this cell."""
        self.task_queue.append(task)

    @property
    def has_work(self) -> bool:
        """True if the cell would perform an operation next cycle."""
        return bool(
            self._remaining_instructions > 0 or self.staging or self.task_queue
        )

    @property
    def queued_tasks(self) -> int:
        return len(self.task_queue)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ComputeCell({self.cc_id} at ({self.x},{self.y}) "
            f"objs={len(self.memory)} tasks={len(self.task_queue)})"
        )
