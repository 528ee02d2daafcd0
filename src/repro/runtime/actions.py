"""Actions: asynchronous active messages of the diffusive programming model.

An *action* is a named handler registered with the device.  Sending an
action to a global address produces a message; when the message reaches the
compute cell that owns the address, the handler runs there against the local
target object.  The handler may mutate the object, allocate local memory,
``propagate`` further actions (diffusion), or suspend work on a local
control object.

Handlers execute atomically in Python but their *simulated* cost is explicit:
every handler is charged a base cost of one instruction, plus whatever it
adds through :meth:`ActionContext.charge`, plus one staging cycle per
propagated message (charged by the compute cell itself).  The
:func:`action_cost` helper gives the conventional costs used by the graph
layer so algorithms agree on a consistent accounting.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple, TYPE_CHECKING

from repro.arch.address import Address
from repro.arch.cell import ComputeCell, Task
from repro.arch.message import Message

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.runtime.device import AMCCADevice

#: Handler signature: ``handler(ctx, target_object, *operands)``.
ActionHandler = Callable[..., None]


_ACTION_COSTS = {
    "edge_scan": 1,
    "insert": 2,
    "compare": 1,
    "alloc": 2,
    "state_update": 1,
}


def action_cost(kind: str, units: int = 1) -> int:
    """Conventional instruction costs for common action work items.

    These express the paper's granularity assumptions in one place so every
    algorithm charges work consistently:

    * ``"edge_scan"`` -- iterating one edge of a local edge list,
    * ``"insert"`` -- appending one edge into a local edge list,
    * ``"compare"`` -- one comparison/branch on vertex state,
    * ``"alloc"`` -- initialising one word of newly allocated memory,
    * ``"state_update"`` -- writing one field of vertex state.
    """
    cost = _ACTION_COSTS[kind]
    return cost if units <= 1 else cost * units


class ActionRegistry:
    """Name -> handler table shared by every compute cell of a device."""

    def __init__(self) -> None:
        self._handlers: Dict[str, ActionHandler] = {}
        self._sizes: Dict[str, int] = {}

    def register(self, name: str, handler: ActionHandler, size_words: int = 2) -> None:
        """Register an action.  Re-registering a name overwrites it."""
        if not name:
            raise ValueError("action name must be non-empty")
        self._handlers[name] = handler
        self._sizes[name] = size_words

    def get(self, name: str) -> ActionHandler:
        try:
            return self._handlers[name]
        except KeyError:
            raise KeyError(f"action {name!r} is not registered") from None

    def size_words(self, name: str) -> int:
        return self._sizes.get(name, 2)

    def __contains__(self, name: str) -> bool:
        return name in self._handlers

    def names(self) -> List[str]:
        return sorted(self._handlers)


class ActionContext:
    """Per-invocation view of the runtime handed to action handlers.

    The context records everything the handler does that has an
    architectural cost -- extra instructions, propagated messages, local
    allocations, scheduled closures -- and converts it into the
    ``(cost, messages)`` pair the compute cell charges to simulated time.
    """

    __slots__ = ("device", "cell", "_extra_cost", "_messages", "_spawned_tasks")

    def __init__(self, device: "AMCCADevice", cell: ComputeCell) -> None:
        self.device = device
        self.cell = cell
        self._extra_cost = 0
        # Lazily created: one context is allocated per executed task, and
        # many tasks neither propagate nor spawn.
        self._messages: Optional[List[Message]] = None
        self._spawned_tasks: Optional[List[Tuple[int, Task]]] = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def cc_id(self) -> int:
        """Id of the compute cell this action is executing on."""
        return self.cell.cc_id

    @property
    def cycle(self) -> int:
        """Current simulation cycle."""
        return self.device.simulator.cycle

    @property
    def config(self):
        return self.device.config

    # ------------------------------------------------------------------
    # Cost accounting
    # ------------------------------------------------------------------
    def charge(self, instructions: int) -> None:
        """Charge additional instruction cycles to this action."""
        if instructions > 0:
            self._extra_cost += instructions

    # ------------------------------------------------------------------
    # Local memory
    # ------------------------------------------------------------------
    def local(self, address: Address) -> Any:
        """Dereference a local global address."""
        return self.cell.get(address)

    def allocate_local(self, obj: Any, words: int = 1) -> Address:
        """Allocate an object in this cell's memory."""
        self.charge(action_cost("alloc", words))
        return self.cell.allocate(obj, words)

    # ------------------------------------------------------------------
    # Diffusion
    # ------------------------------------------------------------------
    def propagate(
        self,
        action: str,
        target: Optional[Address],
        *operands: Any,
        size_words: Optional[int] = None,
    ) -> Message:
        """Create a new action message (the paper's ``propagate``).

        The message is released into the network once this action's
        instruction cycles have been charged; each propagated message also
        costs the cell one staging cycle (enforced by the compute cell).
        """
        device = self.device
        registry = device.registry
        # Sibling-class private access: propagate runs once per diffused
        # message, so the membership test and size lookup fold into a single
        # probe of the registry dicts instead of its method wrappers.
        if size_words is None:
            size_words = registry._sizes.get(action)
            if size_words is None:
                raise KeyError(f"cannot propagate unregistered action {action!r}")
        elif action not in registry._handlers:
            raise KeyError(f"cannot propagate unregistered action {action!r}")
        cc_id = self.cell.cc_id
        msg = Message(
            cc_id,
            target.cc_id if target is not None else cc_id,
            action,
            target,
            operands,
            size_words,
        )
        # Outstanding-work accounting is batched in finish(): the handler
        # body runs atomically, so the terminator cannot observe the interim.
        msgs = self._messages
        if msgs is None:
            self._messages = [msg]
        else:
            msgs.append(msg)
        return msg

    def schedule_local(self, fn: Callable[["ActionContext"], None], label: str = "local") -> None:
        """Schedule a closure as a new local task on this compute cell.

        Used when a future releases its dependent-task queue: the released
        closures become ordinary tasks so their work is charged to simulated
        time like any other action.
        """
        task = self.device.make_local_task(self.cell, fn, label=label)
        spawned = self._spawned_tasks
        if spawned is None:
            self._spawned_tasks = [(self.cc_id, task)]
        else:
            spawned.append((self.cc_id, task))

    # ------------------------------------------------------------------
    # Continuations (call/cc) and remote allocation
    # ------------------------------------------------------------------
    def call_cc_allocate(
        self,
        factory: Callable[[], Any],
        words: int,
        destination_cc: int,
        then: Callable[["ActionContext", Address], None],
    ) -> None:
        """Allocate an object on a remote compute cell via a continuation.

        This is the paper's Listing 6 / Figure 3 mechanism: the runtime sends
        the ``allocate`` system action to ``destination_cc`` configured with a
        return trigger; when the allocation completes, the trigger action
        carries the new global address back here and resumes ``then``.
        """
        self.device.continuations.call_cc_allocate(
            self, factory, words, destination_cc, then
        )

    # ------------------------------------------------------------------
    def finish(self) -> Tuple[int, List[Message]]:
        """Finalize the invocation: flush spawned tasks, return (cost, messages).

        The terminator's sent-count is credited here in one batch (messages
        plus spawned tasks) rather than per propagate call: the handler body
        runs atomically inside one task, so no cycle boundary can observe
        the difference.
        """
        device = self.device
        spawned = self._spawned_tasks
        sent = 0
        if spawned is not None:
            enqueue = device.simulator.enqueue_task
            for cc_id, task in spawned:
                enqueue(cc_id, task)
            sent = len(spawned)
            self._spawned_tasks = None
        msgs = self._messages
        if msgs is not None:
            sent += len(msgs)
        if sent:
            # Inline of device.terminator_hook_sent / Terminator.on_sent:
            # one finish per executed task makes the wrappers measurable.
            terminator = device._terminator
            if terminator is not None:
                terminator.outstanding += sent
                terminator.total_sent += sent
            else:
                device._pre_run_sends += sent
        return 1 + self._extra_cost, msgs if msgs is not None else []
