"""The AM-CCA device facade: the host-side API of the diffusive model.

This mirrors the accelerator-style host program of the paper's Listing 1:

.. code-block:: python

    dev = AMCCADevice(ChipConfig.paper_chip())
    vertices = {vid: dev.allocate_on(cc, block) for ...}      # allocate roots
    dev.register_action("insert-edge-action", insert_edge)    # register actions
    dev.register_data_transfer(edges, "insert-edge-action",   # wire IO channels
                               target_fn=lambda e: (vertices[e.src], (e,)))
    terminator = Terminator()
    result = dev.run(terminator)                               # diffuse + wait

The device owns the simulator, the action registry, the continuation manager
and the terminator hooks; the graph layer and the algorithms only ever talk
to this facade.  Every delivered message runs through its action's
*executor*, looked up once in the registry's table: a handler written
against :class:`~repro.runtime.actions.ActionContext` gets a generic
executor bound at registration, and a hot action may register a direct
executor that builds its messages without a context.  Both retire their
task through :meth:`AMCCADevice.settle`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.arch.address import Address
from repro.arch.cell import ComputeCell, Task
from repro.arch.config import ChipConfig
from repro.arch.energy import EnergyModel, EnergyReport
from repro.arch.message import Message
from repro.arch.simulator import STEP_PHASES, Executor, Simulator
from repro.arch.stats import SimStats
from repro.runtime.actions import ActionContext, ActionHandler, ActionRegistry
from repro.runtime.continuations import ContinuationManager
from repro.runtime.terminator import TerminationError, Terminator

#: Maps a streamed item to (target address, operand tuple) for its action.
TargetFn = Callable[[Any], Tuple[Address, Tuple]]


@dataclass
class RunResult:
    """Outcome of one :meth:`AMCCADevice.run` call (one diffusion)."""

    cycles: int
    start_cycle: int
    end_cycle: int
    stats: SimStats
    phase: str = ""
    extra: Dict[str, Any] = field(default_factory=dict)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RunResult(phase={self.phase!r}, cycles={self.cycles})"


class AMCCADevice:
    """Host handle to one simulated AM-CCA chip."""

    def __init__(
        self,
        config: Optional[ChipConfig] = None,
        *,
        trace_every: int = 0,
        energy_model: Optional[EnergyModel] = None,
    ) -> None:
        self.config = config or ChipConfig.paper_chip()
        self.registry = ActionRegistry()
        self.simulator = Simulator(self.config, trace_every=trace_every)
        self.simulator.set_executors(self.registry.executors)
        self.energy_model = energy_model or EnergyModel()
        #: context reused by every generic executor (see context_executor).
        self._pooled_ctx = ActionContext(self, self.simulator.cells[0])
        self._terminator: Optional[Terminator] = None
        # Work injected by the host before run() installs a terminator; the
        # count is handed to the terminator when the run starts so its books
        # balance (every completion has a matching send).
        self._pre_run_sends = 0
        self._run_count = 0
        self.continuations = ContinuationManager(self)
        self.continuations.install_system_actions()

    def close(self) -> None:
        """Break the reference cycles through this device.

        The pooled context and the continuation manager point back at the
        device, and the executor table and the IO transfer factory hold
        handlers bound to objects that do; without them, dropping the last
        outside reference frees the chip by reference counting instead of
        leaving it to the cyclic collector.  The device cannot run
        afterwards: every action is unregistered.
        """
        self.registry.executors.clear()
        self.simulator.io._factory = None
        self._pooled_ctx = self.continuations = None

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register_action(self, name: str, handler: ActionHandler, size_words: int = 2) -> None:
        """Register an action handler under ``name`` (paper: AMCCA_REGISTER_ACTION).

        ``handler(ctx, target_object, *operands)`` runs through a generic
        executor bound here (:meth:`context_executor`).
        """
        self.registry.register(name, self.context_executor(handler),
                               size_words=size_words)

    def register_executor(self, name: str, executor: Executor, size_words: int = 2) -> None:
        """Register an action by a direct executor.

        ``executor(cell, msg)`` runs the delivered message itself and
        returns its ``(instruction_cost, outgoing_messages)`` pair; it must
        retire its task through :meth:`settle`, crediting every message and
        task it creates.
        """
        self.registry.register(name, executor, size_words=size_words)

    def register_data_transfer(
        self,
        items: Sequence[Any] | Iterable[Any],
        action: str,
        target_fn: TargetFn,
    ) -> int:
        """Queue ``items`` on the IO channels to be streamed as ``action`` messages.

        ``target_fn`` maps each item to the global address the action should
        be sent to and the operand tuple it should carry (the paper's IO cells
        look the vertex address up from the host-provided vertex map).
        Returns the number of items queued.
        """
        if action not in self.registry:
            raise KeyError(f"action {action!r} must be registered before data transfer")
        return self.simulator.io.register_transfer(
            items, self.make_transfer_factory(action, target_fn)
        )

    def make_transfer_factory(self, action: str, target_fn: TargetFn):
        """The message factory a data transfer installs on the IO system.

        Exposed separately so a snapshot restore can re-arm the IO channels
        for items that were queued (but not yet injected) at capture time
        without re-registering them — the factory is code, not state.
        """
        size_words = self.registry.size_words(action)

        def factory(item: Any, attached_cc: int) -> Message:
            target, operands = target_fn(item)
            self.terminator_hook_sent()
            return Message(
                attached_cc, target.cc_id, action, target, operands, size_words,
            )

        return factory

    # ------------------------------------------------------------------
    # Host-side memory management
    # ------------------------------------------------------------------
    def allocate_on(self, cc_id: int, obj: Any, words: int = 1) -> Address:
        """Allocate an object on a chosen compute cell (host-side setup)."""
        return self.simulator.cell(cc_id).allocate(obj, words)

    def get_object(self, address: Address) -> Any:
        """Host-side read of any object on the chip (used for verification)."""
        return self.simulator.cell(address.cc_id).get(address)

    def memory_occupancy(self) -> Dict[int, int]:
        """Words allocated per compute cell."""
        return self.simulator.memory_occupancy()

    # ------------------------------------------------------------------
    # Host-initiated actions
    # ------------------------------------------------------------------
    def send(self, action: str, target: Address, *operands: Any) -> None:
        """Send an action from the host into the chip (e.g. seeding a BFS root).

        The message enters the mesh at the IO-channel border cell of the
        target's row, as a host-driven injection would.
        """
        if action not in self.registry:
            raise KeyError(f"action {action!r} is not registered")
        entry = self._host_entry_cell(target.cc_id)
        self.terminator_hook_sent()
        msg = Message(
            src=entry,
            dst=target.cc_id,
            action=action,
            target=target,
            operands=operands,
            size_words=self.registry.size_words(action),
        )
        self.simulator.inject_message(msg)

    def _host_entry_cell(self, dst_cc: int) -> int:
        """The border cell through which a host message enters the mesh."""
        x, y = self.config.coords_of(dst_cc)
        sides = self.config.io_sides
        if "west" in sides:
            return self.config.cc_at(0, y)
        if "east" in sides:
            return self.config.cc_at(self.config.width - 1, y)
        if "north" in sides:
            return self.config.cc_at(x, 0)
        return self.config.cc_at(x, self.config.height - 1)

    # ------------------------------------------------------------------
    # Terminator integration
    # ------------------------------------------------------------------
    def terminator_hook_sent(self, count: int = 1) -> None:
        if self._terminator is not None:
            self._terminator.on_sent(count)
        else:
            self._pre_run_sends += count

    def settle(self, sent: int) -> None:
        """Retire one executed task and credit the ``sent`` work it created.

        The one place executors and :meth:`ActionContext.finish` settle the
        terminator: the completion is counted first, with
        :meth:`Terminator.on_completed`'s fail-fast guard, then the
        messages and tasks the task created.  With no terminator installed
        the host-side ``_pre_run_sends`` tally takes both.
        """
        terminator = self._terminator
        if terminator is not None:
            # Inline of Terminator.on_completed / on_sent: one call per
            # executed message makes the wrappers measurable.
            terminator.outstanding -= 1
            terminator.total_completed += 1
            if terminator.outstanding < 0:
                raise TerminationError(
                    f"terminator {terminator.name!r} went negative "
                    f"(completed {terminator.total_completed} > "
                    f"sent {terminator.total_sent})"
                )
            if sent:
                terminator.outstanding += sent
                terminator.total_sent += sent
        else:
            if self._pre_run_sends > 0:
                self._pre_run_sends -= 1
            self._pre_run_sends += sent

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def context_executor(self, handler: ActionHandler) -> Executor:
        """The generic executor of a context-style ``handler``.

        Bound once at registration.  Each call resets the device's pooled
        :class:`ActionContext` (tasks run strictly sequentially and nothing
        retains a context past finish(), so one instance suffices), runs
        ``handler(ctx, target_object, *operands)`` against the target in
        the cell's local memory and finishes the context.
        """
        ctx = self._pooled_ctx

        def execute(cell: ComputeCell, msg: Message) -> Tuple[int, List[Message]]:
            ctx.cell = cell
            ctx._extra_cost = 0
            ctx._messages = None
            ctx._spawned_tasks = None
            target = msg.target
            target_obj = None
            if target is not None and target.obj_id >= 0:
                # Direct local-memory read; the simulator only ever hands a
                # message to the cell that owns its target address.
                target_obj = cell.memory[target.obj_id]
            handler(ctx, target_obj, *msg.operands)
            return ctx.finish()

        return execute

    def make_local_task(
        self, cell: ComputeCell, fn: Callable[[ActionContext], None], label: str = "local"
    ) -> Task:
        """Wrap a closure as a task with its own context and cost accounting."""

        def run() -> Tuple[int, List[Message]]:
            ctx = ActionContext(self, cell)
            fn(ctx)
            return ctx.finish()

        return Task(run, label=label)

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------
    def run(
        self,
        terminator: Optional[Terminator] = None,
        max_cycles: Optional[int] = None,
        phase: str = "",
    ) -> RunResult:
        """Run the chip until the diffusion terminates (or a cycle budget).

        The diffusion has terminated when the IO stream is drained, the
        network is empty, no compute cell has work left and the terminator's
        outstanding count is zero.
        """
        self._terminator = terminator
        if terminator is not None and self._pre_run_sends:
            terminator.on_sent(self._pre_run_sends)
            self._pre_run_sends = 0
        sim = self.simulator
        start = sim.cycle

        def finished() -> bool:
            # Cheapest check first: while the diffusion has outstanding
            # work the O(1) counter saves the active-cell scan of
            # is_quiescent every cycle.
            if terminator is not None and terminator.outstanding:
                return False
            return sim.is_quiescent

        tracer = sim.tracer
        if tracer is not None:
            phase_before = dict(sim.phase_ns) if sim.phase_ns else {}
            action_before = dict(sim.action_ns) if sim.action_ns else {}
            span_start = tracer.now_ns()
        cycles = sim.run(max_cycles=max_cycles, until=finished)
        if tracer is not None:
            # One aggregated span per diffusion (per-cycle spans would be
            # far too hot); per-phase and per-action wall time ride along
            # as args and counter samples for the viewer's stacked series.
            phase_us = {
                name: (ns - phase_before.get(name, 0)) / 1000.0
                for name, ns in (sim.phase_ns or {}).items()
            }
            action_us = {
                name: (ns - action_before.get(name, 0)) / 1000.0
                for name, ns in sorted((sim.action_ns or {}).items())
            }
            tracer.complete(
                phase or f"run-{self._run_count + 1}", "sim",
                start_ns=span_start, dur_ns=tracer.now_ns() - span_start,
                cycles=cycles, start_cycle=start, end_cycle=sim.cycle,
                action_us={name: round(us, 1)
                           for name, us in action_us.items()},
                **{f"{name}_us": round(us, 1)
                   for name, us in phase_us.items()})
            if phase_us:
                # The stacked series keeps the disjoint phases; executor
                # time already sits inside cells, and the per-action series
                # splits it.
                tracer.counter("sim_phase_us", {
                    name: phase_us[name] for name in STEP_PHASES})
                tracer.counter("sim_action_us", action_us)
        if terminator is not None and finished():
            terminator.mark_finished(sim.cycle)
        self._terminator = None
        self._run_count += 1
        return RunResult(
            cycles=cycles,
            start_cycle=start,
            end_cycle=sim.cycle,
            stats=sim.stats,
            phase=phase or f"run-{self._run_count}",
        )

    # ------------------------------------------------------------------
    # Snapshot support (see repro.snapshot)
    # ------------------------------------------------------------------
    def snapshot_state(self) -> Dict[str, Any]:
        """Host-side runtime bookkeeping as plain values (snapshot capture).

        The action registry and dispatch wiring are code and are rebuilt by
        reconstructing the device; only the counters that influence future
        behaviour (or reports) are captured.  A run must not be in progress:
        ``run()`` detaches its terminator before returning, so between runs
        ``_terminator`` is always ``None``.
        """
        if self._terminator is not None:  # pragma: no cover - API misuse guard
            raise RuntimeError("cannot snapshot a device while run() is active")
        return {
            "pre_run_sends": self._pre_run_sends,
            "run_count": self._run_count,
            "continuations_created": self.continuations.created,
            "continuations_resumed": self.continuations.resumed,
        }

    def restore_state(self, state: Dict[str, Any]) -> None:
        """Load :meth:`snapshot_state` output into a freshly built device."""
        self._pre_run_sends = state["pre_run_sends"]
        self._run_count = state["run_count"]
        self.continuations.created = state["continuations_created"]
        self.continuations.resumed = state["continuations_resumed"]

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def stats(self) -> SimStats:
        """Finalized statistics for everything simulated so far."""
        return self.simulator.finalize()

    def energy_report(self) -> EnergyReport:
        """Energy/time estimate using this device's energy model."""
        return self.simulator.energy_report(self.energy_model)

    @property
    def trace(self):
        """The trace recorder (frames are only captured if trace_every > 0)."""
        return self.simulator.trace

    def attach_tracer(self, tracer) -> None:
        """Attach a :class:`repro.obs.Tracer` (observer-only; see simulator)."""
        self.simulator.attach_tracer(tracer)
