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
to this facade.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.arch.address import Address
from repro.arch.cell import ComputeCell, Task
from repro.arch.config import ChipConfig
from repro.arch.energy import EnergyModel, EnergyReport
from repro.arch.message import Message
from repro.arch.simulator import Simulator
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
        self.simulator.set_executor(self._execute_message)
        self.energy_model = energy_model or EnergyModel()
        self.continuations = ContinuationManager(self)
        self.continuations.install_system_actions()
        #: context reused by _execute_message (see its docstring).
        self._pooled_ctx = ActionContext(self, self.simulator.cells[0])
        self._terminator: Optional[Terminator] = None
        # Work injected by the host before run() installs a terminator; the
        # count is handed to the terminator when the run starts so its books
        # balance (every completion has a matching send).
        self._pre_run_sends = 0
        self._run_count = 0

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register_action(self, name: str, handler: ActionHandler, size_words: int = 2) -> None:
        """Register an action handler under ``name`` (paper: AMCCA_REGISTER_ACTION)."""
        self.registry.register(name, handler, size_words=size_words)

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

    def terminator_hook_completed(self) -> None:
        if self._terminator is not None:
            self._terminator.on_completed()
        elif self._pre_run_sends > 0:
            self._pre_run_sends -= 1

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def _execute_message(self, cell: ComputeCell, msg: Message) -> Tuple[int, List[Message]]:
        """Run an arrived message's action in place (simulator executor hook).

        This is the hot path: one call per delivered message, with the
        terminator bookkeeping inlined and the ActionContext reused across
        invocations (tasks run strictly sequentially and nothing retains a
        context past finish(), so one pooled instance suffices).
        """
        handler = self.registry._handlers[msg.action]
        ctx = self._pooled_ctx
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
        terminator = self._terminator
        if terminator is not None:
            # Inline of Terminator.on_completed (one call per executed
            # message makes the wrapper measurable), including its
            # fail-fast accounting guard.
            terminator.outstanding -= 1
            terminator.total_completed += 1
            if terminator.outstanding < 0:
                raise TerminationError(
                    f"terminator {terminator.name!r} went negative "
                    f"(completed {terminator.total_completed} > "
                    f"sent {terminator.total_sent})"
                )
        elif self._pre_run_sends > 0:
            self._pre_run_sends -= 1
        # Inline of ctx.finish() (kept in sync with ActionContext.finish,
        # which remains the reference form for local tasks).
        spawned = ctx._spawned_tasks
        sent = 0
        if spawned is not None:
            enqueue = self.simulator.enqueue_task
            for cc_id, task in spawned:
                enqueue(cc_id, task)
            sent = len(spawned)
            ctx._spawned_tasks = None
        msgs = ctx._messages
        if msgs is not None:
            sent += len(msgs)
        if sent:
            if terminator is not None:
                terminator.outstanding += sent
                terminator.total_sent += sent
            else:
                self._pre_run_sends += sent
        return 1 + ctx._extra_cost, msgs if msgs is not None else []

    def make_local_task(
        self, cell: ComputeCell, fn: Callable[[ActionContext], None], label: str = "local"
    ) -> Task:
        """Wrap a closure as a task with its own context and cost accounting."""

        def run() -> Tuple[int, List[Message]]:
            ctx = ActionContext(self, cell)
            fn(ctx)
            self.terminator_hook_completed()
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
        if phase:
            sim.stats.mark_phase(phase)

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
            span_start = tracer.now_ns()
        cycles = sim.run(max_cycles=max_cycles, until=finished)
        if tracer is not None:
            # One aggregated span per diffusion (per-cycle spans would be
            # far too hot); per-phase wall time rides along as args and a
            # counter sample for the viewer's stacked series.
            phase_us = {
                name: (ns - phase_before.get(name, 0)) / 1000.0
                for name, ns in (sim.phase_ns or {}).items()
            }
            tracer.complete(
                phase or f"run-{self._run_count + 1}", "sim",
                start_ns=span_start, dur_ns=tracer.now_ns() - span_start,
                cycles=cycles, start_cycle=start, end_cycle=sim.cycle,
                **{f"{name}_us": round(us, 1)
                   for name, us in phase_us.items()})
            if phase_us:
                tracer.counter("sim_phase_us", phase_us)
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
