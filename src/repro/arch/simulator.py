"""The cycle-driven AM-CCA chip simulator.

The simulator owns the compute cells, the NoC and the IO system and advances
them in lock step.  One simulation cycle performs, in order:

1. every IO cell injects at most one freshly created action message,
2. the NoC advances every in-flight message by at most one hop,
3. arrived messages are dispatched into tasks on their destination cells,
4. every compute cell with work performs its single operation for the cycle
   (one instruction, or the staging of one outgoing message into the NoC),
5. per-cycle statistics are recorded and quiescence is checked.

An *executor* runs an arrived :class:`~repro.arch.message.Message` on its
destination cell.  The simulator keeps one per action name, in a table the
diffusive runtime (:mod:`repro.runtime`) fills as actions register, keeping
this package free of any knowledge about actions, vertices or graphs.
"""

from __future__ import annotations

import time
from array import array
from operator import attrgetter
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.arch.cell import ComputeCell, Task
from repro.arch.config import ChipConfig
from repro.arch.energy import EnergyModel, EnergyReport, estimate_energy
from repro.arch.io_system import IOSystem
from repro.arch.message import Message
from repro.arch.noc import BaseNoC, build_noc
from repro.arch.routing import RoutingPolicy, make_routing
from repro.arch.stats import SimStats
from repro.arch.trace import TraceRecorder

#: Per-cell counters a snapshot captures, as ``(column, attribute)``.
_CELL_COUNTERS = (
    ("remaining", "_remaining_instructions"),
    ("next_obj_id", "_next_obj_id"),
    ("memory_words", "memory_words"),
    ("next_cont_id", "_next_cont_id"),
    ("instructions", "instructions_executed"),
    ("staged", "messages_staged"),
    ("tasks", "tasks_executed"),
    ("allocations", "allocations"),
)

#: Executes an arrived message directly on its destination cell, returning
#: the ``(instruction_cost, outgoing_messages)`` pair a Task.run would.
Executor = Callable[[ComputeCell, Message], "tuple"]

#: The disjoint phases of :meth:`Simulator.step` that ``phase_ns`` times;
#: its ``executor`` line is counted inside ``cells``.
STEP_PHASES = ("io", "noc", "dispatch", "cells", "account")


class _EveryAction(dict):
    """An executor table that runs every action through one executor."""

    def __init__(self, executor: Executor) -> None:
        super().__init__()
        self.executor = executor

    def __missing__(self, action: str) -> Executor:
        return self.executor


class _TimedTable(dict):
    """An executor table whose entries accrue their wall time.

    Each entry, made on an action's first lookup, looks the action up in
    ``executors`` at every call (so a re-registered action is timed too)
    and adds the call's nanoseconds to ``timers["executor"]`` and to
    ``action_ns[action]``.  An unregistered action raises ``KeyError`` as
    the untimed table does.
    """

    def __init__(self, executors: Dict[str, Executor], timers: Dict[str, int],
                 action_ns: Dict[str, int]) -> None:
        super().__init__()
        self.executors = executors
        self.timers = timers
        self.action_ns = action_ns

    def __missing__(self, action: str) -> Executor:
        executors, timers, action_ns = (
            self.executors, self.timers, self.action_ns)
        executors[action]  # an unregistered action fails here, untimed
        action_ns.setdefault(action, 0)
        clock = time.perf_counter_ns

        def timed(cell: ComputeCell, msg: Message) -> "tuple":
            start = clock()
            result = executors[action](cell, msg)
            elapsed = clock() - start
            timers["executor"] += elapsed
            action_ns[action] += elapsed
            return result

        self[action] = timed
        return timed


class Simulator:
    """Cycle-accurate simulator of one AM-CCA chip.

    Parameters
    ----------
    config:
        The chip description (dimensions, routing, fidelity, clock, IO sides).
    trace_every:
        If > 0, capture an activity frame every that many cycles.
    """

    def __init__(
        self,
        config: ChipConfig,
        trace_every: int = 0,
    ) -> None:
        self.config = config
        self.routing: RoutingPolicy = make_routing(config)
        self.stats = SimStats(num_cells=config.num_cells)
        self.noc: BaseNoC = build_noc(config, self.stats, self.routing)
        self.io = IOSystem(config)
        self.cells: List[ComputeCell] = [
            ComputeCell(cc_id, *config.coords_of(cc_id))
            for cc_id in range(config.num_cells)
        ]
        #: action name -> executor (see set_executor / set_executors).
        self.executors: Optional[Dict[str, Executor]] = None
        self._timed_executors: Optional[_TimedTable] = None
        self.trace = TraceRecorder(config, sample_every=trace_every)
        self._trace_enabled = self.trace.enabled
        #: Observability (repro.obs).  ``tracer`` marks an attached Chrome
        #: tracer; ``phase_ns`` accumulates wall time per step() phase.
        #: ``action_ns`` splits the ``executor`` line by action name.
        #: ``active_series``, when a list, receives every cycle's count of
        #: active cells (the Figure 6/7 series; run_scenario_traced sets
        #: it).  All are observer-only (no scheduled event moves) and
        #: default to off: the disabled path costs one attribute read and
        #: branch per phase.  Unlike TraceRecorder, attaching them does NOT
        #: disable parking.
        self.tracer = None
        self.phase_ns: Optional[Dict[str, int]] = None
        self.action_ns: Optional[Dict[str, int]] = None
        self.active_series: Optional[List[int]] = None
        self.cycle = 0
        #: Cells that may have work, in the order they became active, with a
        #: sweep-stamp list as the membership test (_cell_stamp[cc] ==
        #: _cell_sweep iff cc is on the list).  An insertion-ordered list
        #: plus stamps replaces the former hash set: it is faster to scan
        #: and append, and it makes the cell service order an explicit,
        #: documented part of the deterministic schedule instead of an
        #: artefact of hash-set iteration order.
        self._active_cells: List[int] = []
        self._cell_stamp = [0] * config.num_cells
        self._cell_sweep = 1
        #: scratch buffers reused across step() calls so the hot loop does
        #: not allocate fresh containers every simulated cycle; the
        #: still-active list is rebuilt each cycle and ping-pong swapped.
        self._cells_active_this_cycle: List[int] = []
        self._still_active_scratch: List[int] = []
        #: Busy-cell parking (timing wheel).  A cell that starts an action of
        #: cost k spends k-1 further cycles decrementing its instruction
        #: counter with no observable side effect until the final decrement
        #: flushes its held messages.  Instead of stepping such a cell every
        #: cycle, the simulator parks it and wakes it on the flush cycle;
        #: parked cells are counted as active through _parked_count and
        #: their skipped decrements are accrued to the cell's lifetime
        #: counters when they wake.  A parked cell keeps a placeholder slot
        #: in the active list: within-cycle processing order — and with it
        #: same-cycle NoC injection order — must be identical with parking
        #: on or off (the fuzz oracle pins this; see repro.fuzz).  Disabled
        #: while tracing, which needs the exact per-cycle active id lists.
        self._parked = bytearray(config.num_cells)
        self._parked_count = 0
        self._wake_buckets: Dict[int, List[Tuple[int, int]]] = {}
        self._fast_park = trace_every <= 0

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def set_executors(self, executors: Dict[str, Executor]) -> None:
        """Install the action name -> executor table (done by the runtime).

        Delivered messages are queued on their destination cell as-is and
        executed in place when the cell's turn comes: the cell loop looks
        the message's action up in ``executors`` once and calls the entry,
        which runs the action and returns its ``(instruction_cost,
        outgoing_messages)`` pair.  The table is read live, so the runtime
        fills it as actions register; an action it lacks raises
        ``KeyError``.  Tasks enqueued directly (:meth:`enqueue_task`) share
        the same queue and run in order.
        """
        self.executors = executors
        self._timed_executors = None

    def set_executor(self, executor: Executor) -> None:
        """Run every action through one ``executor`` (bare simulators, tests)."""
        self.set_executors(_EveryAction(executor))

    def cell(self, cc_id: int) -> ComputeCell:
        """The compute cell with the given id."""
        return self.cells[cc_id]

    def wake(self, cc_id: int) -> None:
        """Mark a cell as potentially having work (task enqueued externally).

        Parked cells are left alone: their wake-bucket entry re-activates
        them on the cycle their in-progress action completes.
        """
        if not self._parked[cc_id] and self._cell_stamp[cc_id] != self._cell_sweep:
            self._cell_stamp[cc_id] = self._cell_sweep
            self._active_cells.append(cc_id)

    def attach_tracer(self, tracer) -> None:
        """Attach a :class:`repro.obs.Tracer` for structured trace events.

        Observer-only: phase timers are enabled so run spans can report
        where the time went.  The deterministic schedule is untouched --
        parking stays on.
        """
        self.tracer = tracer
        if self.phase_ns is None:
            self.enable_phase_timers()

    def enable_phase_timers(self) -> None:
        """Accumulate wall nanoseconds per step() phase in ``phase_ns``.

        The five :data:`STEP_PHASES` are disjoint; ``executor`` is the
        message executors' share of ``cells``, and ``action_ns`` splits it
        by action name (its values sum to the ``executor`` line).
        """
        self.phase_ns = dict.fromkeys(STEP_PHASES + ("executor",), 0)
        self.action_ns = {}
        self._timed_executors = None

    # ------------------------------------------------------------------
    # Injection helpers (used by the runtime for host-driven setup)
    # ------------------------------------------------------------------
    def inject_message(self, msg: Message) -> None:
        """Inject a message into the NoC as if staged at ``msg.src`` this cycle."""
        self.noc.inject(msg, self.cycle)

    def enqueue_task(self, cc_id: int, task: Task) -> None:
        """Directly enqueue a task on a cell (host-side setup, tests)."""
        self.cells[cc_id].enqueue_task(task)
        self.wake(cc_id)

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    @property
    def is_quiescent(self) -> bool:
        """True when no work remains anywhere on the chip.

        ``step`` prunes work-less cells from the active set every cycle, so
        the cell scan here is over (at most) the cells that still had work
        at the end of the last cycle, not every cell ever woken.
        """
        if not self.io.drained:
            return False
        if not self.noc.is_empty:
            return False
        if self._parked_count:
            return False
        cells = self.cells
        # Direct state reads instead of the has_work property: this runs
        # once per cycle over the active set, where the property's function
        # call is measurable.
        for cc_id in self._active_cells:
            cell = cells[cc_id]
            if cell._remaining_instructions > 0 or cell.staging or cell.task_queue:
                return False
        return True

    def step(self) -> bool:
        """Advance the chip by one cycle.  Returns True if any work happened."""
        executors = self.executors
        if executors is None:
            raise RuntimeError(
                "no executor installed; the runtime must call set_executors")
        cycle = self.cycle
        did_work = False

        noc = self.noc
        noc_inject = noc.inject
        parked = self._parked
        cells = self.cells

        # 0. Wake parked cells whose instruction burn completes this cycle:
        # accrue the decrements they skipped while parked and hand them back
        # to the normal loop for the final decrement that flushes their held
        # messages (their _remaining_instructions was left at 1).  No
        # re-append: the cell never left the active list — its placeholder
        # slot preserves the exact processing order an unparked burn would
        # have had.
        woken = self._wake_buckets.pop(cycle, None)
        if woken is not None:
            for cc_id, skipped in woken:
                parked[cc_id] = 0
                cells[cc_id].instructions_executed += skipped
            self._parked_count -= len(woken)

        # Parked cells burning instructions THIS cycle: snapshot before
        # phase 4 parks new ones (a cell parked this cycle already counted
        # through its real step; a cell woken this cycle counts the same way).
        parked_this_cycle = self._parked_count
        if parked_this_cycle:
            did_work = True

        # Phase timers (observability): when enabled, wall time between
        # checkpoints accrues per phase, and a timed table wraps each
        # executor inside phase 4.  ``timers`` is None on the default path,
        # costing one load and branch per phase per cycle and none per task.
        timers = self.phase_ns
        if timers is not None:
            if self._timed_executors is None:
                self._timed_executors = _TimedTable(
                    executors, timers, self.action_ns)
            executors = self._timed_executors
            _pc = time.perf_counter_ns
            _t = _pc()

        # 1. IO cells read one item each and create action messages.
        io_msgs = self.io.step(cycle)
        if io_msgs:
            did_work = True
            self.stats.io_injections += len(io_msgs)
            for msg in io_msgs:
                noc_inject(msg, cycle)
        if timers is not None:
            _now = _pc()
            timers["io"] += _now - _t
            _t = _now

        # 2. NoC advances in-flight messages by one hop.
        delivered = noc.advance(cycle)
        if delivered:
            did_work = True
        if timers is not None:
            _now = _pc()
            timers["noc"] += _now - _t
            _t = _now

        # 3. Dispatch arrivals to their destination cells: the message
        # itself takes the task-queue slot and runs in place at the cell's
        # turn.  Work for parked cells just queues; the wake bucket
        # re-activates the cell.
        active_cells = self._active_cells
        cell_stamp = self._cell_stamp
        sweep = self._cell_sweep
        fast_park = self._fast_park
        for msg in delivered:
            dst = msg.dst
            cells[dst].task_queue.append(msg)
            if not parked[dst] and cell_stamp[dst] != sweep:
                cell_stamp[dst] = sweep
                active_cells.append(dst)
        if timers is not None:
            _now = _pc()
            timers["dispatch"] += _now - _t
            _t = _now

        # 4. Every cell with work performs one operation, in activation
        # order: the execution rule of repro.arch.cell.  The scratch buffers
        # are reused so steady-state cycles allocate no fresh containers
        # here.  Cell state is read directly rather than through methods or
        # the ``has_work`` property: this loop runs once per active cell per
        # cycle, where a call is measurable.  Each cell is re-stamped while
        # it runs (so a same-cell task spawned mid-step cannot re-append it)
        # and the stamp is retired if the cell goes idle.
        active_this_cycle = self._cells_active_this_cycle
        active_this_cycle.clear()
        active_append = active_this_cycle.append
        still_active = self._still_active_scratch
        still_active.clear()
        still_active_append = still_active.append
        sweep = self._cell_sweep = self._cell_sweep + 1
        for cc_id in active_cells:
            cell_stamp[cc_id] = sweep
            if parked[cc_id]:
                # Parked placeholder: the wake bucket does the burn
                # accounting; the slot is kept only so the cell re-enters
                # processing at its original position.
                still_active_append(cc_id)
                continue
            cell = cells[cc_id]
            remaining = cell._remaining_instructions
            if remaining > 0:
                # Finish the instructions of the action in progress.
                remaining -= 1
                cell._remaining_instructions = remaining
                cell.instructions_executed += 1
                if remaining == 0 and cell._held_messages:
                    cell.staging.extend(cell._held_messages)
                    cell._held_messages = []
                active_append(cc_id)
                did_work = True
            elif cell.staging:
                # Drain the output staging queue (one message per cycle).
                cell.messages_staged += 1
                noc_inject(cell.staging.popleft(), cycle)
                active_append(cc_id)
                did_work = True
            elif cell.task_queue:
                # Start the next queued task: a delivered message runs
                # through its action's executor, an enqueued Task runs
                # itself.
                item = cell.task_queue.popleft()
                if item.__class__ is Message:
                    cost, messages = executors[item.action](cell, item)
                else:
                    cost, messages = item.run()
                cell.tasks_executed += 1
                cell.instructions_executed += 1
                remaining = cost - 1
                active_append(cc_id)
                did_work = True
                if remaining <= 0:
                    if messages:
                        cell.staging.extend(messages)
                else:
                    cell._held_messages = list(messages)
                    # Parking pays off from 2 skipped decrements up; a
                    # 1-skip park costs more in bucket traffic than it saves.
                    if fast_park and remaining >= 3:
                        # Park: the next remaining-1 cycles are pure
                        # decrements; skip them and wake on the flush cycle.
                        # The cell stays in the active list as a placeholder
                        # so its processing-order slot survives the park.
                        cell._remaining_instructions = 1
                        parked[cc_id] = 1
                        self._parked_count += 1
                        bucket = self._wake_buckets.get(cycle + remaining)
                        if bucket is None:
                            self._wake_buckets[cycle + remaining] = bucket = []
                        bucket.append((cc_id, remaining - 1))
                        still_active_append(cc_id)
                        continue
                    cell._remaining_instructions = remaining
            if cell._remaining_instructions > 0 or cell.staging or cell.task_queue:
                still_active_append(cc_id)
            else:
                cell_stamp[cc_id] = 0
        self._active_cells, self._still_active_scratch = (
            still_active, self._active_cells,
        )
        if timers is not None:
            _now = _pc()
            timers["cells"] += _now - _t
            _t = _now

        # 5. Record statistics and traces.  Parked cells execute one
        # (virtual) instruction per parked cycle, so they count as active.
        stats = self.stats
        stats.cycles += 1
        active = len(active_this_cycle) + parked_this_cycle
        counts = stats.cycles_by_active_cells
        counts[active] = counts.get(active, 0) + 1
        in_flight = noc.in_flight
        counts = stats.cycles_by_in_flight
        counts[in_flight] = counts.get(in_flight, 0) + 1
        ndelivered = len(delivered)
        counts = stats.cycles_by_deliveries
        counts[ndelivered] = counts.get(ndelivered, 0) + 1
        stats.messages_delivered += ndelivered
        if self.active_series is not None:
            self.active_series.append(active)
        if self._trace_enabled:
            self.trace.maybe_record(cycle, active_this_cycle)
        if timers is not None:
            timers["account"] += _pc() - _t

        self.cycle += 1
        return did_work

    def run(
        self,
        max_cycles: Optional[int] = None,
        until: Optional[Callable[[], bool]] = None,
    ) -> int:
        """Run until quiescence (default), a predicate, or a cycle budget.

        Parameters
        ----------
        max_cycles:
            Hard upper bound on the number of cycles to simulate.
        until:
            Optional predicate checked after every cycle; the run stops once
            it returns True (used by terminator objects).

        Returns the number of cycles simulated by this call.
        """
        start = self.cycle
        budget = max_cycles if max_cycles is not None else float("inf")
        while (self.cycle - start) < budget:
            self.step()
            if until is not None:
                if until():
                    break
            elif self.is_quiescent:
                break
        return self.cycle - start

    # ------------------------------------------------------------------
    # Snapshot support (see repro.snapshot)
    # ------------------------------------------------------------------
    def snapshot_state(self) -> Dict[str, object]:
        """Scheduling/accounting state as plain values (snapshot capture).

        Covers the clock, the active-cell order, parked cells and their
        wake wheel, every cell's execution bookkeeping (one int64 column
        per counter, in-progress instruction burns included, plus the
        held/staging/task-queue messages of the cells that hold any) plus
        the statistics object and the NoC's in-flight state.  Cell
        *memory contents* and dispatch wiring are deliberately excluded --
        they belong to the layer that owns them (the graph side for
        vertex blocks; the runtime re-installs its executor from code).

        Raises :class:`~repro.snapshot.format.SnapshotError` when the
        state is not enumerable as plain data: a :class:`Task` closure in
        a task queue, or a registered continuation awaiting its trigger.
        Both are transient (they exist only while a diffusion is running
        non-quiescent work), so capturing at an increment boundary always
        succeeds.
        """
        from repro.snapshot.format import SnapshotError

        cells = self.cells
        state: Dict[str, object] = {
            name: array("q", list(map(attrgetter(attr), cells)))
            for name, attr in _CELL_COUNTERS
        }
        messages = []
        for cell in cells:
            if cell.continuations:
                raise SnapshotError(
                    f"cell {cell.cc_id} has {len(cell.continuations)} "
                    "registered continuation(s) awaiting their trigger; "
                    "capture at an increment boundary")
            if not (cell.task_queue or cell.staging or cell._held_messages):
                continue
            for item in cell.task_queue:
                if item.__class__ is not Message:
                    raise SnapshotError(
                        f"cell {cell.cc_id} has a queued {item!r}: Task "
                        "closures cannot be serialised; capture at an "
                        "increment boundary")
            messages.append((
                cell.cc_id,
                [m.to_state() for m in cell._held_messages],
                [m.to_state() for m in cell.staging],
                [m.to_state() for m in cell.task_queue],
            ))
        state["messages"] = messages
        return {
            "cycle": self.cycle,
            "active_cells": array("q", self._active_cells),
            "parked": bytes(self._parked),
            "wake_buckets": {wake: [list(entry) for entry in entries]
                             for wake, entries in self._wake_buckets.items()},
            "cells": state,
            "stats": self.stats.state_dict(),
            "noc": self.noc.export_state(),
        }

    def restore_state(self, state: Dict[str, object]) -> None:
        """Load :meth:`snapshot_state` output into a freshly built simulator."""
        from repro.snapshot.format import SnapshotError

        cells = self.cells
        parked = state["parked"]
        if type(parked) is not bytes or len(parked) != len(cells):
            raise SnapshotError(
                f"corrupt snapshot: parked flags are not {len(cells)} bytes")
        cell_state = state["cells"]
        for name, _attr in _CELL_COUNTERS:
            if len(cell_state[name]) != len(cells):
                raise SnapshotError(
                    f"corrupt snapshot: cell column {name!r} has "
                    f"{len(cell_state[name])} entries, expected {len(cells)}")
        self.cycle = state["cycle"]
        self._parked = bytearray(parked)
        self._parked_count = sum(self._parked)
        self._wake_buckets = {wake: [tuple(entry) for entry in entries]
                              for wake, entries in state["wake_buckets"].items()}
        for name, attr in _CELL_COUNTERS:
            for cell, value in zip(cells, cell_state[name]):
                setattr(cell, attr, value)
        for cc_id, held, staging, queue in cell_state["messages"]:
            cell = cells[cc_id]
            cell._held_messages = [Message.from_state(s) for s in held]
            cell.staging.extend(Message.from_state(s) for s in staging)
            cell.task_queue.extend(Message.from_state(s) for s in queue)
        # Re-stamp the active list against this instance's fresh sweep
        # counter; only membership and order matter to the schedule.
        sweep = self._cell_sweep
        for cc_id in state["active_cells"]:
            self._cell_stamp[cc_id] = sweep
            self._active_cells.append(cc_id)
        self.stats.load_state(state["stats"])
        self.noc.import_state(state["noc"])

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def collect_cell_counters(self) -> None:
        """Fold per-cell lifetime counters into the aggregate statistics.

        The aggregates are recomputed from scratch so this is idempotent and
        can be called at any point in a run (e.g. between increments).
        """
        self.stats.instructions = 0
        self.stats.messages_staged = 0
        self.stats.tasks_executed = 0
        self.stats.allocations = 0
        self.stats.memory_words_allocated = 0
        for cell in self.cells:
            self.stats.merge_cell_counters(
                instructions=cell.instructions_executed,
                staged=cell.messages_staged,
                tasks=cell.tasks_executed,
                allocations=cell.allocations,
                memory_words=cell.memory_words,
            )

    def _reconcile_parked(self) -> None:
        """Credit parked cells' virtual burns up to the current cycle.

        A parked cell's skipped instruction decrements are normally accrued
        when its wake bucket fires.  If a run is truncated by a
        ``max_cycles`` budget mid-park, the bucket has not fired yet and the
        burns already (virtually) executed would be missing from
        ``instructions_executed`` / ``busy_cycles``.  This credits exactly
        the elapsed portion and shrinks the bucket entry by the same amount,
        so it is idempotent, safe mid-run, and never double-counts when the
        wake eventually fires in a resumed run.
        """
        if not self._wake_buckets:
            return
        now = self.cycle
        cells = self.cells
        for wake, entries in self._wake_buckets.items():
            elapsed = now - wake
            for idx, (cc_id, skipped) in enumerate(entries):
                count = elapsed + skipped
                if count <= 0:
                    continue
                if count > skipped:  # pragma: no cover - bucket would have fired
                    count = skipped
                cell = cells[cc_id]
                cell.instructions_executed += count
                entries[idx] = (cc_id, skipped - count)

    def finalize(self) -> SimStats:
        """Refresh aggregate accounting and return the statistics object."""
        self._reconcile_parked()
        self.collect_cell_counters()
        # Settle the prepaid-hops caveat into explicit accounting: the
        # untraversed remainder of in-flight routes, recomputed from the
        # live NoC so the call stays idempotent (0 at quiescence).
        self.stats.hops_untraversed = self.noc.untraversed_hops()
        return self.stats

    def energy_report(self, model: Optional[EnergyModel] = None) -> EnergyReport:
        """Energy/time estimate for everything simulated so far."""
        self.finalize()
        return estimate_energy(self.stats, self.config, model)

    def memory_occupancy(self) -> Dict[int, int]:
        """Words of memory allocated per compute cell (for load-balance checks)."""
        return {cell.cc_id: cell.memory_words for cell in self.cells}

    def all_objects(self) -> Iterable[object]:
        """Iterate over every object resident in any cell's memory."""
        for cell in self.cells:
            yield from cell.objects()
