"""Simulation statistics: per-cycle activation and aggregate counters.

The paper reports two kinds of architecture-level measurements:

* *cycles per streaming increment* (Figures 8 and 9), and
* *percent of compute cells active per cycle* (Figures 6 and 7).

:class:`SimStats` collects both, plus the raw event counts (instructions,
staged messages, hops, allocations, IO injections) that drive the energy
model of :mod:`repro.arch.energy`.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro._compat import np, require_numpy


@dataclass
class SimStats:
    """Mutable counters updated by the simulator, NoC and compute cells."""

    num_cells: int = 0

    # Aggregate event counters.
    cycles: int = 0
    instructions: int = 0
    messages_staged: int = 0
    messages_injected: int = 0
    messages_delivered: int = 0
    hops: int = 0
    #: Flit-hops already charged to :attr:`hops` that no in-flight message
    #: has traversed yet.  The fast cycle NoCs and the latency model prepay
    #: a message's whole route at injection, so when a run is truncated by
    #: a ``max_cycles`` budget mid-flight, ``hops`` overstates traversed
    #: work by exactly this amount (0 at quiescence, and always 0 for the
    #: per-hop-accruing ``cycle-ref`` model).  Refreshed by
    #: ``Simulator.finalize``; derived, so it is excluded from snapshot
    #: state and recomputed after restore.
    hops_untraversed: int = 0
    link_busy: int = 0
    tasks_executed: int = 0
    allocations: int = 0
    io_injections: int = 0
    memory_words_allocated: int = 0

    # Per-cycle series.
    active_cells_per_cycle: List[int] = field(default_factory=list)
    messages_in_flight_per_cycle: List[int] = field(default_factory=list)
    deliveries_per_cycle: List[int] = field(default_factory=list)

    # Optional per-link busy counters, indexed by directed-link id (see
    # repro.arch.routing.LinkTable).  None until enabled: the cycle NoC only
    # pays the per-cycle accounting cost when a caller asked for it.
    link_busy_per_link: Optional[List[int]] = None

    # Named phase boundaries, e.g. one per streaming increment.
    phase_marks: Dict[str, int] = field(default_factory=dict)

    # ------------------------------------------------------------------
    def mark_phase(self, name: str) -> None:
        """Record the current cycle as the start of a named phase."""
        self.phase_marks[name] = self.cycles

    # ------------------------------------------------------------------
    # Per-link accounting
    # ------------------------------------------------------------------
    def enable_link_accounting(self, num_links: int) -> None:
        """Allocate per-link busy counters (one slot per directed-link id).

        Until this is called the cycle-accurate NoC only maintains the
        aggregate :attr:`link_busy` counter; afterwards every busy link-cycle
        is also attributed to its link id.
        """
        self.link_busy_per_link = [0] * num_links

    def link_utilization(self, table) -> Dict[Tuple[int, int], int]:
        """Busy-cycle counts keyed by directed link ``(src_cell, dst_cell)``.

        ``table`` is the :class:`~repro.arch.routing.LinkTable` that named
        the link ids.  Links that were never busy are omitted.  Empty when
        per-link accounting was not enabled.
        """
        if self.link_busy_per_link is None:
            return {}
        return {
            table.endpoints(lid): busy
            for lid, busy in enumerate(self.link_busy_per_link)
            if busy
        }

    def hottest_links(self, table, k: int = 10) -> List[Tuple[Tuple[int, int], int]]:
        """The ``k`` busiest directed links as ``((u, v), busy_cycles)`` pairs."""
        util = self.link_utilization(table)
        return sorted(util.items(), key=lambda item: (-item[1], item[0]))[:k]

    # ------------------------------------------------------------------
    # Derived series
    # ------------------------------------------------------------------
    def activation_series(self) -> "np.ndarray":
        """Fraction of compute cells active per cycle (values in [0, 1])."""
        require_numpy("SimStats.activation_series")
        if self.num_cells <= 0:
            return np.zeros(0)
        return np.asarray(self.active_cells_per_cycle, dtype=float) / self.num_cells

    def activation_percent(self) -> "np.ndarray":
        """Percent of compute cells active per cycle (Figures 6 and 7)."""
        return self.activation_series() * 100.0

    def mean_activation(self) -> float:
        """Mean activation fraction across the whole run.

        With numpy present this is bit-for-bit the historical
        ``activation_series().mean()`` (so stored records stay comparable);
        the pure-Python fallback may differ in the last ulp.
        """
        if np is not None:
            series = self.activation_series()
            return float(series.mean()) if series.size else 0.0
        cells = self.active_cells_per_cycle
        if self.num_cells <= 0 or not cells:
            return 0.0
        return sum(c / self.num_cells for c in cells) / len(cells)

    def peak_activation(self) -> float:
        """Peak activation fraction across the whole run."""
        if np is not None:
            series = self.activation_series()
            return float(series.max()) if series.size else 0.0
        cells = self.active_cells_per_cycle
        if self.num_cells <= 0 or not cells:
            return 0.0
        return max(cells) / self.num_cells

    def fingerprint_summary(self, storm_threshold: int) -> Dict[str, float]:
        """Deterministic per-cycle distribution summary for workload
        fingerprinting (see :mod:`repro.fuzz.fingerprint`).

        Pure stdlib arithmetic over the per-cycle series the schedule
        contract already pins, so the summary is identical across kernels
        and across instrumented/uninstrumented runs.  ``storm_threshold``
        is the in-flight message count from which a cycle counts as a
        storm (:data:`repro.fuzz.fingerprint.STORM_THRESHOLD`).
        """
        cycles = len(self.active_cells_per_cycle)
        in_flight = self.messages_in_flight_per_cycle
        deliveries = self.deliveries_per_cycle
        idle = sum(1 for a in self.active_cells_per_cycle if a == 0)
        storm = sum(1 for f in in_flight if f >= storm_threshold)
        return {
            "cycles": cycles,
            "mean_activation": self.mean_activation(),
            "peak_activation": self.peak_activation(),
            "idle_fraction": (idle / cycles) if cycles else 0.0,
            "mean_in_flight": (sum(in_flight) / cycles) if cycles else 0.0,
            "peak_in_flight": max(in_flight, default=0),
            "mean_deliveries": (sum(deliveries) / cycles) if cycles else 0.0,
            "peak_deliveries": max(deliveries, default=0),
            "storm_cycles": storm,
            "storm_fraction": (storm / cycles) if cycles else 0.0,
        }

    def phase_cycles(self) -> Dict[str, int]:
        """Cycles spent in each named phase (difference of consecutive marks)."""
        names = list(self.phase_marks)
        out: Dict[str, int] = {}
        for i, name in enumerate(names):
            start = self.phase_marks[name]
            end = self.phase_marks[names[i + 1]] if i + 1 < len(names) else self.cycles
            out[name] = end - start
        return out

    # ------------------------------------------------------------------
    # Snapshot support (see repro.snapshot)
    # ------------------------------------------------------------------
    _SCALARS = (
        "cycles", "instructions", "messages_staged", "messages_injected",
        "messages_delivered", "hops", "link_busy", "tasks_executed",
        "allocations", "io_injections", "memory_words_allocated",
    )

    def state_dict(self) -> Dict[str, object]:
        """Every counter and series as plain values (snapshot capture)."""
        state: Dict[str, object] = {name: getattr(self, name)
                                    for name in self._SCALARS}
        state["num_cells"] = self.num_cells
        state["active_cells_per_cycle"] = array("q", self.active_cells_per_cycle)
        state["messages_in_flight_per_cycle"] = array(
            "q", self.messages_in_flight_per_cycle)
        state["deliveries_per_cycle"] = array("q", self.deliveries_per_cycle)
        state["link_busy_per_link"] = (None if self.link_busy_per_link is None
                                       else array("q", self.link_busy_per_link))
        state["phase_marks"] = dict(self.phase_marks)
        return state

    def load_state(self, state: Dict[str, object]) -> None:
        """Overwrite all counters and series from :meth:`state_dict` output."""
        for name in self._SCALARS:
            setattr(self, name, state[name])
        self.num_cells = state["num_cells"]
        self.active_cells_per_cycle = list(state["active_cells_per_cycle"])
        self.messages_in_flight_per_cycle = list(state["messages_in_flight_per_cycle"])
        self.deliveries_per_cycle = list(state["deliveries_per_cycle"])
        per_link = state["link_busy_per_link"]
        self.link_busy_per_link = None if per_link is None else list(per_link)
        self.phase_marks = dict(state["phase_marks"])

    # ------------------------------------------------------------------
    def merge_cell_counters(self, instructions: int, staged: int, tasks: int,
                            allocations: int, memory_words: int) -> None:
        """Fold one compute cell's lifetime counters into the aggregate."""
        self.instructions += instructions
        self.messages_staged += staged
        self.tasks_executed += tasks
        self.allocations += allocations
        self.memory_words_allocated += memory_words

    def summary(self) -> Dict[str, float]:
        """A flat dictionary of the headline numbers, for reports and tests."""
        return {
            "cycles": self.cycles,
            "instructions": self.instructions,
            "messages_injected": self.messages_injected,
            "messages_delivered": self.messages_delivered,
            "messages_staged": self.messages_staged,
            "hops": self.hops,
            "hops_untraversed": self.hops_untraversed,
            "tasks_executed": self.tasks_executed,
            "allocations": self.allocations,
            "io_injections": self.io_injections,
            "memory_words_allocated": self.memory_words_allocated,
            "mean_activation": self.mean_activation(),
            "peak_activation": self.peak_activation(),
        }
