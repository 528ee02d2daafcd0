"""Simulation statistics: per-cycle activation and aggregate counters.

The paper reports two kinds of architecture-level measurements:

* *cycles per streaming increment* (Figures 8 and 9), and
* *percent of compute cells active per cycle* (Figures 6 and 7).

:class:`SimStats` collects the aggregates of both, plus the raw event counts
(instructions, staged messages, hops, allocations, IO injections) that drive
the energy model of :mod:`repro.arch.energy`.  Each per-cycle quantity is
kept as a count of cycles per value, so the statistics stay the same size
however long the run.  The per-cycle activation series itself is kept only
on a traced run (``Simulator.active_series``).
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from itertools import chain
from typing import Dict


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

    #: Cycles per value of each per-cycle quantity:
    #: ``cycles_by_active_cells[k]`` is the number of cycles in which
    #: ``k`` compute cells were active (parked cells included).
    cycles_by_active_cells: Dict[int, int] = field(default_factory=dict)
    cycles_by_in_flight: Dict[int, int] = field(default_factory=dict)
    cycles_by_deliveries: Dict[int, int] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # Derived values
    # ------------------------------------------------------------------
    def mean_activation(self) -> float:
        """Mean fraction of compute cells active per cycle over the run.

        One division of exact integers, so it is correctly rounded and
        the same on every install.
        """
        counts = self.cycles_by_active_cells
        cycles = sum(counts.values())
        if self.num_cells <= 0 or not cycles:
            return 0.0
        active = sum(value * times for value, times in counts.items())
        return active / (self.num_cells * cycles)

    def peak_activation(self) -> float:
        """Peak activation fraction across the whole run."""
        if self.num_cells <= 0:
            return 0.0
        return max(self.cycles_by_active_cells, default=0) / self.num_cells

    # ------------------------------------------------------------------
    # Snapshot support (see repro.snapshot)
    # ------------------------------------------------------------------
    _SCALARS = (
        "cycles", "instructions", "messages_staged", "messages_injected",
        "messages_delivered", "hops", "link_busy", "tasks_executed",
        "allocations", "io_injections", "memory_words_allocated",
    )
    _COUNTS = ("cycles_by_active_cells", "cycles_by_in_flight",
               "cycles_by_deliveries")

    def state_dict(self) -> Dict[str, object]:
        """Every counter as plain values (snapshot capture).

        Each count is one int64 column of ``(value, cycles)`` pairs in
        value order, so equal statistics encode to equal bytes.
        """
        state: Dict[str, object] = {name: getattr(self, name)
                                    for name in self._SCALARS}
        state["num_cells"] = self.num_cells
        for name in self._COUNTS:
            state[name] = array(
                "q", chain.from_iterable(sorted(getattr(self, name).items())))
        return state

    def load_state(self, state: Dict[str, object]) -> None:
        """Overwrite all counters from :meth:`state_dict` output."""
        for name in self._SCALARS:
            setattr(self, name, state[name])
        self.num_cells = state["num_cells"]
        for name in self._COUNTS:
            pairs = state[name]
            if len(pairs) % 2:
                raise ValueError(f"{name} holds an odd number of entries")
            setattr(self, name, dict(zip(pairs[::2], pairs[1::2])))

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
