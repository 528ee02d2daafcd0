"""Energy and time model for the AM-CCA chip.

The paper (Table 2) reports estimated energy in microjoules and execution
time in microseconds for a 32x32 chip clocked at 1 GHz, using the energy
assumptions of the authors' prior work.  We reproduce the *structure* of
that model: total energy is a weighted sum of counted architectural events
(instructions executed, messages created, link hops traversed, memory words
allocated, IO injections) plus a per-cell per-cycle static/leakage term.

The default per-event constants are order-of-magnitude figures for a
near-memory compute cell in a contemporary process node; they are plain
dataclass fields, so calibration against any published numbers is a one-line
change.  Every reproduced table uses the defaults below.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.arch.config import ChipConfig
from repro.arch.stats import SimStats


@dataclass(frozen=True)
class EnergyModel:
    """Per-event energy constants, in picojoules.

    Attributes
    ----------
    pj_per_instruction:
        Energy of one action instruction executed by a compute cell's logic
        (register-file + scratchpad access + ALU).
    pj_per_message_create:
        Energy of creating and staging one message (``propagate``).
    pj_per_hop:
        Energy of moving one flit across one mesh link (wires + router).
    pj_per_word_allocated:
        Energy of allocating/initialising one word of scratchpad memory.
    pj_per_io_injection:
        Energy of an IO cell reading one edge and forming its message.
    pj_static_per_cell_cycle:
        Static/leakage energy of one compute cell for one cycle.
    """

    pj_per_instruction: float = 12.0
    pj_per_message_create: float = 18.0
    pj_per_hop: float = 42.0
    pj_per_word_allocated: float = 6.0
    pj_per_io_injection: float = 20.0
    pj_static_per_cell_cycle: float = 0.05

    def describe(self) -> Dict[str, float]:
        """The constants as a plain dictionary (for reports)."""
        return {
            "pj_per_instruction": self.pj_per_instruction,
            "pj_per_message_create": self.pj_per_message_create,
            "pj_per_hop": self.pj_per_hop,
            "pj_per_word_allocated": self.pj_per_word_allocated,
            "pj_per_io_injection": self.pj_per_io_injection,
            "pj_static_per_cell_cycle": self.pj_static_per_cell_cycle,
        }


@dataclass
class EnergyReport:
    """Energy breakdown (microjoules) and execution time (microseconds)."""

    dynamic_uj: float
    static_uj: float
    breakdown_uj: Dict[str, float] = field(default_factory=dict)
    cycles: int = 0
    time_us: float = 0.0

    @property
    def total_uj(self) -> float:
        """Total (dynamic + static) energy in microjoules."""
        return self.dynamic_uj + self.static_uj

    def as_dict(self) -> Dict[str, float]:
        out = dict(self.breakdown_uj)
        out.update(
            {
                "dynamic_uj": self.dynamic_uj,
                "static_uj": self.static_uj,
                "total_uj": self.total_uj,
                "cycles": float(self.cycles),
                "time_us": self.time_us,
            }
        )
        return out


def estimate_energy(stats: SimStats, config: ChipConfig,
                    model: EnergyModel | None = None) -> EnergyReport:
    """Compute the energy/time estimate for a finished simulation run.

    The estimate is a pure function of the event counters in ``stats`` and
    the constants in ``model``; it never re-runs the simulation.
    """
    model = model or EnergyModel()
    pj = {
        "instructions": stats.instructions * model.pj_per_instruction,
        "messages": stats.messages_staged * model.pj_per_message_create,
        "hops": stats.hops * model.pj_per_hop,
        "allocation": stats.memory_words_allocated * model.pj_per_word_allocated,
        "io": stats.io_injections * model.pj_per_io_injection,
    }
    dynamic_uj = sum(pj.values()) * 1e-6
    static_uj = (
        stats.cycles * config.num_cells * model.pj_static_per_cell_cycle * 1e-6
    )
    breakdown_uj = {k: v * 1e-6 for k, v in pj.items()}
    return EnergyReport(
        dynamic_uj=dynamic_uj,
        static_uj=static_uj,
        breakdown_uj=breakdown_uj,
        cycles=stats.cycles,
        time_us=config.cycles_to_microseconds(stats.cycles),
    )
