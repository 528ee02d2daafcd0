"""The NoC kernel name a chip runs on.

The cycle-accurate NoC has one implementation, the pure-Python link sweep
of :class:`repro.arch.noc.CycleAccurateNoC`, so every chip resolves to
``"python"``.  Benchmark reports record this name in their environment.
"""

from __future__ import annotations

from repro.arch.config import ChipConfig


def resolve_kernel(config: ChipConfig) -> str:
    """The NoC kernel ``config`` runs on: always ``"python"``."""
    return "python"
