"""Chip configuration for the AM-CCA simulator.

A :class:`ChipConfig` bundles every knob of the simulated machine: mesh
dimensions, routing policy, NoC fidelity, IO channel layout, the per-cell
operation rules and the clock used to convert cycles into wall-clock time.

The paper's evaluation platform is a 32x32 chip clocked at 1 GHz with YX
dimension-ordered routing and IO channels along the vertical borders; those
are the defaults here.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Tuple

#: The NoC kernel names ``ChipConfig.kernel`` accepts: ``auto`` resolves to
#: one of the concrete two (see :func:`repro.arch.kernels.resolve_kernel`).
KERNELS = ("auto", "python", "native")


@dataclass(frozen=True)
class ChipConfig:
    """Static description of a simulated AM-CCA chip.

    Parameters
    ----------
    width, height:
        Mesh dimensions in compute cells.  The paper uses ``32 x 32``.
    routing:
        ``"yx"`` (vertical first, the paper's choice) or ``"xy"``.
    fidelity:
        ``"cycle"`` for hop-by-hop flit movement with link contention (the
        array-based fast path), ``"latency"`` for contention-free
        Manhattan-delay delivery (a faster, lower-fidelity mode for very
        large inputs), or ``"cycle-ref"`` for the original dictionary-based
        cycle-accurate implementation kept as the executable specification
        (used by the equivalence tests; identical schedules, slower).
    io_sides:
        Which chip borders carry IO channels.  Any subset of
        ``{"west", "east", "north", "south"}``.  The paper's Figure 2 shows
        IO channels along the two vertical borders (west and east).
    clock_ghz:
        Clock frequency used to convert simulation cycles into seconds.
    link_width_bits:
        Width of a mesh channel link.  The paper assumes 256-bit links so a
        small message fits in a single flit; kept for documentation and for
        sizing checks.
    max_message_words:
        Maximum operand payload (in 32-bit words) that fits in a single-flit
        message.  Larger payloads are charged extra hops by the NoC.
    kernel:
        Implementation of the NoC hot loop, one of :data:`KERNELS`:
        ``"python"`` (pure-Python sweep), ``"native"`` (self-built C sweep,
        requires the compiled ``[native]`` extension; falls back to python
        with a warning when it is not built) or ``"auto"`` (honours the
        ``REPRO_KERNEL`` environment variable, otherwise native when built
        and pure Python when not).
        The kernel is a *speed* knob only: every kernel produces the
        bit-identical deterministic schedule, so it is not part of any
        experiment's identity (see docs/architecture.md).
    """

    width: int = 32
    height: int = 32
    routing: str = "yx"
    fidelity: str = "cycle"
    kernel: str = "auto"
    io_sides: Tuple[str, ...] = ("west", "east")
    clock_ghz: float = 1.0
    link_width_bits: int = 256
    max_message_words: int = 8
    # Default number of ghost-vertex slots per RPVO block and the local
    # edge-list capacity of a block.  These live here because they determine
    # the per-cell memory layout, mirroring the paper's co-design argument.
    edge_list_capacity: int = 16
    ghost_slots: int = 1

    def __post_init__(self) -> None:
        if self.width <= 0 or self.height <= 0:
            raise ValueError("chip dimensions must be positive")
        if self.routing not in ("yx", "xy"):
            raise ValueError(f"unknown routing policy {self.routing!r}")
        if self.fidelity not in ("cycle", "latency", "cycle-ref"):
            raise ValueError(f"unknown NoC fidelity {self.fidelity!r}")
        if self.kernel not in KERNELS:
            raise ValueError(f"unknown kernel {self.kernel!r}")
        bad = set(self.io_sides) - {"west", "east", "north", "south"}
        if bad:
            raise ValueError(f"unknown IO sides: {sorted(bad)}")
        if self.clock_ghz <= 0:
            raise ValueError("clock must be positive")
        if self.edge_list_capacity < 1:
            raise ValueError("edge_list_capacity must be >= 1")
        if self.ghost_slots < 1:
            raise ValueError("ghost_slots must be >= 1")

    # ------------------------------------------------------------------
    # Geometry helpers
    # ------------------------------------------------------------------
    @property
    def num_cells(self) -> int:
        """Total number of compute cells in the mesh."""
        return self.width * self.height

    def coords_of(self, cc_id: int) -> Tuple[int, int]:
        """Return the ``(x, y)`` mesh coordinates of a compute cell."""
        if not 0 <= cc_id < self.num_cells:
            raise ValueError(f"cc_id {cc_id} out of range")
        return cc_id % self.width, cc_id // self.width

    def cc_at(self, x: int, y: int) -> int:
        """Return the compute-cell id at mesh coordinates ``(x, y)``."""
        if not (0 <= x < self.width and 0 <= y < self.height):
            raise ValueError(f"coordinates ({x}, {y}) outside the mesh")
        return y * self.width + x

    def manhattan(self, a: int, b: int) -> int:
        """Manhattan (minimal hop) distance between two compute cells."""
        ax, ay = self.coords_of(a)
        bx, by = self.coords_of(b)
        return abs(ax - bx) + abs(ay - by)

    def neighbors(self, cc_id: int) -> Tuple[int, ...]:
        """Mesh neighbours of a compute cell (2, 3 or 4 cells)."""
        x, y = self.coords_of(cc_id)
        out = []
        if y > 0:
            out.append(self.cc_at(x, y - 1))
        if y < self.height - 1:
            out.append(self.cc_at(x, y + 1))
        if x > 0:
            out.append(self.cc_at(x - 1, y))
        if x < self.width - 1:
            out.append(self.cc_at(x + 1, y))
        return tuple(out)

    def cells_within(self, cc_id: int, hops: int) -> Tuple[int, ...]:
        """All compute cells within ``hops`` Manhattan distance of ``cc_id``."""
        x, y = self.coords_of(cc_id)
        out = []
        for dy in range(-hops, hops + 1):
            rem = hops - abs(dy)
            for dx in range(-rem, rem + 1):
                nx, ny = x + dx, y + dy
                if 0 <= nx < self.width and 0 <= ny < self.height:
                    out.append(self.cc_at(nx, ny))
        return tuple(out)

    # ------------------------------------------------------------------
    # Time conversion
    # ------------------------------------------------------------------
    def cycles_to_seconds(self, cycles: int) -> float:
        """Convert a cycle count into seconds at the configured clock."""
        return cycles / (self.clock_ghz * 1e9)

    def cycles_to_microseconds(self, cycles: int) -> float:
        """Convert a cycle count into microseconds at the configured clock."""
        return self.cycles_to_seconds(cycles) * 1e6

    # ------------------------------------------------------------------
    # Convenience constructors
    # ------------------------------------------------------------------
    def with_(self, **kwargs) -> "ChipConfig":
        """Return a copy of this config with some fields replaced."""
        return replace(self, **kwargs)

    @classmethod
    def paper_chip(cls, **overrides) -> "ChipConfig":
        """The 32x32, 1 GHz chip used throughout the paper's evaluation."""
        base = cls(width=32, height=32, routing="yx", clock_ghz=1.0)
        return base.with_(**overrides) if overrides else base

    @classmethod
    def small(cls, **overrides) -> "ChipConfig":
        """A small 8x8 chip convenient for unit tests and examples."""
        base = cls(width=8, height=8, routing="yx", clock_ghz=1.0)
        return base.with_(**overrides) if overrides else base
