"""Trace recording for visualisation and debugging.

The paper produces animations of the chip from simulation traces showing how
streaming dynamic BFS transfers parallel control over the cellular grid.
:class:`TraceRecorder` captures, at a configurable sampling interval, a 2-D
snapshot of per-cell activity which can be rendered as ASCII frames or
dumped to ``.npz`` for external plotting.

Frames are plain row-major :class:`bytearray` grids (one byte per cell), so
capture and ASCII rendering work on the stdlib alone; only the ``.npz``
export/import path requires numpy, imported there through
:func:`repro._compat.require_numpy`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Tuple

from repro._compat import require_numpy
from repro.arch.config import ChipConfig

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np


@dataclass
class TraceRecorder:
    """Samples a per-cell activity grid every ``sample_every`` cycles."""

    config: ChipConfig
    sample_every: int = 0  # 0 disables tracing
    frames: List[bytearray] = field(default_factory=list)
    frame_cycles: List[int] = field(default_factory=list)

    @property
    def enabled(self) -> bool:
        return self.sample_every > 0

    def maybe_record(self, cycle: int, active_cell_ids) -> None:
        """Record a frame if the cycle falls on the sampling grid."""
        if not self.enabled or cycle % self.sample_every != 0:
            return
        width = self.config.width
        grid = bytearray(width * self.config.height)
        for cc in active_cell_ids:
            x, y = self.config.coords_of(cc)
            grid[y * width + x] = 1
        self.frames.append(grid)
        self.frame_cycles.append(cycle)

    # ------------------------------------------------------------------
    def frame_at(self, index: int, x: int, y: int) -> int:
        """Activity (0/1) of cell ``(x, y)`` in the ``index``-th frame."""
        return self.frames[index][y * self.config.width + x]

    def frame_rows(self, index: int) -> List[bytearray]:
        """The ``index``-th frame as a list of row bytearrays (top first)."""
        grid, width = self.frames[index], self.config.width
        return [grid[r:r + width] for r in range(0, len(grid), width)]

    def ascii_frame(self, index: int, on: str = "#", off: str = ".") -> str:
        """Render one captured frame as an ASCII grid."""
        return "\n".join("".join(on if v else off for v in row)
                         for row in self.frame_rows(index))

    def ascii_animation(self, max_frames: int = 20) -> str:
        """A compact multi-frame ASCII rendering (for examples and docs)."""
        if not self.frames:
            return "(no frames recorded)"
        step = max(1, len(self.frames) // max_frames)
        chunks = []
        for i in range(0, len(self.frames), step):
            chunks.append(f"cycle {self.frame_cycles[i]}:\n{self.ascii_frame(i)}")
        return "\n\n".join(chunks)

    def save_npz(self, path: str) -> None:
        """Save all frames to a compressed ``.npz`` file (requires numpy)."""
        np = require_numpy("trace export")
        if self.frames:
            shape = (len(self.frames), self.config.height, self.config.width)
            frames = np.frombuffer(b"".join(self.frames),
                                   dtype=np.uint8).reshape(shape)
        else:
            frames = np.zeros((0, 0, 0), dtype=np.uint8)
        np.savez_compressed(
            path,
            frames=frames,
            cycles=np.asarray(self.frame_cycles, dtype=np.int64),
        )

    @staticmethod
    def load_npz(path: str) -> "Tuple[np.ndarray, np.ndarray]":
        """Load frames saved by :meth:`save_npz` (requires numpy)."""
        np = require_numpy("trace import")
        data = np.load(path)
        return data["frames"], data["cycles"]
