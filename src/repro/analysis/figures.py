"""Figure data and terminal plots.

* :class:`FigureData` -- named series ready to plot or assert on.  The
  Figure 8/9 series (cycles per increment, "Streaming Edges" vs "Streaming
  Edges with BFS") are built from harness records by
  :func:`repro.harness.report.increment_figures_from_records`; the Figure
  6/7 series (percent of cells active per cycle,
  :func:`activation_percent`) come off the device that
  :func:`repro.harness.run_scenario_traced` returns.
* :func:`render_ascii_plot` -- a terminal rendering used by the examples and
  the CLI so the figures can be eyeballed without matplotlib (which is not a
  dependency of this project).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

from repro._compat import require_numpy

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np


@dataclass
class FigureData:
    """A named collection of series, ready to plot or assert on."""

    title: str
    x_label: str
    y_label: str
    series: Dict[str, np.ndarray] = field(default_factory=dict)

    def add(self, label: str, values: Sequence[float]) -> None:
        np = require_numpy("figure series")
        self.series[label] = np.asarray(values, dtype=float)


def activation_percent(device) -> np.ndarray:
    """Percent of compute cells active per cycle (Figures 6 and 7).

    Reads the per-cycle active-cell series that only a device returned by
    :func:`repro.harness.run_scenario_traced` keeps.
    """
    np = require_numpy("the activation series")
    sim = device.simulator
    if sim.active_series is None:
        raise ValueError("the device kept no activation series; "
                         "run the scenario through run_scenario_traced")
    return np.asarray(sim.active_series, dtype=float) / sim.config.num_cells * 100.0


def downsample_series(values: Sequence[float], max_points: int = 200) -> np.ndarray:
    """Downsample a long per-cycle series by block averaging (for plotting)."""
    np = require_numpy("figure series downsampling")
    arr = np.asarray(values, dtype=float)
    if arr.size <= max_points or max_points <= 0:
        return arr
    block = int(np.ceil(arr.size / max_points))
    pad = (-arr.size) % block
    if pad:
        arr = np.concatenate([arr, np.full(pad, arr[-1])])
    return arr.reshape(-1, block).mean(axis=1)


def render_ascii_plot(
    fig: FigureData,
    width: int = 72,
    height: int = 16,
    max_points: Optional[int] = None,
) -> str:
    """Render a FigureData as a rough ASCII line plot."""
    lines: List[str] = [fig.title, ""]
    markers = "*o+x#%"
    all_values = [v for series in fig.series.values() for v in series if math.isfinite(v)]
    if not all_values:
        return fig.title + "\n(no data)"
    y_max = max(all_values) or 1.0
    y_min = min(0.0, min(all_values))
    span = (y_max - y_min) or 1.0

    canvas = [[" "] * width for _ in range(height)]
    for s_idx, (label, series) in enumerate(fig.series.items()):
        data = downsample_series(series, max_points or width)
        if data.size == 0:
            continue
        marker = markers[s_idx % len(markers)]
        for i, value in enumerate(data):
            x = int(i * (width - 1) / max(1, data.size - 1))
            y = int((value - y_min) / span * (height - 1))
            row = height - 1 - min(max(y, 0), height - 1)
            canvas[row][x] = marker

    y_axis_width = len(f"{y_max:.0f}")
    for r, row in enumerate(canvas):
        y_value = y_max - (r / (height - 1)) * span if height > 1 else y_max
        prefix = f"{y_value:>{y_axis_width}.0f} |" if r % 4 == 0 else " " * y_axis_width + " |"
        lines.append(prefix + "".join(row))
    lines.append(" " * y_axis_width + " +" + "-" * width)
    lines.append(" " * (y_axis_width + 2) + f"{fig.x_label} ->")
    legend = "   ".join(
        f"{markers[i % len(markers)]} {label}" for i, label in enumerate(fig.series)
    )
    lines.append(legend)
    return "\n".join(lines)
