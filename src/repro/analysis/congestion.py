"""Congestion analysis: where and why the chip serializes.

The paper attributes the longer snowball-sampling ingestion times to
"congestion on a few compute cells that host these [frontier] vertices".
This module quantifies that effect from a finished run:

* per-cell load (tasks executed, instructions, messages staged),
* load-imbalance metrics (max/mean ratio, Gini coefficient),
* a hotspot list of the most loaded cells together with the vertices they
  host, and
* an ASCII heat map of per-cell load for eyeballing hotspots.

Available to users as ``repro.analysis.congestion``, for example to compare
the snowball and edge sampling orders.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro._compat import np, require_numpy
from repro.arch.config import ChipConfig
from repro.graph.graph import DynamicGraph
from repro.runtime.device import AMCCADevice


@dataclass
class CongestionReport:
    """Load-distribution summary of one simulated run."""

    per_cell_tasks: np.ndarray
    per_cell_instructions: np.ndarray
    per_cell_staged: np.ndarray
    config: ChipConfig
    hotspots: List[Dict[str, object]] = field(default_factory=list)

    # ------------------------------------------------------------------
    @property
    def total_tasks(self) -> int:
        return int(self.per_cell_tasks.sum())

    @property
    def max_over_mean(self) -> float:
        """How much hotter the busiest cell is than the average cell."""
        mean = self.per_cell_tasks.mean()
        if mean == 0:
            return 0.0
        return float(self.per_cell_tasks.max() / mean)

    @property
    def gini(self) -> float:
        """Gini coefficient of per-cell task counts (0 = balanced, 1 = one cell)."""
        loads = np.sort(self.per_cell_tasks.astype(float))
        total = loads.sum()
        if total == 0:
            return 0.0
        n = loads.size
        cumulative = np.cumsum(loads)
        # Standard discrete Gini formula over the sorted loads.
        return float((n + 1 - 2 * (cumulative.sum() / total)) / n)

    def busiest_cells(self, k: int = 10) -> List[Tuple[int, int]]:
        """The k busiest cells as (cc_id, tasks) pairs, busiest first."""
        order = np.argsort(self.per_cell_tasks)[::-1][:k]
        return [(int(cc), int(self.per_cell_tasks[cc])) for cc in order]

    # ------------------------------------------------------------------
    def heatmap(self, shades: str = " .:-=+*#%@") -> str:
        """ASCII heat map of per-cell task counts (darker = busier)."""
        peak = max(1, int(self.per_cell_tasks.max()))
        rows = []
        for y in range(self.config.height):
            row = []
            for x in range(self.config.width):
                load = int(self.per_cell_tasks[self.config.cc_at(x, y)])
                row.append(shades[min(len(shades) - 1, round((len(shades) - 1) * load / peak))])
            rows.append("".join(row))
        return "\n".join(rows)

    def summary(self) -> Dict[str, float]:
        return {
            "total_tasks": float(self.total_tasks),
            "max_over_mean": self.max_over_mean,
            "gini": self.gini,
            "busiest_cell_tasks": float(self.per_cell_tasks.max()),
            "idle_cells": float((self.per_cell_tasks == 0).sum()),
        }


def analyze_congestion(device: AMCCADevice,
                       graph: Optional[DynamicGraph] = None,
                       hotspot_count: int = 5) -> CongestionReport:
    """Build a :class:`CongestionReport` from a device after a run.

    If ``graph`` is given, each hotspot entry also lists the vertices whose
    root blocks live on that cell and their degrees, which is how the
    snowball frontier congestion becomes visible.
    """
    require_numpy("congestion analysis")
    config = device.config
    cells = device.simulator.cells
    tasks = np.array([c.tasks_executed for c in cells], dtype=np.int64)
    instructions = np.array([c.instructions_executed for c in cells], dtype=np.int64)
    staged = np.array([c.messages_staged for c in cells], dtype=np.int64)

    report = CongestionReport(
        per_cell_tasks=tasks,
        per_cell_instructions=instructions,
        per_cell_staged=staged,
        config=config,
    )

    vertices_by_cell: Dict[int, List[int]] = {}
    if graph is not None:
        for vid, addr in graph.vertex_addrs.items():
            vertices_by_cell.setdefault(addr.cc_id, []).append(vid)

    for cc_id, load in report.busiest_cells(hotspot_count):
        entry: Dict[str, object] = {
            "cc_id": cc_id,
            "coords": config.coords_of(cc_id),
            "tasks": load,
            "instructions": int(instructions[cc_id]),
            "messages_staged": int(staged[cc_id]),
        }
        if graph is not None:
            hosted = vertices_by_cell.get(cc_id, [])
            degrees = sorted(((graph.degree(v), v) for v in hosted), reverse=True)[:5]
            entry["hosted_vertices"] = len(hosted)
            entry["hottest_vertices"] = [
                {"vid": v, "degree": d} for d, v in degrees
            ]
        report.hotspots.append(entry)
    return report


def compare_sampling_congestion(edge_report: CongestionReport,
                                snowball_report: CongestionReport) -> Dict[str, float]:
    """Head-to-head congestion metrics for the two sampling orders."""
    return {
        "edge_max_over_mean": edge_report.max_over_mean,
        "snowball_max_over_mean": snowball_report.max_over_mean,
        "edge_gini": edge_report.gini,
        "snowball_gini": snowball_report.gini,
        "snowball_more_skewed": float(
            snowball_report.max_over_mean > edge_report.max_over_mean
        ),
    }
