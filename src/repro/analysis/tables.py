"""Table rendering and the Table 1 (dataset increments) reproduction.

Table 2 (energy/time) rows are a view over harness records:
:func:`repro.harness.report.table2_rows_from_records`.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.datasets.streaming import StreamingDataset


def table1_rows(datasets: Sequence[StreamingDataset]) -> List[Dict[str, object]]:
    """Rows of Table 1: edges per streaming increment and final edge count.

    One row per dataset configuration (vertices x sampling type), with the
    ten increment sizes and the total, exactly the columns of the paper's
    Table 1.
    """
    rows: List[Dict[str, object]] = []
    for dataset in datasets:
        sizes = dataset.increment_sizes()
        row: Dict[str, object] = {
            "Vertices": dataset.num_vertices,
            "Sampling Type": dataset.sampling.capitalize(),
        }
        for i, size in enumerate(sizes, start=1):
            row[f"Inc {i}"] = size
        row["Final Edges"] = dataset.total_edges
        rows.append(row)
    return rows


def render_table(rows: Sequence[Dict[str, object]], max_width: int = 14) -> str:
    """Render dictionaries as an aligned ASCII table (first row fixes columns)."""
    if not rows:
        return "(empty table)"
    columns = list(rows[0].keys())

    def fmt(value: object) -> str:
        if isinstance(value, float):
            text = f"{value:,.2f}"
        elif isinstance(value, int):
            text = f"{value:,}"
        else:
            text = str(value)
        return text if len(text) <= max_width else text[: max_width - 1] + "…"

    widths = {
        col: max(len(col), *(len(fmt(row.get(col, ""))) for row in rows)) for col in columns
    }
    header = " | ".join(col.ljust(widths[col]) for col in columns)
    divider = "-+-".join("-" * widths[col] for col in columns)
    body = [
        " | ".join(fmt(row.get(col, "")).rjust(widths[col]) for col in columns)
        for row in rows
    ]
    return "\n".join([header, divider, *body])
