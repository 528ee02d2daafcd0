"""Analysis and reporting: rendering the paper's tables and figures.

Runs go through the experiment harness (:mod:`repro.harness`); this package
renders what they produce.

* :mod:`repro.analysis.tables` -- Table 1 (dataset increments) rows and the
  ASCII table renderer every report uses.
* :mod:`repro.analysis.figures` -- ``FigureData`` series for Figures 6-9
  plus ASCII plotting helpers.
"""

from repro.analysis.figures import downsample_series, render_ascii_plot
from repro.analysis.tables import render_table, table1_rows

__all__ = [
    "downsample_series",
    "render_ascii_plot",
    "render_table",
    "table1_rows",
]
