"""Optional-dependency shims (NumPy and matplotlib).

NumPy powers the dataset generators and the analysis series but is an
optional ``[perf]`` extra, not a hard dependency: the simulator (whose NoC
kernels never use it), the runtime and the harness all work without it.
Modules that can degrade import ``np``/``HAVE_NUMPY`` from here; modules
that fundamentally need NumPy (dataset generation, figure rendering) call
:func:`require_numpy` at entry so the failure is a clear, actionable error
instead of an import-time crash.

matplotlib is even more optional: only ``repro report --png`` wants it.
:func:`get_matplotlib` returns a headless (Agg) pyplot module or ``None``,
so callers can skip figure export cleanly instead of crashing.
"""

from __future__ import annotations

try:  # pragma: no cover - exercised by the no-numpy CI job
    import numpy as np

    HAVE_NUMPY = True
except ImportError:  # pragma: no cover - exercised by the no-numpy CI job
    np = None  # type: ignore[assignment]
    HAVE_NUMPY = False


def get_matplotlib():
    """Headless pyplot when matplotlib is installed, ``None`` otherwise."""
    try:  # pragma: no cover - exercised only where matplotlib is present
        import matplotlib
    except ImportError:
        return None
    matplotlib.use("Agg")  # never require a display
    import matplotlib.pyplot as plt

    return plt


def require_numpy(feature: str) -> None:
    """Raise a clear error when ``feature`` is used without NumPy installed."""
    if np is None:
        raise RuntimeError(
            f"{feature} requires numpy; install it with the [perf] extra "
            "(pip install repro-amcca[perf]) or pip install numpy"
        )
