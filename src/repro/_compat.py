"""Optional-dependency shims (NumPy and matplotlib).

NumPy powers the dataset generators and the analysis series but is an
optional ``[perf]`` extra, not a hard dependency: the simulator (whose NoC
never uses it), the runtime and the harness all work without it.
No module imports it at module level, so ``repro serve``, its pool workers
and a uniform-graph run never load it.  :data:`HAVE_NUMPY` says whether it
is installed without importing it; every function that uses NumPy starts
with ``np = require_numpy(feature)``, which imports it on first use, or
fails with a clear, actionable error instead of an import-time crash.

matplotlib is even more optional: only ``repro report --png`` wants it.
:func:`get_matplotlib` returns a headless (Agg) pyplot module or ``None``,
so callers can skip figure export cleanly instead of crashing.
"""

from __future__ import annotations

import importlib.util
from types import ModuleType


# Found, not imported.  ``sys.modules["numpy"] = None`` (how a test blocks
# it) reads as not installed; a blocking import hook raises ImportError.
try:
    HAVE_NUMPY = importlib.util.find_spec("numpy") is not None
except (ImportError, ValueError):  # pragma: no cover - blocked or odd installs
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


def require_numpy(feature: str) -> ModuleType:
    """The ``numpy`` module, imported on first use.

    Raises a clear error naming ``feature`` when NumPy is not installed.
    """
    try:
        import numpy
    except ImportError as exc:
        raise RuntimeError(
            f"{feature} requires numpy; install it with the [perf] extra "
            "(pip install repro-amcca[perf]) or pip install numpy"
        ) from exc
    return numpy
