"""Property-based scenario fuzzing for the determinism contract.

The repo's central claim — bit-identical schedules across kernels,
snapshot round-trips, busy-cell parking transparency, span hand-off stores
equal to serial ones and observer-only tracing, over statistics that
conserve messages and prepaid hops — is pinned on curated scenarios by
tier-1.  This package pins it on the *space*:

* :mod:`repro.fuzz.strategies` — hypothesis strategies generating valid
  random scenarios over every contract axis, shrinking toward minimal
  reproductions;
* :mod:`repro.fuzz.oracle` — :func:`check_invariants`, the stdlib-only
  differential oracle running one scenario through all six invariants;
* :mod:`repro.fuzz.fingerprint` — workload fingerprinting and regime
  classification (park/diffusion/storm);
* :mod:`repro.fuzz.campaign` — the ``repro fuzz run`` driver: budget
  profiles, per-invariant coverage counters, shrunk-spec corpus output.

Only :mod:`.strategies` and :mod:`.campaign` need hypothesis; the oracle
and the fingerprinting stay importable (and the corpus stays replayable)
on a bare stdlib install, so they are eagerly exported here while the
hypothesis-backed names load lazily on first use.

See docs/fuzzing.md for the workflow.
"""

from __future__ import annotations

from repro.fuzz.fingerprint import (
    FINGERPRINT_VERSION,
    REGIMES,
    classify,
    classify_record,
    fingerprint_record,
)
from repro.fuzz.oracle import (
    INVARIANTS,
    FuzzDivergence,
    InvariantOutcome,
    OracleReport,
    check_invariants,
    first_divergence,
)

_LAZY = {
    "scenarios": "repro.fuzz.strategies",
    "dataset_specs": "repro.fuzz.strategies",
    "chip_specs": "repro.fuzz.strategies",
    "run_campaign": "repro.fuzz.campaign",
    "CampaignResult": "repro.fuzz.campaign",
    "FUZZ_PROFILES": "repro.fuzz.campaign",
    "DEFAULT_CORPUS_DIR": "repro.fuzz.campaign",
    "save_corpus_entry": "repro.fuzz.campaign",
}


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    try:
        module = importlib.import_module(module_name)
    except ImportError as exc:  # pragma: no cover - no-hypothesis installs
        raise ImportError(
            f"repro.fuzz.{name} needs the 'hypothesis' package "
            "(pip install hypothesis, or the [dev] extra)") from exc
    return getattr(module, name)


__all__ = [
    "FINGERPRINT_VERSION",
    "REGIMES",
    "classify",
    "classify_record",
    "fingerprint_record",
    "INVARIANTS",
    "FuzzDivergence",
    "InvariantOutcome",
    "OracleReport",
    "check_invariants",
    "first_divergence",
    *sorted(_LAZY),
]
