"""Workload fingerprinting: regime labels for simulated runs.

A *fingerprint* is a small deterministic summary of a run's dynamic
behaviour — activation density, in-flight message distribution, idle
time — and a *classification* turns it into a regime label.

:func:`fingerprint_record` reads a stored result record, the one source
``repro fuzz classify``, ``repro report --tables fuzz`` and the fuzz
oracle use.  The per-cycle series is only present there as fixed-bucket
histograms, so idle/storm fractions are bucket-resolution estimates
(flagged by ``"exact": False``).  The extraction is pure stdlib
arithmetic over schedule-contract data, so a fingerprint is identical
fidelity-for-fidelity, and across instrumented and uninstrumented runs —
which is itself one of the properties the fuzz self-tests pin.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Dict, List

#: Classification version, embedded in every classification so stored
#: labels can be invalidated if the rules change.
FINGERPRINT_VERSION = 2

#: In-flight message count from which a cycle counts as a storm.
STORM_THRESHOLD = 768

#: The regimes :func:`classify` can emit, from coldest to hottest.
REGIMES = ("parked", "sparse-diffusion", "dense-diffusion", "storm")


# ----------------------------------------------------------------------
# Record extraction (histogram-resolution estimates)
# ----------------------------------------------------------------------
def _gauge(metrics: Dict[str, Any], name: str) -> float:
    return metrics[name]["series"][0]["value"]


def _histogram(metrics: Dict[str, Any], name: str):
    entry = metrics[name]
    cell = entry["series"][0]["value"]
    return list(entry["buckets"]), cell["buckets"], cell["sum"], cell["count"]


def _count_above(bounds: List[int], cumulative: List[int], count: int,
                 threshold: int) -> int:
    """Upper estimate of how many values are ``>= threshold``.

    ``cumulative[i]`` counts values ``<= bounds[i]``; the estimate uses the
    largest bound strictly below the threshold, so it can only over-count
    (by values between that bound and the threshold).
    """
    idx = bisect_left(bounds, threshold) - 1
    below = cumulative[idx] if idx >= 0 else 0
    return count - below


def fingerprint_record(record: Dict[str, Any],
                       threshold: int = STORM_THRESHOLD) -> Dict[str, Any]:
    """Fingerprint reconstructed from a stored result record.

    Means and peaks are exact (they ride in ``record["stats"]`` and the
    metric gauges); idle and storm fractions come from the power-of-two
    per-cycle histograms, so they are bucket-resolution estimates.
    """
    metrics = record["metrics"]
    stats = record["stats"]
    cycles = stats["cycles"]

    act_bounds, act_cum, _act_sum, act_count = _histogram(
        metrics, "sim_active_cells_per_cycle")
    # bounds start at 0, so cumulative[0] counts exactly the idle cycles.
    idle = act_cum[0] if act_bounds and act_bounds[0] == 0 else 0

    fl_bounds, fl_cum, fl_sum, fl_count = _histogram(
        metrics, "sim_messages_in_flight_per_cycle")
    dl_bounds, dl_cum, dl_sum, dl_count = _histogram(
        metrics, "sim_deliveries_per_cycle")
    storm = _count_above(fl_bounds, fl_cum, fl_count, threshold)

    return {
        "cycles": cycles,
        "mean_activation": stats["mean_activation"],
        "peak_activation": stats["peak_activation"],
        "idle_fraction": (idle / act_count) if act_count else 0.0,
        "mean_in_flight": (fl_sum / fl_count) if fl_count else 0.0,
        "peak_in_flight": _gauge(metrics, "sim_peak_messages_in_flight"),
        "mean_deliveries": (dl_sum / dl_count) if dl_count else 0.0,
        "peak_deliveries": _count_peak_deliveries(dl_bounds, dl_cum, dl_count),
        "storm_cycles": storm,
        "storm_fraction": (storm / fl_count) if fl_count else 0.0,
        "storm_threshold": threshold,
        "exact": False,
    }


def _count_peak_deliveries(bounds: List[int], cumulative: List[int],
                           count: int) -> int:
    """Bucket-resolution peak: the smallest bound covering every value."""
    for bound, cum in zip(bounds, cumulative):
        if cum == count:
            return bound
    # Some value exceeded the last finite bound; report that bound as the
    # (under-)estimate rather than inventing a number.
    return bounds[-1] if bounds else 0


# ----------------------------------------------------------------------
# Classification
# ----------------------------------------------------------------------
def classify(fingerprint: Dict[str, Any]) -> Dict[str, Any]:
    """Regime label for a fingerprint.

    Rules, first match wins:

    * **storm** — some cycle's in-flight load reached the storm threshold.
    * **parked** — the chip idles half the run and almost never lights up:
      the cycles go to messages in flight and long instruction burns, not
      to cell operations.
    * **dense-diffusion** — a quarter of the cells active on an average
      cycle; compute-bound rather than NoC-bound.
    * **sparse-diffusion** — everything else: steady trickle of work.
    """
    peak = fingerprint["peak_in_flight"]
    threshold = fingerprint["storm_threshold"]
    if peak >= threshold:
        regime = "storm"
    elif (fingerprint["idle_fraction"] >= 0.5
          and fingerprint["mean_activation"] < 0.05):
        regime = "parked"
    elif fingerprint["mean_activation"] >= 0.25:
        regime = "dense-diffusion"
    else:
        regime = "sparse-diffusion"
    return {
        "version": FINGERPRINT_VERSION,
        "regime": regime,
        "storm_headroom": (peak / threshold) if threshold else 0.0,
    }


def classify_record(record: Dict[str, Any],
                    threshold: int = STORM_THRESHOLD) -> Dict[str, Any]:
    """One flat classification row for a stored record (CLI / report)."""
    fingerprint = fingerprint_record(record, threshold)
    out = classify(fingerprint)
    out.update(
        name=record["name"],
        spec_hash=record["spec_hash"][:12],
        cycles=fingerprint["cycles"],
        mean_activation=round(fingerprint["mean_activation"], 4),
        idle_fraction=round(fingerprint["idle_fraction"], 4),
        peak_in_flight=fingerprint["peak_in_flight"],
        storm_fraction=round(fingerprint["storm_fraction"], 4),
    )
    return out
