"""Observability: structured tracing, metrics registry, profiling hooks.

Stdlib-only and strictly observer-only — see docs/observability.md for the
contract: attaching any of these must not change a single scheduled event,
result record byte, or snapshot ``state_hash``.
"""

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    LATENCY_BUCKETS_S,
    MetricsRegistry,
    POW2_BUCKETS,
    record_metrics,
)
from repro.obs.profiling import (
    collapse_stats,
    profile_to_collapsed,
    write_collapsed,
)
from repro.obs.tracing import (
    Tracer,
    derive_trace_path,
    validate_trace,
    validate_trace_file,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "LATENCY_BUCKETS_S",
    "MetricsRegistry",
    "POW2_BUCKETS",
    "Tracer",
    "collapse_stats",
    "derive_trace_path",
    "profile_to_collapsed",
    "record_metrics",
    "validate_trace",
    "validate_trace_file",
    "write_collapsed",
]
