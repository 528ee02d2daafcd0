"""Typed metrics: counters, gauges and histograms with labels.

:class:`MetricsRegistry` is the one metrics surface of the repository.  It
serves two distinct producers, with one hard line between them:

* **Record metrics** (:func:`record_metrics`) are derived purely from the
  deterministic :class:`~repro.arch.stats.SimStats` of a finished run —
  integer counters and fixed-bucket histograms over the per-cycle series.
  They are embedded in every result-store record under a ``metrics`` key,
  *unconditionally*: because the values are part of the pinned schedule
  (identical across kernels, tracing on or off), records stay
  byte-identical whether or not any instrumentation was attached.
* **Runtime metrics** (pool queue depth and task latency, store rewrites,
  cache hits, wall times) are nondeterministic or kernel-dependent.  They
  live only in an exported registry (``repro suite run --metrics-out`` /
  ``repro metrics``) and are **never** written into records.

Export formats: a JSON snapshot (:meth:`MetricsRegistry.snapshot`, also the
embedded-record form, read back by :meth:`MetricsRegistry.merge_snapshot`)
and the Prometheus text exposition format
(:meth:`MetricsRegistry.to_prometheus`) that ``repro serve`` hands to a
scraper on ``/metrics``.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Any, Dict, List, Optional, Sequence, Tuple

LabelKey = Tuple[str, ...]

#: Power-of-two upper bounds for the per-cycle distribution histograms.
#: Fixed forever (they are embedded in records): changing them is a record
#: schema change and needs a version bump.
POW2_BUCKETS: Tuple[int, ...] = (0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512,
                                 1024, 2048, 4096)

#: Default latency buckets (seconds) for runtime duration histograms.
LATENCY_BUCKETS_S: Tuple[float, ...] = (0.001, 0.005, 0.025, 0.1, 0.5, 1.0,
                                        5.0, 30.0, 120.0, 600.0)


def _label_key(label_names: Sequence[str], labels: Dict[str, str]) -> LabelKey:
    if set(labels) != set(label_names):
        raise ValueError(
            f"labels {sorted(labels)} do not match declared {sorted(label_names)}")
    return tuple(str(labels[name]) for name in label_names)


class Metric:
    """Base class: one named metric family with a fixed label set."""

    kind = "untyped"

    def __init__(self, name: str, help: str,
                 label_names: Sequence[str] = ()) -> None:
        self.name = name
        self.help = help
        self.label_names: Tuple[str, ...] = tuple(label_names)
        self.series: Dict[LabelKey, Any] = {}

    def _series_dicts(self) -> List[Dict[str, Any]]:
        out = []
        for key in sorted(self.series):
            out.append({
                "labels": dict(zip(self.label_names, key)),
                "value": self.series[key],
            })
        return out


class Counter(Metric):
    """Monotonically increasing count (``*_total`` by convention)."""

    kind = "counter"

    def inc(self, amount: float = 1, **labels: str) -> None:
        key = _label_key(self.label_names, labels)
        self.series[key] = self.series.get(key, 0) + amount


class Gauge(Metric):
    """A point-in-time value that can go up and down."""

    kind = "gauge"

    def set(self, value: float, **labels: str) -> None:
        self.series[_label_key(self.label_names, labels)] = value

    def add(self, amount: float, **labels: str) -> None:
        key = _label_key(self.label_names, labels)
        self.series[key] = self.series.get(key, 0) + amount


class Histogram(Metric):
    """Fixed-bucket histogram: cumulative bucket counts + sum + count.

    Stored per label set as ``{"buckets": [...], "sum": s, "count": n}``
    where ``buckets[i]`` counts observations ``<= bounds[i]`` (cumulative,
    Prometheus-style) and an implicit ``+Inf`` bucket equals ``count``.
    """

    kind = "histogram"

    def __init__(self, name: str, help: str,
                 label_names: Sequence[str] = (),
                 buckets: Sequence[float] = LATENCY_BUCKETS_S) -> None:
        super().__init__(name, help, label_names)
        self.bounds: Tuple[float, ...] = tuple(buckets)
        if list(self.bounds) != sorted(self.bounds):
            raise ValueError("histogram buckets must be sorted ascending")

    def _cell(self, key: LabelKey) -> Dict[str, Any]:
        cell = self.series.get(key)
        if cell is None:
            cell = self.series[key] = {
                "buckets": [0] * len(self.bounds), "sum": 0, "count": 0,
            }
        return cell

    def observe(self, value: float, **labels: str) -> None:
        cell = self._cell(_label_key(self.label_names, labels))
        i = bisect_left(self.bounds, value)
        buckets = cell["buckets"]
        for j in range(i, len(buckets)):
            buckets[j] += 1
        cell["sum"] += value
        cell["count"] += 1


class MetricsRegistry:
    """A named collection of metrics with deterministic serialisation.

    Single-threaded producers (the runner, the record path) use the
    registry directly.  Concurrent producers — ``repro serve`` updates
    counters from scheduler and request threads while ``/metrics`` renders
    — must wrap mutations in ``with registry.locked():`` so an in-progress
    series insertion can never race a :meth:`snapshot` /
    :meth:`to_prometheus` iteration.  Both renderers always take the lock
    themselves, so uncontended single-threaded use pays one uncontended
    RLock acquire per export and nothing per update.
    """

    def __init__(self) -> None:
        self._metrics: Dict[str, Metric] = {}
        self._lock = threading.RLock()

    def locked(self) -> "threading.RLock":
        """The registry's guard, as a context manager for mutation sites."""
        return self._lock

    # ------------------------------------------------------------------
    # Declaration
    # ------------------------------------------------------------------
    def _register(self, metric: Metric) -> Metric:
        existing = self._metrics.get(metric.name)
        if existing is not None:
            if existing.kind != metric.kind or \
                    existing.label_names != metric.label_names:
                raise ValueError(
                    f"metric {metric.name!r} re-declared with a different "
                    f"type or label set")
            return existing
        self._metrics[metric.name] = metric
        return metric

    def counter(self, name: str, help: str = "",
                labels: Sequence[str] = ()) -> Counter:
        return self._register(Counter(name, help, labels))  # type: ignore[return-value]

    def gauge(self, name: str, help: str = "",
              labels: Sequence[str] = ()) -> Gauge:
        return self._register(Gauge(name, help, labels))  # type: ignore[return-value]

    def histogram(self, name: str, help: str = "",
                  labels: Sequence[str] = (),
                  buckets: Sequence[float] = LATENCY_BUCKETS_S) -> Histogram:
        return self._register(Histogram(name, help, labels, buckets))  # type: ignore[return-value]

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def get(self, name: str) -> Optional[Metric]:
        return self._metrics.get(name)

    def metrics(self) -> List[Metric]:
        return [self._metrics[name] for name in sorted(self._metrics)]

    # ------------------------------------------------------------------
    # JSON snapshot (also the embedded-record form)
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """Plain-dict form: sorted, JSON-serialisable, deterministic."""
        with self._lock:
            return self._snapshot_locked()

    def _snapshot_locked(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {}
        for metric in self.metrics():
            entry: Dict[str, Any] = {
                "type": metric.kind,
                "labels": list(metric.label_names),
                "series": metric._series_dicts(),
            }
            if metric.help:
                entry["help"] = metric.help
            if isinstance(metric, Histogram):
                entry["buckets"] = list(metric.bounds)
            out[metric.name] = entry
        return out

    def merge_snapshot(self, data: Dict[str, Any],
                       extra_labels: Optional[Dict[str, str]] = None) -> None:
        """Fold a snapshot in, optionally widening every series' label set.

        ``extra_labels`` (e.g. ``{"scenario": name}``) lets per-record
        metrics aggregate into one registry without colliding:
        ``repro metrics`` uses it to expose one labelled series per stored
        record.  Counters and histogram cells add; gauges overwrite.
        """
        extra = extra_labels or {}
        extra_names = tuple(sorted(extra))
        for name, entry in data.items():
            kind = entry.get("type")
            label_names = tuple(entry.get("labels", ())) + extra_names
            help_ = entry.get("help", "")
            if kind == "counter":
                metric: Metric = self.counter(name, help_, label_names)
            elif kind == "gauge":
                metric = self.gauge(name, help_, label_names)
            elif kind == "histogram":
                metric = self.histogram(name, help_, label_names,
                                        entry.get("buckets", ()))
            else:
                raise ValueError(f"metric {name!r}: unknown type {kind!r}")
            for series in entry.get("series", []):
                labels = dict(series.get("labels", {}))
                labels.update(extra)
                key = _label_key(metric.label_names, labels)
                value = series["value"]
                if kind == "histogram":
                    cell = metric._cell(key)  # type: ignore[attr-defined]
                    cell["sum"] += value["sum"]
                    cell["count"] += value["count"]
                    for j, c in enumerate(value["buckets"]):
                        cell["buckets"][j] += c
                elif kind == "counter":
                    metric.series[key] = metric.series.get(key, 0) + value
                else:
                    metric.series[key] = value

    # ------------------------------------------------------------------
    # Prometheus text exposition
    # ------------------------------------------------------------------
    def to_prometheus(self) -> str:
        """The registry in the Prometheus text exposition format (0.0.4)."""
        with self._lock:
            return self._to_prometheus_locked()

    def _to_prometheus_locked(self) -> str:
        lines: List[str] = []
        for metric in self.metrics():
            if metric.help:
                lines.append(f"# HELP {metric.name} {metric.help}")
            lines.append(f"# TYPE {metric.name} {metric.kind}")
            for key in sorted(metric.series):
                labels = dict(zip(metric.label_names, key))
                if isinstance(metric, Histogram):
                    cell = metric.series[key]
                    for bound, count in zip(metric.bounds, cell["buckets"]):
                        lines.append(_sample(f"{metric.name}_bucket",
                                             {**labels, "le": _fmt(bound)},
                                             count))
                    lines.append(_sample(f"{metric.name}_bucket",
                                         {**labels, "le": "+Inf"},
                                         cell["count"]))
                    lines.append(_sample(f"{metric.name}_sum", labels,
                                         cell["sum"]))
                    lines.append(_sample(f"{metric.name}_count", labels,
                                         cell["count"]))
                else:
                    lines.append(_sample(metric.name, labels,
                                         metric.series[key]))
        return "\n".join(lines) + "\n"


def _fmt(value: float) -> str:
    """Canonical number formatting: integers without a trailing ``.0``."""
    if isinstance(value, bool):  # pragma: no cover - never stored
        return str(int(value))
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _sample(name: str, labels: Dict[str, str], value: Any) -> str:
    if labels:
        body = ",".join(f'{k}="{_escape(str(v))}"'
                        for k, v in sorted(labels.items()))
        return f"{name}{{{body}}} {_fmt(value)}"
    return f"{name} {_fmt(value)}"


# ----------------------------------------------------------------------
# Deterministic record metrics (embedded in every result-store record)
# ----------------------------------------------------------------------
def record_metrics(stats) -> Dict[str, Any]:
    """The deterministic metrics snapshot embedded in a result record.

    Derived from :class:`~repro.arch.stats.SimStats` only — integer event
    counters plus fixed-bucket histograms over the per-cycle series, all of
    which are part of the bit-identical schedule contract.  No wall-clock,
    host or kernel-dependent value may ever be added here: records must
    stay byte-identical across kernels and across instrumented /
    uninstrumented runs (see docs/observability.md).
    """
    registry = MetricsRegistry()
    counters = (
        ("sim_cycles_total", "Simulated cycles", stats.cycles),
        ("sim_instructions_total", "Instructions executed", stats.instructions),
        ("sim_messages_injected_total", "Messages injected into the NoC",
         stats.messages_injected),
        ("sim_messages_delivered_total", "Messages delivered by the NoC",
         stats.messages_delivered),
        ("sim_messages_staged_total", "Messages staged by compute cells",
         stats.messages_staged),
        ("sim_flit_hops_total", "Flit-hops traversed", stats.hops),
        ("sim_tasks_executed_total", "Tasks executed", stats.tasks_executed),
        ("sim_allocations_total", "Objects allocated", stats.allocations),
        ("sim_io_injections_total", "IO-cell injections", stats.io_injections),
        ("sim_memory_words_allocated_total", "Words of cell memory allocated",
         stats.memory_words_allocated),
    )
    for name, help_, value in counters:
        registry.counter(name, help_).inc(int(value))
    gauges = (
        ("sim_cells", "Compute cells on the chip", stats.num_cells),
        ("sim_peak_active_cells", "Peak active cells in one cycle",
         max(stats.active_cells_per_cycle, default=0)),
        ("sim_peak_messages_in_flight", "Peak in-flight messages",
         max(stats.messages_in_flight_per_cycle, default=0)),
    )
    for name, help_, value in gauges:
        registry.gauge(name, help_).set(int(value))
    series = (
        ("sim_active_cells_per_cycle", "Active compute cells per cycle",
         stats.active_cells_per_cycle),
        ("sim_messages_in_flight_per_cycle", "In-flight messages per cycle",
         stats.messages_in_flight_per_cycle),
        ("sim_deliveries_per_cycle", "Deliveries per cycle (active links)",
         stats.deliveries_per_cycle),
    )
    for name, help_, values in series:
        histogram = registry.histogram(name, help_, buckets=POW2_BUCKETS)
        cell = histogram._cell(())
        buckets = cell["buckets"]
        bounds = histogram.bounds
        total = 0
        count = 0
        for value in values:
            i = bisect_left(bounds, value)
            for j in range(i, len(buckets)):
                buckets[j] += 1
            total += value
            count += 1
        cell["sum"] = total
        cell["count"] = count
    return registry.snapshot()
