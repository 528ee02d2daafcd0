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
embedded-record form) and the Prometheus text exposition format
(:meth:`MetricsRegistry.to_prometheus`) — the surface a future
``repro serve`` endpoint will hand to a scraper.  :func:`parse_prometheus`
round-trips the exposition back into a registry for tests and tooling.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

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

    def observe_many(self, values: Iterable[float], **labels: str) -> None:
        for value in values:
            self.observe(value, **labels)


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

    @classmethod
    def from_snapshot(cls, data: Dict[str, Any]) -> "MetricsRegistry":
        """Rebuild a registry from :meth:`snapshot` output."""
        registry = cls()
        for name, entry in data.items():
            kind = entry.get("type")
            labels = entry.get("labels", ())
            help_ = entry.get("help", "")
            if kind == "counter":
                metric: Metric = registry.counter(name, help_, labels)
            elif kind == "gauge":
                metric = registry.gauge(name, help_, labels)
            elif kind == "histogram":
                metric = registry.histogram(name, help_, labels,
                                            entry.get("buckets", ()))
            else:
                raise ValueError(f"metric {name!r}: unknown type {kind!r}")
            for series in entry.get("series", []):
                key = _label_key(metric.label_names, series.get("labels", {}))
                value = series["value"]
                metric.series[key] = (dict(value) if isinstance(value, dict)
                                      else value)
        return registry

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
# Prometheus text parsing (round-trip tests, tooling)
# ----------------------------------------------------------------------
def parse_prometheus(text: str) -> "MetricsRegistry":
    """Parse :meth:`MetricsRegistry.to_prometheus` output back.

    Supports the subset the exposition above emits: ``# HELP``/``# TYPE``
    comments, counter/gauge samples, and histogram ``_bucket``/``_sum``/
    ``_count`` families.  Numbers parse as int when exactly integral, so a
    registry of integer counters round-trips to equal snapshots.
    """
    registry = MetricsRegistry()
    types: Dict[str, str] = {}
    helps: Dict[str, str] = {}
    hist_cells: Dict[Tuple[str, LabelKey], Dict[str, Any]] = {}
    hist_bounds: Dict[str, List[float]] = {}
    hist_labelnames: Dict[str, Tuple[str, ...]] = {}

    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("# HELP "):
            _, _, rest = line.partition("# HELP ")
            name, _, help_ = rest.partition(" ")
            helps[name] = help_
            continue
        if line.startswith("# TYPE "):
            _, _, rest = line.partition("# TYPE ")
            name, _, kind = rest.partition(" ")
            types[name] = kind
            continue
        if line.startswith("#"):
            continue
        name, labels, value = _parse_sample(line)
        family = _histogram_family(name, types)
        if family is not None:
            bounds = hist_bounds.setdefault(family, [])
            base_labels = {k: v for k, v in labels.items() if k != "le"}
            label_names = tuple(sorted(base_labels))
            hist_labelnames.setdefault(family, label_names)
            key = tuple(base_labels[k] for k in hist_labelnames[family])
            cell = hist_cells.setdefault((family, key),
                                         {"buckets": {}, "sum": 0, "count": 0})
            if name.endswith("_bucket"):
                le = labels.get("le", "+Inf")
                if le != "+Inf":
                    bound = _num(le)
                    if bound not in bounds:
                        bounds.append(bound)
                    cell["buckets"][bound] = value
            elif name.endswith("_sum"):
                cell["sum"] = value
            else:
                cell["count"] = value
            continue
        kind = types.get(name, "gauge")
        if kind == "counter":
            metric: Metric = registry.counter(name, helps.get(name, ""),
                                              tuple(sorted(labels)))
        else:
            metric = registry.gauge(name, helps.get(name, ""),
                                    tuple(sorted(labels)))
        metric.series[_label_key(metric.label_names, labels)] = value

    for (family, key), cell in hist_cells.items():
        bounds = sorted(hist_bounds.get(family, []))
        metric = registry.histogram(family, helps.get(family, ""),
                                    hist_labelnames[family], bounds)
        metric.series[key] = {
            "buckets": [cell["buckets"].get(b, 0) for b in bounds],
            "sum": cell["sum"],
            "count": cell["count"],
        }
    return registry


def _histogram_family(name: str, types: Dict[str, str]) -> Optional[str]:
    for suffix in ("_bucket", "_sum", "_count"):
        if name.endswith(suffix):
            family = name[:-len(suffix)]
            if types.get(family) == "histogram":
                return family
    return None


def _num(token: str) -> Any:
    value = float(token)
    return int(value) if value.is_integer() else value


def _parse_sample(line: str) -> Tuple[str, Dict[str, str], Any]:
    if "{" in line:
        name, _, rest = line.partition("{")
        body, _, tail = rest.rpartition("}")
        labels: Dict[str, str] = {}
        for part in _split_labels(body):
            k, _, v = part.partition("=")
            labels[k.strip()] = v.strip().strip('"')
        return name, labels, _parse_value(tail.strip())
    name, _, tail = line.partition(" ")
    return name, {}, _parse_value(tail.strip())


def _split_labels(body: str) -> List[str]:
    parts: List[str] = []
    depth_quote = False
    current = ""
    for ch in body:
        if ch == '"':
            depth_quote = not depth_quote
        if ch == "," and not depth_quote:
            parts.append(current)
            current = ""
        else:
            current += ch
    if current:
        parts.append(current)
    return parts


def _parse_value(token: str) -> Any:
    if token == "+Inf":
        return float("inf")
    return _num(token)


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
