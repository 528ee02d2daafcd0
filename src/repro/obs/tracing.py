"""Structured tracing: Chrome ``trace_event`` JSON emission and validation.

:class:`Tracer` collects timestamped events in memory and serialises them
to the Chrome trace-event JSON-object format, viewable in Perfetto
(https://ui.perfetto.dev) or ``chrome://tracing``.  Emitted event types:

* ``X`` (complete)   — a span with a start timestamp and a duration
  (simulator increments, pool tasks, store rewrites, snapshot captures),
* ``i`` (instant)    — a point event (cycle-skip jumps, worker respawns,
  suite outcomes),
* ``C`` (counter)    — a sampled value series (per-phase simulator time),
* ``M`` (metadata)   — process/thread naming for the viewer.

Timestamps come from :func:`time.perf_counter_ns`, rebased to the tracer's
construction so values stay small, and converted to the microseconds the
format requires.  **Wall-clock timings never enter result records** — a
trace is a side artifact written next to the run (see the observer-only
contract in docs/observability.md).

The tracer is deliberately dumb and allocation-light: every hot call site
in the simulator and harness guards with ``if tracer is not None`` so the
disabled path (the default) costs one attribute read and a branch.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional

#: Event types :func:`validate_trace` accepts (the subset repro emits).
KNOWN_PHASES = ("X", "i", "C", "M", "B", "E")

#: Hard cap on buffered events: a runaway per-cycle emitter degrades to a
#: truncated (but valid and openable) trace instead of eating the heap.
MAX_EVENTS = 1_000_000


class Tracer:
    """An in-memory Chrome trace-event collector for one process.

    Parameters
    ----------
    process_name:
        Label for this process's track in the viewer.
    max_events:
        Buffer cap; events past it are dropped (``dropped_events`` counts
        them and the count is recorded in the trace's ``otherData``).
    """

    def __init__(self, process_name: str = "repro",
                 max_events: int = MAX_EVENTS) -> None:
        self.enabled = True
        self.events: List[Dict[str, Any]] = []
        self.dropped_events = 0
        self.pid = os.getpid()
        self._max_events = max_events
        self._t0 = time.perf_counter_ns()
        if process_name:
            self.events.append({
                "ph": "M", "name": "process_name", "pid": self.pid, "tid": 0,
                "args": {"name": process_name},
            })

    # ------------------------------------------------------------------
    # Time base
    # ------------------------------------------------------------------
    def now_ns(self) -> int:
        """Monotonic nanoseconds on this tracer's clock (for span starts)."""
        return time.perf_counter_ns()

    def _us(self, ns: int) -> float:
        return (ns - self._t0) / 1000.0

    # ------------------------------------------------------------------
    # Emission
    # ------------------------------------------------------------------
    def _emit(self, event: Dict[str, Any]) -> None:
        if len(self.events) >= self._max_events:
            self.dropped_events += 1
            return
        self.events.append(event)

    def thread_name(self, tid: int, name: str) -> None:
        """Name a thread track (e.g. one per pool worker pid)."""
        self._emit({"ph": "M", "name": "thread_name", "pid": self.pid,
                    "tid": tid, "args": {"name": name}})

    def instant(self, name: str, cat: str = "", tid: int = 0,
                **args: Any) -> None:
        """A point event (``ph="i"``), e.g. a cycle-skip jump."""
        self._emit({"ph": "i", "name": name, "cat": cat, "s": "t",
                    "pid": self.pid, "tid": tid,
                    "ts": self._us(time.perf_counter_ns()), "args": args})

    def counter(self, name: str, values: Dict[str, float],
                tid: int = 0) -> None:
        """A counter sample (``ph="C"``): one stacked-series data point."""
        self._emit({"ph": "C", "name": name, "pid": self.pid, "tid": tid,
                    "ts": self._us(time.perf_counter_ns()), "args": values})

    def complete(self, name: str, cat: str = "", *,
                 start_ns: int, dur_ns: int, tid: int = 0,
                 **args: Any) -> None:
        """A complete span (``ph="X"``) measured by the caller."""
        self._emit({"ph": "X", "name": name, "cat": cat, "pid": self.pid,
                    "tid": tid, "ts": self._us(start_ns),
                    "dur": dur_ns / 1000.0, "args": args})

    @contextmanager
    def span(self, name: str, cat: str = "", tid: int = 0,
             **args: Any) -> Iterator[None]:
        """Context manager emitting one complete span around its body."""
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            self.complete(name, cat, start_ns=start,
                          dur_ns=time.perf_counter_ns() - start,
                          tid=tid, **args)

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """The trace as the Chrome JSON-object format."""
        return {
            "traceEvents": self.events,
            "displayTimeUnit": "ms",
            "otherData": {
                "producer": "repro.obs",
                "dropped_events": self.dropped_events,
            },
        }

    def save(self, path: str | os.PathLike) -> Path:
        """Write the trace as JSON; parent directories are created."""
        path = Path(path)
        if path.parent != Path(""):
            path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_dict()), encoding="utf-8")
        return path


# ----------------------------------------------------------------------
# Validation (tests + the CI trace-schema gate)
# ----------------------------------------------------------------------
def validate_trace(data: Any) -> List[str]:
    """Structural checks on a Chrome trace-event document.

    Returns a list of human-readable problems (empty = valid).  Checks the
    subset of the format repro emits, which is also what Perfetto needs to
    open the file: a ``traceEvents`` list whose entries carry a known
    ``ph``, a ``name``, integer ``pid``/``tid`` and, for timed phases, a
    numeric ``ts`` (plus ``dur`` for ``X`` spans).
    """
    errors: List[str] = []
    if not isinstance(data, dict) or "traceEvents" not in data:
        return ["top level must be an object with a 'traceEvents' key"]
    events = data["traceEvents"]
    if not isinstance(events, list):
        return ["'traceEvents' must be a list"]
    for i, ev in enumerate(events):
        where = f"traceEvents[{i}]"
        if not isinstance(ev, dict):
            errors.append(f"{where}: not an object")
            continue
        ph = ev.get("ph")
        if ph not in KNOWN_PHASES:
            errors.append(f"{where}: unknown ph {ph!r}")
            continue
        if not isinstance(ev.get("name"), str) or not ev["name"]:
            errors.append(f"{where}: missing or empty name")
        for key in ("pid", "tid"):
            if not isinstance(ev.get(key), int):
                errors.append(f"{where}: {key} must be an integer")
        if ph != "M":
            if not isinstance(ev.get("ts"), (int, float)):
                errors.append(f"{where}: ts must be a number")
        if ph == "X" and not isinstance(ev.get("dur"), (int, float)):
            errors.append(f"{where}: X event must carry a numeric dur")
        if "args" in ev and not isinstance(ev["args"], dict):
            errors.append(f"{where}: args must be an object")
    return errors


def validate_trace_file(path: str | os.PathLike) -> List[str]:
    """Load a trace JSON file and :func:`validate_trace` it."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        return [f"{path}: unreadable trace: {exc}"]
    return validate_trace(data)


def derive_trace_path(base: str, scenario: str,
                      span: Optional[tuple] = None) -> str:
    """Per-scenario (and per-shard) trace filename derived from a base path.

    ``repro suite run --trace out.json`` writes the harness-level trace to
    ``out.json`` itself; each scenario's simulator trace goes to
    ``out-<scenario>.json`` (``out-<scenario>-spanA-B.json`` for a shard),
    so parallel workers never contend for one file.
    """
    p = Path(base)
    suffix = p.suffix or ".json"
    stem = p.name[:-len(p.suffix)] if p.suffix else p.name
    tag = scenario if span is None else f"{scenario}-span{span[0]}-{span[1]}"
    return str(p.with_name(f"{stem}-{tag}{suffix}"))
