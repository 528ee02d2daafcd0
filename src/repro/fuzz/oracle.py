"""The differential oracle: every deep invariant, checked on one scenario.

:func:`check_invariants` takes any valid :class:`~repro.harness.scenario.
Scenario` and runs it through the four determinism contracts the repo pins
on curated cases elsewhere, plus the conservation laws of its statistics:

1. **snapshot_roundtrip** — checkpointing is observer-only; every captured
   boundary resumes to the byte-identical record, and restore → immediate
   recapture reproduces the snapshot's ``state_hash``.
2. **park_transparency** — disabling busy-cell parking changes nothing in
   the record.
3. **pipeline_vs_serial** — the run as ``repro serve``'s job task, with
   at most three spans (park points), stores bytes identical (``cmp``) to
   the serial one, in two legs: the warm leg runs the job as one task, as
   an uninterrupted serve job does, saving no checkpoint, and the cold
   leg parks at every span's end, so each later task restores the park
   checkpoint.  A truncated scenario is planned as the single span
   ``[0, total)``.
4. **trace_transparency** — attaching the Chrome tracer leaves the record
   byte-identical, and the emitted trace validates.
5. **conservation** — the baseline's statistics conserve messages and
   prepaid hops: a drained run delivered every injected message and
   traversed every prepaid hop; a truncated one
   (``max_cycles_per_increment``) delivered no more than it injected and
   has ``0 <= hops_untraversed <= hops``.

The oracle is pure stdlib (no hypothesis): the fuzz campaign drives it with
generated scenarios, the corpus replay drives it with persisted ones, and a
debugging session can drive it with a single hand-written spec.  A failure
reports the *first divergent field path*, so a shrunk scenario plus its
outcome detail is a complete bug report.
"""

from __future__ import annotations

import filecmp
import os
import tempfile
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Tuple

from repro.fuzz.fingerprint import classify, fingerprint_record
from repro.harness.runner import (
    _job_task,
    plan_spans,
    restore_scenario,
    resume_scenario,
    run_scenario,
)
from repro.harness.scenario import Scenario
from repro.harness.store import ResultStore
from repro.snapshot import Snapshot, capture
from repro.snapshot.format import SnapshotError

#: The invariants, in check order.  Every oracle report carries exactly one
#: outcome per name, so campaign counters can assert full coverage.
INVARIANTS = (
    "snapshot_roundtrip",
    "park_transparency",
    "pipeline_vs_serial",
    "trace_transparency",
    "conservation",
)


@dataclass
class InvariantOutcome:
    """One invariant's verdict on one scenario."""

    invariant: str
    status: str  # "ok" | "skip" | "fail"
    detail: str = ""


@dataclass
class OracleReport:
    """Everything :func:`check_invariants` established about one scenario."""

    scenario: Scenario
    outcomes: List[InvariantOutcome] = field(default_factory=list)
    fingerprint: Dict[str, Any] = field(default_factory=dict)
    classification: Dict[str, Any] = field(default_factory=dict)

    @property
    def failures(self) -> List[InvariantOutcome]:
        return [o for o in self.outcomes if o.status == "fail"]

    @property
    def ok(self) -> bool:
        return not self.failures

    def as_dict(self) -> Dict[str, Any]:
        """JSON-serialisable form (corpus entries, CLI output)."""
        return {
            "scenario": self.scenario.spec_dict(),
            "outcomes": [
                {"invariant": o.invariant, "status": o.status,
                 "detail": o.detail}
                for o in self.outcomes
            ],
            "fingerprint": self.fingerprint,
            "classification": self.classification,
        }


class FuzzDivergence(AssertionError):
    """A contract invariant failed on a concrete scenario.

    Raised by the campaign property so hypothesis shrinks the scenario; the
    exception that escapes the shrunk run carries the *minimal* failing
    report, ready to be persisted as a corpus entry.
    """

    def __init__(self, report: OracleReport) -> None:
        self.report = report
        first = report.failures[0]
        super().__init__(
            f"{first.invariant} diverged on {report.scenario.name!r}: "
            f"{first.detail}")


# ----------------------------------------------------------------------
# Record comparison
# ----------------------------------------------------------------------
def first_divergence(a: Any, b: Any, path: str = "record") -> Optional[str]:
    """The first field path where two JSON-like values differ, or None."""
    if type(a) is not type(b):
        return f"{path}: type {type(a).__name__} != {type(b).__name__}"
    if isinstance(a, dict):
        for key in sorted(set(a) | set(b)):
            if key not in a:
                return f"{path}.{key}: missing on left"
            if key not in b:
                return f"{path}.{key}: missing on right"
            found = first_divergence(a[key], b[key], f"{path}.{key}")
            if found:
                return found
        return None
    if isinstance(a, list):
        if len(a) != len(b):
            return f"{path}: length {len(a)} != {len(b)}"
        for i, (x, y) in enumerate(zip(a, b)):
            found = first_divergence(x, y, f"{path}[{i}]")
            if found:
                return found
        return None
    if a != b:
        return f"{path}: {a!r} != {b!r}"
    return None


def _compare(name: str, baseline: Dict[str, Any], other: Dict[str, Any],
             context: str) -> InvariantOutcome:
    diff = first_divergence(baseline, other)
    if diff is None:
        return InvariantOutcome(name, "ok")
    return InvariantOutcome(name, "fail", f"{context}: {diff}")


def _clean(scenario: Scenario) -> Scenario:
    """The scenario with every identity-free operational knob reset.

    The oracle owns snapshotting/tracing during its checks; an incoming
    spec that happens to carry those knobs must not double-drive them.
    """
    return scenario.with_(options=replace(
        scenario.options, snapshot_every=0, snapshot_dir=None,
        trace_path=None))


# ----------------------------------------------------------------------
# Individual invariants
# ----------------------------------------------------------------------
def _check_snapshot_roundtrip(scenario: Scenario, baseline: Dict[str, Any],
                              cadence: int, workdir: str) -> InvariantOutcome:
    name = "snapshot_roundtrip"
    snapdir = os.path.join(workdir, "snapshots")
    os.makedirs(snapdir, exist_ok=True)
    snapshotted = scenario.with_(options=replace(
        scenario.options, snapshot_every=cadence, snapshot_dir=snapdir))
    try:
        record = run_scenario(snapshotted)
    except SnapshotError as exc:
        # Truncation (max_cycles_per_increment) can leave in-flight state a
        # capture legitimately refuses; that is the snapshot subsystem
        # declining cleanly, not a divergence.
        return InvariantOutcome(name, "skip", f"boundary not capturable: {exc}")
    outcome = _compare(name, baseline, record,
                       "snapshotting changed the record")
    if outcome.status == "fail":
        return outcome
    boundaries = sorted(os.listdir(snapdir))
    if not boundaries:
        return InvariantOutcome(name, "skip", "no boundary reached cadence")
    for filename in boundaries:
        snap = Snapshot.load(os.path.join(snapdir, filename))
        resumed = resume_scenario(scenario, snap)
        outcome = _compare(name, baseline, resumed,
                           f"resume from {filename} diverged")
        if outcome.status == "fail":
            return outcome
        _dataset, _device, graph, _algorithm = restore_scenario(
            scenario, snap)
        recaptured = capture(graph)
        if recaptured.state_hash != snap.state_hash:
            return InvariantOutcome(
                name, "fail",
                f"restore+recapture of {filename} changed state_hash "
                f"({snap.state_hash[:12]}… -> "
                f"{recaptured.state_hash[:12]}…)")
    return InvariantOutcome(name, "ok")


def _disable_parking(device) -> None:
    device.simulator._fast_park = False


def _check_park_transparency(scenario: Scenario,
                             baseline: Dict[str, Any]) -> InvariantOutcome:
    record = run_scenario(scenario, device_setup=_disable_parking)
    return _compare("park_transparency", baseline, record,
                    "disabling busy-cell parking changed the record")


def _span_leg(scenario: Scenario, cadence: int, spill: str,
              cold: bool) -> Tuple[Dict[str, Any], List[str]]:
    """Run a scenario as serve's job tasks, in-process; returns the record
    and how each task started.  A warm leg is one task, as an
    uninterrupted serve job is, saving nothing; a cold leg parks at every
    span's end, so every later task restores the checkpoint the park
    wrote."""
    handoffs, start, record = [], 0, None
    while record is None:
        start, record, handoff = _job_task(scenario, start, cadence, spill,
                                           park=lambda: cold)
        handoffs.append(handoff)
    return record, handoffs


def _check_pipeline_vs_serial(scenario: Scenario, baseline: Dict[str, Any],
                              workdir: str) -> InvariantOutcome:
    name = "pipeline_vs_serial"
    total = scenario.dataset.num_increments
    if total < 2:
        return InvariantOutcome(name, "skip",
                                "single increment, nothing to hand off")
    cadence = -(-total // 3)  # at most three spans
    serial_path = os.path.join(workdir, "serial.jsonl")
    ResultStore(serial_path).put(baseline)
    parks = len(plan_spans(scenario, cadence)) - 2
    for leg, expected in (("warm", ["fresh"]),
                          ("cold", ["fresh"] + ["restored"] * parks)):
        record, handoffs = _span_leg(scenario, cadence,
                                     os.path.join(workdir, f"{leg}-spill"),
                                     cold=leg == "cold")
        if handoffs != expected:
            return InvariantOutcome(
                name, "fail",
                f"{leg} leg tasks started {handoffs}, not {expected}")
        outcome = _compare(name, baseline, record,
                           f"span record ({leg} spans) != serial record")
        if outcome.status == "fail":
            return outcome
        span_path = os.path.join(workdir, f"spans-{leg}.jsonl")
        ResultStore(span_path).put(record)
        if not filecmp.cmp(serial_path, span_path, shallow=False):
            return InvariantOutcome(
                name, "fail",
                f"span store bytes ({leg} spans) != serial store bytes "
                "(records compared equal: store encoding diverged)")
    return InvariantOutcome(name, "ok")


def _check_trace_transparency(scenario: Scenario, baseline: Dict[str, Any],
                              workdir: str) -> InvariantOutcome:
    name = "trace_transparency"
    trace_path = os.path.join(workdir, "trace.json")
    traced = scenario.with_(options=replace(
        scenario.options, trace_path=trace_path))
    record = run_scenario(traced)
    outcome = _compare(name, baseline, record,
                       "tracing changed the record")
    if outcome.status == "fail":
        return outcome
    from repro.obs import validate_trace_file

    if not os.path.exists(trace_path):
        return InvariantOutcome(name, "fail", "no trace file was written")
    errors = validate_trace_file(trace_path)
    if errors:
        return InvariantOutcome(
            name, "fail", f"trace does not validate: {errors[0]}")
    return InvariantOutcome(name, "ok")


def _check_conservation(scenario: Scenario,
                        baseline: Dict[str, Any]) -> InvariantOutcome:
    stats = baseline["stats"]
    injected = stats["messages_injected"]
    delivered = stats["messages_delivered"]
    hops, untraversed = stats["hops"], stats["hops_untraversed"]
    if scenario.options.max_cycles_per_increment is None:
        laws = {"messages_injected == messages_delivered": injected == delivered,
                "hops_untraversed == 0": untraversed == 0}
    else:
        # A truncated increment may leave messages in flight, carrying
        # their prepaid but untraversed hops.
        laws = {"messages_injected >= messages_delivered": injected >= delivered,
                "0 <= hops_untraversed <= hops": 0 <= untraversed <= hops}
    broken = [law for law, holds in laws.items() if not holds]
    if not broken:
        return InvariantOutcome("conservation", "ok")
    return InvariantOutcome(
        "conservation", "fail",
        f"{broken[0]} violated (injected {injected}, delivered {delivered}, "
        f"hops {hops}, hops_untraversed {untraversed})")


# ----------------------------------------------------------------------
# The oracle
# ----------------------------------------------------------------------
def check_invariants(scenario: Scenario,
                     workdir: Optional[str] = None) -> OracleReport:
    """Run one scenario through every invariant and report the verdicts.

    ``workdir`` (optional) hosts the snapshot / store / trace scratch
    files; a temporary directory is created (and removed) otherwise.  The
    report always contains exactly one outcome per :data:`INVARIANTS`
    entry, in order — a skipped check still shows up, with its reason.
    """
    cadence = scenario.options.snapshot_every or 1
    clean = _clean(scenario)
    if workdir is None:
        with tempfile.TemporaryDirectory(prefix="repro-fuzz-") as tmp:
            return _check_all(clean, cadence, tmp)
    return _check_all(clean, cadence, workdir)


def _guard(name: str, fn, *args) -> InvariantOutcome:
    """Run one check; a crash is a failure, not a campaign abort.

    The original truncation/terminator find (tests/corpus/) surfaced as a
    ``TerminationError`` escaping the run, which would have crashed the
    campaign instead of shrinking into a corpus entry — so exceptions are
    folded into ``fail`` outcomes here.
    """
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 - any crash is a finding
        return InvariantOutcome(
            name, "fail", f"crashed: {type(exc).__name__}: {exc}")


def _check_all(clean: Scenario, cadence: int, workdir: str) -> OracleReport:
    try:
        baseline = run_scenario(clean)
    except Exception as exc:  # noqa: BLE001 - any crash is a finding
        detail = (f"baseline run crashed: {type(exc).__name__}: {exc}")
        return OracleReport(
            scenario=clean,
            outcomes=[InvariantOutcome(name, "fail", detail)
                      for name in INVARIANTS],
        )
    outcomes = [
        _guard("snapshot_roundtrip",
               _check_snapshot_roundtrip, clean, baseline, cadence, workdir),
        _guard("park_transparency",
               _check_park_transparency, clean, baseline),
        _guard("pipeline_vs_serial",
               _check_pipeline_vs_serial, clean, baseline, workdir),
        _guard("trace_transparency",
               _check_trace_transparency, clean, baseline, workdir),
        _guard("conservation", _check_conservation, clean, baseline),
    ]
    fingerprint = fingerprint_record(baseline)
    return OracleReport(
        scenario=clean,
        outcomes=outcomes,
        fingerprint=fingerprint,
        classification=classify(fingerprint),
    )
