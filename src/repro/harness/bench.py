"""Machine-readable performance benchmarking: the ``repro bench`` pipeline.

The simulator's throughput story so far (~3.8K → ~4.6K → ~9K cycles/sec on
the Fig 8 tiny workload across PRs) lived only in prose.  This module makes
the trajectory a tracked artifact, in the spirit of the GAP / GBBS
benchmark drivers: every run emits one **schema-versioned JSON report**
(``BENCH_<tag>.json``) that CI uploads and compares against a committed
baseline with a tolerance.

Methodology
-----------
* Workloads are ordinary registered suites (default: ``perf``), so the
  benchmarked scenarios are exactly the ones the harness and the paper
  reproduction run.
* Repetitions are **interleaved** (rep-major order: every workload once,
  then every workload again, ...), so slow machine drift — thermal
  throttling, a noisy CI neighbour — spreads across all workloads instead
  of biasing whichever ran last.
* The timed region is the simulation only (streaming + query); dataset
  generation and device construction are excluded, so ``cycles/sec``
  tracks the simulator hot loop the ROADMAP numbers refer to.
* Cycle counts are deterministic: if two reps of one workload disagree,
  the run itself is broken and :func:`run_bench` raises rather than
  reporting garbage.  The same property powers the baseline check — when
  the repro version matches, differing cycles mean an unversioned
  behaviour change, which :func:`compare_bench` flags as a hard failure
  regardless of tolerance.
"""

from __future__ import annotations

import json
import platform
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro import __version__
from repro.harness.runner import run_scenario
from repro.harness.scenario import Scenario

#: Schema identifier stamped into (and required from) every bench JSON.
BENCH_SCHEMA = "repro-bench/v3"

#: Interleaved repetitions per workload.
DEFAULT_REPS = 3

#: Relative cycles/sec regression tolerated by :func:`compare_bench`.
DEFAULT_TOLERANCE = 0.25


@dataclass
class WorkloadResult:
    """Measured performance of one benchmark workload."""

    name: str
    spec_hash: str
    total_cycles: int
    #: Simulation wall time of each rep, in the order the reps ran.
    sim_wall_s: List[float] = field(default_factory=list)

    def median_cycles_per_sec(self) -> float:
        return statistics.median(
            self.total_cycles / s for s in self.sim_wall_s if s > 0)


def run_bench(
    scenarios: Sequence[Scenario],
    *,
    reps: int = DEFAULT_REPS,
    progress: Optional[Callable[[str], None]] = None,
) -> List[WorkloadResult]:
    """Time each scenario ``reps`` times, interleaved.

    Rep-major order (every workload once, then every workload again), in
    one warm process: machine drift lands on every workload instead of
    biasing whichever ran last.  (Separate-process runs on the perf suite
    show ±15% rep-to-rep spread from scheduler noise alone.)

    Every rep of a workload must report the same deterministic cycle
    count, so a divergence raises :class:`RuntimeError` rather than
    poisoning a median.
    """
    if reps < 1:
        raise ValueError("reps must be >= 1")
    say = progress or (lambda _msg: None)
    results: Dict[str, WorkloadResult] = {}
    for rep in range(reps):
        for scenario in scenarios:
            timings: Dict[str, float] = {}
            record = run_scenario(scenario, timings=timings)
            cycles = record["total_cycles"]
            result = results.setdefault(scenario.name, WorkloadResult(
                scenario.name, record["spec_hash"], cycles))
            if cycles != result.total_cycles:
                raise RuntimeError(
                    f"{scenario.name!r} ran {cycles} cycles in rep "
                    f"{rep + 1}, not {result.total_cycles}: the run is "
                    "nondeterministic")
            result.sim_wall_s.append(timings["sim_s"])
            say(f"[rep {rep + 1}/{reps}] {scenario.name}: "
                f"{cycles / timings['sim_s']:,.0f} cycles/sec")
    return [results[s.name] for s in scenarios]


def bench_payload(
    results: Sequence[WorkloadResult],
    *,
    tag: str,
    suite: str,
    reps: int,
) -> Dict[str, Any]:
    """The schema-versioned JSON document a bench run emits.

    Every workload carries its per-rep wall times and median cycles/sec.
    """
    return {
        "schema": BENCH_SCHEMA,
        "tag": tag,
        "suite": suite,
        "reps": reps,
        "repro_version": __version__,
        "platform": {
            "python": platform.python_version(),
            "machine": platform.machine(),
        },
        "workloads": [
            {
                "name": r.name,
                "spec_hash": r.spec_hash,
                "total_cycles": r.total_cycles,
                "sim_wall_s": [round(s, 6) for s in r.sim_wall_s],
                "median_cycles_per_sec": round(r.median_cycles_per_sec(), 1),
            }
            for r in results
        ],
    }


def write_bench(path: str | Path, payload: Dict[str, Any]) -> Path:
    """Write a bench payload as pretty-printed JSON."""
    path = Path(path)
    if path.parent != Path(""):
        path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    return path


def load_bench(path: str | Path) -> Dict[str, Any]:
    """Load a bench JSON document, refusing another schema or no medians.

    A report without a single workload median would make every baseline
    comparison pass vacuously, so it is refused like a wrong schema.
    """
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    schema = payload.get("schema") if isinstance(payload, dict) else None
    if schema != BENCH_SCHEMA:
        raise ValueError(
            f"{path}: unsupported bench schema {schema!r} "
            f"(expected {BENCH_SCHEMA!r})"
        )
    if not _medians(payload):
        raise ValueError(
            f"{path}: bench report has no workload medians")
    return payload


@dataclass
class ComparisonRow:
    """One workload's current-vs-baseline verdict."""

    name: str
    status: str  # "ok" | "regression" | "cycles-changed" | "new" | "missing"
    baseline_cps: Optional[float] = None
    current_cps: Optional[float] = None
    detail: str = ""

    @property
    def ratio(self) -> Optional[float]:
        if not self.baseline_cps or self.current_cps is None:
            return None
        return self.current_cps / self.baseline_cps


@dataclass
class BenchComparison:
    """Verdicts for every workload in current ∪ baseline."""

    rows: List[ComparisonRow] = field(default_factory=list)
    tolerance: float = DEFAULT_TOLERANCE

    @property
    def failures(self) -> List[ComparisonRow]:
        return [r for r in self.rows
                if r.status in ("regression", "cycles-changed", "missing")]

    @property
    def passed(self) -> bool:
        return not self.failures


def _medians(payload: Dict[str, Any]) -> Dict[str, Tuple[Any, Any]]:
    """``{workload: (total cycles, median cycles/sec)}``."""
    return {w["name"]: (w.get("total_cycles"), w["median_cycles_per_sec"])
            for w in payload.get("workloads", [])
            if "median_cycles_per_sec" in w}


def compare_bench(
    current: Dict[str, Any],
    baseline: Dict[str, Any],
    *,
    tolerance: float = DEFAULT_TOLERANCE,
) -> BenchComparison:
    """Compare a bench payload against a baseline payload.

    Each workload median of the baseline is compared with the same
    workload in the current run.  It **regresses** when the current median
    cycles/sec falls below ``(1 - tolerance)`` of the baseline's; running
    faster never fails.  When both payloads were produced by the same repro
    version, deterministic cycle counts must match exactly — a mismatch
    means simulator behaviour changed without a version bump and fails the
    comparison outright.  Workloads missing from the current run fail
    too (a silently shrunk benchmark must not look like a pass); new
    workloads are reported as informational.
    """
    comparison = BenchComparison(tolerance=tolerance)
    current_medians = _medians(current)
    baseline_medians = _medians(baseline)
    same_version = (current.get("repro_version") == baseline.get("repro_version"))

    for name, (base_cycles, base_cps) in baseline_medians.items():
        if name not in current_medians:
            comparison.rows.append(ComparisonRow(
                name=name, status="missing",
                baseline_cps=base_cps,
                detail="present in baseline but not in this run",
            ))
            continue
        cur_cycles, cur_cps = current_medians[name]
        row = ComparisonRow(name=name, status="ok",
                            baseline_cps=base_cps, current_cps=cur_cps)
        if same_version and cur_cycles != base_cycles:
            row.status = "cycles-changed"
            row.detail = (
                f"cycles {base_cycles} -> {cur_cycles} "
                f"at the same repro version {current.get('repro_version')!r}"
            )
        elif base_cps and cur_cps is not None and \
                cur_cps < (1.0 - tolerance) * base_cps:
            row.status = "regression"
            row.detail = (
                f"{cur_cps:,.0f} cycles/sec is "
                f"{100 * (1 - cur_cps / base_cps):.1f}% below baseline "
                f"{base_cps:,.0f} (tolerance {100 * tolerance:.0f}%)"
            )
        comparison.rows.append(row)

    for name, (_cycles, cur_cps) in current_medians.items():
        if name not in baseline_medians:
            comparison.rows.append(ComparisonRow(
                name=name, status="new", current_cps=cur_cps,
                detail="not present in baseline",
            ))
    return comparison
