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
  of biasing whichever ran last.  A list of NoC kernels runs back to back
  inside each (rep, workload) pair: one kernel is the plain bench, two or
  more are an in-process A/B.
* The timed region is the simulation only (streaming + query); dataset
  generation and device construction are excluded, so ``cycles/sec``
  tracks the simulator hot loop the ROADMAP numbers refer to.
* Cycle counts are deterministic: if two runs of one workload disagree,
  across reps or across kernels, the run itself is broken and
  :func:`run_bench` raises rather than reporting garbage.  The same
  property powers the baseline check —
  when the repro version matches, differing cycles mean an unversioned
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
from repro.arch import _native
from repro.arch.config import KERNELS
from repro.harness.runner import run_scenario
from repro.harness.scenario import Scenario

#: Schema identifier stamped into (and required from) every bench JSON.
BENCH_SCHEMA = "repro-bench/v2"

#: Interleaved repetitions per workload.
DEFAULT_REPS = 3

#: Relative cycles/sec regression tolerated by :func:`compare_bench`.
DEFAULT_TOLERANCE = 0.25


@dataclass
class WorkloadResult:
    """Measured performance of one benchmark workload under each kernel."""

    name: str
    spec_hash: str
    total_cycles: int
    #: Simulation wall times per kernel, in the order the kernels ran.
    sim_wall_s: Dict[str, List[float]] = field(default_factory=dict)

    def median_cycles_per_sec(self, kernel: str) -> float:
        return statistics.median(
            self.total_cycles / s for s in self.sim_wall_s[kernel] if s > 0)


def run_bench(
    scenarios: Sequence[Scenario],
    *,
    kernels: Sequence[str] = ("auto",),
    reps: int = DEFAULT_REPS,
    progress: Optional[Callable[[str], None]] = None,
) -> List[WorkloadResult]:
    """Time each scenario ``reps`` times under every kernel, interleaved.

    Rep-major order (every workload once, then every workload again) with
    the kernels back to back inside each (rep, workload) pair, in one warm
    process: machine drift lands on every workload and on both sides of a
    kernel comparison instead of biasing whichever ran last.  (Separate-
    process runs on the perf suite show ±15% rep-to-rep spread from
    scheduler noise alone; interleaving is what makes a ~1.2x kernel delta
    measurable at all.)  One kernel is the plain bench; two or more are an
    A/B.

    Every run of a workload must report the same deterministic cycle count,
    across reps and across kernels (their schedules are bit-identical), so
    a divergence raises :class:`RuntimeError` rather than poisoning a
    median.  An empty, duplicated or unknown kernel list, ``auto`` in a
    list of two or more (it aliases one of the concrete kernels, so the
    A/B would time a kernel against itself), or ``native`` without the
    built extension (timing the silent python fallback would be
    dishonest), raises :class:`ValueError` before anything runs.
    """
    kernels = list(kernels)
    if reps < 1:
        raise ValueError("reps must be >= 1")
    bad = [k for k in kernels if k not in KERNELS]
    if not kernels or bad or len(set(kernels)) != len(kernels):
        raise ValueError(f"kernels must be distinct names out of {KERNELS}, "
                         f"got {kernels}")
    if len(kernels) > 1 and "auto" in kernels:
        raise ValueError(f"an A/B names concrete kernels; 'auto' aliases one "
                         f"of them, got {kernels}")
    if "native" in kernels and not _native.HAVE_NATIVE:
        raise ValueError("kernel 'native' is not built, and timing its python "
                         "fallback would be dishonest (pip install -e "
                         "'.[native]' builds it)")
    say = progress or (lambda _msg: None)
    results: Dict[str, WorkloadResult] = {}
    for rep in range(reps):
        for scenario in scenarios:
            for kernel in kernels:
                timings: Dict[str, float] = {}
                record = run_scenario(scenario, timings=timings, kernel=kernel)
                cycles = record["total_cycles"]
                result = results.setdefault(scenario.name, WorkloadResult(
                    scenario.name, record["spec_hash"], cycles))
                if cycles != result.total_cycles:
                    why = ("the run is nondeterministic"
                           if kernel in result.sim_wall_s else
                           "the bit-identical-schedule contract is broken")
                    raise RuntimeError(
                        f"{scenario.name!r} ran {cycles} cycles under kernel "
                        f"{kernel!r} in rep {rep + 1}, not "
                        f"{result.total_cycles}: {why}")
                result.sim_wall_s.setdefault(kernel, []).append(
                    timings["sim_s"])
                say(f"[rep {rep + 1}/{reps}] {scenario.name} ({kernel}): "
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

    Every workload carries its wall times and median cycles/sec under each
    kernel, in the order the kernels ran; a kernel list of one is the
    plain bench.
    """
    return {
        "schema": BENCH_SCHEMA,
        "tag": tag,
        "suite": suite,
        "reps": reps,
        "kernels": list(results[0].sim_wall_s) if results else [],
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
                "kernels": {
                    kernel: {
                        "sim_wall_s": [round(s, 6) for s in walls],
                        "median_cycles_per_sec":
                            round(r.median_cycles_per_sec(kernel), 1),
                    }
                    for kernel, walls in r.sim_wall_s.items()
                },
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

    A report without a single (workload, kernel) median -- no workloads,
    or workloads without a ``kernels`` map -- would make every baseline
    comparison pass vacuously, so it is refused like a wrong schema.
    """
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    schema = payload.get("schema") if isinstance(payload, dict) else None
    if schema != BENCH_SCHEMA:
        raise ValueError(
            f"{path}: unsupported bench schema {schema!r} "
            f"(expected {BENCH_SCHEMA!r})"
        )
    if not _pairs(payload):
        raise ValueError(
            f"{path}: bench report has no (workload, kernel) medians")
    return payload


@dataclass
class ComparisonRow:
    """One (workload, kernel) current-vs-baseline verdict."""

    name: str
    kernel: str
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
    """Verdicts for every (workload, kernel) in current ∪ baseline."""

    rows: List[ComparisonRow] = field(default_factory=list)
    tolerance: float = DEFAULT_TOLERANCE

    @property
    def failures(self) -> List[ComparisonRow]:
        return [r for r in self.rows
                if r.status in ("regression", "cycles-changed", "missing")]

    @property
    def passed(self) -> bool:
        return not self.failures


def _pairs(payload: Dict[str, Any]) -> Dict[Tuple[str, str], Tuple[Any, Any]]:
    """``{(workload, kernel): (total cycles, median cycles/sec)}``."""
    return {(w["name"], kernel): (w.get("total_cycles"),
                                  k.get("median_cycles_per_sec"))
            for w in payload.get("workloads", [])
            for kernel, k in w.get("kernels", {}).items()}


def compare_bench(
    current: Dict[str, Any],
    baseline: Dict[str, Any],
    *,
    tolerance: float = DEFAULT_TOLERANCE,
) -> BenchComparison:
    """Compare a bench payload against a baseline payload.

    Each (workload, kernel) median of the baseline is compared with the
    same pair in the current run.  It **regresses** when the current median
    cycles/sec falls below ``(1 - tolerance)`` of the baseline's; running
    faster never fails.  When both payloads were produced by the same repro
    version, deterministic cycle counts must match exactly — a mismatch
    means simulator behaviour changed without a version bump and fails the
    comparison outright.  Pairs missing from the current run fail too (a
    silently shrunk benchmark must not look like a pass); new pairs are
    reported as informational.
    """
    comparison = BenchComparison(tolerance=tolerance)
    current_pairs = _pairs(current)
    baseline_pairs = _pairs(baseline)
    same_version = (current.get("repro_version") == baseline.get("repro_version"))

    for (name, kernel), (base_cycles, base_cps) in baseline_pairs.items():
        if (name, kernel) not in current_pairs:
            comparison.rows.append(ComparisonRow(
                name=name, kernel=kernel, status="missing",
                baseline_cps=base_cps,
                detail="present in baseline but not in this run",
            ))
            continue
        cur_cycles, cur_cps = current_pairs[name, kernel]
        row = ComparisonRow(name=name, kernel=kernel, status="ok",
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

    for (name, kernel), (_cycles, cur_cps) in current_pairs.items():
        if (name, kernel) not in baseline_pairs:
            comparison.rows.append(ComparisonRow(
                name=name, kernel=kernel, status="new", current_cps=cur_cps,
                detail="not present in baseline",
            ))
    return comparison
