"""Pieces shared by every workload: seeds, statistics, checks and output."""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Sequence, Tuple

#: The checkout the benchmark runs in (``perfbench/`` sits at its root).
ROOT = Path(__file__).resolve().parent.parent

#: Seed of the registered suites; the default workload seed.
DEFAULT_SEED = 7


def derive_seed(*parts: Any) -> int:
    """A 32-bit seed derived from the workload seed and a role."""
    digest = hashlib.sha256(":".join(map(str, parts)).encode()).hexdigest()
    return int(digest[:8], 16)


def tail(values: Sequence[float]) -> Tuple[float, float, int]:
    """``(value, percentile, samples)`` of the highest percentile that has
    at least ten samples beyond it.

    With ten samples or fewer no percentile qualifies and the maximum is
    returned (percentile 100), so the sample count must be read with it.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, n
    index = n - 11
    return ordered[index], 100.0 * (index + 1) / n, n


def peak_rss_mb(children: bool = False) -> float:
    """Peak resident set size of this process (or of its reaped children)."""
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux: KiB


@dataclass
class Checks:
    """Operations attempted and the ones whose output failed a check."""

    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)

    def op(self, ok: bool, problem: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(problem)
        return ok

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


def declared_metrics(trace: bool) -> List[Dict[str, Any]]:
    """The metrics BENCHMARK.json declares for a traced or untraced run."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)["per_layer" if trace else "end_to_end"]


def environment(seed: int, kernel: str) -> Dict[str, Any]:
    """What every output records about the run's inputs and host."""
    from repro import __version__

    return {
        "seed": seed,
        "repro_version": __version__,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "kernel": kernel,
    }


def result_line(metrics: Dict[str, float], checks: Checks,
                trace: bool) -> Dict[str, Any]:
    """The final JSON object: every declared metric of this run kind.

    A metric the workload did not produce raises ``KeyError``, so a run
    never prints a partial result.
    """
    return {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared_metrics(trace)},
    }


def emit(workload: str, env: Dict[str, Any], metrics: Dict[str, float],
         notes: Dict[str, Any], checks: Checks, trace: bool) -> None:
    """Print the human-readable report, then the result as the last line."""
    result = result_line(metrics, checks, trace)
    print(f"# workload {workload} ({'traced' if trace else 'untraced'})")
    print("# env " + json.dumps(env, sort_keys=True))
    print("# notes " + json.dumps(notes, sort_keys=True))
    print(f"# error_rate {checks.error_rate!r} "
          f"({checks.failed} failed of {checks.attempted} attempted)")
    for problem in checks.problems:
        print(f"# FAILED {problem}")
    for name, cell in result["metrics"].items():
        print(f"{name:<26} {cell['value']!r:>24} {cell['unit']}")
    print(json.dumps(result), flush=True)
