"""The simulator workloads: ``ingest-edge`` and ``bfs-snowball``.

Each streams one fixed named input, a registered GraphChallenge-like
scenario, in repeated reps.  The input does not depend on the workload
seed: across dataset seeds of these heavy-tailed graphs the cycle count
spreads by more than half its median, which would make every figure a
property of the seed.  The seed is recorded all the same.

A *job* on these workloads is one ``run_scenario`` call, spec to record:
the unit of work the harness serves, without the service around it.

Host time is scaled to a reference host speed.  The shared hosts this
benchmark runs on change speed by up to 1.5x within minutes, for reasons
outside the process (its CPU time tracks its wall time), which moves
every host-time figure of a run together.  A fixed calibration kernel,
timed between reps, measures the host's current speed; each rep's times
are scaled by the reference kernel time over the kernel time measured
around it.  The kernel is the benchmark's own code, identical on every
commit, so a change to the program moves the scaled figures as it moves
the raw ones.  The raw medians are printed in the notes.
"""

from __future__ import annotations

import gc
import json
import math
from statistics import median
from time import perf_counter
from typing import Any, Dict, List, Tuple

from perfbench import layers
from perfbench.common import Checks, peak_rss_mb, tail
from repro.harness.registry import build_paper_suite, get_suite
from repro.harness.runner import run_scenario
from repro.harness.scenario import Scenario


def workloads() -> Dict[str, Scenario]:
    # ingest-edge: the 1/50-scale 50K-class graph (1 000 v / 20 000 e) on
    # the 16x16 chip.  bfs-snowball: the `perf` suite's spec, unchanged, so
    # it keeps the spec hash and cycle count of
    # benchmarks/BENCH_baseline.json.
    small = {s.name: s for s in build_paper_suite(1 / 50)}
    perf = {s.name: s for s in get_suite("perf")}
    return {
        "ingest-edge": small["graphchallenge-50k-edge-ingest"],
        "bfs-snowball": perf["graphchallenge-500k-snowball-bfs"],
    }


#: Seconds the calibration kernel takes at the reference host speed (the
#: median of 40 timings on a 2-vCPU cloud VM, Python 3.11).
REFERENCE_KERNEL_S = 0.12


def calibration_kernel() -> float:
    """Time a fixed interpreter-bound kernel: seconds, on this host, now.

    Dictionary, attribute and list work plus small array reductions, the
    operations the simulator's hot loops are made of.
    """

    class Cell:
        __slots__ = ("key", "count", "queue")

        def __init__(self, key: int) -> None:
            self.key, self.count, self.queue = key, 0, []

    gc.collect()
    started = perf_counter()
    table: Dict[int, int] = {}
    for i in range(360000):
        key = (i * 2654435761) & 0x3FFF
        table[key] = table.get(key, 0) + 1
    cells = [Cell(i) for i in range(2000)]
    total = 0.0
    for sweep in range(240):
        for cell in cells:
            cell.count += cell.key & 3
            if cell.count & 1:
                cell.queue.append(sweep)
        total += math.fsum(len(c.queue) for c in cells[:64])
    return perf_counter() - started


def encode(record: Dict[str, Any]) -> str:
    return json.dumps(record, sort_keys=True)


def timed_run(scenario: Scenario) -> Tuple[Dict[str, Any], Dict[str, float]]:
    """One ``run_scenario`` call with the runner's own phase timings."""
    # Free the previous run's chip first, so one chip is alive at a time
    # and its collection does not land inside this run's timings.
    gc.collect()
    timings: Dict[str, float] = {}
    record = run_scenario(scenario, timings=timings)
    return record, timings


def check_drive(scenario: Scenario, drive: layers.Drive, reference: str,
                checks: Checks, *, outputs: bool = True) -> float:
    """Check a drive's record, and its outputs unless ``outputs`` is
    false; returns the seconds the output check took."""
    checks.op(encode(drive.record) == reference,
              "layer-by-layer record differs from run_scenario's")
    kept, drive.outputs = drive.outputs, None
    if not outputs:
        return 0.0
    gc.collect()  # the finished chip is garbage; keep it out of the peak
    started = perf_counter()
    problems = layers.check_outputs(scenario, kept)
    elapsed = perf_counter() - started
    checks.op(not problems, "; ".join(problems))
    return elapsed


def run(scenario: Scenario, seconds: float, trace: bool,
        ) -> Tuple[Dict[str, float], Dict[str, Any], Checks]:
    if trace:
        return _run_traced(scenario, seconds)
    return _run_untraced(scenario, seconds)


def _run_untraced(scenario: Scenario, seconds: float):
    checks = Checks()
    reference = ""
    raw: Dict[str, List[float]] = {"setup_s": [], "sim_s": []}
    scales: List[float] = []
    kernel_s = [calibration_kernel()]
    started = perf_counter()
    while not scales or perf_counter() - started < seconds:
        record, timings = timed_run(scenario)
        kernel_s.append(calibration_kernel())
        if reference:
            checks.op(encode(record) == reference,
                      "record changed between reps")
        else:
            reference = encode(record)
            cycles = record["total_cycles"]
            edges = sum(record["increment_sizes"])
        for name in raw:
            raw[name].append(timings[name])
        scales.append(2 * REFERENCE_KERNEL_S / (kernel_s[-2] + kernel_s[-1]))
    setups = [t * k for t, k in zip(raw["setup_s"], scales)]
    sims = [t * k for t, k in zip(raw["sim_s"], scales)]
    walls = [a + b for a, b in zip(setups, sims)]
    # Outside the timed region: one layer-by-layer run whose record must
    # equal the program's and whose outputs are checked.
    check_drive(scenario, layers.drive(scenario), reference, checks)
    tail_s, tail_pct, samples = tail(walls)
    metrics = {
        "setup_s": median(setups),
        "edges_per_s": edges / median(sims),
        "sim_cycles": cycles,
        # The checks run after the chip is freed, so they add little to it.
        "peak_rss_mb": peak_rss_mb(),
        "success_rate": 1.0 - checks.error_rate,
        "job_p50_s": median(walls),
        "job_tail_s": tail_s,
        "jobs_per_s": 1.0 / median(walls),
    }
    notes = {
        "scenario": scenario.name,
        "spec_hash": scenario.spec_hash(),
        "reps": len(walls),
        "kernel_s_median": median(kernel_s),
        "raw_setup_s": median(raw["setup_s"]),
        "raw_edges_per_s": edges / median(raw["sim_s"]),
        "job": "one run_scenario call, spec to record",
        "job_samples": samples,
        "job_tail_percentile": tail_pct,
    }
    return metrics, notes, checks


def _run_traced(scenario: Scenario, seconds: float):
    """Untraced and traced reps in alternating pairs.

    The untraced rep is ``run_scenario``; the traced one is a
    layer-by-layer drive with the simulator's phase timers on.  Every
    drive's record must equal ``run_scenario``'s (tracing is
    observer-only); the per-layer numbers come from the drives, and the
    ratio of median wall times is the tracing overhead.
    """
    checks = Checks()
    reference = ""
    drives: List[layers.Drive] = []
    plain: List[float] = []
    verify_s: List[float] = []
    started = perf_counter()
    while not drives or perf_counter() - started < seconds:
        for kind in (("plain", "traced") if len(drives) % 2 == 0
                     else ("traced", "plain")):
            if kind == "plain":
                record, timings = timed_run(scenario)
                plain.append(timings["setup_s"] + timings["sim_s"])
                if not reference:
                    reference = encode(record)
                checks.op(encode(record) == reference,
                          "record changed between reps")
            else:
                gc.collect()
                drives.append(layers.drive(scenario))
        first = not verify_s
        verify = check_drive(scenario, drives[-1], reference, checks,
                             outputs=first)
        if first:
            verify_s.append(verify)
    metrics = layers.layer_metrics(drives)
    metrics["algorithms.verify_s"] = verify_s[0]
    metrics["obs.trace_overhead"] = (median([d.wall_s for d in drives])
                                     / median(plain))
    # These layers are not on a simulator workload's path: they spend
    # nothing here, and are measured on serve-mixed.
    for name in NOT_ON_PATH:
        metrics[name] = 0.0
    notes = {"scenario": scenario.name, "pairs": len(drives),
             "not_on_path": list(NOT_ON_PATH)}
    return metrics, notes, checks


NOT_ON_PATH = (
    "harness.store_put_s", "harness.store_get_s", "harness.pool_roundtrip_s",
    "snapshot.capture_s", "snapshot.restore_s", "snapshot.bytes",
    "serve.submit_s", "serve.record_fetch_s", "serve.server_job_s",
    "serve.client_wait_s", "serve.spans", "serve.cached_s",
    "serve.cache_hit_ratio", "serve.rejected", "serve.failed",
)
