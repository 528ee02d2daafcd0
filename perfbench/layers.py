"""One scenario run driven layer by layer, for traced runs and checks.

End-to-end metrics time the program's own entry point (``run_scenario``).
A *drive* instead steps through the layers' public calls one at a time —
``materialize_dataset`` → ``AMCCADevice``/``DynamicGraph`` (+ attach and
seed) → ``DynamicGraph.stream_increment`` per increment → the harness's
end-of-run payload and record → ``Algorithm.results`` — timing each from
the outside, and keeps what the correctness checks need from the finished
chip.  Its record is the program's record: it is built by the harness's
own ``_final_payload``/``_assemble_record``, and every drive is compared
with a ``run_scenario`` record of the same spec, so a drive that strayed
from the program would count as a failure.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Optional, Sequence, Tuple

import networkx as nx

from repro.graph.graph import DynamicGraph
from repro.harness import runner
from repro.harness.scenario import Scenario
from repro.runtime.device import AMCCADevice

#: The phases ``Simulator.phase_ns`` accumulates wall time for.
PHASES = ("io", "noc", "dispatch", "cells", "account")


def build(scenario: Scenario, num_vertices: int, *,
          seed_algorithm: bool = True,
          ) -> Tuple[AMCCADevice, DynamicGraph, Any]:
    """Device, graph and attached algorithm, through their constructors.

    The same calls the harness makes when it materialises a scenario,
    made here one by one so the runtime layer can be timed apart from
    dataset generation.  ``seed_algorithm=False`` leaves the algorithm
    unseeded, as a snapshot restore requires.
    """
    opts = scenario.options
    device = AMCCADevice(scenario.chip.to_chip_config())
    graph = DynamicGraph(
        device,
        num_vertices,
        placement=opts.placement,
        ghost_allocator=opts.ghost_allocator,
        seed=scenario.graph_seed(),
        ingest_only=scenario.algorithm == "ingest",
    )
    algorithm = runner.make_algorithm(scenario)
    if algorithm is not None:
        graph.attach(algorithm)
        if seed_algorithm:
            algorithm.seed(graph, root=opts.root)
    return device, graph, algorithm


@dataclass
class Outputs:
    """What the checks need from a finished run, without the live chip."""

    num_vertices: int
    streamed: List[Tuple[int, int, int]]
    stored: List[Tuple[int, int, int]]
    levels: Dict[int, Any] = field(default_factory=dict)


@dataclass
class Drive:
    """One layer-by-layer run: its timings, record and outputs."""

    generate_s: float
    build_s: float
    latencies: List[float]
    record_s: float
    results_s: float
    record: Dict[str, Any]
    phases: Dict[str, float]
    outputs: Outputs
    #: Per increment boundary: capture + save, load + restore, file bytes.
    capture_s: List[float] = field(default_factory=list)
    restore_s: List[float] = field(default_factory=list)
    snapshot_bytes: List[int] = field(default_factory=list)
    #: Boundaries whose restored state did not capture back identically.
    restore_mismatches: List[int] = field(default_factory=list)

    @property
    def stream_s(self) -> float:
        return sum(self.latencies)

    @property
    def wall_s(self) -> float:
        """Set-up, streaming and record (snapshot timing excluded)."""
        return self.generate_s + self.build_s + self.stream_s + self.record_s


def drive(scenario: Scenario, *,
          snapshot_dir: Optional[Path] = None) -> Drive:
    """Run ``scenario`` through the layers' public calls, timing each.

    The simulator's phase timers (``Simulator.enable_phase_timers()``)
    are on.  With ``snapshot_dir``, every increment boundary is also captured and saved
    there as ``repro serve`` does between spans, loaded back and restored
    into a fresh unseeded graph; those calls are timed apart and kept out
    of the drive's wall time.
    """
    t0 = perf_counter()
    dataset = runner.materialize_dataset(scenario.dataset)
    t1 = perf_counter()
    device, graph, algorithm = build(scenario, dataset.num_vertices)
    device.simulator.enable_phase_timers()
    t2 = perf_counter()
    cycles: List[int] = []
    latencies: List[float] = []
    snaps: Dict[str, list] = {"capture": [], "restore": [], "bytes": [],
                              "mismatch": []}
    total = len(dataset.increments)
    for index, increment in enumerate(dataset.increments, start=1):
        started = perf_counter()
        cycles.append(graph.stream_increment(
            increment,
            phase=f"increment-{index}",
            max_cycles=scenario.options.max_cycles_per_increment,
        ).cycles)
        latencies.append(perf_counter() - started)
        if snapshot_dir is not None and index < total:
            _time_snapshot(scenario, graph, index, snapshot_dir, snaps)
    started = perf_counter()
    final = runner._final_payload(scenario, dataset, device, graph, algorithm)
    record = runner._assemble_record(scenario, cycles, final)
    t3 = perf_counter()
    results = algorithm.results(graph) if algorithm is not None else {}
    results_s = perf_counter() - t3
    ns = device.simulator.phase_ns
    return Drive(
        generate_s=t1 - t0,
        build_s=t2 - t1,
        latencies=latencies,
        record_s=t3 - started,
        results_s=results_s,
        record=record,
        phases={k: ns[k] / 1e9 for k in PHASES},
        outputs=Outputs(
            num_vertices=graph.num_vertices,
            streamed=[(e.src, e.dst, e.weight)
                      for inc in dataset.increments for e in inc],
            stored=[(v, dst, w) for v in range(graph.num_vertices)
                    for dst, w in graph.edges_of(v)],
            levels=dict(results),
        ),
        capture_s=snaps["capture"],
        restore_s=snaps["restore"],
        snapshot_bytes=snaps["bytes"],
        restore_mismatches=snaps["mismatch"],
    )


def _time_snapshot(scenario: Scenario, graph: DynamicGraph, boundary: int,
                   directory: Path, snaps: Dict[str, list]) -> None:
    """Capture, save, load and restore one increment boundary."""
    from repro.snapshot import Snapshot, capture, restore_into

    meta = {"spec_hash": scenario.spec_hash(), "scenario": scenario.name,
            "increment": boundary}
    path = directory / f"boundary-{boundary:05d}.snap"
    started = perf_counter()
    captured = capture(graph, extra_meta=meta)
    captured.save(path)
    snaps["capture"].append(perf_counter() - started)
    snaps["bytes"].append(path.stat().st_size)
    _, skeleton, _ = build(scenario, graph.num_vertices, seed_algorithm=False)
    started = perf_counter()
    restore_into(skeleton, Snapshot.load(path))
    snaps["restore"].append(perf_counter() - started)
    path.unlink()
    if capture(skeleton, extra_meta=meta).state_hash != captured.state_hash:
        snaps["mismatch"].append(boundary)


def check_outputs(scenario: Scenario, out: Outputs) -> List[str]:
    """Problems found in a run's outputs (empty when they are correct).

    The stored edge multiset must equal the streamed one, and the
    algorithm's results must equal its NetworkX ``reference`` on the
    stored graph (the same graph ``DynamicGraph.to_networkx`` builds).
    """
    problems = []
    if Counter(out.stored) != Counter(out.streamed):
        problems.append("stored edge multiset differs from the streamed one")
    algorithm = runner.make_algorithm(scenario)
    if algorithm is not None:
        stored = nx.DiGraph()
        stored.add_nodes_from(range(out.num_vertices))
        stored.add_edges_from((s, d, {"weight": w}) for s, d, w in out.stored)
        reference = algorithm.reference(stored, root=scenario.options.root)
        if not (out.levels == reference
                and algorithm.verify(out.levels, reference)):
            wrong = sum(1 for v in set(reference) | set(out.levels)
                        if reference.get(v) != out.levels.get(v))
            problems.append(f"{scenario.algorithm} results differ from the "
                            f"NetworkX reference at {wrong} vertices")
    return problems


def layer_metrics(drives: Sequence[Drive]) -> Dict[str, float]:
    """The simulator-side per-layer metrics: medians over traced drives."""
    from statistics import median

    def med(values) -> float:
        return median(list(values))

    records = [d.record for d in drives]
    stats = [r["stats"] for r in records]
    metrics = {
        "datasets.generate_s": med(d.generate_s for d in drives),
        "runtime.build_s": med(d.build_s for d in drives),
        "graph.stream_s": med(d.stream_s for d in drives),
        "graph.increment_s_max": med(max(d.latencies) for d in drives),
        "graph.ghost_blocks": med(r["ghost_blocks"] for r in records),
        "graph.ghost_max_depth": med(r["ghost_max_depth"] for r in records),
        "arch.messages_delivered": med(s["messages_delivered"]
                                       for s in stats),
        "arch.hops": med(s["hops"] for s in stats),
        "arch.instructions": med(s["instructions"] for s in stats),
        "arch.tasks_executed": med(s["tasks_executed"] for s in stats),
        "arch.mean_activation": med(s["mean_activation"] for s in stats),
        "arch.peak_activation": med(s["peak_activation"] for s in stats),
        "arch.host_us_per_message": med(
            1e6 * d.stream_s / d.record["stats"]["messages_delivered"]
            for d in drives),
        "arch.cycles_per_s": med(sum(d.record["increment_cycles"])
                                 / d.stream_s for d in drives),
        "algorithms.results_s": med(d.results_s for d in drives),
        "algorithms.reached": med(r["algo_metrics"].get("reached", 0)
                                  for r in records),
        "harness.record_s": med(d.record_s for d in drives),
    }
    for phase in PHASES:
        metrics[f"arch.phase.{phase}_s"] = med(d.phases[phase]
                                               for d in drives)
    return metrics
