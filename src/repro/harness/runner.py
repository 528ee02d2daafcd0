"""Scenario execution: serial, pooled, sharded and timeout-guarded.

:func:`run_scenario` materialises one :class:`~repro.harness.scenario.Scenario`
into a dataset + device + graph + algorithm, streams every increment, runs
the query diffusion when the algorithm has one, and returns a flat,
JSON-serialisable **record** containing only deterministic fields (no
timestamps, hostnames or wall-clock), so the same scenario produces a
byte-identical record whether it runs in-process, in a worker, or sharded.

:func:`run_suite` fans a suite out over a persistent
:class:`~repro.harness.pool.WorkerPool`.  Each worker rebuilds its own
:class:`~repro.runtime.device.AMCCADevice` from the declarative spec — a
mid-run simulator is full of closures and is not picklable, but a
:class:`Scenario` is a frozen dataclass of plain values, so only specs cross
the process boundary (records come back as plain dicts).  Scenarios already
present in the :class:`~repro.harness.store.ResultStore` are skipped as
cache hits unless ``force`` is set.

Increment sharding
------------------
``shard_increments=N`` splits one scenario's increment stream into N
contiguous spans, each executed as its own pool task
(:func:`run_scenario_sharded`).  The chip's state is sequential — increment
``i`` runs against the graph that increments ``0..i-1`` built — so spans
need that state from somewhere.  Two modes exist:

* **Replay** (the default): a shard covering ``[start, stop)`` first
  *replays* increments ``[0, start)`` with the identical simulation and
  then measures its own span.  Replay adds CPU work quadratically in the
  shard count; what it buys is operational — per-shard ``--timeout``
  granularity, finer failure units, a cross-process determinism audit.
* **Pipeline** (``pipeline=True`` / ``--pipeline``): shard K starts from
  the :mod:`repro.snapshot` checkpoint its predecessor captured at
  boundary ``K·span`` (checkpoints flow through a temporary spill
  directory, or stay in memory for in-process runs), so **no increment is
  ever simulated twice** — total CPU is O(increments) regardless of shard
  count.  The bit-identical-schedule guarantee of restored snapshots (see
  docs/snapshot.md) is what makes this safe.

Either way the merge concatenates the measured spans in order and is
**byte-identical to a serial run**, because every shard derives its state
from the same deterministic spec.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro import __version__
from repro.algorithms.registry import get_algorithm
from repro.datasets.streaming import StreamingDataset, make_streaming_dataset
from repro.graph.graph import DynamicGraph
from repro.graph.rpvo import Edge
from repro.harness.pool import TaskResult, WorkerPool, get_pool
from repro.harness.scenario import DatasetSpec, RunOptions, Scenario
from repro.harness.store import ResultStore
from repro.obs import MetricsRegistry, Tracer, derive_trace_path, record_metrics
from repro.runtime.device import AMCCADevice


# ----------------------------------------------------------------------
# Materialisation
# ----------------------------------------------------------------------
def materialize_dataset(spec: DatasetSpec) -> StreamingDataset:
    """Generate the streaming dataset a :class:`DatasetSpec` describes."""
    dataset = make_streaming_dataset(
        spec.vertices,
        spec.edges,
        sampling=spec.sampling,
        num_increments=spec.num_increments,
        symmetric=spec.symmetric,
        seed=spec.seed,
        name=spec.name,
        generator=spec.generator,
    )
    if spec.weighted:
        rng = random.Random(spec.seed)
        dataset.increments = [
            [Edge(e.src, e.dst, rng.randint(1, 9)) for e in chunk]
            for chunk in dataset.increments
        ]
    return dataset


def make_algorithm(scenario: Scenario):
    """Instantiate the algorithm object a scenario names (None for ingest)."""
    return get_algorithm(scenario.algorithm).instantiate(root=scenario.options.root)


# ----------------------------------------------------------------------
# Materialisation / finalisation (shared by whole, sharded, pipelined and
# snapshot-restored runs)
# ----------------------------------------------------------------------
def _materialize(
    scenario: Scenario,
    kernel: Optional[str] = None,
    *,
    seed_algorithm: bool = True,
    frames_every: int = 0,
) -> Tuple[StreamingDataset, AMCCADevice, DynamicGraph, Any]:
    """Build the dataset + device + graph + algorithm a scenario describes.

    ``seed_algorithm=False`` skips the algorithm's host-side seeding (e.g.
    BFS's root injection): a snapshot restore overlays the seeded state, so
    re-seeding would double-inject.  ``frames_every`` enables the device's
    activity-frame recorder (:class:`~repro.arch.trace.TraceRecorder`) at
    that cadence — a visualisation knob with no effect on the record.
    """
    opts: RunOptions = scenario.options
    dataset = materialize_dataset(scenario.dataset)
    chip = scenario.chip.to_chip_config()
    if kernel is not None:
        chip = chip.with_(kernel=kernel)
    device = AMCCADevice(chip, trace_every=frames_every)
    graph = DynamicGraph(
        device,
        dataset.num_vertices,
        placement=opts.placement,
        ghost_allocator=opts.ghost_allocator,
        seed=scenario.graph_seed(),
        ingest_only=scenario.algorithm == "ingest",
    )
    algorithm = make_algorithm(scenario)
    if algorithm is not None:
        graph.attach(algorithm)
        if seed_algorithm:
            algorithm.seed(graph, root=opts.root)
    return dataset, device, graph, algorithm


def _final_payload(
    scenario: Scenario,
    dataset: StreamingDataset,
    device: AMCCADevice,
    graph: DynamicGraph,
    algorithm,
) -> Dict[str, Any]:
    """End-of-run payload: query phase + statistics extraction."""
    # Query algorithms (triangles, jaccard, kcore, ...) diffuse over the
    # ingested graph after streaming quiesces; the base contract's ``run``
    # is a no-op returning ``None`` for purely streaming algorithms.
    query_cycles = 0
    if algorithm is not None:
        query_result = algorithm.run(graph)
        if query_result is not None:
            query_cycles = query_result.cycles
    stats = device.stats()
    energy = device.energy_report()
    ghosts = graph.ghost_report()
    return {
        "increment_sizes": dataset.increment_sizes(),
        "query_cycles": query_cycles,
        "energy": energy.as_dict(),
        "stats": stats.summary(),
        # Deterministic metrics snapshot (repro.obs): derived from SimStats
        # only, computed *unconditionally* — every record carries it, so
        # instrumented and plain runs stay byte-identical.
        "metrics": record_metrics(stats),
        "edges_stored": graph.total_edges_stored(),
        "ghost_blocks": ghosts["ghost_blocks"],
        "ghost_distance": ghosts["mean_ghost_distance"],
        "ghost_max_depth": ghosts["max_depth"],
        "algo_metrics": (algorithm.summarize(algorithm.results(graph))
                         if algorithm is not None else {}),
    }


def _snapshot_path(directory: str, scenario: Scenario, increment: int) -> str:
    """Canonical checkpoint filename for a scenario at a boundary."""
    import os

    return os.path.join(directory, f"{scenario.name}-inc{increment:04d}.snap")


def _save_checkpoint(graph: DynamicGraph, scenario: Scenario,
                     increment: int, path: str,
                     tracer: Optional[Tracer] = None) -> None:
    """Capture + atomically save one increment-boundary checkpoint."""
    from contextlib import nullcontext

    from repro.snapshot import capture

    span = (tracer.span("snapshot_capture", "snapshot", increment=increment)
            if tracer is not None else nullcontext())
    with span:
        capture(graph, extra_meta={
            "spec_hash": scenario.spec_hash(),
            "scenario": scenario.name,
            "increment": increment,
        }).save(path)


# ----------------------------------------------------------------------
# Span execution (the shared core of whole-scenario and sharded runs)
# ----------------------------------------------------------------------
def _execute_span(
    scenario: Scenario,
    start: int,
    stop: Optional[int],
    want_final: bool,
    timings: Optional[Dict[str, float]] = None,
    kernel: Optional[str] = None,
    snapshot_every: int = 0,
    snapshot_dir: Optional[str] = None,
    trace_path: Optional[str] = None,
    frames_every: int = 0,
    env_out: Optional[Dict[str, Any]] = None,
    device_setup: Optional[Callable[[AMCCADevice], None]] = None,
) -> Dict[str, Any]:
    """Run increments ``[0, stop)``, measuring only ``[start, stop)``.

    Increments before ``start`` are *replayed* — executed identically but
    not reported — because the graph state they build is the starting point
    of the measured span.  With ``want_final`` (the last shard, or a whole
    run) the query phase runs and end-of-run statistics are extracted.

    ``timings``, when given, receives wall-clock phase durations
    (``setup_s``, ``sim_s``) for the benchmark driver; they never enter the
    returned payload, which stays fully deterministic.  ``kernel``
    overrides the scenario's NoC kernel pin (a speed knob only: records
    are bit-identical across kernels).  ``snapshot_every``/``snapshot_dir``
    checkpoint the run at every Nth increment boundary (resumable runs);
    checkpoints never change the payload either.  ``trace_path`` attaches a
    :class:`repro.obs.Tracer` to the device and writes the Chrome trace
    JSON there at the end — observer-only, so the payload is byte-identical
    with or without it.  ``frames_every`` enables activity-frame capture;
    ``env_out``, when given, receives the live ``dataset``/``device``/
    ``graph``/``algorithm`` for callers that want to inspect them after the
    run (e.g. :func:`run_scenario_traced`).  ``device_setup``, when given,
    is called with the freshly built device before any increment streams —
    a test/fuzz hook (e.g. the fuzz oracle disables cycle skipping through
    it to pin skip transparency); contract-pinned knobs flipped here must
    leave the record byte-identical, which is exactly what the oracle
    asserts.
    """
    t0 = time.perf_counter()
    opts: RunOptions = scenario.options
    dataset, device, graph, algorithm = _materialize(
        scenario, kernel, frames_every=frames_every)
    if device_setup is not None:
        device_setup(device)
    tracer = None
    if trace_path is not None or env_out is not None:
        # env_out implies an instrumented caller (run_scenario_traced):
        # attach the tracer (and phase timers) even with no file to write.
        tracer = Tracer(process_name=f"repro:{scenario.name}")
        device.attach_tracer(tracer)
    t1 = time.perf_counter()

    total = len(dataset.increments)
    stop = total if stop is None else stop
    if not (0 <= start <= stop <= total):
        raise ValueError(f"invalid span [{start}, {stop}) of {total} increments")
    if want_final and stop != total:
        raise ValueError("final span must run through the last increment")

    measured: List[int] = []
    for i, increment in enumerate(dataset.increments[:stop], start=1):
        result = graph.stream_increment(
            increment,
            phase=f"increment-{i}",
            max_cycles=opts.max_cycles_per_increment,
        )
        if i > start:
            measured.append(result.cycles)
        if snapshot_every > 0 and snapshot_dir and i % snapshot_every == 0:
            _save_checkpoint(graph, scenario, i,
                             _snapshot_path(snapshot_dir, scenario, i),
                             tracer)

    part: Dict[str, Any] = {
        "spec_hash": scenario.spec_hash(),
        "span": [start, stop],
        "increment_cycles": measured,
        # How many increments this task actually simulated (replay included):
        # the quantity pipeline mode exists to shrink.  Diagnostic only —
        # the merge never copies it into the record.
        "simulated_increments": stop,
    }
    if want_final:
        part["final"] = _final_payload(scenario, dataset, device, graph,
                                       algorithm)
    if timings is not None:
        timings["setup_s"] = t1 - t0
        timings["sim_s"] = time.perf_counter() - t1
    if tracer is not None and trace_path is not None:
        tracer.save(trace_path)
    if env_out is not None:
        env_out.update(dataset=dataset, device=device, graph=graph,
                       algorithm=algorithm)
    return part


def _assemble_record(
    scenario: Scenario,
    increment_cycles: List[int],
    final: Dict[str, Any],
) -> Dict[str, Any]:
    """The canonical result record: one code path for serial and sharded runs."""
    return {
        "spec_hash": scenario.spec_hash(),
        "name": scenario.name,
        "repro_version": __version__,
        "scenario": scenario.spec_dict(),
        "increment_sizes": final["increment_sizes"],
        "increment_cycles": increment_cycles,
        "query_cycles": final["query_cycles"],
        "total_cycles": sum(increment_cycles) + final["query_cycles"],
        "energy": final["energy"],
        "stats": final["stats"],
        "metrics": final["metrics"],
        "edges_stored": final["edges_stored"],
        "ghost_blocks": final["ghost_blocks"],
        "ghost_distance": final["ghost_distance"],
        "ghost_max_depth": final["ghost_max_depth"],
        "algo_metrics": final["algo_metrics"],
    }


# ----------------------------------------------------------------------
# Single-scenario execution
# ----------------------------------------------------------------------
def run_scenario(
    scenario: Scenario, *, timings: Optional[Dict[str, float]] = None,
    kernel: Optional[str] = None,
    device_setup: Optional[Callable[[AMCCADevice], None]] = None,
) -> Dict[str, Any]:
    """Execute one scenario end to end and return its result record.

    ``device_setup`` (test/fuzz hook) receives the freshly built device
    before streaming starts; see :func:`_execute_span`.
    """
    opts = scenario.options
    part = _execute_span(scenario, 0, None, True, timings, kernel,
                         snapshot_every=opts.snapshot_every,
                         snapshot_dir=opts.snapshot_dir,
                         trace_path=opts.trace_path,
                         device_setup=device_setup)
    return _assemble_record(scenario, part["increment_cycles"], part["final"])


def run_scenario_traced(
    scenario: Scenario, *, frames_every: int = 0,
    kernel: Optional[str] = None, trace_path: Optional[str] = None,
) -> Tuple[Dict[str, Any], AMCCADevice]:
    """Run one scenario instrumented, returning ``(record, device)``.

    The thin harness wrapper behind ``examples/chip_animation.py`` and any
    caller that wants the live device after the run (activity frames,
    phase timers, per-cell occupancy).  ``frames_every > 0`` captures an
    activity frame every that many cycles; ``trace_path`` additionally
    writes a Chrome trace of the run.  The record is byte-identical to
    :func:`run_scenario`'s — instrumentation is observer-only.
    """
    env: Dict[str, Any] = {}
    part = _execute_span(scenario, 0, None, True, kernel=kernel,
                         trace_path=trace_path, frames_every=frames_every,
                         env_out=env)
    record = _assemble_record(scenario, part["increment_cycles"],
                              part["final"])
    return record, env["device"]


# ----------------------------------------------------------------------
# Snapshot restore / resume
# ----------------------------------------------------------------------
def restore_scenario(
    scenario: Scenario, snapshot, *, kernel: Optional[str] = None,
) -> Tuple[StreamingDataset, AMCCADevice, DynamicGraph, Any]:
    """Rebuild a scenario's run mid-stream from a snapshot.

    Reconstructs the code side (device, registry, graph skeleton,
    algorithm — *without* re-seeding) from the declarative spec and
    overlays the snapshot's state.  The snapshot must have been captured
    from the same spec: the embedded ``spec_hash`` (which folds in
    :data:`repro.__version__`) is checked before anything is touched.
    """
    from repro.snapshot import restore_into
    from repro.snapshot.format import SnapshotError

    expected = scenario.spec_hash()
    recorded = snapshot.meta.get("spec_hash")
    if recorded is not None and recorded != expected:
        raise SnapshotError(
            f"snapshot was captured from scenario "
            f"{snapshot.meta.get('scenario')!r} (spec {recorded[:12]}…), "
            f"not from {scenario.name!r} (spec {expected[:12]}…)")
    dataset, device, graph, algorithm = _materialize(
        scenario, kernel, seed_algorithm=False)
    restore_into(graph, snapshot)
    return dataset, device, graph, algorithm


def snapshot_at(
    scenario: Scenario, increment: int, *, kernel: Optional[str] = None,
):
    """Run a scenario up to an increment boundary and capture a snapshot.

    ``increment`` counts streamed increments (1-based boundaries): ``K``
    means "after increment K".  Used by ``repro snapshot save``.
    """
    from repro.snapshot import capture

    dataset, device, graph, algorithm = _materialize(scenario, kernel)
    total = len(dataset.increments)
    if not (1 <= increment <= total):
        raise ValueError(
            f"increment boundary {increment} out of range 1..{total} "
            f"for {scenario.name!r}")
    opts = scenario.options
    for i in range(increment):
        graph.stream_increment(
            dataset.increments[i],
            phase=f"increment-{i + 1}",
            max_cycles=opts.max_cycles_per_increment,
        )
    return capture(graph, extra_meta={
        "spec_hash": scenario.spec_hash(),
        "scenario": scenario.name,
        "increment": increment,
    })


def resume_scenario(
    scenario: Scenario, snapshot, *, kernel: Optional[str] = None,
) -> Dict[str, Any]:
    """Restore from a snapshot, run to completion, return the full record.

    The record is **byte-identical** to an uninterrupted
    :func:`run_scenario` of the same scenario: per-increment cycles of the
    already-streamed prefix come from the snapshot's cursor, the remaining
    increments are simulated, and the final statistics follow from the
    restored state.
    """
    dataset, device, graph, algorithm = restore_scenario(
        scenario, snapshot, kernel=kernel)
    opts = scenario.options
    cycles = graph.per_increment_cycles()
    for i in range(graph.increments_streamed, len(dataset.increments)):
        result = graph.stream_increment(
            dataset.increments[i],
            phase=f"increment-{i + 1}",
            max_cycles=opts.max_cycles_per_increment,
        )
        cycles.append(result.cycles)
    final = _final_payload(scenario, dataset, device, graph, algorithm)
    return _assemble_record(scenario, cycles, final)


def shard_spans(num_increments: int, shards: int) -> List[Tuple[int, int]]:
    """Split ``num_increments`` into up to ``shards`` contiguous spans."""
    shards = max(1, min(shards, num_increments))
    bounds = [round(i * num_increments / shards) for i in range(shards + 1)]
    return [(a, b) for a, b in zip(bounds, bounds[1:]) if b > a]


def cadence_spans(num_increments: int, cadence: int) -> List[Tuple[int, int]]:
    """Contiguous spans of at most ``cadence`` increments each.

    The progress/pause granularity of ``repro serve``: a job executes one
    :func:`_pipeline_span_task` per span, with a checkpoint at every
    boundary, so increments completed (and the park point of a paused job)
    advance in ``cadence``-sized steps.
    """
    cadence = max(1, cadence)
    return [(a, min(a + cadence, num_increments))
            for a in range(0, num_increments, cadence)]


def _unpack_run_opts(
    snap_opts,
) -> Tuple[int, Optional[str], Optional[str]]:
    """``(snapshot_every, snapshot_dir, trace_path)`` from a task's knobs.

    The identity-free run options cross the process boundary as one tuple
    alongside the (stripped) spec.  Older 2-tuples — persisted task args,
    external callers — are accepted with no trace path.
    """
    if snap_opts is None:
        return 0, None, None
    if len(snap_opts) == 2:
        return snap_opts[0], snap_opts[1], None
    return snap_opts


def _span_task(spec: Dict[str, Any], start: int, stop: int,
               want_final: bool, kernel: Optional[str] = None,
               snap_opts: Tuple = (0, None, None)) -> Dict[str, Any]:
    """Pool task: one shard of one scenario (module-level, picklable).

    ``kernel`` and ``snap_opts`` ride alongside the spec because
    :meth:`Scenario.spec_dict` deliberately strips the identity-free
    kernel pin and the ``snapshot_every``/``snapshot_dir``/``trace_path``
    run options.  A shard's trace goes to a per-span filename derived from
    the scenario's trace path, so parallel shards never share a file.
    """
    every, directory, trace = _unpack_run_opts(snap_opts)
    scenario = Scenario.from_dict(spec)
    if trace is not None:
        trace = derive_trace_path(trace, f"span{start}-{stop}")
    return _execute_span(scenario, start, stop, want_final,
                         kernel=kernel, snapshot_every=every,
                         snapshot_dir=directory, trace_path=trace)


def _scenario_task(spec: Dict[str, Any],
                   kernel: Optional[str] = None,
                   snap_opts: Optional[Tuple] = None) -> Dict[str, Any]:
    """Pool task: one whole scenario (module-level, picklable).

    ``snap_opts`` re-threads the (identity-free, spec-stripped)
    ``snapshot_every``/``snapshot_dir``/``trace_path`` run options across
    the process boundary, like ``kernel`` does for the kernel pin.
    """
    every, directory, trace = _unpack_run_opts(snap_opts)
    scenario = Scenario.from_dict(spec)
    part = _execute_span(scenario, 0, None, True, kernel=kernel,
                         snapshot_every=every, snapshot_dir=directory,
                         trace_path=trace)
    return _assemble_record(scenario, part["increment_cycles"], part["final"])


#: Default ceiling (seconds) a pipeline shard waits for its upstream
#: checkpoint before giving up (used when no --timeout guards the task).
PIPELINE_WAIT_S = 600.0


def _await_snapshot(path: str, timeout_s: float) -> None:
    """Block until an upstream shard's checkpoint appears (or fails).

    Checkpoints are written atomically (temp + rename), so existence
    implies completeness.  A ``<path>.failed`` marker — written by a shard
    that raised — aborts the wait immediately instead of timing out.
    """
    import os

    deadline = time.monotonic() + timeout_s
    marker = path + ".failed"
    while not os.path.exists(path):
        if os.path.exists(marker):
            raise RuntimeError(
                f"upstream pipeline shard failed (marker {marker}); "
                "see its error for the cause")
        if time.monotonic() >= deadline:
            raise TimeoutError(
                f"pipeline shard waited {timeout_s:.0f}s for upstream "
                f"checkpoint {path}; upstream shard lost or stalled")
        time.sleep(0.02)


def _run_pipeline_span(
    scenario: Scenario,
    start: int,
    stop: int,
    want_final: bool,
    kernel: Optional[str],
    checkpoint,
    snap_opts: Tuple = (0, None, None),
) -> Tuple[Dict[str, Any], Any]:
    """The pipeline-shard core shared by the pooled and in-process paths.

    Simulates exactly ``[start, stop)`` — from a fresh materialisation when
    ``checkpoint`` is ``None`` (shard 0), otherwise from the restored
    checkpoint — honouring the scenario's ``snapshot_every`` cadence.
    Returns ``(part, boundary_checkpoint)``; the checkpoint is ``None`` for
    the final shard, which carries the ``final`` payload instead.  Only the
    checkpoint *transport* (spill files vs in-memory hand-off) differs
    between callers.
    """
    from repro.snapshot import capture

    if checkpoint is None:
        dataset, device, graph, algorithm = _materialize(scenario, kernel)
    else:
        dataset, device, graph, algorithm = restore_scenario(
            scenario, checkpoint, kernel=kernel)
    opts = scenario.options
    every, directory, trace = _unpack_run_opts(snap_opts)
    tracer = None
    if trace is not None:
        trace = derive_trace_path(trace, f"span{start}-{stop}")
        tracer = Tracer(process_name=f"repro:{scenario.name}")
        device.attach_tracer(tracer)
    measured: List[int] = []
    for i in range(start, stop):
        result = graph.stream_increment(
            dataset.increments[i],
            phase=f"increment-{i + 1}",
            max_cycles=opts.max_cycles_per_increment,
        )
        measured.append(result.cycles)
        if every > 0 and directory and (i + 1) % every == 0:
            _save_checkpoint(graph, scenario, i + 1,
                             _snapshot_path(directory, scenario, i + 1),
                             tracer)
    part: Dict[str, Any] = {
        "spec_hash": scenario.spec_hash(),
        "span": [start, stop],
        "increment_cycles": measured,
        "simulated_increments": stop - start,
    }
    boundary = None
    if want_final:
        part["final"] = _final_payload(scenario, dataset, device, graph,
                                       algorithm)
    else:
        if tracer is not None:
            with tracer.span("snapshot_capture", "snapshot", increment=stop):
                boundary = capture(graph, extra_meta={
                    "spec_hash": scenario.spec_hash(),
                    "scenario": scenario.name,
                    "increment": stop,
                })
        else:
            boundary = capture(graph, extra_meta={
                "spec_hash": scenario.spec_hash(),
                "scenario": scenario.name,
                "increment": stop,
            })
    if tracer is not None:
        tracer.save(trace)
    return part, boundary


def _pipeline_span_task(
    spec: Dict[str, Any],
    start: int,
    stop: int,
    want_final: bool,
    kernel: Optional[str],
    snap_in: Optional[str],
    snap_out: Optional[str],
    wait_s: float = PIPELINE_WAIT_S,
    snap_opts: Tuple = (0, None, None),
) -> Dict[str, Any]:
    """Pool task: one *pipeline* shard — starts from a checkpoint, never
    replays.

    Shard 0 materialises fresh; shard K waits for the checkpoint its
    predecessor wrote at boundary ``start``, restores it, and simulates
    exactly ``[start, stop)``.  Every non-final shard emits the checkpoint
    at ``stop`` for its successor.  On failure a ``.failed`` marker next to
    the would-be output unblocks downstream waiters.
    """
    from pathlib import Path

    from repro.snapshot import Snapshot

    scenario = Scenario.from_dict(spec)
    try:
        checkpoint = None
        if start != 0:
            assert snap_in is not None
            _await_snapshot(snap_in, wait_s)
            checkpoint = Snapshot.load(snap_in)
        part, boundary = _run_pipeline_span(
            scenario, start, stop, want_final, kernel, checkpoint, snap_opts)
        if boundary is not None:
            assert snap_out is not None
            boundary.save(snap_out)
        return part
    except BaseException:
        if snap_out is not None:
            try:
                Path(snap_out + ".failed").touch()
            except OSError:  # pragma: no cover - spill dir already gone
                pass
        raise


def _merge_shard_parts(
    scenario: Scenario, parts: List[Dict[str, Any]]
) -> Dict[str, Any]:
    """Deterministic merge of shard payloads into one canonical record."""
    parts = sorted(parts, key=lambda p: p["span"][0])
    cycles: List[int] = []
    final: Optional[Dict[str, Any]] = None
    expected = 0
    for part in parts:
        start, stop = part["span"]
        if start != expected:
            raise ValueError(f"shard spans of {scenario.name!r} are not contiguous")
        cycles.extend(part["increment_cycles"])
        expected = stop
        if "final" in part:
            final = part["final"]
    if final is None:
        raise ValueError(f"no final shard for {scenario.name!r}")
    return _assemble_record(scenario, cycles, final)


def _pipeline_spill_paths(spill_dir: str, scenario: Scenario,
                          spans: List[Tuple[int, int]]) -> List[Tuple]:
    """Per-span ``(start, stop, want_final, snap_in, snap_out)`` tuples."""
    import os

    prefix = scenario.spec_hash()[:16]
    last = spans[-1][1]

    def path(boundary: int) -> str:
        return os.path.join(spill_dir, f"{prefix}-inc{boundary:05d}.snap")

    out = []
    for a, b in spans:
        out.append((a, b, b == last,
                    path(a) if a > 0 else None,
                    path(b) if b != last else None))
    return out


def run_scenario_sharded(
    scenario: Scenario,
    shards: int,
    *,
    pool: Optional[WorkerPool] = None,
    timeout: Optional[float] = None,
    kernel: Optional[str] = None,
    pipeline: bool = False,
    parts_out: Optional[List[Dict[str, Any]]] = None,
) -> Dict[str, Any]:
    """Run one scenario as sharded spans and merge — byte-identical to serial.

    With ``pool`` the spans run as parallel pool tasks (each guarded by
    ``timeout``, if set); without one they run in-process, which still
    exercises the span/merge path.  Raises ``TimeoutError`` or
    ``RuntimeError`` when a shard fails.

    ``pipeline=True`` switches from prefix replay to checkpoint hand-off:
    shard K restores the snapshot its predecessor captured at boundary
    K·span and simulates only its own span, so total CPU across shards is
    O(increments) instead of O(shards · increments).  Checkpoints flow
    through a temporary spill directory (pooled runs) or stay in memory
    (in-process runs).  The merged record stays byte-identical either way.
    ``parts_out``, when given, receives the raw span payloads — their
    ``simulated_increments`` fields are the no-replay proof the tests and
    the A/B acceptance check read.
    """
    spans = shard_spans(scenario.dataset.num_increments, shards)
    spec = scenario.spec_dict()
    effective = kernel if kernel is not None else scenario.chip.kernel
    opts = scenario.options
    snap_opts = (opts.snapshot_every, opts.snapshot_dir, opts.trace_path)
    last = spans[-1][1]
    if pool is None:
        if pipeline:
            parts = _pipeline_inprocess(scenario, spans, effective)
        else:
            parts = [_span_task(spec, a, b, b == last, effective, snap_opts)
                     for a, b in spans]
    elif pipeline:
        import shutil
        import tempfile

        spill_dir = tempfile.mkdtemp(prefix="repro-pipeline-")
        try:
            tasks = [
                (_pipeline_span_task,
                 (spec, a, b, final, effective, snap_in, snap_out,
                  _pipeline_wait_s(timeout, index), snap_opts))
                for index, (a, b, final, snap_in, snap_out)
                in enumerate(_pipeline_spill_paths(spill_dir, scenario, spans))
            ]
            outcomes = pool.run_tasks(tasks, timeout=timeout)
            _raise_on_shard_failure(scenario, outcomes, timeout)
            parts = [o.value for o in outcomes]
        finally:
            shutil.rmtree(spill_dir, ignore_errors=True)
    else:
        outcomes = pool.run_tasks(
            [(_span_task, (spec, a, b, b == last, effective, snap_opts))
             for a, b in spans],
            timeout=timeout,
        )
        _raise_on_shard_failure(scenario, outcomes, timeout)
        parts = [o.value for o in outcomes]
    if parts_out is not None:
        parts_out.extend(parts)
    return _merge_shard_parts(scenario, parts)


def _pipeline_wait_s(timeout: Optional[float], span_index: int) -> float:
    """Checkpoint-wait budget for pipeline shard ``span_index``.

    The wait legitimately spans the *cumulative* runtime of every upstream
    shard (shard K cannot see its input before shards 0..K-1 have all
    run), so the unguarded default scales with the shard index instead of
    applying one flat cap that long runs would trip spuriously.  An
    explicit ``--timeout`` takes over outright — the pool kills overdue
    waiters anyway, so a tighter in-task deadline would only race it.
    """
    if timeout is not None:
        return timeout
    return PIPELINE_WAIT_S * max(1, span_index)


def _raise_on_shard_failure(scenario: Scenario, outcomes, timeout) -> None:
    for outcome in outcomes:
        if outcome.status == "timeout":
            raise TimeoutError(
                f"shard of {scenario.name!r} exceeded {timeout}s")
        if outcome.status != "ok":
            raise RuntimeError(
                f"shard of {scenario.name!r} failed:\n{outcome.error}")


def _pipeline_inprocess(
    scenario: Scenario, spans: List[Tuple[int, int]], kernel: Optional[str],
) -> List[Dict[str, Any]]:
    """Pipeline shards executed in-process: checkpoints stay in memory.

    Exercises the exact capture → restore → resume path of the pooled
    pipeline (each span restores from a *decoded copy* of the bytes the
    previous span captured) without touching the filesystem.
    """
    from repro.snapshot import Snapshot

    opts = scenario.options
    snap_opts = (opts.snapshot_every, opts.snapshot_dir, opts.trace_path)
    last = spans[-1][1]
    parts: List[Dict[str, Any]] = []
    checkpoint = None
    for a, b in spans:
        part, boundary = _run_pipeline_span(
            scenario, a, b, b == last, kernel,
            (Snapshot.from_bytes(checkpoint.to_bytes())
             if checkpoint is not None else None),
            snap_opts,
        )
        checkpoint = boundary
        parts.append(part)
    return parts


# ----------------------------------------------------------------------
# Suite execution
# ----------------------------------------------------------------------
@dataclass
class ScenarioOutcome:
    """One scenario's result plus how it was obtained.

    ``status`` is one of ``"ok"`` (record present, fresh or cached),
    ``"timeout"`` (exceeded the per-task budget), ``"error"`` (raised or
    the worker died) or ``"uncached"`` (``expect_cached`` found no stored
    record and refused to compute).  Only ``"ok"`` outcomes carry a record.
    """

    scenario: Scenario
    record: Optional[Dict[str, Any]]
    cached: bool
    status: str = "ok"
    error: Optional[str] = None


@dataclass
class SuiteReport:
    """Everything :func:`run_suite` did, in suite order."""

    outcomes: List[ScenarioOutcome] = field(default_factory=list)
    elapsed_s: float = 0.0
    jobs: int = 1

    @property
    def records(self) -> List[Dict[str, Any]]:
        return [o.record for o in self.outcomes if o.record is not None]

    @property
    def cache_hits(self) -> int:
        return sum(1 for o in self.outcomes if o.cached)

    @property
    def cache_misses(self) -> int:
        return sum(1 for o in self.outcomes if not o.cached and o.status == "ok")

    @property
    def failures(self) -> List[ScenarioOutcome]:
        """Outcomes that produced no record (timeout / error / uncached)."""
        return [o for o in self.outcomes if o.status != "ok"]


_STATUS_TAGS = {
    "timeout": "[timeout   ]",
    "error": "[error     ]",
    "uncached": "[uncached  ]",
}


def run_suite(
    scenarios: List[Scenario],
    *,
    jobs: int = 1,
    store: Optional[ResultStore] = None,
    force: bool = False,
    progress: Optional[Callable[[str], None]] = None,
    shard_increments: int = 1,
    timeout: Optional[float] = None,
    expect_cached: bool = False,
    pool: Optional[WorkerPool] = None,
    kernel: Optional[str] = None,
    pipeline: bool = False,
    tracer: Optional[Tracer] = None,
    metrics: Optional[MetricsRegistry] = None,
    trace_base: Optional[str] = None,
) -> SuiteReport:
    """Run a suite of scenarios, consulting and filling the result store.

    Parameters
    ----------
    jobs:
        Worker processes.  ``1`` runs serially in-process (unless ``timeout``
        is set, which needs process isolation); results are identical either
        way because every scenario derives its seeds from its own spec.
    store:
        Optional :class:`ResultStore`.  Scenarios whose spec hash is already
        stored are reported as cache hits and not re-run.
    force:
        Re-run every scenario even on a cache hit, replacing stored records.
    progress:
        Optional callback receiving one human-readable line per scenario.
    shard_increments:
        Split each pending scenario's increment stream into up to this many
        spans, each its own pool task (see the module docstring for the
        replay cost model).  ``1`` disables sharding.
    timeout:
        Per-task wall-clock budget in seconds.  An overdue task's worker is
        killed; the scenario records a ``timeout`` outcome and the rest of
        the suite keeps running.  With sharding the budget guards each span.
    expect_cached:
        Assert-only mode: scenarios missing from the store are *not* run but
        reported with status ``"uncached"`` (in ``report.failures``), so CI
        can verify a warm cache without grep-ing log text.
    pool:
        Explicit :class:`WorkerPool` to run on; defaults to the process-wide
        shared pool (:func:`~repro.harness.pool.get_pool`), which persists
        between calls so repeated suites reuse warm workers.
    kernel:
        Override every scenario's NoC kernel pin (one of
        :data:`repro.arch.config.KERNELS`).  A speed knob only: records, spec hashes and cache
        behaviour are identical across kernels, so this composes freely
        with the store.
    pipeline:
        With ``shard_increments > 1``, hand chip state between shards as
        :mod:`repro.snapshot` checkpoints instead of replaying prefixes:
        shard K starts from the snapshot emitted at boundary K·span, so no
        increment is ever simulated twice.  Stores stay byte-identical to
        serial runs.
    tracer:
        Optional :class:`repro.obs.Tracer` observing the harness side of
        the run: cache hits/outcomes, pool task spans, store writes.  The
        caller owns saving it.  Observer-only by contract — attaching it
        never changes a record byte.
    metrics:
        Optional :class:`repro.obs.MetricsRegistry` accumulating runtime
        metrics (suite outcomes, pool task latency/timeouts, store
        rewrites).  These are wall-clock/operational values and are never
        embedded in records (records carry their own deterministic
        ``metrics`` key, always).
    trace_base:
        Base path for per-scenario simulator traces: each freshly computed
        scenario writes a Chrome trace to
        ``derive_trace_path(trace_base, name)`` (per-span files when
        sharded).  Works with every execution mode, including pooled
        workers.
    """
    say = progress or (lambda _msg: None)
    started = time.perf_counter()
    report = SuiteReport(jobs=jobs)

    if trace_base is not None:
        # trace_path is identity-free (stripped from spec_dict), so this
        # rewrite changes no spec hash and no cache decision.
        scenarios = [
            s.with_(options=replace(
                s.options,
                trace_path=derive_trace_path(trace_base, s.name)))
            for s in scenarios
        ]
    suite_start_ns = tracer.now_ns() if tracer is not None else 0

    observed_pool: Optional[WorkerPool] = None
    if store is not None:
        store.tracer = tracer
        store.metrics = metrics
    try:
        hashes = [s.spec_hash() for s in scenarios]
        pending: List[int] = []  # indices into `scenarios` that must actually run
        slots: List[Optional[ScenarioOutcome]] = [None] * len(scenarios)
        seen_this_run: Dict[str, int] = {}
        for i, (scenario, spec_hash) in enumerate(zip(scenarios, hashes)):
            cached = store.get(spec_hash) if (store is not None and not force) else None
            if cached is not None:
                slots[i] = ScenarioOutcome(scenario, cached, cached=True)
                say(f"[cache hit ] {scenario.name}")
                if tracer is not None:
                    tracer.instant("cache_hit", "suite", scenario=scenario.name)
            elif spec_hash in seen_this_run:
                # Duplicate spec inside one suite: run once, reuse the record.
                pass
            else:
                seen_this_run[spec_hash] = i
                pending.append(i)

        if pending and expect_cached:
            for i in pending:
                slots[i] = ScenarioOutcome(scenarios[i], None, cached=False,
                                           status="uncached")
                say(f"{_STATUS_TAGS['uncached']} {scenarios[i].name}")
            pending = []

        if pending:
            workers = max(1, min(jobs, len(pending) * max(1, shard_increments)))
            if workers > 1 or timeout is not None:
                observed_pool = pool or get_pool(workers)
                observed_pool.tracer = tracer
                observed_pool.metrics = metrics
                outcomes = _run_pending_pooled(
                    scenarios, pending, observed_pool,
                    shard_increments=shard_increments, timeout=timeout,
                    max_workers=workers, kernel=kernel, pipeline=pipeline,
                )
            else:
                # Serial in-process path.  Sharding still executes span-by-span
                # (exercising the span/merge — and, with --pipeline, the
                # capture/restore — path) so the flag never silently no-ops
                # just because jobs defaulted to 1.
                outcomes = []
                for i in pending:
                    if shard_increments > 1:
                        record = run_scenario_sharded(scenarios[i], shard_increments,
                                                      kernel=kernel,
                                                      pipeline=pipeline)
                    else:
                        record = run_scenario(scenarios[i], kernel=kernel)
                    outcomes.append(
                        ScenarioOutcome(scenarios[i], record, cached=False))
            fresh_records = []
            for i, outcome in zip(pending, outcomes):
                slots[i] = outcome
                if outcome.status == "ok":
                    say(f"[computed  ] {outcome.scenario.name}")
                    fresh_records.append(outcome.record)
                else:
                    say(f"{_STATUS_TAGS[outcome.status]} {outcome.scenario.name}")
                if tracer is not None:
                    tracer.instant(f"scenario_{outcome.status}", "suite",
                                   scenario=outcome.scenario.name)
            if store is not None and fresh_records:
                store.put_many(fresh_records)

        # Fill outcomes for intra-suite duplicates from the scenario that ran.
        by_hash = {hashes[i]: s for i, s in enumerate(slots) if s is not None}
        for i, slot in enumerate(slots):
            if slot is None:
                twin = by_hash[hashes[i]]
                slots[i] = ScenarioOutcome(
                    scenarios[i], twin.record, cached=twin.status == "ok",
                    status=twin.status, error=twin.error,
                )
    finally:
        if store is not None:
            store.tracer = None
            store.metrics = None
        if observed_pool is not None:
            observed_pool.tracer = None
            observed_pool.metrics = None

    report.outcomes = [s for s in slots if s is not None]
    report.elapsed_s = time.perf_counter() - started
    if metrics is not None:
        outcomes_total = metrics.counter(
            "suite_scenarios_total", "Suite scenario outcomes by status",
            ("status",))
        for outcome in report.outcomes:
            status = "cached" if outcome.cached and outcome.status == "ok" \
                else outcome.status
            outcomes_total.inc(status=status)
        metrics.gauge("suite_elapsed_seconds",
                      "Wall time of the last suite run").set(report.elapsed_s)
    if tracer is not None:
        tracer.complete(
            "suite_run", "harness", start_ns=suite_start_ns,
            dur_ns=tracer.now_ns() - suite_start_ns,
            scenarios=len(scenarios), jobs=jobs,
            cache_hits=report.cache_hits, cache_misses=report.cache_misses,
            failures=len(report.failures))
    return report


def _run_pending_pooled(
    scenarios: List[Scenario],
    pending: List[int],
    pool: WorkerPool,
    *,
    shard_increments: int,
    timeout: Optional[float],
    max_workers: Optional[int] = None,
    kernel: Optional[str] = None,
    pipeline: bool = False,
) -> List[ScenarioOutcome]:
    """Run pending scenarios on a pool, sharding each when asked to.

    All tasks (shards of every pending scenario) go into one batch so spans
    of a long scenario interleave with other scenarios across the workers.
    Returns one outcome per pending index, in ``pending`` order.

    Pipeline mode keeps every scenario's spans contiguous and in span order
    within the batch.  Combined with the pool's in-order dispatch this
    guarantees progress: the earliest unfinished span of any scenario
    always has a finished predecessor, so a worker blocked on an upstream
    checkpoint can never deadlock the batch.
    """
    spill_dir: Optional[str] = None
    tasks = []
    task_owner: List[int] = []  # task index -> position in `pending`
    for pos, i in enumerate(pending):
        scenario = scenarios[i]
        effective = kernel if kernel is not None else scenario.chip.kernel
        spans = (shard_spans(scenario.dataset.num_increments, shard_increments)
                 if shard_increments > 1 else [])
        opts = scenario.options
        snap_opts = (opts.snapshot_every, opts.snapshot_dir, opts.trace_path)
        if len(spans) > 1:
            last = spans[-1][1]
            spec = scenario.spec_dict()
            if pipeline:
                if spill_dir is None:
                    import tempfile

                    spill_dir = tempfile.mkdtemp(prefix="repro-pipeline-")
                for index, (a, b, final, snap_in, snap_out) in enumerate(
                        _pipeline_spill_paths(spill_dir, scenario, spans)):
                    tasks.append((_pipeline_span_task,
                                  (spec, a, b, final, effective, snap_in,
                                   snap_out, _pipeline_wait_s(timeout, index),
                                   snap_opts)))
                    task_owner.append(pos)
            else:
                for a, b in spans:
                    tasks.append((_span_task,
                                  (spec, a, b, b == last, effective,
                                   snap_opts)))
                    task_owner.append(pos)
        else:
            tasks.append((_scenario_task,
                          (scenario.spec_dict(), effective, snap_opts)))
            task_owner.append(pos)

    try:
        results = pool.run_tasks(tasks, timeout=timeout,
                                 max_workers=max_workers)
    finally:
        if spill_dir is not None:
            import shutil

            shutil.rmtree(spill_dir, ignore_errors=True)

    grouped: Dict[int, List[TaskResult]] = {}
    for task_id, result in enumerate(results):
        grouped.setdefault(task_owner[task_id], []).append(result)

    outcomes: List[ScenarioOutcome] = []
    for pos, i in enumerate(pending):
        scenario = scenarios[i]
        parts = grouped[pos]
        bad = [r for r in parts if r.status != "ok"]
        if bad:
            status = ("timeout" if any(r.status == "timeout" for r in bad)
                      else "error")
            error = next((r.error for r in bad if r.error), None)
            outcomes.append(ScenarioOutcome(scenario, None, cached=False,
                                            status=status, error=error))
        elif len(parts) == 1 and "span" not in parts[0].value:
            outcomes.append(ScenarioOutcome(scenario, parts[0].value,
                                            cached=False))
        else:
            record = _merge_shard_parts(scenario, [r.value for r in parts])
            outcomes.append(ScenarioOutcome(scenario, record, cached=False))
    return outcomes
