"""Scenario execution: one span function under every run path.

:func:`run_scenario` materialises one :class:`~repro.harness.scenario.Scenario`
into a dataset + device + graph + algorithm, streams every increment, runs
the query diffusion when the algorithm has one, and returns a flat,
JSON-serialisable **record** containing only deterministic fields (no
timestamps, hostnames or wall-clock), so the same scenario produces a
byte-identical record whether it runs in-process, in a worker, or sharded.

Every entry point — :func:`run_scenario`, :func:`run_scenario_traced`,
:func:`snapshot_at`, :func:`resume_scenario` and the pool task behind
sharded suites and ``repro serve`` — is a thin wrapper over
:func:`_run_span`: materialise or restore a checkpoint, stream up to an
increment boundary with the ``snapshot_every`` cadence and the tracer, and
return the final payload or the boundary snapshot.

:func:`run_suite` fans a suite out over the shared
:class:`~repro.harness.pool.DispatchPool`.  A mid-run simulator is full of
closures and is not picklable, but a :class:`Scenario` is a frozen
dataclass of plain values, so only scenarios and checkpoint paths cross the
process boundary (records come back as plain dicts).  Scenarios already
present in the :class:`~repro.harness.store.ResultStore` are skipped as
cache hits unless ``force`` is set.

Increment sharding
------------------
``shard_increments=N`` splits one scenario's increment stream into up to N
contiguous spans, each its own task (:func:`run_scenario_sharded`).  The
chip's state is sequential — increment ``i`` runs against the graph that
increments ``0..i-1`` built — so span K restores the :mod:`repro.snapshot`
checkpoint span K-1 saved at their shared boundary into a spill directory.
**No increment is ever simulated twice**: total CPU is one pass over the
stream, whatever the shard count.  The last span assembles the record from
the restored cursor plus its own increments, which is **byte-identical to
a serial run** because a restored snapshot continues the bit-identical
schedule (see docs/snapshot.md).

An unsharded scenario is the single span ``[0, total)``.  A scenario with
``max_cycles_per_increment`` set also always runs as one span: a truncated
increment can end with continuations still awaiting their trigger, which
no checkpoint can capture.

The warm slot
-------------
Restoring a checkpoint means regenerating the dataset, decoding the file
and rebuilding the device and graph, which costs several times what one
increment does.  So every process keeps a **warm slot**: the live run
(dataset, device, graph, algorithm) of the last span it finished with a
checkpoint, keyed by the scenario's spec hash and that checkpoint's body
digest.  The next span of the same scenario continues the live run when
both keys match its own spec hash and the last 32 bytes of its input
checkpoint; otherwise it restores, as any span on another process does.
The checkpoint is still saved at every boundary, and a live run is the
state a restore of it rebuilds, so records and checkpoint bytes are the
same either way.  In-process sharded runs continue warm span after span;
on a pool, ``repro serve`` keys each job's spans to the worker that ran
the previous one (:meth:`DispatchPool.submit`'s ``affinity``).
"""

from __future__ import annotations

import os
import random
import tempfile
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro import __version__
from repro.algorithms.registry import get_algorithm
from repro.datasets.streaming import StreamingDataset, make_streaming_dataset
from repro.graph.graph import DynamicGraph
from repro.graph.rpvo import Edge
from repro.harness.pool import DispatchPool, Task, get_pool
from repro.harness.scenario import DatasetSpec, RunOptions, Scenario
from repro.harness.store import ResultStore
from repro.obs import MetricsRegistry, Tracer, derive_trace_path, record_metrics
from repro.runtime.device import AMCCADevice
from repro.snapshot import Snapshot, capture, restore_into
from repro.snapshot.format import SnapshotError


# ----------------------------------------------------------------------
# Materialisation
# ----------------------------------------------------------------------
#: A built run: dataset, device, graph and algorithm (``None`` for ingest).
Run = Tuple[StreamingDataset, AMCCADevice, DynamicGraph, Any]


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


def _pinned(scenario: Scenario, kernel: Optional[str]) -> Scenario:
    """The scenario with its NoC kernel pin overridden (``None``: as is).

    The pin is identity-free (stripped from the spec hash), so the override
    rides inside the pickled scenario and changes no record byte.
    """
    if kernel is None:
        return scenario
    return scenario.with_(chip=replace(scenario.chip, kernel=kernel))


def _materialize(
    scenario: Scenario,
    snapshot: Optional[Snapshot] = None,
    *,
    frames_every: int = 0,
) -> Run:
    """Build the dataset + device + graph + algorithm a scenario describes.

    With a ``snapshot`` the algorithm is attached but not seeded (e.g. no
    BFS root injection) and the snapshot's state is overlaid instead:
    re-seeding would double-inject.  The snapshot must have been captured
    from the same spec; its embedded ``spec_hash`` (which folds in
    :data:`repro.__version__`) is checked before anything is built.
    ``frames_every`` enables the device's activity-frame recorder
    (:class:`~repro.arch.trace.TraceRecorder`) at that cadence — a
    visualisation knob with no effect on the record.
    """
    if snapshot is not None:
        expected = scenario.spec_hash()
        recorded = snapshot.meta.get("spec_hash")
        if recorded is not None and recorded != expected:
            raise SnapshotError(
                f"snapshot was captured from scenario "
                f"{snapshot.meta.get('scenario')!r} (spec {recorded[:12]}…), "
                f"not from {scenario.name!r} (spec {expected[:12]}…)")
    opts: RunOptions = scenario.options
    dataset = materialize_dataset(scenario.dataset)
    device = AMCCADevice(scenario.chip.to_chip_config(),
                         trace_every=frames_every)
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
        if snapshot is None:
            algorithm.seed(graph, root=opts.root)
    if snapshot is not None:
        restore_into(graph, snapshot)
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


def _snapshot_path(directory: str, scenario: Scenario, increment: int) -> str:
    """Canonical checkpoint filename for a scenario at a boundary."""
    return os.path.join(directory, f"{scenario.name}-inc{increment:04d}.snap")


def _capture(graph: DynamicGraph, scenario: Scenario, increment: int,
             tracer: Optional[Tracer]) -> Snapshot:
    """Capture the checkpoint of a run at one increment boundary."""
    span = (tracer.span("snapshot_capture", "snapshot", increment=increment)
            if tracer is not None else nullcontext())
    with span:
        return capture(graph, extra_meta={
            "spec_hash": scenario.spec_hash(),
            "scenario": scenario.name,
            "increment": increment,
        })


# ----------------------------------------------------------------------
# The span function (the one core under every run path)
# ----------------------------------------------------------------------
def _run_span(
    scenario: Scenario,
    stop: Optional[int] = None,
    *,
    run: Optional[Run] = None,
    final: bool = True,
    timings: Optional[Dict[str, float]] = None,
    device_setup: Optional[Callable[[AMCCADevice], None]] = None,
    frames_every: int = 0,
) -> Tuple[List[int], Any]:
    """Stream one span of a run and return ``(cycles, end)``.

    Materialises the scenario, or continues ``run`` (one built fresh,
    restored from a checkpoint, or left live by an earlier span), then
    streams the increments from there up to boundary ``stop`` (default:
    the last one).
    The scenario's options drive the observers: every ``snapshot_every``
    boundaries a checkpoint is saved into ``snapshot_dir``, and with a
    ``trace_path`` a :class:`repro.obs.Tracer` watches the device and is
    written there at the end.  Neither changes a payload byte.

    ``cycles`` lists every streamed increment's cycle count since the start
    of the run, a restored prefix included.  With ``final`` (``stop`` must
    then be the last boundary), ``end`` is the final payload (query phase
    + statistics); otherwise it is the snapshot captured at ``stop``, which
    may be any boundary, the last one included.

    ``timings``, when given, receives wall-clock phase durations for the
    benchmark driver: ``setup_s`` is the materialisation, ``sim_s`` the
    rest.  They never enter the payload, which stays fully deterministic.
    ``frames_every`` enables activity-frame capture.  ``device_setup``,
    when given, is called with the built device before any increment
    streams — a test/fuzz hook (e.g. the fuzz oracle turns busy-cell
    parking off through it to pin park transparency); contract-pinned knobs
    flipped here must leave the record byte-identical, which is exactly
    what the oracle asserts.
    """
    t0 = time.perf_counter()
    opts: RunOptions = scenario.options
    dataset, device, graph, algorithm = run or _materialize(
        scenario, frames_every=frames_every)
    start, total = graph.increments_streamed, len(dataset.increments)
    stop = total if stop is None else stop
    if not start <= stop <= total:
        raise ValueError(f"invalid span [{start}, {stop}) of {total} increments")
    if final and stop != total:
        raise ValueError("final span must run through the last increment")
    tracer = None
    if opts.trace_path is not None:
        tracer = Tracer(process_name=f"repro:{scenario.name}")
        device.attach_tracer(tracer)
    if device_setup is not None:
        device_setup(device)
    t1 = time.perf_counter()

    every, directory = opts.snapshot_every, opts.snapshot_dir
    for i in range(start, stop):
        graph.stream_increment(
            dataset.increments[i],
            phase=f"increment-{i + 1}",
            max_cycles=opts.max_cycles_per_increment,
        )
        if every > 0 and directory and (i + 1) % every == 0:
            _capture(graph, scenario, i + 1, tracer).save(
                _snapshot_path(directory, scenario, i + 1))
    if final:
        end = _final_payload(scenario, dataset, device, graph, algorithm)
    else:
        end = _capture(graph, scenario, stop, tracer)
    if timings is not None:
        timings["setup_s"] = t1 - t0
        timings["sim_s"] = time.perf_counter() - t1
    if tracer is not None:
        tracer.save(opts.trace_path)
    return graph.per_increment_cycles(), end


# ----------------------------------------------------------------------
# Single-scenario entry points
# ----------------------------------------------------------------------
def run_scenario(
    scenario: Scenario, *, timings: Optional[Dict[str, float]] = None,
    kernel: Optional[str] = None,
    device_setup: Optional[Callable[[AMCCADevice], None]] = None,
) -> Dict[str, Any]:
    """Execute one scenario end to end and return its result record.

    ``timings`` and ``device_setup`` are described at :func:`_run_span`;
    ``kernel`` overrides the scenario's NoC kernel pin (a speed knob only:
    records are bit-identical across kernels).
    """
    scenario = _pinned(scenario, kernel)
    cycles, final = _run_span(scenario, timings=timings,
                              device_setup=device_setup)
    return _assemble_record(scenario, cycles, final)


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
    scenario = _pinned(scenario, kernel)
    if trace_path is not None:
        scenario = scenario.with_(options=replace(scenario.options,
                                                  trace_path=trace_path))
    devices: List[AMCCADevice] = []

    def keep(device: AMCCADevice) -> None:
        device.simulator.enable_phase_timers()
        devices.append(device)

    cycles, final = _run_span(scenario, frames_every=frames_every,
                              device_setup=keep)
    return _assemble_record(scenario, cycles, final), devices[0]


def restore_scenario(
    scenario: Scenario, snapshot, *, kernel: Optional[str] = None,
) -> Run:
    """Rebuild a scenario's run mid-stream from a snapshot.

    Reconstructs the code side (device, registry, graph skeleton,
    algorithm — *without* re-seeding) from the declarative spec and
    overlays the snapshot's state.  The snapshot must have been captured
    from the same spec: the embedded ``spec_hash`` (which folds in
    :data:`repro.__version__`) is checked before anything is touched.
    """
    return _materialize(_pinned(scenario, kernel), snapshot)


def snapshot_at(
    scenario: Scenario, increment: int, *, kernel: Optional[str] = None,
):
    """Run a scenario up to an increment boundary and capture a snapshot.

    ``increment`` counts streamed increments (1-based boundaries): ``K``
    means "after increment K".  Used by ``repro snapshot save``.
    """
    total = scenario.dataset.num_increments
    if not 1 <= increment <= total:
        raise ValueError(
            f"increment boundary {increment} out of range 1..{total} "
            f"for {scenario.name!r}")
    return _run_span(_pinned(scenario, kernel), increment, final=False)[1]


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
    scenario = _pinned(scenario, kernel)
    cycles, final = _run_span(scenario, run=_materialize(scenario, snapshot))
    return _assemble_record(scenario, cycles, final)


# ----------------------------------------------------------------------
# Span plans and the pool task
# ----------------------------------------------------------------------
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


def _plan_spans(scenario: Scenario,
                spans: List[Tuple[int, int]]) -> List[Tuple[int, int]]:
    """``spans``, or the single span ``[0, total)`` for a truncated scenario.

    ``max_cycles_per_increment`` can end an increment with registered
    continuations still awaiting their trigger, state a checkpoint refuses
    to capture, so a truncated scenario never hands off mid-stream.
    """
    if scenario.options.max_cycles_per_increment is None:
        return spans
    return [(0, scenario.dataset.num_increments)]


#: Default ceiling (seconds) a span waits for its upstream checkpoint
#: before giving up (used when no --timeout guards the task).
PIPELINE_WAIT_S = 600.0


def _await_snapshot(path: str, timeout_s: float) -> None:
    """Block until an upstream span's checkpoint appears (or fails).

    Checkpoints are written atomically (temp + rename), so existence
    implies completeness.  A ``<path>.failed`` marker — written by a span
    that raised — aborts the wait immediately instead of timing out.
    """
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


@dataclass
class _WarmRun:
    """The warm slot's entry: a live run parked at a saved checkpoint."""

    spec_hash: str
    digest: bytes  # body digest: the checkpoint file's last 32 bytes
    run: Run


#: This process's warm slot (see the module docstring); at most one entry.
#: Spans take it under the lock, so two threads never continue one run.
_warm: Optional[_WarmRun] = None
_warm_lock = threading.Lock()


def drop_warm_run() -> None:
    """Empty this process's warm slot: the next span restores its input."""
    global _warm
    _warm = None


def _body_digest(path: str) -> bytes:
    """The body digest a snapshot file ends with (empty if unreadable)."""
    try:
        with open(path, "rb") as fh:
            fh.seek(-32, os.SEEK_END)
            return fh.read(32)
    except OSError:
        return b""


def _pipeline_span_task(
    scenario: Scenario,
    stop: int,
    snap_in: Optional[str],
    snap_out: Optional[str],
    wait_s: float = PIPELINE_WAIT_S,
) -> Tuple[List[int], Optional[Dict[str, Any]], str]:
    """Pool task: one span of a scenario (module-level, picklable).

    The first span (no ``snap_in``) materialises fresh; a later span waits
    for the checkpoint its predecessor saved at ``snap_in`` and streams
    from there up to boundary ``stop``.  It continues the warm slot's live
    run when that run sits at exactly this checkpoint of this spec, and
    restores the checkpoint otherwise.  A span with a successor saves the
    checkpoint at ``stop`` to ``snap_out`` and leaves its live run in the
    slot; the last span (no ``snap_out``) assembles the record.

    Returns ``(cycles, record, handoff)``: the cycles of every increment
    streamed since the start of the run, the record or ``None``, and how
    the span started: ``"fresh"``, ``"warm"`` or ``"restored"``.  On
    failure the slot stays empty, and a ``.failed`` marker next to the
    would-be output unblocks downstream waiters.
    """
    global _warm
    with _warm_lock:
        warm, _warm = _warm, None
    try:
        run, handoff = None, "fresh"
        if snap_in is not None:
            _await_snapshot(snap_in, wait_s)
            # Both keys: two specs can share a checkpoint body and still
            # differ in later increments.
            if (warm is not None and warm.spec_hash == scenario.spec_hash()
                    and warm.digest == _body_digest(snap_in)):
                run, handoff = warm.run, "warm"
            else:
                handoff = "restored"
        warm = None  # a live run not continued is dropped before any build
        if run is None:
            checkpoint = Snapshot.load(snap_in) if snap_in else None
            run = _materialize(scenario, checkpoint)
        cycles, end = _run_span(scenario, stop, run=run,
                                final=snap_out is None)
        if snap_out is None:
            return cycles, _assemble_record(scenario, cycles, end), handoff
        end.save(snap_out)
        sim = run[1].simulator
        sim.tracer = sim.phase_ns = None  # the next span attaches its own
        _warm = _WarmRun(scenario.spec_hash(), end.to_bytes()[-32:], run)
        return cycles, None, handoff
    except BaseException:
        if snap_out is not None:
            try:
                Path(snap_out + ".failed").touch()
            except OSError:  # pragma: no cover - spill dir already gone
                pass
        raise


def _pipeline_wait_s(timeout: Optional[float], span_index: int) -> float:
    """Checkpoint-wait budget for span ``span_index`` of a scenario.

    The wait legitimately spans the *cumulative* runtime of every upstream
    span (span K cannot see its input before spans 0..K-1 have all run),
    so the unguarded default scales with the span index instead of
    applying one flat cap that long runs would trip spuriously.  An
    explicit ``--timeout`` takes over outright — the pool kills overdue
    waiters anyway, so a tighter in-task deadline would only race it.
    """
    if timeout is not None:
        return timeout
    return PIPELINE_WAIT_S * max(1, span_index)


def _span_tasks(scenario: Scenario, shards: int, spill_dir: str,
                timeout: Optional[float]) -> List[Task]:
    """One scenario's task list: a :func:`_pipeline_span_task` per span.

    Checkpoints hand over through ``spill_dir``, named by spec hash so the
    scenarios of one suite never collide.  A multi-span scenario traces
    each span to its own file derived from the scenario's trace path, so
    parallel spans never share a file.
    """
    spans = _plan_spans(
        scenario, shard_spans(scenario.dataset.num_increments, shards))
    last = spans[-1][1]
    prefix = os.path.join(spill_dir, scenario.spec_hash()[:16])
    trace = scenario.options.trace_path
    tasks: List[Task] = []
    for index, (a, b) in enumerate(spans):
        span = scenario
        if trace is not None and len(spans) > 1:
            span = scenario.with_(options=replace(
                scenario.options,
                trace_path=derive_trace_path(trace, f"span{a}-{b}")))
        tasks.append((_pipeline_span_task, (
            span, b,
            f"{prefix}-inc{a:05d}.snap" if a > 0 else None,
            f"{prefix}-inc{b:05d}.snap" if b != last else None,
            _pipeline_wait_s(timeout, index),
        )))
    return tasks


def _spill_dir() -> tempfile.TemporaryDirectory:
    """A temporary directory for the checkpoints spans hand over."""
    return tempfile.TemporaryDirectory(prefix="repro-pipeline-",
                                       ignore_cleanup_errors=True)


def _run_on_pool(
    pool: DispatchPool,
    scenarios: List[Scenario],
    shards: int,
    timeout: Optional[float],
    kernel: Optional[str],
) -> List["ScenarioOutcome"]:
    """Run scenarios' task lists on a pool; one outcome per scenario.

    Every span of every scenario is submitted before any is waited on, so
    spans of a long scenario interleave with other scenarios across the
    workers.  Each scenario's spans are submitted contiguously and in
    order, and the pool dispatches in FIFO order, so the earliest
    unfinished span of any scenario always has a finished predecessor: a
    worker blocked on an upstream checkpoint can never deadlock the pool.
    """
    with _spill_dir() as spill_dir:
        submitted = [
            [pool.submit(fn, args, timeout=timeout)
             for fn, args in _span_tasks(_pinned(scenario, kernel), shards,
                                         spill_dir, timeout)]
            for scenario in scenarios
        ]
        outcomes = []
        for scenario, handles in zip(scenarios, submitted):
            results = [handle.wait() for handle in handles]
            bad = [r for r in results if r.status != "ok"]
            if bad:
                status = ("timeout" if any(r.status == "timeout" for r in bad)
                          else "error")
                error = next((r.error for r in bad if r.error), None)
                outcomes.append(ScenarioOutcome(scenario, None, cached=False,
                                                status=status, error=error))
            else:
                outcomes.append(ScenarioOutcome(scenario, results[-1].value[1],
                                                cached=False))
    return outcomes


def run_scenario_sharded(
    scenario: Scenario,
    shards: int,
    *,
    pool: Optional[DispatchPool] = None,
    timeout: Optional[float] = None,
    kernel: Optional[str] = None,
) -> Dict[str, Any]:
    """Run one scenario as up to ``shards`` spans — byte-identical to serial.

    Each span restores the checkpoint its predecessor saved at their shared
    boundary, so every increment is simulated exactly once.  With ``pool``
    the spans run as pool tasks (each guarded by ``timeout``, if set);
    without one they run in-process, in order, through the same
    spill-directory transport.  Raises ``TimeoutError`` or ``RuntimeError``
    when a pooled span fails.
    """
    if pool is None:
        with _spill_dir() as spill_dir:
            for fn, args in _span_tasks(_pinned(scenario, kernel), shards,
                                        spill_dir, None):
                _cycles, record, _handoff = fn(*args)
        return record
    (outcome,) = _run_on_pool(pool, [scenario], shards, timeout, kernel)
    if outcome.status == "timeout":
        raise TimeoutError(f"shard of {scenario.name!r} exceeded {timeout}s")
    if outcome.status != "ok":
        raise RuntimeError(
            f"shard of {scenario.name!r} failed:\n{outcome.error}")
    return outcome.record


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
    pool: Optional[DispatchPool] = None,
    kernel: Optional[str] = None,
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
        spans, each its own task, handing chip state over as checkpoints
        (see the module docstring).  ``1`` disables sharding.
    timeout:
        Per-task wall-clock budget in seconds.  An overdue task's worker is
        killed; the scenario records a ``timeout`` outcome and the rest of
        the suite keeps running.  With sharding the budget guards each span.
    expect_cached:
        Assert-only mode: scenarios missing from the store are *not* run but
        reported with status ``"uncached"`` (in ``report.failures``), so CI
        can verify a warm cache without grep-ing log text.
    pool:
        Explicit :class:`DispatchPool` to run on; its size, not ``jobs``,
        sets the concurrency.  Defaults to the process-wide shared pool of
        ``jobs`` workers (:func:`~repro.harness.pool.get_pool`), which
        persists between calls so repeated suites at the same ``jobs``
        reuse warm workers.
    kernel:
        Override every scenario's NoC kernel pin (one of
        :data:`repro.arch.config.KERNELS`).  A speed knob only: records, spec hashes and cache
        behaviour are identical across kernels, so this composes freely
        with the store.
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

    observed_pool: Optional[DispatchPool] = None
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
                # Sized from jobs, not from this call's task count, so
                # repeated calls at the same jobs keep their warm workers.
                observed_pool = pool or get_pool(max(1, jobs))
                observed_pool.tracer = tracer
                observed_pool.metrics = metrics
                outcomes = _run_on_pool(
                    observed_pool, [scenarios[i] for i in pending],
                    shard_increments, timeout, kernel)
            else:
                # Inline, the same span task list runs in order, so
                # --shard-increments never silently no-ops at jobs=1.
                outcomes = [
                    ScenarioOutcome(scenarios[i], run_scenario_sharded(
                        scenarios[i], shard_increments, kernel=kernel),
                        cached=False)
                    for i in pending
                ]
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
