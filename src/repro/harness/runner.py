"""Scenario execution: one span function under every run path.

:func:`run_scenario` materialises one :class:`~repro.harness.scenario.Scenario`
into a dataset + device + graph + algorithm, streams every increment, runs
the query diffusion when the algorithm has one, and returns a flat,
JSON-serialisable **record** containing only deterministic fields (no
timestamps, hostnames or wall-clock), so the same scenario produces a
byte-identical record whether it runs in-process, in a worker, or span by
span.

Every entry point — :func:`run_scenario`, :func:`run_scenario_traced`,
:func:`snapshot_at`, :func:`resume_scenario` and the pool task behind
``repro serve`` — is a thin wrapper over :func:`_run_span`: materialise or
restore a checkpoint, stream up to an increment boundary with the
``snapshot_every`` cadence and the tracer, and return the final payload
(none at an earlier boundary, where the run itself carries the state on).
A built run is a web of reference cycles (device, graph, ingestor and
algorithm point at each other); every entry point that keeps no run for
its caller closes it at the end (:meth:`DynamicGraph.close`), so
reference counting frees the chip at once.

:func:`run_suite` fans a suite out over a
:class:`~repro.harness.pool.DispatchPool` it builds for the call (or the
caller's ``pool=``), one :func:`run_scenario` task per scenario.  A
mid-run simulator is full of closures and is not picklable, but a
:class:`Scenario` is a frozen dataclass of plain values, so only scenarios
cross the process boundary (records come back as plain dicts).  Scenarios
already present in the :class:`~repro.harness.store.ResultStore` are
skipped as cache hits unless ``force`` is set.

Job tasks
---------
``repro serve`` runs a job as one pool task, :func:`_job_task`, from its
first (or resume) boundary to its park or its end.  The spans
:func:`plan_spans` cuts at the job's cadence are its progress and park
points: at each span's end the task reports ``(boundary, cycles)`` up its
pipe and streams on, unless its owner has asked it to park, in which case
it saves the run's checkpoint there and returns.  A running job's state
lives in its task; a parked job's state lives in its checkpoint, and the
task that resumes it restores that file, so **no increment is ever
simulated twice**.  The record is assembled from the run's cursor, which
is **byte-identical to a serial run** because a live run and a restored
checkpoint continue the same bit-identical schedule (see
docs/snapshot.md).  A scenario with ``max_cycles_per_increment`` set has
no park point before its end: a truncated increment can end with
continuations still awaiting their trigger, which no checkpoint can
capture.
"""

from __future__ import annotations

import os
import random
import time
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro import __version__
from repro.algorithms.registry import get_algorithm
from repro.datasets.streaming import StreamingDataset, make_streaming_dataset
from repro.graph.graph import DynamicGraph
from repro.graph.rpvo import Edge
from repro.harness.pool import DispatchPool, park_requested, report
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
    """The canonical result record: one code path for every run path."""
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
             tracer: Optional[Tracer], path: Optional[str] = None) -> Snapshot:
    """Capture the checkpoint of a run at one increment boundary.

    The checkpoint is encoded, and saved to ``path`` when given, inside
    the ``snapshot_capture`` trace span, so the span times the whole
    checkpoint and not only the walk over the chip.
    """
    span = (tracer.span("snapshot_capture", "snapshot", increment=increment)
            if tracer is not None else nullcontext())
    with span:
        snap = capture(graph, extra_meta={
            "spec_hash": scenario.spec_hash(),
            "scenario": scenario.name,
            "increment": increment,
        })
        snap.to_bytes()
        if path is not None:
            snap.save(path)
    return snap


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
    on_boundary: Optional[Callable[[int], bool]] = None,
    close: bool = False,
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
    + statistics); otherwise it is ``None``, and the run itself carries the
    state on from ``stop``, which may be any boundary, the last one
    included.

    ``timings``, when given, receives wall-clock phase durations for the
    benchmark driver: ``setup_s`` is the materialisation, ``sim_s`` the
    rest.  They never enter the payload, which stays fully deterministic.
    ``frames_every`` enables activity-frame capture.  ``device_setup``,
    when given, is called with the built device before any increment
    streams — a test/fuzz hook (e.g. the fuzz oracle turns busy-cell
    parking off through it to pin park transparency); contract-pinned knobs
    flipped here must leave the record byte-identical, which is exactly
    what the oracle asserts.

    ``on_boundary``, when given, is called with each boundary a streamed
    increment ends at; a true return stops the span there, with no final
    payload.  ``close`` closes the run when the span ends, however it ends
    (:meth:`DynamicGraph.close`): only for a run no caller keeps.
    """
    t0 = time.perf_counter()
    opts: RunOptions = scenario.options
    run = run or _materialize(scenario, frames_every=frames_every)
    dataset, device, graph, algorithm = run
    try:
        start, total = graph.increments_streamed, len(dataset.increments)
        stop = total if stop is None else stop
        if not start <= stop <= total:
            raise ValueError(
                f"invalid span [{start}, {stop}) of {total} increments")
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
                _capture(graph, scenario, i + 1, tracer,
                         _snapshot_path(directory, scenario, i + 1))
            if on_boundary is not None and on_boundary(i + 1):
                final = False
                break
        end = (_final_payload(scenario, dataset, device, graph, algorithm)
               if final else None)
        if timings is not None:
            timings["setup_s"] = t1 - t0
            timings["sim_s"] = time.perf_counter() - t1
        if tracer is not None:
            tracer.save(opts.trace_path)
        return graph.per_increment_cycles(), end
    finally:
        if close:
            graph.close()


# ----------------------------------------------------------------------
# Single-scenario entry points
# ----------------------------------------------------------------------
def run_scenario(
    scenario: Scenario, *, timings: Optional[Dict[str, float]] = None,
    device_setup: Optional[Callable[[AMCCADevice], None]] = None,
) -> Dict[str, Any]:
    """Execute one scenario end to end and return its result record.

    ``timings`` and ``device_setup`` are described at :func:`_run_span`.
    """
    cycles, final = _run_span(scenario, timings=timings,
                              device_setup=device_setup, close=True)
    return _assemble_record(scenario, cycles, final)


def run_scenario_traced(
    scenario: Scenario, *, frames_every: int = 0,
    trace_path: Optional[str] = None,
) -> Tuple[Dict[str, Any], AMCCADevice]:
    """Run one scenario instrumented, returning ``(record, device)``.

    The thin harness wrapper behind ``examples/chip_animation.py`` and any
    caller that wants the live device after the run (the per-cycle
    active-cell series of Figures 6 and 7 in
    ``device.simulator.active_series``, activity frames, phase timers,
    per-cell occupancy).  ``frames_every > 0`` captures an activity frame
    every that many cycles; ``trace_path`` additionally writes a Chrome
    trace of the run.  The record is byte-identical to
    :func:`run_scenario`'s — instrumentation is observer-only.
    """
    if trace_path is not None:
        scenario = scenario.with_(options=replace(scenario.options,
                                                  trace_path=trace_path))
    devices: List[AMCCADevice] = []

    def keep(device: AMCCADevice) -> None:
        device.simulator.enable_phase_timers()
        device.simulator.active_series = []
        devices.append(device)

    cycles, final = _run_span(scenario, frames_every=frames_every,
                              device_setup=keep)
    return _assemble_record(scenario, cycles, final), devices[0]


def restore_scenario(scenario: Scenario, snapshot) -> Run:
    """Rebuild a scenario's run mid-stream from a snapshot.

    Reconstructs the code side (device, registry, graph skeleton,
    algorithm — *without* re-seeding) from the declarative spec and
    overlays the snapshot's state.  The snapshot must have been captured
    from the same spec: the embedded ``spec_hash`` (which folds in
    :data:`repro.__version__`) is checked before anything is touched.
    """
    return _materialize(scenario, snapshot)


def snapshot_at(scenario: Scenario, increment: int):
    """Run a scenario up to an increment boundary and capture a snapshot.

    ``increment`` counts streamed increments (1-based boundaries): ``K``
    means "after increment K".  Used by ``repro snapshot save``.
    """
    total = scenario.dataset.num_increments
    if not 1 <= increment <= total:
        raise ValueError(
            f"increment boundary {increment} out of range 1..{total} "
            f"for {scenario.name!r}")
    run = _materialize(scenario)
    try:
        _run_span(scenario, increment, run=run, final=False)
        return _capture(run[2], scenario, increment, None)
    finally:
        run[2].close()


def resume_scenario(scenario: Scenario, snapshot) -> Dict[str, Any]:
    """Restore from a snapshot, run to completion, return the full record.

    The record is **byte-identical** to an uninterrupted
    :func:`run_scenario` of the same scenario: per-increment cycles of the
    already-streamed prefix come from the snapshot's cursor, the remaining
    increments are simulated, and the final statistics follow from the
    restored state.
    """
    cycles, final = _run_span(scenario, run=_materialize(scenario, snapshot),
                              close=True)
    return _assemble_record(scenario, cycles, final)


# ----------------------------------------------------------------------
# Span plans and the job task
# ----------------------------------------------------------------------
def plan_spans(scenario: Scenario, cadence: int) -> List[int]:
    """The boundaries of a scenario's spans of at most ``cadence``
    increments: ``[0, cadence, 2 * cadence, ..., total]``.

    This is the progress/pause granularity of ``repro serve``: a job's task
    (:func:`_job_task`) starts at one of these boundaries, reports at every
    later one and, when asked, parks at any but the last, into
    :func:`park_checkpoint`.

    A truncated scenario (``max_cycles_per_increment`` set) is the single
    span ``[0, total]``: an increment cut off by its cycle budget can end
    with registered continuations still awaiting their trigger, state a
    checkpoint refuses to capture.
    """
    total = scenario.dataset.num_increments
    if scenario.options.max_cycles_per_increment is not None:
        cadence = total
    return list(range(0, total, max(1, cadence))) + [total]


def park_checkpoint(spill_dir: str, boundary: int) -> str:
    """The checkpoint a job parked at ``boundary`` keeps in ``spill_dir``."""
    return os.path.join(spill_dir, f"inc{boundary:05d}.snap")


def _job_task(
    scenario: Scenario,
    start: int,
    cadence: int,
    spill_dir: str,
    park: Callable[[], bool] = park_requested,
) -> Tuple[int, Optional[Dict[str, Any]], str]:
    """Pool task: a job from boundary ``start`` to its park or its end.

    ``start`` must be one of the job's span boundaries other than the last
    (:func:`plan_spans` at ``cadence``).  At boundary 0 the run is built
    fresh; at a later one it is restored from the
    :func:`park_checkpoint` in ``spill_dir``, and a missing file fails at
    once with the :class:`SnapshotError` that names it.  The increments
    then stream back to back.  At every later boundary the task reports
    ``(boundary, cycles)``, the cycles streamed since its previous report,
    to its owner (:func:`repro.harness.pool.report`); before the last
    boundary it then asks ``park`` whether to stop (by default, whether
    its owner asked it to: :func:`repro.harness.pool.park_requested`) and,
    if so, saves the run's checkpoint to the boundary's
    :func:`park_checkpoint` and returns.  That is the only checkpoint the
    task writes (besides a ``snapshot_every`` cadence the scenario asks
    for).  The run is closed when the task ends, however it ends.

    Returns ``(boundary, record, handoff)``: where the task stopped, the
    record (``None`` when it parked) and how the run started, ``"fresh"``
    or ``"restored"``.
    """
    bounds = plan_spans(scenario, cadence)
    total = bounds[-1]
    if start not in bounds[:-1]:
        raise ValueError(f"no span of {scenario.name!r} starts at "
                         f"increment {start} at cadence {cadence}")
    checkpoint = (None if start == 0
                  else Snapshot.load(park_checkpoint(spill_dir, start)))
    run = _materialize(scenario, checkpoint)
    graph = run[2]
    reported = start

    def at_boundary(boundary: int) -> bool:
        nonlocal reported
        if boundary not in bounds:
            return False
        report((boundary, sum(r.cycles for r in
                              graph.increment_results[reported:boundary])))
        reported = boundary
        if boundary == total or not park():
            return False
        _capture(graph, scenario, boundary, None,
                 park_checkpoint(spill_dir, boundary))
        return True

    cycles, end = _run_span(scenario, run=run, on_boundary=at_boundary,
                            close=True)
    handoff = "fresh" if start == 0 else "restored"
    if end is None:
        return reported, None, handoff
    return reported, _assemble_record(scenario, cycles, end), handoff


# ----------------------------------------------------------------------
# Suite execution
# ----------------------------------------------------------------------
@dataclass
class ScenarioOutcome:
    """One scenario's result plus how it was obtained.

    ``status`` is one of ``"ok"`` (record present, fresh or cached),
    ``"timeout"`` (exceeded the per-scenario budget), ``"error"`` (raised or
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
    timeout: Optional[float] = None,
    expect_cached: bool = False,
    pool: Optional[DispatchPool] = None,
    tracer: Optional[Tracer] = None,
    metrics: Optional[MetricsRegistry] = None,
    trace_base: Optional[str] = None,
) -> SuiteReport:
    """Run a suite of scenarios, consulting and filling the result store.

    Parameters
    ----------
    jobs:
        Worker processes.  ``1`` runs serially in-process (unless ``timeout``
        is set, which needs process isolation, or ``pool`` is given);
        results are identical either way because every scenario derives its
        seeds from its own spec.
    store:
        Optional :class:`ResultStore`.  Scenarios whose spec hash is already
        stored are reported as cache hits and not re-run.
    force:
        Re-run every scenario even on a cache hit, replacing stored records.
    progress:
        Optional callback receiving one human-readable line per scenario.
    timeout:
        Per-scenario wall-clock budget in seconds.  An overdue scenario's
        worker is killed; the scenario records a ``timeout`` outcome and
        the rest of the suite keeps running.
    expect_cached:
        Assert-only mode: scenarios missing from the store are *not* run but
        reported with status ``"uncached"`` (in ``report.failures``), so CI
        can verify a warm cache without grep-ing log text.
    pool:
        Explicit :class:`DispatchPool` to run on, kept warm across calls
        by its owner; its size, not ``jobs``, sets the concurrency.
        Without one, a pool of ``jobs`` workers (at most one per scenario
        to run) is built for the call and shut down before it returns.
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
        ``derive_trace_path(trace_base, name)``.  Works with every
        execution mode, including pooled workers.
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
            if (pool is not None or min(jobs, len(pending)) > 1
                    or timeout is not None):
                observed_pool = pool or DispatchPool(
                    max(1, min(jobs, len(pending))))
                observed_pool.tracer = tracer
                observed_pool.metrics = metrics
                # Task statuses are outcome statuses; only "ok" has a value.
                results = observed_pool.run_all(
                    [(run_scenario, (scenarios[i],)) for i in pending],
                    timeout=timeout)
                outcomes = [ScenarioOutcome(scenarios[i], result.value,
                                            cached=False, status=result.status,
                                            error=result.error)
                            for i, result in zip(pending, results)]
            else:
                outcomes = [
                    ScenarioOutcome(scenarios[i],
                                    run_scenario(scenarios[i]),
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
            if observed_pool is not pool:
                observed_pool.shutdown()

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
