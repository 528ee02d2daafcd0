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

:func:`run_suite` fans a suite out over a
:class:`~repro.harness.pool.DispatchPool` it builds for the call (or the
caller's ``pool=``), one :func:`run_scenario` task per scenario.  A
mid-run simulator is full of closures and is not picklable, but a
:class:`Scenario` is a frozen dataclass of plain values, so only scenarios
cross the process boundary (records come back as plain dicts).  Scenarios
already present in the :class:`~repro.harness.store.ResultStore` are
skipped as cache hits unless ``force`` is set.

Span hand-off
-------------
``repro serve`` runs a job as the spans :func:`plan_spans` cuts at its
cadence, one :func:`_pipeline_span_task` each.  The chip's state is
sequential — increment ``i`` runs against the graph that increments
``0..i-1`` built — so every span but the first picks the run up at its
start boundary, and **no increment is ever simulated twice**.  The last
span assembles the record from the run's cursor plus its own increments,
which is **byte-identical to a serial run** because a live run and a
restored checkpoint continue the same bit-identical schedule (see
docs/snapshot.md).  A scenario with ``max_cycles_per_increment`` set
always runs as one span: a truncated increment can end with continuations
still awaiting their trigger, which no checkpoint can capture.

The warm slot
-------------
A running job's state lives in its worker; a parked job's state lives in
its checkpoint.  Every process keeps a **warm slot**: the live run
(dataset, device, graph, algorithm) of the last non-final span it ran,
keyed by the scenario's spec hash and the boundary that span stopped at.
The next span continues the live run when both keys match its own spec
hash and start boundary; otherwise it restores its input checkpoint, so a
span whose run is neither live nor saved fails at once with the
:class:`SnapshotError` that names the missing file.  A span never saves
the checkpoint at its end: one is written only when a job parks
(:func:`_park_task`), which also empties the slot, so a resume restores
(the ``snapshot_every`` cadence is a separate observer).  Each ``repro
serve`` scheduler thread owns one worker, which runs every span of the
thread's job.  A live run is the state a restore of its checkpoint
rebuilds, so records and checkpoint bytes are the same either way.
"""

from __future__ import annotations

import os
import random
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro import __version__
from repro.algorithms.registry import get_algorithm
from repro.datasets.streaming import StreamingDataset, make_streaming_dataset
from repro.graph.graph import DynamicGraph
from repro.graph.rpvo import Edge
from repro.harness.pool import DispatchPool
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
            _capture(graph, scenario, i + 1, tracer,
                     _snapshot_path(directory, scenario, i + 1))
    end = (_final_payload(scenario, dataset, device, graph, algorithm)
           if final else None)
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
    scenario = _pinned(scenario, kernel)
    run = _materialize(scenario)
    _run_span(scenario, increment, run=run, final=False)
    return _capture(run[2], scenario, increment, None)


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
#: One planned span: ``(start, stop, snap_in, park_path)``.
Span = Tuple[int, int, Optional[str], Optional[str]]


def plan_spans(scenario: Scenario, cadence: int, spill_dir: str) -> List[Span]:
    """A scenario's run as contiguous spans of at most ``cadence`` increments.

    Span ``(start, stop, snap_in, park_path)`` streams increments
    ``[start, stop)``.  ``snap_in`` and ``park_path`` name the checkpoints
    at its two boundaries, ``incNNNNN.snap`` inside ``spill_dir``: the one
    a restore at ``start`` reads, and the one a park at ``stop`` writes;
    ``None`` at boundary 0, where the first span materialises fresh, and at
    the last boundary, where the last span assembles the record.  This is
    the progress/pause granularity of ``repro serve``: a job runs one
    :func:`_pipeline_span_task` per span, and parks at a span's end into
    its ``park_path`` (:func:`_park_task`).

    A truncated scenario (``max_cycles_per_increment`` set) is the single
    span ``[0, total)``: an increment cut off by its cycle budget can end
    with registered continuations still awaiting their trigger, state a
    checkpoint refuses to capture.
    """
    total = scenario.dataset.num_increments
    if scenario.options.max_cycles_per_increment is not None:
        cadence = total
    bounds = list(range(0, total, max(1, cadence))) + [total]

    def checkpoint(boundary: int) -> str:
        return os.path.join(spill_dir, f"inc{boundary:05d}.snap")

    return [(a, b, checkpoint(a) if a > 0 else None,
             checkpoint(b) if b < total else None)
            for a, b in zip(bounds, bounds[1:])]


@dataclass
class _WarmRun:
    """The warm slot's entry: a live run stopped at an increment boundary."""

    spec_hash: str
    boundary: int
    run: Run


#: This process's warm slot (see the module docstring); at most one entry.
#: Tasks take it under the lock, so two threads never continue one run.
_warm: Optional[_WarmRun] = None
_warm_lock = threading.Lock()


def _take_warm(spec_hash: str, boundary: int) -> Optional[Run]:
    """Empty the warm slot; its run if it is this spec's at ``boundary``.

    A live run that does not match is dropped here, before the caller
    builds anything, so a process never holds two chips.
    """
    global _warm
    with _warm_lock:
        warm, _warm = _warm, None
    if (warm is not None and warm.spec_hash == spec_hash
            and warm.boundary == boundary):
        return warm.run
    return None


def _pipeline_span_task(
    scenario: Scenario,
    start: int,
    stop: int,
    snap_in: Optional[str],
) -> Tuple[List[int], Optional[Dict[str, Any]], str]:
    """Pool task: one span ``[start, stop)`` of a scenario (picklable).

    The first span (``start`` 0) materialises fresh.  A later span
    continues the warm slot's live run when that run is this spec's at
    exactly ``start``, and otherwise restores the checkpoint at
    ``snap_in``; a missing file fails at once with the
    :class:`SnapshotError` that names it, and no fresh run is built.  A
    span that ends before the last boundary saves no checkpoint at
    ``stop`` and leaves its live run in the slot, for the next span or a
    park (:func:`_park_task`); the last span assembles the record.

    Returns ``(cycles, record, handoff)``: the cycles of every increment
    streamed since the start of the run, the record or ``None``, and how
    the span started: ``"fresh"``, ``"warm"`` or ``"restored"``.  A span
    that raises leaves the slot empty.
    """
    global _warm
    spec_hash = scenario.spec_hash()
    run = _take_warm(spec_hash, start)
    if run is not None:
        handoff = "warm"
    else:
        handoff = "restored" if start > 0 else "fresh"
        checkpoint = Snapshot.load(snap_in) if start > 0 else None
        run = _materialize(scenario, checkpoint)
    final = stop == scenario.dataset.num_increments
    cycles, end = _run_span(scenario, stop, run=run, final=final)
    if final:
        return cycles, _assemble_record(scenario, cycles, end), handoff
    sim = run[1].simulator
    # the next span attaches its own
    sim.tracer = sim.phase_ns = sim.action_ns = None
    _warm = _WarmRun(spec_hash, stop, run)
    return cycles, None, handoff


def _park_task(scenario: Scenario, boundary: int, path: str) -> None:
    """Pool task: save the warm slot's live run to ``path`` and drop it.

    ``repro serve`` runs it on the worker of a job that parks at
    ``boundary`` (the fuzz oracle's cold leg parks at every boundary): the
    live run, which must be this spec's at exactly that boundary, becomes
    the checkpoint the resumed job restores, and the slot is left empty,
    so a resume never continues a run in place of its checkpoint.  It is
    the only writer of span checkpoints.
    """
    run = _take_warm(scenario.spec_hash(), boundary)
    if run is None:
        raise SnapshotError(f"no live run of {scenario.name!r} at increment "
                            f"{boundary} to park")
    _capture(run[2], scenario, boundary, None, path)


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
                # The kernel pin rides inside the pickled scenario.
                # Task statuses are outcome statuses; only "ok" has a value.
                results = observed_pool.run_all(
                    [(run_scenario, (_pinned(scenarios[i], kernel),))
                     for i in pending], timeout=timeout)
                outcomes = [ScenarioOutcome(scenarios[i], result.value,
                                            cached=False, status=result.status,
                                            error=result.error)
                            for i, result in zip(pending, results)]
            else:
                outcomes = [
                    ScenarioOutcome(scenarios[i],
                                    run_scenario(scenarios[i], kernel=kernel),
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
