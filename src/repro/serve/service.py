"""The scenario service: admission, scheduling, span execution, metrics.

:class:`ScenarioService` owns the long-lived pieces — result store, warm
:class:`~repro.harness.pool.DispatchPool`, job registry, fair queue,
metrics registry — and runs ``jobs`` scheduler threads, each of which pops
one job at a time (round-robin across clients) and drives it span by span
through the pool:

* a job's spans come from :func:`~repro.harness.runner.plan_spans` at the
  configured cadence, with checkpoints in ``work_dir/<id[:16]>``; every
  span is a :func:`~repro.harness.runner._pipeline_span_task` started
  from the previous boundary's checkpoint, so nothing is ever simulated
  twice and every boundary is a valid park/handoff point.  A scenario with
  ``max_cycles_per_increment`` runs as one span, since its boundaries can
  hold state no checkpoint captures;
* a job's spans are submitted with the job id as their pool ``affinity``,
  so each lands on the worker that ran the previous one whenever that
  worker is idle, and continues the live run the worker kept in its warm
  slot instead of rebuilding the chip from the checkpoint.  The
  checkpoint is still written at every boundary; ``/metrics`` counts how
  each span started in ``serve_span_handoffs_total{kind}`` (``fresh``,
  ``warm`` or ``restored``);
* pausing simply stops dispatching further spans (the boundary checkpoint
  stays on disk); resuming re-enqueues the job, which picks up at
  ``next_start``.  The last span assembles the record from the run's
  cursor, so it is byte-identical to an uninterrupted run.  A resumed job
  whose boundary checkpoint has gone fails at once, with the
  :class:`~repro.snapshot.format.SnapshotError` that names the file;
* per-span timeouts and crash containment come from the pool: an overdue
  or crashed span fails only its own job, and the worker is respawned.

Determinism: the service composes existing runner primitives and never
touches spec hashing or the schedule — the record a job stores is the one
``repro suite run`` would have stored.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import threading
import time
from dataclasses import dataclass
from typing import Any, Optional, Tuple

from repro.arch.config import KERNELS
from repro.harness.pool import DispatchPool
from repro.harness.runner import _pinned, _pipeline_span_task, plan_spans
from repro.harness.scenario import Scenario
from repro.harness.store import ResultStore
from repro.obs import MetricsRegistry
from repro.serve.jobs import (
    DONE,
    FAILED,
    PAUSED,
    QUEUED,
    RUNNING,
    Job,
    JobRegistry,
)
from repro.serve.queue import FairQueue


@dataclass
class ServeConfig:
    """Knobs of one ``repro serve`` instance (see ``repro serve --help``)."""

    host: str = "127.0.0.1"
    port: int = 8631
    #: Scheduler threads = warm pool workers = jobs simulating concurrently.
    jobs: int = 2
    #: Max jobs admitted but not yet finished (queued + running); a
    #: submission beyond this is rejected with 429.
    queue_depth: int = 8
    store: str = "serve-store.jsonl"
    #: Per-span wall-clock budget (seconds); ``None`` disables the guard.
    timeout: Optional[float] = None
    #: Increments per span — the progress/pause granularity.
    cadence: int = 1
    #: Default kernel pin for submitted jobs (identity-free speed knob).
    kernel: Optional[str] = None
    #: Checkpoint spill directory; a temp dir (removed on stop) by default.
    work_dir: Optional[str] = None


class ScenarioService:
    """Long-lived execution engine behind the HTTP app."""

    def __init__(self, config: ServeConfig) -> None:
        self.config = config
        self.store = ResultStore(config.store)
        #: ResultStore's atomic rewrite protects against crashes, not
        #: against concurrent writers in one process — serialise puts.
        self._store_lock = threading.Lock()
        self.registry = JobRegistry()
        self.queue = FairQueue()
        self.pool = DispatchPool(config.jobs)
        self.metrics = MetricsRegistry()
        self.started_monotonic = time.monotonic()
        with self.metrics.locked():
            self._requests = self.metrics.counter(
                "serve_requests_total", "HTTP requests by route and status",
                ("method", "route", "status"))
            self._jobs_total = self.metrics.counter(
                "serve_jobs_total", "Job submissions by outcome",
                ("outcome",))
            self._spans_total = self.metrics.counter(
                "serve_spans_total", "Executed job spans by status",
                ("status",))
            self._handoffs_total = self.metrics.counter(
                "serve_span_handoffs_total",
                "Finished job spans by how they started (fresh: first "
                "span, warm: continued the worker's live run, restored: "
                "rebuilt from the checkpoint)", ("kind",))
            self._job_seconds = self.metrics.histogram(
                "serve_job_seconds", "Job wall time (dispatch to record)")
            self._queue_depth = self.metrics.gauge(
                "serve_queue_depth", "Jobs admitted but not finished")
            self._respawns = self.metrics.gauge(
                "serve_pool_respawns", "Pool workers killed and respawned")
        self.work_dir = config.work_dir or tempfile.mkdtemp(
            prefix="repro-serve-")
        self._own_work_dir = config.work_dir is None
        self._stopping = threading.Event()
        self._runners = [
            threading.Thread(target=self._runner_loop, daemon=True,
                             name=f"serve-runner-{i}")
            for i in range(config.jobs)
        ]

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        for thread in self._runners:
            thread.start()

    def stop(self) -> None:
        """Stop schedulers and the pool; in-flight spans finish first."""
        self._stopping.set()
        self.queue.close()
        for thread in self._runners:
            thread.join(timeout=60)
        self.pool.shutdown()
        if self._own_work_dir:
            shutil.rmtree(self.work_dir, ignore_errors=True)

    # ------------------------------------------------------------------
    # Submission / admission
    # ------------------------------------------------------------------
    def submit(self, payload: Any, client: str) -> Tuple[Optional[Job], int]:
        """Admit one Scenario spec; returns ``(job, http_status)``.

        ``payload`` is either a raw ``Scenario.spec_dict`` or an envelope
        ``{"scenario": spec, "kernel": name}``.  Invalid specs and kernel
        names (envelope or ``chip.kernel``) raise ``ValueError`` before any
        job exists (the app maps it to 400).  Statuses: 200 for an
        existing job or a cache hit, 201 for a newly admitted job, 429
        when the admission window is full (no job is created).
        """
        if not isinstance(payload, dict):
            raise ValueError("job payload must be a JSON object")
        kernel = self.config.kernel
        spec = payload
        if "scenario" in payload:
            spec = payload["scenario"]
            kernel = payload.get("kernel", kernel)
        if kernel is not None and kernel not in KERNELS:
            raise ValueError(
                f"unknown kernel {kernel!r}; expected one of {KERNELS}")
        try:
            scenario = Scenario.from_dict(spec)
            scenario.chip.to_chip_config()  # rejects bad chip fields now
        except (KeyError, TypeError) as exc:
            raise ValueError(f"invalid scenario spec: {exc}") from exc
        job_id = scenario.spec_hash()

        with self.registry.lock:
            existing = self.registry._jobs.get(job_id)
        if existing is not None:
            return existing, 200

        if job_id in self.store:
            job = Job(scenario, client, kernel)
            job.cached = True
            job.state = DONE
            job.completed_increments = job.total_increments
            self.registry.add(job)
            job.emit("record already cached; no simulation scheduled")
            self._count_job("cached")
            return job, 200

        # Admission control: bound the number of unfinished jobs.  A
        # duplicate submission never lands here (it matched above), so
        # N + k fresh concurrent submissions see exactly k rejections.
        with self.registry.lock:
            if job_id in self.registry._jobs:  # lost a submit race
                return self.registry._jobs[job_id], 200
            active = sum(1 for j in self.registry._jobs.values()
                         if j.state in (QUEUED, RUNNING))
            if active >= self.config.queue_depth:
                self._count_job("rejected")
                return None, 429
            job = Job(scenario, client, kernel)
            self.registry._jobs[job_id] = job
        job.emit(f"admitted: {job.total_increments} increments, "
                 f"client {client}")
        self._refresh_gauges()
        self.queue.push(job)
        return job, 201

    # ------------------------------------------------------------------
    # Pause / resume
    # ------------------------------------------------------------------
    def pause(self, job: Job) -> Tuple[bool, str]:
        """Request a park at the next increment boundary."""
        with job.cond:
            if job.terminal:
                return False, f"job is {job.state}"
            if job.state == PAUSED:
                return True, "already paused"
            if not job.pause_requested:
                job.pause_requested = True
                job.events.append("pause requested")
                job.cond.notify_all()
        return True, "pausing at the next increment boundary"

    def resume(self, job: Job) -> Tuple[bool, str]:
        """Clear a pause request, re-enqueueing a parked job."""
        requeue = False
        with job.cond:
            if job.terminal:
                return False, f"job is {job.state}"
            if not job.pause_requested and job.state != PAUSED:
                return False, "job is not paused"
            job.pause_requested = False
            if job.state == PAUSED:
                job.state = QUEUED
                requeue = True
            job.events.append("resumed")
            job.cond.notify_all()
        if requeue:
            # Resume bypasses admission: the job held (or re-takes) its
            # slot from the original submission.
            self.queue.push(job)
        self._refresh_gauges()
        return True, "resumed"

    # ------------------------------------------------------------------
    # Execution (scheduler threads)
    # ------------------------------------------------------------------
    def _runner_loop(self) -> None:
        while not self._stopping.is_set():
            job = self.queue.pop(timeout=0.2)
            if job is None:
                continue
            try:
                self._execute(job)
            except Exception as exc:  # pragma: no cover - defensive
                self._fail(job, f"internal scheduler error: {exc}")

    def _execute(self, job: Job) -> None:
        with job.cond:
            if job.pause_requested:
                # Pause won the race before the first span: park as-is.
                job.state = PAUSED
                job.events.append(
                    f"paused at increment {job.completed_increments}")
                job.cond.notify_all()
                self._refresh_gauges()
                return
            job.state = RUNNING
            job.cond.notify_all()
        self._refresh_gauges()
        started = time.monotonic()
        # Only the spec's identity reaches the worker: spec_dict() strips
        # the client's file-path options (trace_path, snapshot_dir,
        # snapshot_every), which a server must never act on.
        scenario = _pinned(Scenario.from_dict(job.scenario.spec_dict()),
                           job.kernel)
        total = job.total_increments
        spill_dir = os.path.join(self.work_dir, job.id[:16])
        os.makedirs(spill_dir, exist_ok=True)
        spans = [span for span in plan_spans(scenario, self.config.cadence,
                                             spill_dir)
                 if span[0] >= job.next_start]
        for start, stop, snap_in, snap_out in spans:
            if self._stopping.is_set():
                self._park(job, "service stopping")
                return
            result = self.pool.run(
                _pipeline_span_task,
                (scenario, stop, snap_in, snap_out),
                timeout=self.config.timeout,
                affinity=job.id,
            )
            self._count_span(result.status)
            if result.status != "ok":
                detail = (f"span [{start}, {stop}) timed out after "
                          f"{self.config.timeout:.0f}s"
                          if result.status == "timeout"
                          else f"span [{start}, {stop}) failed: "
                               f"{result.error}")
                self._fail(job, detail, outcome=result.status)
                return
            cycles, record, handoff = result.value
            with self.metrics.locked():
                self._handoffs_total.inc(kind=handoff)
            with job.cond:
                job.next_start = stop
                job.completed_increments = stop
                job.events.append(
                    f"increment {stop}/{total} complete "
                    f"({sum(cycles[start:])} cycles in span)")
                job.cond.notify_all()
            if snap_in is not None:
                # Only the newest boundary matters from here on.
                try:
                    os.remove(snap_in)
                except OSError:  # pragma: no cover - already gone
                    pass
            if snap_out is not None and job.pause_requested:
                self._park(job, f"paused at increment {stop}")
                return
        with self._store_lock:
            self.store.put(record)
        shutil.rmtree(spill_dir, ignore_errors=True)
        with job.cond:
            job.state = DONE
            job.events.append(
                f"done: record stored under {job.id[:16]}… "
                f"({record['total_cycles']} total cycles)")
            job.cond.notify_all()
        self._count_job("done")
        with self.metrics.locked():
            self._job_seconds.observe(time.monotonic() - started)
        self._refresh_gauges()

    def _park(self, job: Job, line: str) -> None:
        with job.cond:
            job.state = PAUSED
            job.events.append(line)
            job.cond.notify_all()
        self._refresh_gauges()

    def _fail(self, job: Job, detail: str, outcome: str = "failed") -> None:
        # The spill dir goes first, so a job seen failed has none left.
        shutil.rmtree(os.path.join(self.work_dir, job.id[:16]),
                      ignore_errors=True)
        with job.cond:
            job.state = FAILED
            job.error = detail
            job.events.append(f"failed: {detail}")
            job.cond.notify_all()
        self._count_job(outcome)
        self._refresh_gauges()

    # ------------------------------------------------------------------
    # Record / report access
    # ------------------------------------------------------------------
    def record_bytes(self, spec_hash: str) -> Optional[bytes]:
        """The store's canonical JSONL line for one record.

        Byte-identical to the line a direct ``repro suite run`` writes —
        the HTTP half of the determinism contract.
        """
        line = self.store.line(spec_hash)
        return None if line is None else (line + "\n").encode("utf-8")

    # ------------------------------------------------------------------
    # Metrics plumbing
    # ------------------------------------------------------------------
    def count_request(self, method: str, route: str, status: int) -> None:
        with self.metrics.locked():
            self._requests.inc(method=method, route=route,
                               status=str(status))

    def _count_job(self, outcome: str) -> None:
        with self.metrics.locked():
            self._jobs_total.inc(outcome=outcome)

    def _count_span(self, status: str) -> None:
        with self.metrics.locked():
            self._spans_total.inc(status=status)

    def _refresh_gauges(self) -> None:
        with self.metrics.locked():
            self._queue_depth.set(self.registry.active_count())
            self._respawns.set(self.pool.respawns)

    def prometheus(self) -> str:
        self._refresh_gauges()
        return self.metrics.to_prometheus()
