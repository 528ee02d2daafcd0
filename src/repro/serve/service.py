"""The scenario service: admission, scheduling, job execution, metrics.

:class:`ScenarioService` owns the long-lived pieces — result store, job
registry, fair queue, metrics registry — and runs ``jobs`` scheduler
threads.  Each thread owns a one-worker
:class:`~repro.harness.pool.DispatchPool` and drives it itself: it pops
one job at a time (round-robin across clients) and runs it on that
worker as one task, waiting on the worker's pipe in its own thread:

* the task, :func:`~repro.harness.runner._job_task`, streams the job's
  increments back to back from its first (or resume) boundary.  At every
  ``cadence`` increments (the spans of
  :func:`~repro.harness.runner.plan_spans`) it reports the boundary up
  the pipe, and the scheduler thread turns the report into the job's
  ``increment k/N complete`` event while the worker simulates on.  A
  scenario with ``max_cycles_per_increment`` reports only at its end,
  since its boundaries can hold state no checkpoint captures;
* a running job lives in its task, a parked job in its checkpoint.  A
  pause (or the service stopping) sets the park flag of the job's pool,
  and the task parks at its next report: it saves its run as
  ``incNNNNN.snap`` in ``work_dir/<id[:16]>`` and returns
  (``serve_checkpoints_total`` counts these writes).  Resuming
  re-enqueues the job, whose next task restores that checkpoint on
  whichever scheduler picks it up; the checkpoint is deleted once that
  task returns.  If a resume withdrew the pause before the park landed,
  the parked job is re-enqueued at once.  The record is assembled from
  the run's cursor, so it is byte-identical to an uninterrupted run.  A
  resumed job whose checkpoint has gone fails at once, with the
  :class:`~repro.snapshot.format.SnapshotError` that names the file.
  ``/metrics`` counts how each task started in
  ``serve_span_handoffs_total{kind}`` (``fresh`` or ``restored``);
* timeouts and crash containment come from the pool: a task silent for
  longer than ``timeout`` (no report) or crashed fails only its own job,
  and the worker is respawned.  Nothing retries a failed task, so it
  needs no checkpoint.

Determinism: the service composes existing runner primitives and never
touches spec hashing or the schedule — the record a job stores is the one
``repro suite run`` would have stored.
"""

from __future__ import annotations

import os
import resource
import shutil
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from typing import Any, Optional, Tuple

from repro.arch.config import KERNELS
from repro.harness.pool import DispatchPool, TaskResult
from repro.harness.runner import _job_task, _pinned, park_checkpoint
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

#: ``ru_maxrss`` is in bytes on macOS and in KiB elsewhere.
_MAXRSS_BYTES = 1 if sys.platform == "darwin" else 1024


@dataclass
class ServeConfig:
    """Knobs of one ``repro serve`` instance (see ``repro serve --help``)."""

    host: str = "127.0.0.1"
    port: int = 8631
    #: Scheduler threads, each owning one worker = jobs simulating at once.
    jobs: int = 2
    #: Max jobs admitted but not yet finished (queued + running); a
    #: submission beyond this is rejected with 429.
    queue_depth: int = 8
    store: str = "serve-store.jsonl"
    #: Wall-clock budget (seconds) of a job task between its progress
    #: reports; ``None`` disables the guard.
    timeout: Optional[float] = None
    #: Increments per progress report — the progress/pause granularity.
    cadence: int = 1
    #: Default kernel pin for submitted jobs (identity-free speed knob).
    kernel: Optional[str] = None
    #: Checkpoint spill directory; a temp dir (removed on stop) by default.
    work_dir: Optional[str] = None


class ScenarioService:
    """Long-lived execution engine behind the HTTP app."""

    def __init__(self, config: ServeConfig) -> None:
        if config.jobs < 1:
            raise ValueError("jobs must be >= 1")
        self.config = config
        self.store = ResultStore(config.store)
        #: ResultStore's atomic rewrite protects against crashes, not
        #: against concurrent writers in one process — serialise puts.
        self._store_lock = threading.Lock()
        self.registry = JobRegistry()
        self.queue = FairQueue()
        #: One single-worker pool per scheduler thread, which runs each of
        #: the thread's jobs as one task.
        self.pools = [DispatchPool(1) for _ in range(config.jobs)]
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
                "serve_spans_total", "Executed job tasks by status",
                ("status",))
            self._handoffs_total = self.metrics.counter(
                "serve_span_handoffs_total",
                "Finished job tasks by how they started (fresh: at "
                "boundary 0, restored: from the park checkpoint)",
                ("kind",))
            self._checkpoints_total = self.metrics.counter(
                "serve_checkpoints_total",
                "Checkpoints written by parking jobs")
            self._checkpoints_total.inc(0)  # scraped as 0 before any park
            self._job_seconds = self.metrics.histogram(
                "serve_job_seconds", "Job wall time (dispatch to record)")
            self._queue_depth = self.metrics.gauge(
                "serve_queue_depth", "Jobs admitted but not finished")
            self._respawns = self.metrics.gauge(
                "serve_pool_respawns", "Pool workers killed and respawned")
            self._peak_rss = self.metrics.gauge(
                "serve_peak_rss_bytes", "Peak RSS of the server process")
            self._worker_peak_rss = self.metrics.gauge(
                "serve_worker_peak_rss_bytes",
                "Peak RSS of the largest live pool worker (VmHWM; absent "
                "where /proc is missing)")
        self.work_dir = config.work_dir or tempfile.mkdtemp(
            prefix="repro-serve-")
        self._own_work_dir = config.work_dir is None
        self._stopping = threading.Event()
        self._runners = [
            threading.Thread(target=self._runner_loop, args=(pool,),
                             daemon=True, name=f"serve-runner-{i}")
            for i, pool in enumerate(self.pools)
        ]

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        for thread in self._runners:
            thread.start()

    def stop(self) -> None:
        """Stop schedulers and their pools; running jobs park first."""
        self._stopping.set()
        self.queue.close()
        for pool in self.pools:
            pool.request_park()
        for thread in self._runners:
            thread.join(timeout=60)
        for pool in self.pools:
            pool.shutdown()
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
                if job.pool is not None:
                    job.pool.request_park()
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
    def _runner_loop(self, pool: DispatchPool) -> None:
        while not self._stopping.is_set():
            job = self.queue.pop(timeout=0.2)
            if job is None:
                continue
            try:
                self._execute(job, pool)
            except Exception as exc:  # pragma: no cover - defensive
                self._fail(job, f"internal scheduler error: {exc}")

    def _execute(self, job: Job, pool: DispatchPool) -> None:
        with job.cond:
            if job.pause_requested or self._stopping.is_set():
                # Parked before the task started: nothing to save.
                job.state = PAUSED
                job.events.append(
                    "service stopping" if self._stopping.is_set()
                    else f"paused at increment {job.completed_increments}")
                job.cond.notify_all()
                self._refresh_gauges()
                return
            job.state = RUNNING
            job.pool = pool
            job.cond.notify_all()
        self._refresh_gauges()
        started = time.monotonic()
        # Only the spec's identity reaches the worker: spec_dict() strips
        # the client's file-path options (trace_path, snapshot_dir,
        # snapshot_every), which a server must never act on.
        scenario = _pinned(Scenario.from_dict(job.scenario.spec_dict()),
                           job.kernel)
        start = job.next_start
        spill_dir = os.path.join(self.work_dir, job.id[:16])
        result = pool.run(
            _job_task, (scenario, start, self.config.cadence, spill_dir),
            timeout=self.config.timeout,
            on_progress=lambda progress: self._progress(job, pool, progress))
        with job.cond:
            job.pool = None
        self._count_span(result.status)
        if result.status != "ok":
            self._fail(job, self._failure(f"task from increment {start}",
                                          result),
                       outcome=result.status)
            return
        boundary, record, handoff = result.value
        with self.metrics.locked():
            self._handoffs_total.inc(kind=handoff)
        if handoff == "restored":
            # The park checkpoint is consumed.
            try:
                os.remove(park_checkpoint(spill_dir, start))
            except OSError:  # pragma: no cover - already gone
                pass
        if record is None:
            self._park(job, boundary)
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

    def _progress(self, job: Job, pool: DispatchPool,
                  progress: Tuple[int, int]) -> None:
        """A job task's report: ``(boundary, cycles since the last one)``.

        Runs on the scheduler thread while the task simulates on.  A pause
        or a stop that came before the task was in flight is asked again
        here, so the task parks at its next report.
        """
        boundary, cycles = progress
        with job.cond:
            job.next_start = job.completed_increments = boundary
            job.events.append(
                f"increment {boundary}/{job.total_increments} complete "
                f"({cycles} cycles)")
            if job.pause_requested or self._stopping.is_set():
                pool.request_park()
            job.cond.notify_all()

    def _park(self, job: Job, boundary: int) -> None:
        """A job's task parked at ``boundary`` into its checkpoint."""
        with self.metrics.locked():
            self._checkpoints_total.inc()
        requeue = False
        with job.cond:
            if self._stopping.is_set():
                job.state = PAUSED
                job.events.append("service stopping")
            elif job.pause_requested:
                job.state = PAUSED
                job.events.append(f"paused at increment {boundary}")
            else:
                # A resume withdrew the pause before the park landed.
                job.state = QUEUED
                job.events.append(f"parked at increment {boundary}; "
                                  "resuming")
                requeue = True
            job.cond.notify_all()
        if requeue:
            self.queue.push(job)
        self._refresh_gauges()

    def _failure(self, what: str, result: TaskResult) -> str:
        """The error line of a pool task that did not finish ``ok``."""
        if result.status == "timeout":
            return (f"{what} timed out: no progress report for "
                    f"{self.config.timeout:g}s")
        return f"{what} failed: {result.error}"

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
            self._respawns.set(sum(pool.respawns for pool in self.pools))

    def prometheus(self) -> str:
        self._refresh_gauges()
        workers = [peak for pool in self.pools for pid in pool.worker_pids()
                   if (peak := _peak_rss_bytes(pid)) is not None]
        # ``ru_maxrss`` keeps the peak the launcher had before ``exec``;
        # ``VmHWM`` starts afresh, so it is read wherever ``/proc`` exists.
        peak = _peak_rss_bytes(os.getpid())
        if peak is None:
            peak = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss * _MAXRSS_BYTES
        with self.metrics.locked():
            self._peak_rss.set(peak)
            if workers:
                self._worker_peak_rss.set(max(workers))
        return self.metrics.to_prometheus()


def _peak_rss_bytes(pid: int) -> Optional[int]:
    """A live process's peak RSS (``VmHWM``), or ``None`` without ``/proc``."""
    try:
        with open(f"/proc/{pid}/status", "rb") as status:
            for line in status:
                if line.startswith(b"VmHWM:"):
                    return int(line.split()[1]) * 1024  # kB
    except OSError:
        pass
    return None
