"""Persistent worker-process pool with per-task timeouts and crash isolation.

:class:`DispatchPool` keeps a fixed set of long-lived worker processes warm
behind a dispatcher thread.  Any thread may :meth:`~DispatchPool.submit` a
task at any time and gets a :class:`TaskHandle` back; idle workers take
tasks in submission order.  :func:`~repro.harness.runner.run_suite`
submits one independent task per scenario and then waits on the handles,
reusing the process-wide pool from :func:`get_pool` across calls;
``repro serve`` submits one job span at a time from each scheduler
thread, each on its own one-worker pool, so a span is dispatched only
after its predecessor has finished, to the worker that ran it.  Either way
interpreter/import startup is paid once per worker, not once per scenario
as with a fresh ``multiprocessing.Pool`` per run.

Tasks travel over one duplex :func:`multiprocessing.Pipe` per worker rather
than a shared queue.  That buys two properties a ``Pool`` cannot offer:

* **Hard per-task timeouts.**  The parent knows exactly which worker runs
  which task, so an overdue task is handled by killing *that* worker and
  respawning a replacement — sibling tasks keep running, and the task
  resolves with a ``timeout`` result instead of hanging.
* **Crash containment.**  A worker that dies mid-task (OOM kill, segfault)
  closes its pipe; :func:`multiprocessing.connection.wait` wakes the
  dispatcher, which resolves that task as an ``error`` and respawns.  Pipes
  carry whole pickled messages, so killing a worker can never corrupt a
  shared queue the way terminating a ``multiprocessing.Queue`` feeder can.

Task callables must be module-level functions (they are pickled by
reference); arguments and results must be picklable.
"""

from __future__ import annotations

import atexit
import itertools
import multiprocessing
import threading
import time
import traceback
import weakref
from collections import deque
from dataclasses import dataclass
from multiprocessing.connection import wait as _wait_connections
from typing import Any, Callable, Dict, List, Optional, Tuple

#: A task is a module-level callable plus its positional arguments.
Task = Tuple[Callable[..., Any], Tuple[Any, ...]]

#: Grace period (seconds) for a killed or shut-down worker to be reaped.
_JOIN_GRACE_S = 2.0


@dataclass
class TaskResult:
    """Outcome of one pool task."""

    status: str  # "ok" | "error" | "timeout"
    value: Any = None
    error: Optional[str] = None
    elapsed_s: float = 0.0

    @property
    def ok(self) -> bool:
        return self.status == "ok"


def _worker_main(conn) -> None:
    """Worker loop: receive ``(task_id, fn, args)``, send back the result.

    ``None`` is the shutdown sentinel.  Exceptions (including ``SystemExit``
    raised by task code) are caught and shipped back as tracebacks so a
    failing task never takes the worker down with it.
    """
    while True:
        try:
            item = conn.recv()
        except (EOFError, OSError):
            return
        if item is None:
            return
        task_id, fn, args = item
        try:
            conn.send((task_id, "ok", fn(*args)))
        except BaseException:
            conn.send((task_id, "error", traceback.format_exc()))


class _Worker:
    """One live worker process and the parent's end of its pipe."""

    def __init__(self, ctx) -> None:
        self.conn, child_conn = ctx.Pipe(duplex=True)
        self.process = ctx.Process(
            target=_worker_main, args=(child_conn,), daemon=True
        )
        self.process.start()
        # The child holds its own copy; closing ours makes EOF detection
        # (worker death -> readable pipe) work in the parent.
        child_conn.close()

    @property
    def alive(self) -> bool:
        return self.process.is_alive()

    def kill(self) -> None:
        """Terminate the process and release the pipe (timeout/shutdown path)."""
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(_JOIN_GRACE_S)
            if self.process.is_alive():  # pragma: no cover - stubborn child
                self.process.kill()
                self.process.join(_JOIN_GRACE_S)
        self.conn.close()

    def stop(self) -> None:
        """Ask the worker to exit cleanly; escalate to kill if it won't."""
        try:
            self.conn.send(None)
        except (BrokenPipeError, OSError):
            pass
        self.process.join(_JOIN_GRACE_S)
        self.kill()


@dataclass
class _InFlight:
    """Book-keeping for a task currently assigned to a worker."""

    task_id: int
    started: float
    deadline: Optional[float]
    pid: int = 0
    start_ns: int = 0  # tracer-clock dispatch time (observability only)


class TaskHandle:
    """Awaitable result slot for one :class:`DispatchPool` task."""

    __slots__ = ("_event", "result")

    def __init__(self) -> None:
        self._event = threading.Event()
        self.result: Optional[TaskResult] = None

    def _resolve(self, result: TaskResult) -> None:
        self.result = result
        self._event.set()

    def done(self) -> bool:
        return self._event.is_set()

    def wait(self, timeout: Optional[float] = None) -> Optional[TaskResult]:
        """Block until the task resolves; ``None`` only on wait timeout."""
        if not self._event.wait(timeout):
            return None
        return self.result


@dataclass
class _Queued:
    """One submitted-but-not-dispatched task."""

    task_id: int
    handle: TaskHandle
    fn: Callable[..., Any]
    args: Tuple[Any, ...]
    timeout: Optional[float]


class DispatchPool:
    """Warm worker processes behind a thread-safe, always-on dispatcher.

    Tasks queue through :meth:`submit` and go to idle workers in FIFO order
    as they free up, the longest-idle worker first.  A task that outlives its
    ``timeout`` has its worker killed and respawned; a worker that crashes
    resolves only its own task.
    Either way the handle resolves with a ``timeout``/``error``
    :class:`TaskResult` and sibling tasks keep running.

    ``tracer`` and ``metrics`` (a :class:`repro.obs.Tracer` and a
    :class:`repro.obs.MetricsRegistry`) may be attached for the span of a
    run.  The dispatcher then records a ``pool_task`` span per task on the
    parent clock (tid = worker pid), ``task_timeout`` and
    ``worker_respawn`` instants, and the ``pool_tasks_total``,
    ``pool_task_seconds``, ``pool_queue_depth`` and ``pool_respawns_total``
    metrics, all before the task's handle resolves.  Nothing crosses the
    process boundary, so worker payloads stay untouched.
    """

    def __init__(self, workers: int, *, context=None) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self._ctx = context or multiprocessing.get_context()
        self._workers: List[_Worker] = [_Worker(self._ctx)
                                        for _ in range(workers)]
        self._idle: deque = deque(self._workers)
        self._busy: Dict[_Worker, Tuple[TaskHandle, _InFlight]] = {}
        self._pending: deque = deque()
        self._lock = threading.Lock()
        self._closed = False
        self._task_ids = itertools.count()
        #: Respawn count (timeouts + crashes), for service metrics.
        self.respawns = 0
        self.tracer = None
        self.metrics = None
        # Worker pids already named as thread tracks, per attached tracer.
        self._named: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        # Wake channel: submit()/shutdown() nudge the dispatcher out of its
        # connection wait without a polling interval.
        self._wake_r, self._wake_w = self._ctx.Pipe(duplex=False)
        self._thread = threading.Thread(
            target=self._loop, name="dispatch-pool", daemon=True)
        self._thread.start()

    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        return len(self._workers)

    @property
    def alive(self) -> bool:
        return not self._closed

    def worker_pids(self) -> List[int]:
        """PIDs of the current worker processes (changes when one is killed)."""
        with self._lock:
            return [w.process.pid for w in self._workers
                    if w.process.pid is not None]

    def submit(self, fn: Callable[..., Any], args: Tuple[Any, ...] = (),
               *, timeout: Optional[float] = None) -> TaskHandle:
        """Queue one task; returns immediately with its result handle."""
        handle = TaskHandle()
        with self._lock:
            if self._closed:
                raise RuntimeError("pool has been shut down")
            self._pending.append(_Queued(next(self._task_ids), handle, fn,
                                         tuple(args), timeout))
        self._wake()
        return handle

    def run(self, fn: Callable[..., Any], args: Tuple[Any, ...] = (),
            *, timeout: Optional[float] = None) -> TaskResult:
        """Submit and block until the task resolves (convenience wrapper)."""
        result = self.submit(fn, args, timeout=timeout).wait()
        assert result is not None  # handle.wait() without timeout never None
        return result

    def _wake(self) -> None:
        try:
            self._wake_w.send(None)
        except (BrokenPipeError, OSError):  # pragma: no cover - shutdown race
            pass

    # ------------------------------------------------------------------
    def _loop(self) -> None:
        while True:
            with self._lock:
                closed = self._closed
                # Dispatch everything an idle worker can take.  A worker can
                # die while idle (an OOM kill between tasks): replace it
                # instead of letting the send take the task down.
                while self._pending and self._idle and not closed:
                    item = self._pending[0]
                    worker = self._idle.popleft()
                    if not worker.alive:
                        self._replace_locked(worker)
                        continue
                    self._pending.popleft()
                    try:
                        worker.conn.send((item.task_id, item.fn, item.args))
                    except (BrokenPipeError, OSError):
                        self._pending.appendleft(item)
                        self._replace_locked(worker)
                        continue
                    self._busy[worker] = (item.handle,
                                          self._dispatched(item, worker))
                busy = dict(self._busy)
                if closed and not busy:
                    return
            deadlines = [f.deadline for _, f in busy.values()
                         if f.deadline is not None]
            poll = None
            if deadlines:
                poll = max(0.0, min(deadlines) - time.monotonic())
            conns = [w.conn for w in busy] + [self._wake_r]
            ready = _wait_connections(conns, timeout=poll)

            if self._wake_r in ready:
                try:
                    while self._wake_r.poll():
                        self._wake_r.recv()
                except (EOFError, OSError):  # pragma: no cover - shutdown race
                    pass
            by_conn = {w.conn: w for w in busy}
            for conn in ready:
                worker = by_conn.get(conn)
                if worker is None:
                    continue
                try:
                    _task_id, status, payload = conn.recv()
                except (EOFError, OSError):
                    self._finish(worker, TaskResult(
                        status="error",
                        error="worker process died before returning a result",
                    ), replace=True)
                    continue
                if status == "ok":
                    self._finish(worker, TaskResult(status="ok", value=payload))
                else:
                    self._finish(worker, TaskResult(status="error",
                                                    error=payload))
            now = time.monotonic()
            with self._lock:
                overdue = [(w, f) for w, (_, f) in self._busy.items()
                           if f.deadline is not None and f.deadline <= now]
            for worker, flight in overdue:
                if self.tracer is not None:
                    self.tracer.instant("task_timeout", "pool", tid=flight.pid,
                                        task_id=flight.task_id)
                self._finish(worker, TaskResult(status="timeout"),
                             replace=True)

    def _dispatched(self, item: _Queued, worker: _Worker) -> _InFlight:
        """Book-keeping and observation of one dispatch (lock held)."""
        now = time.monotonic()
        pid = worker.process.pid or 0
        tracer, metrics = self.tracer, self.metrics
        if tracer is not None:
            named = self._named.setdefault(tracer, set())
            if pid not in named:
                named.add(pid)
                tracer.thread_name(pid, f"worker-{pid}")
        if metrics is not None:
            with metrics.locked():
                metrics.gauge("pool_queue_depth", "Tasks not yet dispatched"
                              ).set(len(self._pending))
        return _InFlight(
            task_id=item.task_id,
            started=now,
            deadline=now + item.timeout if item.timeout is not None else None,
            pid=pid,
            start_ns=tracer.now_ns() if tracer is not None else 0,
        )

    def _finish(self, worker: _Worker, result: TaskResult,
                replace: bool = False) -> None:
        with self._lock:
            handle, flight = self._busy.pop(worker)
            result.elapsed_s = time.monotonic() - flight.started
            tracer, metrics = self.tracer, self.metrics
            if tracer is not None:
                tracer.complete(
                    "pool_task", "pool", start_ns=flight.start_ns,
                    dur_ns=tracer.now_ns() - flight.start_ns, tid=flight.pid,
                    task_id=flight.task_id, status=result.status)
            if metrics is not None:
                with metrics.locked():
                    metrics.counter("pool_tasks_total", "Pool tasks by outcome",
                                    ("status",)).inc(status=result.status)
                    metrics.histogram(
                        "pool_task_seconds",
                        "Pool task wall time (dispatch→result)",
                    ).observe(result.elapsed_s)
            if replace:
                self._replace_locked(worker)
            else:
                self._idle.append(worker)
        handle._resolve(result)

    def _replace_locked(self, worker: _Worker) -> None:
        """Kill a worker and enlist a fresh replacement (lock held)."""
        old_pid = worker.process.pid or 0
        worker.kill()
        self._workers.remove(worker)
        replacement = _Worker(self._ctx)
        self._workers.append(replacement)
        self._idle.append(replacement)
        self.respawns += 1
        if self.tracer is not None:
            self.tracer.instant("worker_respawn", "pool", tid=old_pid,
                                new_pid=replacement.process.pid or 0)
        if self.metrics is not None:
            with self.metrics.locked():
                self.metrics.counter(
                    "pool_respawns_total",
                    "Workers killed and replaced (timeout or crash)").inc()

    # ------------------------------------------------------------------
    def shutdown(self) -> None:
        """Stop accepting work, resolve queued tasks as errors, reap workers.

        In-flight tasks are allowed to finish; idempotent.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            dropped = list(self._pending)
            self._pending.clear()
        for item in dropped:
            item.handle._resolve(TaskResult(
                status="error", error="pool shut down before dispatch"))
        self._wake()
        self._thread.join()
        for worker in self._workers:
            worker.stop()
        self._workers = []


# ----------------------------------------------------------------------
# Shared pool: reused across run_suite calls within one process
# ----------------------------------------------------------------------
_shared_pool: Optional[DispatchPool] = None


def get_pool(workers: int) -> DispatchPool:
    """The process-wide shared pool, with exactly ``workers`` workers.

    A live pool of that size is reused as-is, so successive ``run_suite``
    calls keep their warm workers; a different size (or a shut-down pool)
    rebuilds it.
    """
    global _shared_pool
    if _shared_pool is not None and (_shared_pool.size != workers
                                     or not _shared_pool.alive):
        _shared_pool.shutdown()
        _shared_pool = None
    if _shared_pool is None:
        _shared_pool = DispatchPool(workers)
    return _shared_pool


def shutdown_pool() -> None:
    """Tear down the shared pool (no-op when none exists)."""
    global _shared_pool
    if _shared_pool is not None:
        _shared_pool.shutdown()
        _shared_pool = None


atexit.register(shutdown_pool)
