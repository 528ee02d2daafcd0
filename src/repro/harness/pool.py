"""Worker-process pool with per-task timeouts and crash isolation.

:class:`DispatchPool` keeps a fixed set of long-lived worker processes
warm, and the thread that calls it drives it: :meth:`~DispatchPool.run_all`
hands a batch of tasks to idle workers and waits on their pipes until every
task has resolved, with no dispatcher thread in between.  Every pool has
one owner.  :func:`~repro.harness.runner.run_suite` builds one for its call
(one :func:`~repro.harness.runner.run_scenario` task per scenario) unless
the caller passes ``pool=``; ``repro serve`` gives each scheduler thread a
one-worker pool, which runs every span of that thread's job, so a span
reaches the worker that ran its predecessor.  Interpreter/import startup
is paid once per worker, not once per task.

Tasks travel over one duplex :func:`multiprocessing.Pipe` per worker rather
than a shared queue.  That buys two properties a ``Pool`` cannot offer:

* **Hard per-task timeouts.**  The caller knows exactly which worker runs
  which task, so an overdue task is handled by killing *that* worker and
  respawning a replacement — sibling tasks keep running, and the task
  resolves with a ``timeout`` result instead of hanging.
* **Crash containment.**  A worker that dies mid-task (OOM kill, segfault)
  closes its pipe; :func:`multiprocessing.connection.wait` returns it,
  and that task resolves as an ``error`` while the worker is respawned.
  Pipes carry whole pickled messages, so killing a worker can never
  corrupt a shared queue the way terminating a ``multiprocessing.Queue``
  feeder can.

Task callables must be module-level functions (they are pickled by
reference); arguments and results must be picklable.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import signal
import threading
import time
import traceback
import weakref
from collections import deque
from dataclasses import dataclass
from multiprocessing.connection import wait as _wait_connections
from typing import Any, Callable, Deque, Dict, List, Optional, Sequence, Tuple

#: A task is a module-level callable plus its positional arguments.
Task = Tuple[Callable[..., Any], Tuple[Any, ...]]

#: Grace period (seconds) for a killed or shut-down worker to be reaped.
_JOIN_GRACE_S = 2.0

#: How often (seconds) an idle worker checks that its parent is alive.
_PARENT_CHECK_S = 1.0


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

    The loop also returns once its parent is gone (a SIGKILLed owner).  A
    forked worker holds copies of its own pipe's parent end and of earlier
    workers', so it never reads EOF when the owner dies; between tasks it
    polls its pipe and compares its parent pid with the one it started
    under.  (An owner that dies before the worker reaches this loop, within
    a millisecond of the fork, goes unnoticed.)
    """
    # A worker forked from ``repro serve`` inherits its SIGTERM handler;
    # terminate() must kill it, not raise into a task.
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    parent = os.getppid()
    while True:
        try:
            while not conn.poll(_PARENT_CHECK_S):
                if os.getppid() != parent:
                    return
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

    index: int  # the task's position in its run_all call
    task_id: int
    started: float
    deadline: Optional[float]
    pid: int = 0
    start_ns: int = 0  # tracer-clock dispatch time (observability only)


class DispatchPool:
    """Warm worker processes, driven by the thread that calls the pool.

    :meth:`run_all` hands its tasks to idle workers in order, the
    longest-idle worker first, and waits in the calling thread until each
    has resolved.  A task that outlives its ``timeout`` has its worker
    killed and respawned; a worker that crashes resolves only its own task.
    Either way the task resolves with a ``timeout``/``error``
    :class:`TaskResult` and sibling tasks keep running.  One lock is held
    across :meth:`run_all` and :meth:`shutdown`, so one caller drives the
    pool at a time.

    ``tracer`` and ``metrics`` (a :class:`repro.obs.Tracer` and a
    :class:`repro.obs.MetricsRegistry`) may be attached for the span of a
    run.  The pool then records a ``pool_task`` span per task on the
    parent clock (tid = worker pid), ``task_timeout`` and
    ``worker_respawn`` instants, and the ``pool_tasks_total``,
    ``pool_task_seconds``, ``pool_queue_depth`` and ``pool_respawns_total``
    metrics, all before the task's result is returned.  Nothing crosses the
    process boundary, so worker payloads stay untouched.
    """

    def __init__(self, workers: int, *, context=None) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self._ctx = context or multiprocessing.get_context()
        self._workers: List[_Worker] = [_Worker(self._ctx)
                                        for _ in range(workers)]
        self._idle: Deque[_Worker] = deque(self._workers)
        self._lock = threading.Lock()
        self._closed = False
        self._task_ids = itertools.count()
        #: Respawn count (timeouts + crashes), for service metrics.
        self.respawns = 0
        self.tracer = None
        self.metrics = None
        # Worker pids already named as thread tracks, per attached tracer.
        self._named: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        return len(self._workers)

    @property
    def alive(self) -> bool:
        return not self._closed

    def worker_pids(self) -> List[int]:
        """PIDs of the current worker processes (changes when one is killed)."""
        return [w.process.pid for w in list(self._workers)
                if w.process.pid is not None]

    def run(self, fn: Callable[..., Any], args: Tuple[Any, ...] = (),
            *, timeout: Optional[float] = None) -> TaskResult:
        """Run one task and return its result (:meth:`run_all` of one)."""
        return self.run_all([(fn, tuple(args))], timeout=timeout)[0]

    def run_all(self, tasks: Sequence[Task], *,
                timeout: Optional[float] = None) -> List[TaskResult]:
        """Run every task on the workers; results in task order.

        ``timeout`` is each task's wall-clock budget from its dispatch.
        """
        with self._lock:
            if self._closed:
                raise RuntimeError("pool has been shut down")
            pending = deque(enumerate(tasks))
            results: List[Optional[TaskResult]] = [None] * len(pending)
            busy: Dict[_Worker, _InFlight] = {}
            try:
                while pending or busy:
                    self._dispatch(pending, busy, timeout)
                    self._collect(busy, results)
            finally:
                # Only a raise leaves tasks in flight (a task that fails to
                # pickle, an interrupt): their workers go, so no stale
                # result reaches the next call.
                for worker in busy:
                    self._replace(worker)
        return results  # type: ignore[return-value]

    # ------------------------------------------------------------------
    def _dispatch(self, pending: Deque[Tuple[int, Task]],
                  busy: Dict[_Worker, _InFlight],
                  timeout: Optional[float]) -> None:
        """Hand pending tasks to idle workers, the longest-idle first.

        A worker that died while idle (an OOM kill between tasks), or whose
        pipe refuses the send, is replaced and the task waits for the next.
        """
        while pending and self._idle:
            worker = self._idle[0]
            index, (fn, args) = pending[0]
            task_id = next(self._task_ids)
            try:
                sent = worker.alive
                if sent:
                    worker.conn.send((task_id, fn, args))
            except OSError:
                sent = False
            # Popped only now: a task that fails to pickle leaves it idle.
            self._idle.popleft()
            if not sent:
                self._replace(worker)
                continue
            pending.popleft()
            busy[worker] = self._dispatched(index, task_id, worker, timeout,
                                            len(pending))

    def _collect(self, busy: Dict[_Worker, _InFlight],
                 results: List[Optional[TaskResult]]) -> None:
        """Wait for results until the earliest deadline, and resolve the
        tasks that returned, died or are overdue (lock held)."""
        deadlines = [f.deadline for f in busy.values()
                     if f.deadline is not None]
        wait_s = None
        if deadlines:
            wait_s = max(0.0, min(deadlines) - time.monotonic())
        by_conn = {w.conn: w for w in busy}
        for conn in _wait_connections(list(by_conn), timeout=wait_s):
            worker = by_conn[conn]
            try:
                _task_id, status, payload = conn.recv()
            except (EOFError, OSError):
                self._finish(worker, busy, results, TaskResult(
                    status="error",
                    error="worker process died before returning a result",
                ), replace=True)
                continue
            if status == "ok":
                result = TaskResult(status="ok", value=payload)
            else:
                result = TaskResult(status="error", error=payload)
            self._finish(worker, busy, results, result)
        now = time.monotonic()
        for worker, flight in list(busy.items()):
            if flight.deadline is not None and flight.deadline <= now:
                if self.tracer is not None:
                    self.tracer.instant("task_timeout", "pool",
                                        tid=flight.pid,
                                        task_id=flight.task_id)
                self._finish(worker, busy, results,
                             TaskResult(status="timeout"), replace=True)

    def _dispatched(self, index: int, task_id: int, worker: _Worker,
                    timeout: Optional[float], queued: int) -> _InFlight:
        """Book-keeping and observation of one dispatch."""
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
                              ).set(queued)
        return _InFlight(
            index=index,
            task_id=task_id,
            started=now,
            deadline=now + timeout if timeout is not None else None,
            pid=pid,
            start_ns=tracer.now_ns() if tracer is not None else 0,
        )

    def _finish(self, worker: _Worker, busy: Dict[_Worker, _InFlight],
                results: List[Optional[TaskResult]], result: TaskResult,
                replace: bool = False) -> None:
        flight = busy.pop(worker)
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
            self._replace(worker)
        else:
            self._idle.append(worker)
        results[flight.index] = result

    def _replace(self, worker: _Worker) -> None:
        """Kill a worker and enlist a fresh replacement."""
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
        """Reap the workers; later calls raise ``RuntimeError``.

        A :meth:`run_all` running on another thread finishes its tasks
        first.  Idempotent.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            for worker in self._workers:
                worker.stop()
            self._workers = []
            self._idle.clear()
