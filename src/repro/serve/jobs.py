"""Job objects and the in-memory job registry of ``repro serve``.

A :class:`Job` is one admitted scenario submission.  Its identity *is* the
scenario's spec hash — the same content-addressed key the result store
uses — so re-submitting an identical spec always lands on the same job
(and on the same cached record once it completes).

State machine::

    queued -> running -> done
                |  ^        \\-> (terminal)
                v  |
              paused          running -> failed (task error/timeout)

``paused`` jobs hold an increment-boundary checkpoint on disk and re-enter
``queued`` on resume; a job whose pause a resume withdrew before its task
parked goes from ``running`` straight back to ``queued``.  All mutation
happens under the job's condition variable, which also drives the
long-poll/streaming ``/events`` endpoint: every appended event line
notifies waiters.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Dict, List, Optional

from repro.harness.pool import DispatchPool
from repro.harness.scenario import Scenario

QUEUED = "queued"
RUNNING = "running"
PAUSED = "paused"
DONE = "done"
FAILED = "failed"

#: States that occupy an admission slot (see ServeConfig.queue_depth).
ACTIVE_STATES = (QUEUED, RUNNING)
#: States a job can never leave.
TERMINAL_STATES = (DONE, FAILED)


class Job:
    """One admitted scenario run and its observable progress."""

    def __init__(self, scenario: Scenario, client: str) -> None:
        self.id = scenario.spec_hash()
        self.scenario = scenario
        self.client = client
        self.state = QUEUED
        self.cached = False
        self.total_increments = scenario.dataset.num_increments
        self.completed_increments = 0
        #: First increment the job's next task should simulate.
        self.next_start = 0
        #: The pool running the job's task, while one runs; a pause asks
        #: it to park the task.
        self.pool: Optional[DispatchPool] = None
        self.error: Optional[str] = None
        self.events: List[str] = []
        self.pause_requested = False
        self.cond = threading.Condition()

    # ------------------------------------------------------------------
    def emit(self, line: str) -> None:
        """Append a progress line and wake every /events waiter."""
        with self.cond:
            self.events.append(line)
            self.cond.notify_all()

    def set_state(self, state: str, error: Optional[str] = None) -> None:
        with self.cond:
            self.state = state
            if error is not None:
                self.error = error
            self.cond.notify_all()

    def wait_until(self, predicate: Callable[[], bool],
                   timeout: Optional[float] = None) -> bool:
        """Block until ``predicate()`` holds (under the job lock)."""
        with self.cond:
            return self.cond.wait_for(predicate, timeout)

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    # ------------------------------------------------------------------
    def as_dict(self) -> Dict[str, Any]:
        """The ``GET /v1/jobs/<id>`` status payload."""
        with self.cond:
            return {
                "id": self.id,
                "spec_hash": self.id,
                "name": self.scenario.name,
                "client": self.client,
                "state": self.state,
                "cached": self.cached,
                "completed_increments": self.completed_increments,
                "total_increments": self.total_increments,
                "pause_requested": self.pause_requested,
                "error": self.error,
                "events": len(self.events),
            }


class JobRegistry:
    """Thread-safe id → :class:`Job` map with admission accounting."""

    def __init__(self) -> None:
        self._jobs: Dict[str, Job] = {}
        self.lock = threading.Lock()

    def get(self, job_id: str) -> Optional[Job]:
        with self.lock:
            return self._jobs.get(job_id)

    def add(self, job: Job) -> None:
        with self.lock:
            self._jobs[job.id] = job

    def jobs(self) -> List[Job]:
        """All jobs, in insertion (submission) order."""
        with self.lock:
            return list(self._jobs.values())

    def active_count(self) -> int:
        """Jobs currently occupying an admission slot (queued or running)."""
        with self.lock:
            return sum(1 for job in self._jobs.values()
                       if job.state in ACTIVE_STATES)

    def __len__(self) -> int:
        with self.lock:
            return len(self._jobs)
