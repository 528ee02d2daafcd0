"""``repro serve`` — a long-lived scenario service over the existing stack.

Everything a server needs already exists in this repository; this package
only composes it behind HTTP (stdlib ``http.server`` + threads, zero new
dependencies):

* jobs are keyed by the result store's **spec-hash × version** identity, so
  a POST whose record is already cached returns immediately,
* execution runs on warm workers through
  :class:`~repro.harness.pool.DispatchPool` (timeouts, crash containment,
  respawn): each scheduler thread owns and drives a one-worker pool,
  whose worker runs each of its jobs as one task,
* progress, pause and resume ride the span plan
  (:func:`~repro.harness.runner.plan_spans`) and the snapshot subsystem:
  the task reports each span boundary up its pipe and parks at one into a
  checkpoint when asked, so a paused-then-resumed job ends with a record
  byte-identical to an uninterrupted run (a truncated scenario reports
  only at its end and never parks),
* ``GET /v1/records/<spec_hash>`` returns the store's canonical JSONL
  bytes, so records fetched over HTTP are byte-identical to a direct
  ``repro suite run`` of the same spec,
* ``GET /metrics`` exposes the :mod:`repro.obs` registry in Prometheus
  text format.

The server path is observer-only: nothing here changes spec hashes or the
simulated schedule.  See docs/serve.md for the API and semantics.
"""

from repro.serve.app import make_server, serve_forever
from repro.serve.jobs import Job, JobRegistry
from repro.serve.queue import FairQueue
from repro.serve.service import ScenarioService, ServeConfig

__all__ = [
    "FairQueue",
    "Job",
    "JobRegistry",
    "ScenarioService",
    "ServeConfig",
    "make_server",
    "serve_forever",
]
