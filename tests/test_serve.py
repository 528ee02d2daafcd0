"""Tests for ``repro serve`` — the long-lived scenario service.

The load-bearing properties:

* records fetched over HTTP are **byte-identical** to a direct
  ``run_scenario`` encoded by the store (the determinism contract's HTTP
  half),
* pause → resume mid-stream merges to the **same record** as an
  uninterrupted run (a job task parks into a checkpoint, which the next
  task restores),
* admission control is exact: with ``queue_depth=N``, ``N + k`` fresh
  concurrent submissions see exactly ``k`` 429s and the pool survives,
* ``/metrics`` exposes the service counters in Prometheus text format.

Everything runs against a real ``ThreadingHTTPServer`` on an ephemeral
port; scenarios are tiny (seconds end to end).
"""

import functools
import http.client
import json
import multiprocessing
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.parse
import urllib.request
from pathlib import Path

import pytest

from repro.harness import pool as pool_module
from repro.harness import runner
from repro.harness.pool import DispatchPool
from repro.harness.runner import resume_scenario, run_scenario
from repro.harness.scenario import ChipSpec, DatasetSpec, RunOptions, Scenario
from repro.harness.store import ResultStore
from repro.serve import FairQueue, Job, ScenarioService, ServeConfig, app, make_server
from repro.serve import service as service_module
from repro.snapshot import Snapshot

from helpers import child_pids, pid_alive, requires_proc, subprocess_env

CORPUS = Path(__file__).parent / "corpus"


def tiny_scenario(name="serve-t", *, seed=3, increments=4, **dataset_kwargs):
    # The stdlib generator: SBM generation needs numpy, and these tests
    # also run on the numpy-free lane.
    dataset_kwargs.setdefault("generator", "uniform")
    return Scenario(
        name=name,
        dataset=DatasetSpec(vertices=40, edges=200,
                            num_increments=increments,
                            sampling="snowball", seed=seed,
                            **dataset_kwargs),
        chip=ChipSpec(side=4),
        algorithm="bfs",
        options=RunOptions(),
    )


def serve(tmp_path, jobs):
    """A live service + HTTP server on an ephemeral port."""
    config = ServeConfig(port=0, jobs=jobs, queue_depth=2,
                        store=str(tmp_path / "store.jsonl"),
                        work_dir=str(tmp_path / "spill"))
    service = ScenarioService(config)
    httpd = make_server(service)
    service.start()
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    host, port = httpd.server_address[:2]
    yield service, f"http://{host}:{port}"
    httpd.shutdown()
    httpd.server_close()
    service.stop()


@pytest.fixture
def server(tmp_path):
    yield from serve(tmp_path, jobs=1)


def after_each_report(monkeypatch, hook):
    """Job tasks call ``hook(progress)`` after each progress report, in
    the workers of every service built from now on.  Those pools fork
    from this process, whatever the default start method, so their
    workers inherit the patch."""
    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("patching workers needs the fork start method")
    real = runner.report

    def report(progress):
        real(progress)
        hook(progress)

    monkeypatch.setattr(runner, "report", report)
    monkeypatch.setattr(service_module, "DispatchPool", functools.partial(
        DispatchPool, context=multiprocessing.get_context("fork")))


@pytest.fixture
def hold_first_report(monkeypatch):
    """Job tasks wait after their worker's first progress report until
    their owner asks them to park (30 s at most), so a pause or a stop
    sent from the first progress callback parks at boundary 1, not at a
    later one."""
    held = []

    def hold(progress):
        if not held:
            held.append(progress)
            deadline = time.monotonic() + 30
            while (not pool_module.park_requested()
                   and time.monotonic() < deadline):
                time.sleep(0.005)

    after_each_report(monkeypatch, hold)


@pytest.fixture
def held_server(tmp_path, hold_first_report):
    yield from serve(tmp_path, jobs=1)


def on_first_progress(monkeypatch, service, action):
    """Call ``action(job)`` from the service's first progress callback."""
    real = service._progress
    calls = []

    def progress(job, pool, report):
        real(job, pool, report)
        calls.append(report)
        if len(calls) == 1:
            action(job)

    monkeypatch.setattr(service, "_progress", progress)


@pytest.fixture
def server2(tmp_path):
    yield from serve(tmp_path, jobs=2)


def request(base, method, path, payload=None, headers=None, timeout=60):
    data = json.dumps(payload).encode() if payload is not None else None
    req = urllib.request.Request(base + path, data=data, method=method,
                                 headers=headers or {})
    try:
        with urllib.request.urlopen(req, timeout=timeout) as resp:
            return resp.status, resp.read()
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read()


def wait_state(base, job_id, states, tries=600):
    for _ in range(tries):
        _, body = request(base, "GET", f"/v1/jobs/{job_id}")
        status = json.loads(body)
        if status["state"] in states:
            return status
        threading.Event().wait(0.05)
    raise AssertionError(f"job never reached {states}: {status}")


class TestFairQueue:
    def test_round_robin_across_clients(self):
        queue = FairQueue()
        jobs = {}
        for client, seed in (("a", 1), ("a", 2), ("a", 3), ("b", 4),
                             ("c", 5)):
            job = Job(tiny_scenario(f"{client}{seed}", seed=seed), client)
            jobs[job.id] = client
            queue.push(job)
        order = [jobs[queue.pop(0).id] for _ in range(5)]
        # a submitted 3 before b and c submitted 1 each; fairness means b
        # and c are not starved behind a's backlog.
        assert order == ["a", "b", "c", "a", "a"]

    def test_pop_times_out_empty(self):
        queue = FairQueue()
        assert queue.pop(timeout=0.01) is None

    def test_close_wakes_blocked_pop(self):
        queue = FairQueue()
        out = []
        thread = threading.Thread(
            target=lambda: out.append(queue.pop(timeout=30)))
        thread.start()
        queue.close()
        thread.join(timeout=5)
        assert not thread.is_alive() and out == [None]


class TestHTTPByteIdentity:
    def test_record_over_http_matches_direct_run(self, server):
        service, base = server
        scenario = tiny_scenario("via-http")
        code, body = request(base, "POST", "/v1/jobs", scenario.spec_dict())
        assert code == 201
        job_id = json.loads(body)["id"]
        assert job_id == scenario.spec_hash()
        final = wait_state(base, job_id, ("done", "failed"))
        assert final["state"] == "done", final
        code, via_http = request(base, "GET", f"/v1/records/{job_id}")
        assert code == 200
        direct = (ResultStore.encode(run_scenario(scenario)) + "\n").encode()
        assert via_http == direct

    def test_record_over_http_matches_direct_run_python_kernel(self, server):
        """Kernel pinning is identity-free: a python-pinned job produces
        the same id and byte-identical record as the default kernel."""
        service, base = server
        scenario = tiny_scenario("via-http-py")
        code, body = request(
            base, "POST", "/v1/jobs",
            {"scenario": scenario.spec_dict(), "kernel": "python"})
        assert code == 201
        job = json.loads(body)
        assert job["kernel"] == "python"
        assert job["id"] == scenario.spec_hash()
        final = wait_state(base, job["id"], ("done", "failed"))
        assert final["state"] == "done", final
        _, via_http = request(base, "GET", f"/v1/records/{job['id']}")
        direct = (ResultStore.encode(run_scenario(scenario)) + "\n").encode()
        assert via_http == direct

    def test_truncated_job_finishes_with_direct_run_bytes(self, server):
        """A truncated scenario's boundaries can hold continuations no
        checkpoint captures, so its job runs as one span and finishes."""
        service, base = server
        spec = json.loads(
            (CORPUS / "fuzz-truncation-carry.json").read_text())["scenario"]
        code, body = request(base, "POST", "/v1/jobs", spec)
        assert code == 201
        job_id = json.loads(body)["id"]
        final = wait_state(base, job_id, ("done", "failed"))
        assert final["state"] == "done", final
        _, via_http = request(base, "GET", f"/v1/records/{job_id}")
        direct = run_scenario(Scenario.from_dict(spec))
        assert via_http == (ResultStore.encode(direct) + "\n").encode()

    def test_client_file_options_are_ignored(self, server, tmp_path):
        """A submitted spec's trace and snapshot paths name files on the
        client's side; the server never writes them."""
        service, base = server
        scenario = tiny_scenario("client-paths")
        outside = tmp_path / "client"
        outside.mkdir()
        spec = scenario.spec_dict()
        spec["options"].update(trace_path=str(outside / "trace.json"),
                               snapshot_every=1, snapshot_dir=str(outside))
        code, body = request(base, "POST", "/v1/jobs", spec)
        assert code == 201
        job_id = json.loads(body)["id"]
        assert job_id == scenario.spec_hash()
        final = wait_state(base, job_id, ("done", "failed"))
        assert final["state"] == "done", final
        assert list(outside.iterdir()) == []
        _, via_http = request(base, "GET", f"/v1/records/{job_id}")
        direct = (ResultStore.encode(run_scenario(scenario)) + "\n").encode()
        assert via_http == direct

    def test_resubmit_is_cached(self, server):
        service, base = server
        scenario = tiny_scenario("cache-me")
        code, body = request(base, "POST", "/v1/jobs", scenario.spec_dict())
        assert code == 201
        job_id = json.loads(body)["id"]
        wait_state(base, job_id, ("done",))
        # Same spec again: no new work, same job, 200.
        code, body = request(base, "POST", "/v1/jobs", scenario.spec_dict())
        assert code == 200
        assert json.loads(body)["id"] == job_id

    def test_cached_submission_to_fresh_service(self, server, tmp_path):
        """A record landing in the store before the service saw the spec
        (e.g. a direct suite run) makes the first POST an immediate
        cache hit."""
        service, base = server
        scenario = tiny_scenario("pre-warmed")
        with service._store_lock:
            service.store.put(run_scenario(scenario))
        code, body = request(base, "POST", "/v1/jobs", scenario.spec_dict())
        assert code == 200
        job = json.loads(body)
        assert job["cached"] is True and job["state"] == "done"
        assert job["completed_increments"] == job["total_increments"]

    def test_invalid_spec_is_400(self, server):
        service, base = server
        code, body = request(base, "POST", "/v1/jobs", {"not": "a spec"})
        assert code == 400
        assert "invalid scenario spec" in json.loads(body)["error"]

    @pytest.mark.parametrize("where,kernel", [
        ("envelope", "numpy"), ("envelope", "bogus"), ("envelope", 5),
        ("chip", "numpy"),
    ], ids=["numpy", "bogus", "int", "chip-numpy"])
    def test_bad_kernel_pin_is_400(self, server, where, kernel):
        """A bad kernel pin is refused at submit: no job, no queue slot."""
        service, base = server
        spec = tiny_scenario("bad-kernel").spec_dict()
        if where == "chip":
            spec["chip"]["kernel"] = kernel
            payload = spec
        else:
            payload = {"scenario": spec, "kernel": kernel}
        code, body = request(base, "POST", "/v1/jobs", payload)
        assert code == 400
        assert "unknown kernel" in json.loads(body)["error"]
        _, listing = request(base, "GET", "/v1/jobs")
        assert json.loads(listing)["jobs"] == []

    def test_bad_graph_seed_is_400(self, server):
        service, base = server
        spec = tiny_scenario("bad-seed").spec_dict()
        spec["options"]["graph_seed"] = -1
        code, body = request(base, "POST", "/v1/jobs", spec)
        assert code == 400
        assert "graph_seed" in json.loads(body)["error"]
        _, listing = request(base, "GET", "/v1/jobs")
        assert json.loads(listing)["jobs"] == []

    def test_missing_record_is_404(self, server):
        service, base = server
        code, _ = request(base, "GET", "/v1/records/deadbeef")
        assert code == 404


def run_warm(base, scenarios):
    """Run ten-increment jobs side by side: each job is one task on its
    scheduler's worker, which reports every boundary and writes no
    checkpoint, and every record is unchanged."""
    ids = []
    for scenario in scenarios:
        code, body = request(base, "POST", "/v1/jobs", scenario.spec_dict())
        assert code == 201
        ids.append(json.loads(body)["id"])
    for scenario, job_id in zip(scenarios, ids):
        final = wait_state(base, job_id, ("done", "failed"))
        assert final["state"] == "done", final
        _, via_http = request(base, "GET", f"/v1/records/{job_id}")
        direct = (ResultStore.encode(run_scenario(scenario)) + "\n").encode()
        assert via_http == direct
        _, body = request(base, "GET",
                          f"/v1/jobs/{job_id}/events?since=0&timeout=5")
        progress = [line.split(" complete")[0]
                    for line in json.loads(body)["events"]
                    if line.startswith("increment ")]
        assert progress == [f"increment {k}/10" for k in range(1, 11)]
    _, body = request(base, "GET", "/metrics")
    text = body.decode()
    jobs = len(scenarios)
    assert f'serve_spans_total{{status="ok"}} {jobs}\n' in text
    assert f'serve_span_handoffs_total{{kind="fresh"}} {jobs}\n' in text
    assert 'kind="restored"' not in text
    assert "serve_checkpoints_total 0\n" in text


class TestWarmHandoff:
    def test_service_needs_a_scheduler(self, tmp_path):
        with pytest.raises(ValueError, match="jobs must be >= 1"):
            ScenarioService(ServeConfig(jobs=0,
                                        store=str(tmp_path / "s.jsonl")))

    def test_job_spans_continue_on_one_worker(self, server2):
        """Two workers, one job."""
        service, base = server2
        run_warm(base, [tiny_scenario("warm-ten", increments=10)])

    def test_concurrent_jobs_continue_on_their_own_workers(self, server2):
        """Two workers, two jobs at once: each keeps its own worker."""
        service, base = server2
        run_warm(base, [tiny_scenario("warm-a", seed=11, increments=10),
                        tiny_scenario("warm-b", seed=12, increments=10)])


class TestPauseResume:
    def test_pause_resume_mid_stream_record_identical(self, server):
        service, base = server
        scenario = tiny_scenario("pausable", increments=6)
        code, body = request(base, "POST", "/v1/jobs", scenario.spec_dict())
        job_id = json.loads(body)["id"]
        code, body = request(base, "POST", f"/v1/jobs/{job_id}/pause")
        assert code == 202
        status = wait_state(base, job_id, ("paused", "done"))
        parked_at = 0
        if status["state"] == "paused":
            # Parked strictly mid-stream (the pause raced ahead of
            # completion) — progress must be at an increment boundary.
            parked_at = status["completed_increments"]
            assert 0 <= parked_at < 6
            code, _ = request(base, "POST", f"/v1/jobs/{job_id}/resume")
            assert code == 202
        final = wait_state(base, job_id, ("done", "failed"))
        assert final["state"] == "done", final
        _, via_http = request(base, "GET", f"/v1/records/{job_id}")
        direct = (ResultStore.encode(run_scenario(scenario)) + "\n").encode()
        assert via_http == direct
        # A finished job leaves no checkpoints behind.
        assert not (Path(service.work_dir) / job_id[:16]).exists()
        # A mid-stream park wrote one checkpoint, which the resume restored.
        text = service.prometheus()
        assert f"serve_checkpoints_total {int(parked_at > 0)}\n" in text
        assert ('kind="restored"} 1\n' in text) == (parked_at > 0)

    def test_stopping_parks_a_running_job_into_its_checkpoint(
            self, tmp_path, monkeypatch, hold_first_report):
        """A service that stops parks a running job at the next boundary:
        the task saves its run, which resumes to the serial record."""
        scenario = tiny_scenario("stopped", increments=6)
        service = ScenarioService(ServeConfig(
            jobs=1, store=str(tmp_path / "store.jsonl"),
            work_dir=str(tmp_path / "spill")))
        stopper = threading.Thread(target=service.stop)
        on_first_progress(monkeypatch, service,
                          lambda job: stopper.start())
        service.start()
        try:
            job, code = service.submit(scenario.spec_dict(), "stop")
            assert code == 201
            assert job.wait_until(lambda: job.state == "paused", timeout=60)
            stopper.join(60)
        finally:
            service.stop()
        assert job.completed_increments == 1
        assert job.events[-1] == "service stopping"
        assert "serve_checkpoints_total 1\n" in service.prometheus()
        checkpoint = tmp_path / "spill" / job.id[:16] / "inc00001.snap"
        resumed = resume_scenario(scenario, Snapshot.load(checkpoint))
        assert resumed == run_scenario(scenario)

    def test_resume_without_checkpoint_fails_fast(self, held_server,
                                                  monkeypatch):
        """A resumed job whose boundary checkpoint was deleted fails at
        once, naming the file, and leaves no spill dir."""
        service, base = held_server
        scenario = tiny_scenario("lost-checkpoint", increments=6)
        job_id = scenario.spec_hash()
        # Park the job deterministically at its first boundary.
        on_first_progress(monkeypatch, service, service.pause)
        code, _ = request(base, "POST", "/v1/jobs", scenario.spec_dict())
        assert code == 201
        status = wait_state(base, job_id, ("paused", "done", "failed"))
        assert status["state"] == "paused", status
        assert status["completed_increments"] == 1
        spill = Path(service.work_dir) / job_id[:16]
        checkpoint = spill / "inc00001.snap"
        assert "serve_checkpoints_total 1\n" in service.prometheus()
        assert sorted(p.name for p in spill.iterdir()) == [checkpoint.name]
        checkpoint.unlink()
        started = time.monotonic()
        code, _ = request(base, "POST", f"/v1/jobs/{job_id}/resume")
        assert code == 202
        final = wait_state(base, job_id, ("done", "failed"))
        assert time.monotonic() - started < 2.0
        assert final["state"] == "failed", final
        assert "SnapshotError" in final["error"]
        assert str(checkpoint) in final["error"]
        assert not spill.exists()

    def test_pause_from_the_first_progress_parks_at_boundary_one(
            self, held_server, monkeypatch):
        """The pause reaches the running task through its pool's park
        flag: the task parks at boundary 1, saves one checkpoint, and the
        resumed task restores it to the serial record."""
        service, base = held_server
        scenario = tiny_scenario("paused-at-one", increments=6)
        on_first_progress(monkeypatch, service, service.pause)
        code, body = request(base, "POST", "/v1/jobs", scenario.spec_dict())
        assert code == 201
        job_id = json.loads(body)["id"]
        status = wait_state(base, job_id, ("paused", "done", "failed"))
        assert status["state"] == "paused", status
        assert status["completed_increments"] == 1
        job = service.registry.get(job_id)
        assert job.events[-1] == "paused at increment 1"
        code, _ = request(base, "POST", f"/v1/jobs/{job_id}/resume")
        assert code == 202
        final = wait_state(base, job_id, ("done", "failed"))
        assert final["state"] == "done", final
        _, via_http = request(base, "GET", f"/v1/records/{job_id}")
        direct = (ResultStore.encode(run_scenario(scenario)) + "\n").encode()
        assert via_http == direct
        text = service.prometheus()
        assert "serve_checkpoints_total 1\n" in text
        assert 'serve_span_handoffs_total{kind="restored"} 1\n' in text
        assert 'serve_spans_total{status="ok"} 2\n' in text

    def test_resume_before_the_park_lands_requeues_the_job(
            self, held_server, monkeypatch):
        """A resume that withdraws the pause after the task was asked to
        park: the parked job is re-enqueued at once and finishes with the
        serial record."""
        service, base = held_server
        scenario = tiny_scenario("pause-withdrawn", increments=6)

        def pause_then_resume(job):
            assert service.pause(job)[0]
            assert service.resume(job) == (True, "resumed")

        on_first_progress(monkeypatch, service, pause_then_resume)
        code, body = request(base, "POST", "/v1/jobs", scenario.spec_dict())
        assert code == 201
        job_id = json.loads(body)["id"]
        final = wait_state(base, job_id, ("done", "failed"))
        assert final["state"] == "done", final
        _, via_http = request(base, "GET", f"/v1/records/{job_id}")
        direct = (ResultStore.encode(run_scenario(scenario)) + "\n").encode()
        assert via_http == direct
        job = service.registry.get(job_id)
        assert "parked at increment 1; resuming" in job.events
        text = service.prometheus()
        assert "serve_checkpoints_total 1\n" in text
        assert 'serve_span_handoffs_total{kind="restored"} 1\n' in text

    def test_pause_terminal_job_conflicts(self, server):
        service, base = server
        scenario = tiny_scenario("already-done", increments=2)
        _, body = request(base, "POST", "/v1/jobs", scenario.spec_dict())
        job_id = json.loads(body)["id"]
        wait_state(base, job_id, ("done",))
        code, _ = request(base, "POST", f"/v1/jobs/{job_id}/pause")
        assert code == 409
        code, _ = request(base, "POST", f"/v1/jobs/{job_id}/resume")
        assert code == 409

    def test_resume_unpaused_job_conflicts(self, server):
        service, base = server
        scenario = tiny_scenario("not-paused", increments=6)
        _, body = request(base, "POST", "/v1/jobs", scenario.spec_dict())
        job_id = json.loads(body)["id"]
        code, _ = request(base, "POST", f"/v1/jobs/{job_id}/resume")
        assert code == 409
        wait_state(base, job_id, ("done",))

    def test_unknown_job_is_404(self, server):
        service, base = server
        for path in ("/v1/jobs/nope", "/v1/jobs/nope/pause",
                     "/v1/jobs/nope/events"):
            method = "POST" if path.endswith("pause") else "GET"
            code, _ = request(base, method, path)
            assert code == 404


@requires_proc
class TestShutdown:
    def test_sigterm_stops_the_workers_and_removes_the_work_dir(
            self, tmp_path):
        tmp = tmp_path / "tmp"  # the server's TMPDIR, so its work dir
        tmp.mkdir()
        server = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
             "--jobs", "2", "--store", str(tmp_path / "store.jsonl")],
            stdout=subprocess.PIPE, text=True,
            env=subprocess_env(TMPDIR=str(tmp)))
        try:
            assert server.stdout.readline().startswith("repro serve listening")
            workers = child_pids(server.pid)
            assert len(workers) == 2
            assert len(list(tmp.glob("repro-serve-*"))) == 1
            server.send_signal(signal.SIGTERM)
            assert server.wait(timeout=30) == 0
        finally:
            if server.poll() is None:
                server.kill()
                server.wait()
            server.stdout.close()
        assert [pid for pid in workers if pid_alive(pid)] == []
        assert list(tmp.glob("repro-serve-*")) == []


class TestTaskTimeout:
    """``--timeout`` bounds the silence between a job task's reports, not
    the whole job."""

    def run_with_pause_after_reports(self, tmp_path, monkeypatch, pause_s,
                                     first_only):
        reports = []

        def sleep(progress):
            reports.append(progress)
            if len(reports) == 1 or not first_only:
                time.sleep(pause_s)

        after_each_report(monkeypatch, sleep)
        service = ScenarioService(ServeConfig(
            jobs=1, timeout=0.6, store=str(tmp_path / "store.jsonl"),
            work_dir=str(tmp_path / "spill")))
        service.start()
        try:
            job, code = service.submit(
                tiny_scenario("timed", increments=6).spec_dict(), "t")
            assert code == 201
            assert job.wait_until(lambda: job.terminal, timeout=60)
        finally:
            service.stop()
        return job, service.prometheus()

    def test_a_reporting_job_outlives_the_timeout(self, tmp_path,
                                                  monkeypatch):
        job, text = self.run_with_pause_after_reports(
            tmp_path, monkeypatch, 0.2, first_only=False)
        assert job.state == "done", job.events  # 6 reports, 1.2 s asleep
        assert "serve_pool_respawns 0\n" in text

    def test_a_silent_job_times_out(self, tmp_path, monkeypatch):
        job, text = self.run_with_pause_after_reports(
            tmp_path, monkeypatch, 5.0, first_only=True)
        assert job.state == "failed"
        assert job.error == ("task from increment 0 timed out: no "
                             "progress report for 0.6s")
        assert 'serve_jobs_total{outcome="timeout"} 1\n' in text
        assert "serve_pool_respawns 1\n" in text


class TestAdmissionControl:
    def test_exactly_k_rejections_beyond_depth(self, server):
        """queue_depth=2, 5 fresh concurrent submissions → exactly 3 429s,
        and the admitted jobs all complete (no pool crash)."""
        service, base = server
        outcomes = []
        lock = threading.Lock()

        def submit(i):
            code, body = request(
                base, "POST", "/v1/jobs",
                tiny_scenario(f"burst-{i}", seed=20 + i).spec_dict(),
                headers={"X-Repro-Client": f"tenant-{i}"})
            with lock:
                outcomes.append((code, body))

        threads = [threading.Thread(target=submit, args=(i,))
                   for i in range(5)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        codes = sorted(code for code, _ in outcomes)
        assert codes == [201, 201, 429, 429, 429]
        rejected = [json.loads(b) for c, b in outcomes if c == 429]
        assert all("admission" in r["error"] for r in rejected)
        # The two admitted jobs run to completion.
        for code, body in outcomes:
            if code == 201:
                final = wait_state(base, json.loads(body)["id"],
                                   ("done", "failed"))
                assert final["state"] == "done", final

    def test_slots_free_after_completion(self, server):
        service, base = server
        first = tiny_scenario("slot-1", seed=40)
        second = tiny_scenario("slot-2", seed=41)
        _, body = request(base, "POST", "/v1/jobs", first.spec_dict())
        wait_state(base, json.loads(body)["id"], ("done",))
        code, _ = request(base, "POST", "/v1/jobs", second.spec_dict())
        assert code == 201  # depth window reopened


class TestKeepAlive:
    def test_keep_alive_responses_do_not_stall(self, server):
        """Headers and body go out in separate writes; with Nagle on, each
        body would wait for the client's delayed ACK (~40 ms)."""
        service, base = server
        url = urllib.parse.urlsplit(base)
        conn = http.client.HTTPConnection(url.hostname, url.port, timeout=10)
        elapsed = []
        try:
            for _ in range(10):
                started = time.perf_counter()
                conn.request("GET", "/v1/jobs")
                response = conn.getresponse()
                response.read()
                assert response.status == 200
                elapsed.append(time.perf_counter() - started)
        finally:
            conn.close()
        assert statistics.median(elapsed) < 0.020, elapsed


class TestRequestBodies:
    """A bad ``Content-Length`` is answered, never waited on forever."""

    @pytest.mark.parametrize("length,body,status", [
        (-1, b"", 400), (100, b"{}", 400), (app.MAX_BODY_BYTES + 1, b"", 413),
    ], ids=["negative", "short-body", "over-cap"])
    def test_bad_content_length_gets_4xx_in_time(self, server, monkeypatch,
                                                 length, body, status):
        service, base = server
        monkeypatch.setattr(app, "BODY_TIMEOUT_S", 0.5)
        url = urllib.parse.urlsplit(base)
        started = time.monotonic()
        with socket.create_connection((url.hostname, url.port),
                                      timeout=10) as sock:
            sock.sendall(b"POST /v1/jobs HTTP/1.1\r\nHost: test\r\n"
                         b"Content-Type: application/json\r\n"
                         b"Content-Length: %d\r\n\r\n" % length + body)
            reply = sock.recv(4096)
        assert reply.startswith(b"HTTP/1.1 %d " % status), reply
        assert time.monotonic() - started < 5
        # The handler is free again: a normal submit still goes through.
        scenario = tiny_scenario("after-bad-body")
        code, _ = request(base, "POST", "/v1/jobs", scenario.spec_dict())
        assert code == 201
        final = wait_state(base, scenario.spec_hash(), ("done", "failed"))
        assert final["state"] == "done", final


class TestEventsAndViews:
    def test_long_poll_events(self, server):
        service, base = server
        scenario = tiny_scenario("eventful")
        _, body = request(base, "POST", "/v1/jobs", scenario.spec_dict())
        job_id = json.loads(body)["id"]
        wait_state(base, job_id, ("done",))
        code, body = request(base, "GET",
                             f"/v1/jobs/{job_id}/events?since=0&timeout=5")
        assert code == 200
        payload = json.loads(body)
        assert payload["done"] is True and payload["state"] == "done"
        assert any("admitted" in line for line in payload["events"])
        assert any(line.startswith("done:") for line in payload["events"])
        # Cursor-based: re-polling from `next` returns nothing new.
        code, body = request(
            base, "GET",
            f"/v1/jobs/{job_id}/events?since={payload['next']}&timeout=1")
        assert json.loads(body)["events"] == []

    def test_streamed_events(self, server):
        service, base = server
        scenario = tiny_scenario("streamed")
        _, body = request(base, "POST", "/v1/jobs", scenario.spec_dict())
        job_id = json.loads(body)["id"]
        code, body = request(base, "GET",
                             f"/v1/jobs/{job_id}/events?stream=1")
        assert code == 200
        lines = body.decode().splitlines()
        assert any("admitted" in line for line in lines)
        assert any(line.startswith("done:") for line in lines)

    def test_metrics_scrape(self, server):
        service, base = server
        scenario = tiny_scenario("metered")
        _, body = request(base, "POST", "/v1/jobs", scenario.spec_dict())
        wait_state(base, json.loads(body)["id"], ("done",))
        code, body = request(base, "GET", "/metrics")
        assert code == 200
        text = body.decode()
        assert "# TYPE serve_requests_total counter" in text
        assert 'serve_jobs_total{outcome="done"}' in text
        assert "serve_spans_total" in text
        assert "serve_queue_depth" in text
        gauges = {name: float(value) for name, value in (
            line.split() for line in text.splitlines()
            if line.startswith(("serve_peak_rss_bytes ",
                                "serve_worker_peak_rss_bytes ")))}
        assert set(gauges) == {"serve_peak_rss_bytes",
                               "serve_worker_peak_rss_bytes"}
        assert all(value > 0 for value in gauges.values()), gauges

    @requires_proc
    def test_peak_rss_gauge_reads_the_server_alone(self, tmp_path):
        # Linux carries ``ru_maxrss`` over ``exec``, so a server launched
        # from a large process would report its launcher's footprint.  A
        # launcher holding a 96 MiB ballast execs the server, whose own
        # peak lies well below the ballast it never held.
        ballast = 96 << 20
        server = (
            "import sys\n"
            "from repro.serve import ScenarioService, ServeConfig\n"
            "service = ScenarioService(ServeConfig(\n"
            "    port=0, jobs=1, store=sys.argv[1], work_dir=sys.argv[2]))\n"
            "service.start()\n"
            "try:\n"
            "    text = service.prometheus()\n"
            "finally:\n"
            "    service.stop()\n"
            "print(next(line.split()[1] for line in text.splitlines()\n"
            "           if line.startswith('serve_peak_rss_bytes ')))\n")
        launcher = (
            "import os, sys\n"
            "ballast = b'x' * int(sys.argv[1])\n"
            "with open('/proc/self/status') as status:\n"
            "    rss = next(line.split()[1] for line in status\n"
            "               if line.startswith('VmRSS:'))\n"
            "print(int(rss) * 1024, flush=True)\n"
            "os.execv(sys.executable, [sys.executable, '-c'] + sys.argv[2:])\n")
        out = subprocess.run(
            [sys.executable, "-c", launcher, str(ballast), server,
             str(tmp_path / "store.jsonl"), str(tmp_path / "spill")],
            capture_output=True, text=True, env=subprocess_env(),
            timeout=120, check=True)
        launcher_rss, gauge = (int(float(v)) for v in out.stdout.split())
        assert launcher_rss > ballast
        assert 0 < gauge < ballast

    def test_report_and_index_views(self, server):
        service, base = server
        scenario = tiny_scenario("reportable")
        _, body = request(base, "POST", "/v1/jobs", scenario.spec_dict())
        wait_state(base, json.loads(body)["id"], ("done",))
        code, body = request(base, "GET", "/v1/report")
        assert code == 200 and b"Suite results" in body
        code, body = request(base, "GET", "/v1/report?preset=suite,table1")
        assert code == 200 and b"Table 1 analogue" in body
        code, body = request(base, "GET", "/")
        assert code == 200 and b"reportable" in body
        code, body = request(base, "GET", "/v1/jobs")
        assert code == 200
        assert len(json.loads(body)["jobs"]) == 1

    def test_report_rejects_unknown_section(self, server):
        service, base = server
        code, body = request(base, "GET", "/v1/report?preset=suite,nope")
        assert code == 400
        error = json.loads(body)["error"]
        assert "nope" in error and "ablation" in error

    def test_unknown_route_is_404(self, server):
        service, base = server
        code, _ = request(base, "GET", "/v2/nothing")
        assert code == 404
