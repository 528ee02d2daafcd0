"""The ``serve-mixed`` workload: a closed loop against ``repro serve``.

Two client threads in this process, no think time, against one server
process with ``--jobs`` at most ``nproc`` and a one-increment span
cadence.  Each client alternates two requests:

* a fresh job — a 200 v / 2 000 e, 10-increment streaming-BFS scenario on
  an 8x8 chip whose dataset seed derives from the workload seed, client
  and job number — submitted, long-polled to done, and its record fetched;
* a resubmission of the client's last finished spec, then a record fetch,
  whose bytes must equal the first fetch.

The traced run times each fresh job's HTTP stages from the client side,
reads the server's ``/metrics``, and replays one job's layer calls
in-process (untraced and traced, in pairs) for the per-layer numbers.

The job graphs use the uniform generator: on heavy-tailed SBM graphs of
this size the cycle count of one seed is up to 4× another's, which would
make job latency a property of the seed instead of the service layers.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import select
import shutil
import signal
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from time import perf_counter
from typing import Any, Dict, List, Optional, Tuple

from perfbench import layers
from perfbench.common import (
    ROOT,
    Checks,
    derive_seed,
    peak_rss_mb,
    tail,
)
from repro.harness.scenario import ChipSpec, DatasetSpec, Scenario

CLIENTS = 2
#: Server launches per run; ``setup_s`` is their median.
LAUNCHES = 5
#: Fresh jobs every client completes even past the deadline; ``sim_cycles``
#: is the median over these, so it does not depend on host speed.
MIN_FRESH = 8
#: A run that cannot finish its minimum work by this many seconds past
#: the deadline fails instead of hanging (a run must end within 180 s).
GRACE_S = 40.0
#: Above the 30 s events long-poll.
REQUEST_TIMEOUT_S = 35.0


def job_scenario(seed: int, client: int, number: int) -> Scenario:
    return Scenario(
        name=f"serve-mixed-s{seed}-c{client}-j{number}",
        dataset=DatasetSpec(vertices=200, edges=2000, sampling="snowball",
                            num_increments=10, generator="uniform",
                            seed=derive_seed(seed, "job", client, number)),
        chip=ChipSpec(side=8),
        algorithm="bfs",
    )


#: Two spans, so both pool workers run a task before the loop starts.
WARMUP = Scenario(
    name="serve-mixed-warmup",
    dataset=DatasetSpec(vertices=40, edges=200, num_increments=2,
                        generator="uniform", seed=1),
    chip=ChipSpec(side=4),
    algorithm="bfs",
)


def kernel() -> str:
    from repro.arch.kernels import resolve_kernel

    return resolve_kernel(job_scenario(0, 0, 0).chip.to_chip_config())


# ----------------------------------------------------------------------
# Server process and HTTP client
# ----------------------------------------------------------------------
class Server:
    """One ``repro serve`` process with its own store, in the work dir."""

    def __init__(self, work: Path, index: int, jobs: int) -> None:
        tmp = work / "tmp"
        tmp.mkdir(exist_ok=True)
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), TMPDIR=str(tmp))
        self.log_path = work / f"server-{index}.log"
        self._log = open(self.log_path, "w", encoding="utf-8")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
             "--jobs", str(jobs), "--queue-depth", "8", "--cadence", "1",
             "--store", str(work / f"store-{index}.jsonl")],
            stdout=subprocess.PIPE, stderr=self._log, text=True, env=env,
            cwd=ROOT)
        ready, _, _ = select.select([self.proc.stdout], [], [], 60.0)
        banner = self.proc.stdout.readline() if ready else ""
        if not banner.startswith("repro serve listening on http://"):
            self.stop()
            raise RuntimeError(f"repro serve did not start: {banner!r}; "
                               f"see {self.log_path}")
        host, port = banner.split("http://")[1].split()[0].rsplit(":", 1)
        self.host, self.port = host, int(port)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._log.close()


class Client:
    """A keep-alive HTTP/1.1 connection to the server."""

    def __init__(self, server: Server, name: str) -> None:
        self.conn = http.client.HTTPConnection(server.host, server.port,
                                               timeout=REQUEST_TIMEOUT_S)
        self.headers = {"X-Repro-Client": name}

    def request(self, method: str, path: str,
                payload: Any = None) -> Tuple[int, bytes]:
        body = None if payload is None else json.dumps(payload).encode()
        try:
            self.conn.request(method, path, body=body, headers=self.headers)
            response = self.conn.getresponse()
            return response.status, response.read()
        except (http.client.HTTPException, OSError):
            self.conn.close()  # reconnects on the next request
            raise

    def wait_done(self, job_id: str, budget_s: float) -> str:
        """Long-poll a job's events until it is terminal; its final state."""
        deadline = perf_counter() + budget_s
        since = 0
        while perf_counter() < deadline:
            status, body = self.request(
                "GET", f"/v1/jobs/{job_id}/events?since={since}&timeout=30")
            if status != 200:
                raise RuntimeError(f"events HTTP {status}")
            payload = json.loads(body)
            since = payload["next"]
            if payload["done"]:
                return payload["state"]
        raise TimeoutError(f"job {job_id[:12]} not done in {budget_s:.0f}s")

    def close(self) -> None:
        self.conn.close()


def launch(work: Path, index: int, jobs: int) -> Tuple[Server, float]:
    """Start a server and wait until it answers and its pool is warm."""
    started = perf_counter()
    server = Server(work, index, jobs)
    client = Client(server, "setup")
    try:
        status, _ = client.request("GET", "/metrics")
        code, body = client.request("POST", "/v1/jobs", WARMUP.spec_dict())
        state = (client.wait_done(json.loads(body)["id"], GRACE_S)
                 if code == 201 else f"HTTP {code}")
    except BaseException:
        server.stop()
        raise
    finally:
        client.close()
    elapsed = perf_counter() - started
    if status != 200 or state != "done":
        server.stop()
        raise RuntimeError(f"server warm-up failed ({status}, {state})")
    return server, elapsed


_SAMPLE = re.compile(r'^([a-z_]+)(?:\{([^}]*)\})? (\S+)$')


def scrape(client: Client) -> Dict[Tuple[str, str], float]:
    """``/metrics`` as ``{(name, labels): value}``."""
    status, body = client.request("GET", "/metrics")
    if status != 200:
        raise RuntimeError(f"/metrics HTTP {status}")
    samples = {}
    for line in body.decode().splitlines():
        match = _SAMPLE.match(line)
        if match:
            samples[(match.group(1), match.group(2) or "")] = float(
                match.group(3))
    return samples


# ----------------------------------------------------------------------
# The closed loop
# ----------------------------------------------------------------------
@dataclass
class Fresh:
    scenario: Scenario
    latency_s: float
    submit_s: float
    fetch_s: float
    record: Dict[str, Any]


@dataclass
class ClientLog:
    index: int
    checks: Checks = field(default_factory=Checks)
    fresh: List[Fresh] = field(default_factory=list)
    cached_s: List[float] = field(default_factory=list)
    cache_hits: int = 0
    cache_attempts: int = 0
    first_bytes: Dict[str, bytes] = field(default_factory=dict)
    end: float = 0.0


def _fresh(client: Client, log: ClientLog, seed: int,
           number: int) -> Optional[str]:
    """One fresh job; returns its id when it finished and checked out."""
    scenario = job_scenario(seed, log.index, number)
    spec = scenario.spec_dict()
    t0 = perf_counter()
    code, body = client.request("POST", "/v1/jobs", spec)
    t1 = perf_counter()
    if code != 201:
        log.checks.op(False, f"fresh submit answered HTTP {code}")
        return None
    job_id = json.loads(body)["id"]
    state = client.wait_done(job_id, GRACE_S)
    t2 = perf_counter()
    if state != "done":
        log.checks.op(False, f"job {scenario.name} ended {state}")
        return None
    code, data = client.request("GET", f"/v1/records/{job_id}")
    t3 = perf_counter()
    record = json.loads(data) if code == 200 else {}
    if not log.checks.op(
            job_id == scenario.spec_hash()
            and record.get("spec_hash") == job_id
            and record.get("scenario") == spec,
            f"record of {scenario.name} does not match its spec"):
        return None
    log.first_bytes[job_id] = data
    log.fresh.append(Fresh(scenario, t3 - t0, t1 - t0, t3 - t2, record))
    return job_id


def _cached(client: Client, log: ClientLog, scenario: Scenario) -> None:
    """Resubmit a finished spec and fetch its record again."""
    t0 = perf_counter()
    code, body = client.request("POST", "/v1/jobs", scenario.spec_dict())
    hit = code == 200 and json.loads(body)["state"] == "done"
    job_id = scenario.spec_hash()
    code, data = client.request("GET", f"/v1/records/{job_id}")
    elapsed = perf_counter() - t0
    log.cache_attempts += 1
    log.cache_hits += hit
    if log.checks.op(hit and code == 200
                     and data == log.first_bytes[job_id],
                     f"cached {scenario.name}: hit={hit}, HTTP {code}, "
                     "bytes differ from the first fetch"):
        log.cached_s.append(elapsed)


def _client_loop(server: Server, log: ClientLog, seed: int,
                 deadline: float) -> None:
    client = Client(server, f"client-{log.index}")
    number = 0
    last: Optional[Scenario] = None
    try:
        while True:
            now = perf_counter()
            enough = len(log.fresh) >= MIN_FRESH
            if (now >= deadline and enough) or now >= deadline + GRACE_S:
                log.checks.op(enough, f"client {log.index} completed only "
                              f"{len(log.fresh)} fresh jobs")
                break
            try:
                if last is None:
                    if _fresh(client, log, seed, number):
                        last = log.fresh[-1].scenario
                    number += 1
                else:
                    _cached(client, log, last)
                    last = None
            except (OSError, http.client.HTTPException, RuntimeError,
                    ValueError, KeyError) as exc:
                log.checks.op(False, f"client {log.index}: {exc!r}")
    finally:
        log.end = perf_counter()
        client.close()


def _loop(server: Server, seed: int,
          seconds: float) -> Tuple[List[ClientLog], float]:
    logs = [ClientLog(i) for i in range(CLIENTS)]
    started = perf_counter()
    threads = [threading.Thread(target=_client_loop,
                                args=(server, log, seed, started + seconds))
               for log in logs]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(seconds + 2 * GRACE_S)
        if thread.is_alive():
            raise RuntimeError("a client thread did not finish")
    return logs, max(log.end for log in logs) - started


# ----------------------------------------------------------------------
# The run
# ----------------------------------------------------------------------
def run(seed: int, seconds: float, trace: bool,
        ) -> Tuple[Dict[str, float], Dict[str, Any], Checks]:
    work = ROOT / ".perfbench-work" / str(os.getpid())
    work.mkdir(parents=True)
    jobs = max(1, min(CLIENTS, os.cpu_count() or 1))
    servers: List[Server] = []
    try:
        setups = []
        for index in range(LAUNCHES):
            server, elapsed = launch(work, index, jobs)
            servers.append(server)
            setups.append(elapsed)
            if index < LAUNCHES - 1:
                server.stop()
        server = servers[-1]
        probe = Client(server, "probe")
        before = scrape(probe)
        logs, window = _loop(server, seed, seconds)
        after = scrape(probe)
        probe.close()
        checks = Checks()
        for log in logs:
            checks.attempted += log.checks.attempted
            checks.failed += log.checks.failed
            checks.problems += log.checks.problems
        reference = logs[0].fresh[0] if logs[0].fresh else None
        _byte_compare(reference, logs[0], checks)
        layer_metrics = (
            _replay_layers(reference, logs[0], work, checks)
            if trace and reference is not None else {})
        server.stop()
        rss = peak_rss_mb(children=True)
    finally:
        for server in servers:
            server.stop()
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run is still using it
            pass
    fresh = [f for log in logs for f in log.fresh]
    latencies = [f.latency_s for f in fresh]
    cached = [x for log in logs for x in log.cached_s]
    tail_s, tail_pct, samples = tail(latencies)
    notes = {
        "jobs": jobs,
        "window_s": window,
        "fresh_jobs": len(fresh),
        "cached_jobs": len(cached),
        "job": "one fresh scenario job, submit to verified record bytes",
        "job_samples": samples,
        "job_tail_percentile": tail_pct,
    }
    if trace:
        metrics = _serve_layers(logs, before, after, fresh, cached)
        metrics.update(layer_metrics)
        return metrics, notes, checks
    metrics = {
        "setup_s": median(setups),
        "edges_per_s": sum(sum(f.record["increment_sizes"])
                           for f in fresh) / window,
        "sim_cycles": statistics.median_low(
            [f.record["total_cycles"]
             for log in logs for f in log.fresh[:MIN_FRESH]]),
        "peak_rss_mb": rss,
        "success_rate": 1.0 - checks.error_rate,
        "job_p50_s": median(latencies),
        "job_tail_s": tail_s,
        "jobs_per_s": (len(fresh) + len(cached)) / window,
    }
    notes["setup_s_each"] = setups
    return metrics, notes, checks


def _byte_compare(reference: Optional[Fresh], log: ClientLog,
                  checks: Checks) -> None:
    """One job per run must match a direct in-process run byte for byte."""
    from repro.harness.runner import run_scenario
    from repro.harness.store import ResultStore

    if reference is None:
        checks.op(False, "no fresh job finished to byte-compare")
        return
    direct = (ResultStore.encode(run_scenario(reference.scenario))
              + "\n").encode()
    checks.op(direct == log.first_bytes[reference.scenario.spec_hash()],
              f"record of {reference.scenario.name} over HTTP differs from "
              "a direct run")


def _delta(before, after, name: str, labels: str = "") -> float:
    key = (name, labels)
    return after.get(key, 0.0) - before.get(key, 0.0)


def _serve_layers(logs, before, after, fresh: List[Fresh],
                  cached: List[float]) -> Dict[str, float]:
    done = _delta(before, after, "serve_jobs_total", 'outcome="done"')
    server_job_s = (_delta(before, after, "serve_job_seconds_sum")
                    / _delta(before, after, "serve_job_seconds_count"))
    attempts = sum(log.cache_attempts for log in logs)
    return {
        "serve.submit_s": median([f.submit_s for f in fresh]),
        "serve.record_fetch_s": median([f.fetch_s for f in fresh]),
        "serve.server_job_s": server_job_s,
        "serve.client_wait_s": (statistics.fmean(f.latency_s for f in fresh)
                                - server_job_s),
        "serve.spans": _delta(before, after, "serve_spans_total",
                              'status="ok"') / done,
        "serve.cached_s": median(cached),
        "serve.cache_hit_ratio": (sum(log.cache_hits for log in logs)
                                  / attempts),
        "serve.rejected": _delta(before, after, "serve_jobs_total",
                                 'outcome="rejected"'),
        "serve.failed": (_delta(before, after, "serve_jobs_total",
                                'outcome="failed"')
                         + _delta(before, after, "serve_jobs_total",
                                  'outcome="timeout"')),
    }


# ----------------------------------------------------------------------
# In-process replay of one job's layer calls (traced runs)
# ----------------------------------------------------------------------
#: Untraced/traced replay pairs; the trace overhead is their wall ratio.
REPLAY_PAIRS = 3


def _replay_layers(reference: Fresh, log: ClientLog, work: Path,
                   checks: Checks) -> Dict[str, float]:
    """Per-layer metrics of one served job, replayed in-process in pairs.

    Each pair runs the job's spec once through ``run_scenario`` and once
    as a layer-by-layer drive (phase timers on), in alternating order.
    The drive also captures, saves, loads and restores every increment
    boundary, as the server does between its one-increment spans.  Every
    replayed record must equal the served one.
    """
    from perfbench.simwork import encode, timed_run

    scenario = reference.scenario
    served = encode(reference.record)
    drives: List[layers.Drive] = []
    plain: List[float] = []
    for pair in range(REPLAY_PAIRS):
        for traced in ((False, True) if pair % 2 == 0 else (True, False)):
            if traced:
                drive = layers.drive(scenario, snapshot_dir=work)
                checks.op(encode(drive.record) == served,
                          f"replayed record of {scenario.name} differs "
                          "from the served one")
                checks.op(not drive.restore_mismatches,
                          f"{scenario.name}: restored state differs at "
                          f"boundaries {drive.restore_mismatches}")
                drives.append(drive)
            else:
                record, timings = timed_run(scenario)
                plain.append(timings["setup_s"] + timings["sim_s"])
                checks.op(encode(record) == served,
                          f"run_scenario record of {scenario.name} differs "
                          "from the served one")
    started = perf_counter()
    problems = layers.check_outputs(scenario, drives[0].outputs)
    verify_s = perf_counter() - started
    checks.op(not problems, "; ".join(problems))
    result = layers.layer_metrics(drives)
    result["algorithms.verify_s"] = verify_s
    result["obs.trace_overhead"] = (median([d.wall_s for d in drives])
                                    / median(plain))
    result["snapshot.capture_s"] = median(
        [x for d in drives for x in d.capture_s])
    result["snapshot.restore_s"] = median(
        [x for d in drives for x in d.restore_s])
    result["snapshot.bytes"] = median(
        [x for d in drives for x in d.snapshot_bytes])
    result.update(_store_and_pool(reference.record, log, work, checks))
    return result


def _store_and_pool(record: Dict[str, Any], log: ClientLog, work: Path,
                    checks: Checks) -> Dict[str, float]:
    """Time ``ResultStore.put``/``get`` and ``DispatchPool.run`` round trips."""
    from repro.harness.pool import DispatchPool
    from repro.harness.store import ResultStore

    store = ResultStore(work / "replay-store.jsonl")
    puts, gets, trips = [], [], []
    for _ in range(5):
        started = perf_counter()
        store.put(record)
        puts.append(perf_counter() - started)
    key = record["spec_hash"]
    for _ in range(20):
        started = perf_counter()
        line = (ResultStore.encode(store.get(key)) + "\n").encode()
        gets.append(perf_counter() - started)
    checks.op(line == log.first_bytes[key],
              "store round trip changed the record bytes")
    pool = DispatchPool(1)
    try:
        pool.run(len, (record,))
        for _ in range(20):
            started = perf_counter()
            result = pool.run(len, (record,))
            trips.append(perf_counter() - started)
        checks.op(result.ok and result.value == len(record),
                  f"pool round trip failed: {result.error}")
    finally:
        pool.shutdown()
    return {
        "harness.store_put_s": median(puts),
        "harness.store_get_s": median(gets),
        "harness.pool_roundtrip_s": median(trips),
    }
