#!/usr/bin/env python3
"""End-to-end smoke test of ``repro serve`` (run by CI on every push).

Starts a real server subprocess on an ephemeral port, then exercises the
full contract from the outside, exactly as a client would:

1. ``POST /v1/jobs`` with a tiny scenario and poll it to completion;
2. fetch ``GET /v1/records/<spec_hash>`` and compare the bytes against a
   direct in-process ``run_scenario`` encoded by the result store — the
   HTTP half of the determinism contract — and require ``/metrics`` to
   count one pool task for the uninterrupted job, started ``fresh``, and no
   checkpoint written;
3. re-POST the same spec and require an immediate ``cached`` response;
4. pause a fresh job, wait for the park, resume it, and require the final
   record bytes to match the uninterrupted run; a mid-stream park must
   write exactly one checkpoint, which one ``restored`` task reads;
5. flood the admission window from concurrent client threads and require
   **exactly** ``k`` 429s for ``N + k`` fresh submissions;
6. scrape ``/metrics``, check the serve counters and the two peak-RSS
   gauges are present, require ``serve_peak_rss_bytes`` to lie between
   the server's own ``VmHWM`` read just before and just after a scrape,
   up to the lag of the kernel's RSS counters (skipped without
   ``/proc``), and require ``serve_pool_respawns`` to read 0: no job here
   times out or crashes, so no worker may have been killed;
7. stop the server with SIGTERM and require it to exit 0, leaving no pool
   worker running and no ``repro-serve-*`` work dir behind.

Usage: python tools/serve_smoke.py
"""

import glob
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
import urllib.error
import urllib.request

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from repro._compat import HAVE_NUMPY  # noqa: E402
from repro.harness.runner import run_scenario  # noqa: E402
from repro.harness.scenario import (  # noqa: E402
    ChipSpec,
    DatasetSpec,
    RunOptions,
    Scenario,
)
from repro.harness.store import ResultStore  # noqa: E402


def tiny(name, seed, increments=4):
    # SBM generation needs numpy; the stdlib generator keeps the smoke
    # runnable on numpy-free installs.
    return Scenario(
        name=name,
        dataset=DatasetSpec(vertices=40, edges=200,
                            num_increments=increments,
                            sampling="snowball", seed=seed,
                            generator="sbm" if HAVE_NUMPY else "uniform"),
        chip=ChipSpec(side=4),
        algorithm="bfs",
        options=RunOptions(),
    )


def request(base, method, path, payload=None, headers=None, timeout=120):
    data = json.dumps(payload).encode() if payload is not None else None
    req = urllib.request.Request(base + path, data=data, method=method,
                                 headers=headers or {})
    try:
        with urllib.request.urlopen(req, timeout=timeout) as resp:
            return resp.status, resp.read()
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read()


def wait_terminal(base, job_id, budget_s=300):
    deadline = time.monotonic() + budget_s
    while time.monotonic() < deadline:
        _, body = request(base, "GET", f"/v1/jobs/{job_id}")
        status = json.loads(body)
        if status["state"] in ("done", "failed"):
            return status
        time.sleep(0.1)
    raise SystemExit(f"job {job_id[:16]} never finished: {status}")


def metric(base, sample):
    """The value of one ``/metrics`` sample line (0 when absent)."""
    _, body = request(base, "GET", "/metrics")
    for line in body.decode().splitlines():
        name, _, value = line.rpartition(" ")
        if name == sample:
            return int(float(value))
    return 0


def peak_rss(pid):
    """``VmHWM`` of a live process in bytes (``None`` without ``/proc``)."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) * 1024  # kB
    except OSError:
        pass
    return None


def stat_fields(pid):
    """The fields of ``/proc/<pid>/stat`` after the command name."""
    with open(f"/proc/{pid}/stat", encoding="ascii", errors="replace") as f:
        return f.read().rsplit(")", 1)[1].split()


def child_pids(pid):
    """Live processes whose parent is ``pid`` (Linux ``/proc``)."""
    children = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                fields = stat_fields(entry)
            except OSError:  # exited while listed
                continue
            if int(fields[1]) == pid and fields[0] not in ("Z", "X"):
                children.append(int(entry))
    return children


def alive(pid):
    """Whether ``pid`` runs (an unreaped zombie does not)."""
    try:
        return stat_fields(pid)[0] not in ("Z", "X")
    except OSError:
        return False


def check(condition, label):
    if not condition:
        raise SystemExit(f"FAIL: {label}")
    print(f"ok: {label}", flush=True)


def main():
    scenario = tiny("smoke-main", seed=5)
    direct = (ResultStore.encode(run_scenario(scenario)) + "\n").encode()
    # A touched ballast keeps this launcher well above the server's size
    # while it launches the server, with or without numpy, so a server
    # gauge that carried the launcher's RSS over exec (``ru_maxrss`` does)
    # fails step 6.  The banner releases it.
    ballast = b"\x01" * (64 << 20)

    tmp = tempfile.mkdtemp(prefix="serve-smoke-")
    server_tmp = os.path.join(tmp, "tmp")  # the server's work dir lands here
    os.mkdir(server_tmp)
    env = dict(os.environ, TMPDIR=server_tmp)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    cmd = [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
           "--jobs", "1", "--queue-depth", "2",
           "--store", os.path.join(tmp, "store.jsonl")]
    server = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                              env=env, cwd=ROOT)
    try:
        banner = server.stdout.readline()
        del ballast
        check(banner.startswith("repro serve listening on http://"),
              f"server came up ({banner.strip()})")
        base = "http://" + banner.split("http://")[1].split()[0]

        def submit(scenario, **extra):
            return request(base, "POST", "/v1/jobs", scenario.spec_dict(),
                           **extra)

        # 1+2: submit, poll, byte-compare against a direct run.
        code, body = submit(scenario)
        check(code == 201, f"POST /v1/jobs admitted (HTTP {code})")
        job_id = json.loads(body)["id"]
        check(job_id == scenario.spec_hash(), "job id is the spec hash")
        final = wait_terminal(base, job_id)
        check(final["state"] == "done",
              f"job ran to completion ({final['completed_increments']}/"
              f"{final['total_increments']} increments)")
        _, via_http = request(base, "GET", f"/v1/records/{job_id}")
        check(via_http == direct,
              "record over HTTP byte-identical to direct run")
        tasks = metric(base, 'serve_spans_total{status="ok"}')
        fresh = metric(base, 'serve_span_handoffs_total{kind="fresh"}')
        check(tasks == 1 and fresh == 1,
              f"the uninterrupted job ran as one pool task ({tasks} tasks, "
              f"{fresh} fresh) over {final['total_increments']} increments")
        written = metric(base, "serve_checkpoints_total")
        check(written == 0,
              f"an uninterrupted job writes no checkpoint ({written})")

        # 3: duplicate submission is a cache hit, no recompute.
        code, body = submit(scenario)
        check(code == 200 and json.loads(body)["state"] == "done",
              "re-POST of a stored spec returns the cached job")

        # 4: pause -> resume mid-stream merges to the identical record.
        pausable = tiny("smoke-pause", seed=6, increments=6)
        code, body = submit(pausable)
        check(code == 201, "pausable job admitted")
        pid = json.loads(body)["id"]
        code, _ = request(base, "POST", f"/v1/jobs/{pid}/pause")
        check(code == 202, "pause accepted")
        for _ in range(600):
            _, body = request(base, "GET", f"/v1/jobs/{pid}")
            status = json.loads(body)
            if status["state"] in ("paused", "done"):
                break
            time.sleep(0.05)
        parked_at = 0
        if status["state"] == "paused":
            parked_at = status["completed_increments"]
            print(f"   (parked at increment {parked_at}/6)", flush=True)
            code, _ = request(base, "POST", f"/v1/jobs/{pid}/resume")
            check(code == 202, "resume accepted")
        final = wait_terminal(base, pid)
        check(final["state"] == "done", "paused job resumed to completion")
        if parked_at > 0:
            written = metric(base, "serve_checkpoints_total")
            restored = metric(base,
                              'serve_span_handoffs_total{kind="restored"}')
            check(written == 1 and restored == 1,
                  f"the park wrote one checkpoint ({written}), which one "
                  f"task restored ({restored})")
        _, via_http = request(base, "GET", f"/v1/records/{pid}")
        direct = (ResultStore.encode(run_scenario(pausable)) + "\n").encode()
        check(via_http == direct,
              "pause/resume record byte-identical to uninterrupted run")

        # 5: N + k concurrent fresh submissions -> exactly k 429s.
        outcomes, lock = [], threading.Lock()

        def flood(i):
            code, _ = submit(tiny(f"smoke-flood-{i}", seed=30 + i),
                             headers={"X-Repro-Client": f"tenant-{i}"})
            with lock:
                outcomes.append(code)

        threads = [threading.Thread(target=flood, args=(i,))
                   for i in range(5)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        check(sorted(outcomes) == [201, 201, 429, 429, 429],
              f"queue-depth 2, 5 fresh submissions -> exactly 3 429s "
              f"(got {sorted(outcomes)})")

        # The admitted flood jobs must still complete (no pool crash).
        _, body = request(base, "GET", "/v1/jobs")
        for job in json.loads(body)["jobs"]:
            if job["state"] not in ("done", "failed"):
                wait_terminal(base, job["id"])
        _, body = request(base, "GET", "/v1/jobs")
        states = [j["state"] for j in json.loads(body)["jobs"]]
        check(all(s == "done" for s in states),
              f"every admitted job finished cleanly ({len(states)} jobs)")

        # 6: metrics scrape.
        code, body = request(base, "GET", "/metrics")
        text = body.decode()
        for needle in ("serve_requests_total", "serve_jobs_total",
                       'outcome="rejected"', "serve_queue_depth"):
            check(needle in text, f"/metrics exposes {needle}")
        for gauge in ("serve_peak_rss_bytes", "serve_worker_peak_rss_bytes"):
            peak = metric(base, gauge)
            check(peak > 0, f"/metrics exposes {gauge} ({peak >> 20} MiB)")
        # The server's gauge is its own VmHWM, which only grows, so it lies
        # between two reads taken around the scrape, give or take the lag
        # of the kernel's per-CPU RSS counters (max(32, 2 x CPUs) pages
        # each).
        before = peak_rss(server.pid)
        own = metric(base, "serve_peak_rss_bytes")
        after = peak_rss(server.pid)
        if before is None:
            print("skip: no /proc to read the server's VmHWM", flush=True)
        else:
            cpus = os.cpu_count()
            slack = max(32, 2 * cpus) * cpus * os.sysconf("SC_PAGE_SIZE")
            check(before - slack <= own <= after + slack,
                  f"serve_peak_rss_bytes is the server's own VmHWM "
                  f"({own >> 10} KiB; {before >> 10}-{after >> 10} KiB "
                  f"around the scrape, +-{slack >> 10} KiB)")
        respawns = [line for line in text.splitlines()
                    if line.startswith("serve_pool_respawns ")]
        check(respawns == ["serve_pool_respawns 0"],
              f"a clean run respawns no worker ({respawns})")

        # 7: SIGTERM stops the server as SIGINT does.
        workers = child_pids(server.pid)
        check(len(workers) == 1, f"one pool worker runs ({workers})")
        server.send_signal(signal.SIGTERM)
        code = server.wait(timeout=30)
        check(code == 0, f"SIGTERM: the server exited 0 ({code})")
        left = [pid for pid in workers if alive(pid)]
        check(not left, f"no pool worker outlived the server ({left})")
        dirs = glob.glob(os.path.join(server_tmp, "repro-serve-*"))
        check(not dirs, f"no work dir outlived the server ({dirs})")

        print("serve smoke: all checks passed", flush=True)
    finally:
        if server.poll() is None:
            server.kill()
            server.wait()
        # The server has exited, so nothing writes the store any more.
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    main()
