"""Reduced-size self-test of the benchmark.

Runs every workload on small inputs and checks that each declared metric
is printed with its unit, that the benchmark's layer-by-layer run matches
``run_scenario``, and that a tampered output (one BFS level, one stored
edge, one record byte) is counted as a failure.

Run from the repository root::

    python3 -m pytest perfbench/selftest -q
"""

from __future__ import annotations

import io
import json
import os
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench import layers, servework, simwork  # noqa: E402
from perfbench.common import declared_metrics, emit  # noqa: E402
from repro.harness.runner import run_scenario  # noqa: E402
from repro.harness.scenario import (  # noqa: E402
    ChipSpec,
    DatasetSpec,
    Scenario,
)


def tiny(algorithm: str, name: str = "selftest") -> Scenario:
    return Scenario(
        name=name,
        dataset=DatasetSpec(vertices=60, edges=400, sampling="snowball",
                            num_increments=4, seed=3),
        chip=ChipSpec(side=4),
        algorithm=algorithm,
    )


def small_serve(monkeypatch) -> None:
    """One server launch and one fresh job per client, on tiny graphs."""
    monkeypatch.setattr(servework, "LAUNCHES", 1)
    monkeypatch.setattr(servework, "MIN_FRESH", 1)
    monkeypatch.setattr(
        servework, "job_scenario",
        lambda seed, client, number: tiny(
            "bfs", f"selftest-s{seed}-c{client}-j{number}").with_(
            dataset=DatasetSpec(vertices=40, edges=200, num_increments=3,
                                sampling="snowball", generator="uniform",
                                seed=100 * client + number + seed)))


def run_sim(algorithm: str, trace: bool):
    return simwork.run(tiny(algorithm), seconds=0.0, trace=trace)


def printed(metrics, checks, trace: bool):
    out = io.StringIO()
    with redirect_stdout(out):
        emit("selftest", {"seed": 11}, metrics, {}, checks, trace)
    return out.getvalue().splitlines()


def assert_reported(metrics, checks, trace: bool) -> None:
    lines = printed(metrics, checks, trace)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    declared = declared_metrics(trace)
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        cell = result["metrics"][metric["name"]]
        assert cell["unit"] == metric["unit"]
        assert isinstance(cell["value"], (int, float))
        assert any(line.split()[:1] == [metric["name"]]
                   and line.split()[-1] == metric["unit"]
                   for line in lines[:-1]), metric["name"]
    assert result["correct"] and result["failed"] == 0


@pytest.mark.parametrize("algorithm", ["ingest", "bfs"])
@pytest.mark.parametrize("trace", [False, True])
def test_sim_workload_reports_every_metric(algorithm, trace):
    metrics, notes, checks = run_sim(algorithm, trace)
    assert_reported(metrics, checks, trace)
    if not trace:
        assert metrics["success_rate"] == 1.0
        assert metrics["sim_cycles"] == run_scenario(
            tiny(algorithm))["total_cycles"]


@pytest.mark.parametrize("algorithm", ["ingest", "bfs"])
def test_layer_record_matches_run_scenario(algorithm, tmp_path):
    scenario = tiny(algorithm)
    drive = layers.drive(scenario, snapshot_dir=tmp_path)
    assert drive.record == run_scenario(scenario)
    boundaries = scenario.dataset.num_increments - 1
    assert len(drive.capture_s) == len(drive.restore_s) == boundaries
    assert not drive.restore_mismatches
    assert not list(tmp_path.iterdir())


def test_registered_workloads_keep_their_specs():
    workloads = simwork.workloads()
    ingest = workloads["ingest-edge"]
    assert (ingest.dataset.vertices, ingest.dataset.edges,
            ingest.chip.side, ingest.algorithm) == (1000, 20000, 16, "ingest")
    bfs = workloads["bfs-snowball"]
    assert bfs.name == "graphchallenge-500k-snowball-bfs"
    assert (bfs.dataset.vertices, bfs.dataset.edges, bfs.chip.side) == (
        1000, 20400, 32)


def test_tampered_bfs_level_fails(monkeypatch):
    from repro.algorithms.bfs import StreamingBFS

    original = StreamingBFS.results

    def one_level_off(self, graph):
        levels = original(self, graph)
        vid = max(levels)
        levels[vid] += 1
        return levels

    monkeypatch.setattr(StreamingBFS, "results", one_level_off)
    metrics, _, checks = run_sim("bfs", trace=False)
    assert checks.failed > 0 and metrics["success_rate"] < 1.0
    assert any("NetworkX reference at 1 vertices" in p
               for p in checks.problems)


def test_tampered_stored_edge_fails(monkeypatch):
    from repro.graph.graph import DynamicGraph

    original = DynamicGraph.edges_of
    tampered = []

    def one_edge_off(self, vid):
        edges = original(self, vid)
        if edges and (not tampered or tampered[0] == vid):
            tampered[:1] = [vid]
            dst, weight = edges[0]
            edges[0] = (dst, weight + 1)
        return edges

    monkeypatch.setattr(DynamicGraph, "edges_of", one_edge_off)
    metrics, _, checks = run_sim("ingest", trace=False)
    assert tampered
    assert checks.failed > 0 and metrics["success_rate"] < 1.0
    assert any("edge multiset" in p for p in checks.problems)


@pytest.mark.parametrize("trace", [False, True])
def test_serve_workload_reports_every_metric(monkeypatch, trace):
    small_serve(monkeypatch)
    metrics, notes, checks = servework.run(seed=5, seconds=1.0, trace=trace)
    assert_reported(metrics, checks, trace)
    assert notes["fresh_jobs"] >= servework.CLIENTS
    assert not (ROOT / ".perfbench-work").exists()


def test_tampered_record_byte_fails(monkeypatch):
    small_serve(monkeypatch)
    original = servework.Client.request
    fetched = set()

    def flip_refetched_byte(self, method, path, payload=None):
        status, body = original(self, method, path, payload)
        if path.startswith("/v1/records/"):
            if path in fetched:
                body = body[:-2] + bytes([body[-2] ^ 1]) + body[-1:]
            fetched.add(path)
        return status, body

    monkeypatch.setattr(servework.Client, "request", flip_refetched_byte)
    metrics, _, checks = servework.run(seed=5, seconds=1.0, trace=False)
    assert checks.failed > 0 and metrics["success_rate"] < 1.0
    assert any("bytes differ" in p for p in checks.problems)


def test_fails_without_program_source(tmp_path):
    """In a directory holding only the benchmark, no result is printed."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ingest-edge",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180, env=env)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
