"""Pipeline-parallel increment sharding: byte-identity without prefix replay.

The acceptance contract: ``--shard-increments N`` produces a store
byte-identical to the serial run, while a spy on
``DynamicGraph.stream_increment`` proves every increment is streamed
exactly once, whatever the shard count.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from helpers import requires_numpy

from repro.graph.graph import DynamicGraph
from repro.harness import ResultStore, run_suite
from repro.harness.pool import DispatchPool
from repro.harness.runner import run_scenario, run_scenario_sharded
from repro.harness.scenario import ChipSpec, DatasetSpec, Scenario

pytestmark = requires_numpy

CORPUS = Path(__file__).parent / "corpus"


def eight_increment_scenario(name="pipe-bfs", algorithm="bfs") -> Scenario:
    return Scenario(
        name=name,
        dataset=DatasetSpec(vertices=60, edges=480, num_increments=8, seed=5),
        chip=ChipSpec(side=8, edge_list_capacity=4),
        algorithm=algorithm,
    )


def spy_streamed(monkeypatch):
    """Record the index of every increment any graph streams from now on."""
    streamed = []
    real = DynamicGraph.stream_increment

    def spy(self, edges, **kwargs):
        streamed.append(self.increments_streamed)
        return real(self, edges, **kwargs)

    monkeypatch.setattr(DynamicGraph, "stream_increment", spy)
    return streamed


class TestInProcess:
    def test_pipeline_record_identical_to_serial(self):
        scenario = eight_increment_scenario()
        serial = run_scenario(scenario)
        piped = run_scenario_sharded(scenario, 4)
        assert json.dumps(piped, sort_keys=True) == \
            json.dumps(serial, sort_keys=True)

    def test_no_prefix_replay_cpu_proof(self, monkeypatch):
        """Every shard streams exactly its own span: total CPU is one pass
        over the stream, independent of the shard count."""
        scenario = eight_increment_scenario()
        serial = run_scenario(scenario)
        streamed = spy_streamed(monkeypatch)
        assert run_scenario_sharded(scenario, 4) == serial
        assert streamed == list(range(scenario.dataset.num_increments))

    def test_every_shard_count_at_every_boundary(self, monkeypatch):
        """Across shard counts: identical records, each increment streamed
        exactly once."""
        scenario = eight_increment_scenario(name="pipe-ingest",
                                            algorithm="ingest")
        serial = json.dumps(run_scenario(scenario), sort_keys=True)
        streamed = spy_streamed(monkeypatch)
        for shards in (2, 3, 8):
            streamed.clear()
            piped = run_scenario_sharded(scenario, shards)
            assert json.dumps(piped, sort_keys=True) == serial, shards
            assert streamed == list(range(scenario.dataset.num_increments)), \
                shards


class TestPooled:
    def test_pooled_pipeline_identical_with_fewer_workers_than_shards(self):
        """5 shards on 2 workers: exercises the in-order dispatch argument
        that makes checkpoint waiting deadlock-free."""
        scenario = eight_increment_scenario()
        serial = run_scenario(scenario)
        pool = DispatchPool(2)
        try:
            piped = run_scenario_sharded(scenario, 5, pool=pool, timeout=120)
        finally:
            pool.shutdown()
        assert json.dumps(piped, sort_keys=True) == \
            json.dumps(serial, sort_keys=True)

    def test_suite_pipeline_store_byte_identical(self, tmp_path):
        scenarios = [
            eight_increment_scenario(),
            eight_increment_scenario(name="pipe-ingest", algorithm="ingest"),
        ]
        serial_store = ResultStore(tmp_path / "serial.jsonl")
        report = run_suite(list(scenarios), jobs=1, store=serial_store)
        assert not report.failures
        pool = DispatchPool(2)
        try:
            pipe_store = ResultStore(tmp_path / "pipe.jsonl")
            report = run_suite(list(scenarios), jobs=2, store=pipe_store,
                               shard_increments=4, pool=pool, timeout=120)
        finally:
            pool.shutdown()
        assert not report.failures
        assert (tmp_path / "serial.jsonl").read_bytes() == \
            (tmp_path / "pipe.jsonl").read_bytes()

    def test_spill_dir_is_cleaned_up(self, tmp_path, monkeypatch):
        import tempfile

        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        scenario = eight_increment_scenario()
        pool = DispatchPool(2)
        try:
            run_scenario_sharded(scenario, 3, pool=pool, timeout=120)
        finally:
            pool.shutdown()
        leftovers = [p for p in os.listdir(tmp_path)
                     if p.startswith("repro-pipeline-")]
        assert leftovers == []

    def test_truncated_scenario_runs_as_one_span(self, tmp_path):
        """A truncated run's boundaries can hold continuations no checkpoint
        captures, so sharding it must fall back to one span, not fail."""
        spec = json.loads((CORPUS / "fuzz-truncation-carry.json").read_text())
        scenario = Scenario.from_dict(spec["scenario"])
        serial_store = ResultStore(tmp_path / "serial.jsonl")
        assert not run_suite([scenario], store=serial_store).failures
        pool = DispatchPool(2)
        try:
            sharded_store = ResultStore(tmp_path / "sharded.jsonl")
            report = run_suite([scenario], jobs=2, store=sharded_store,
                               shard_increments=3, pool=pool, timeout=120)
        finally:
            pool.shutdown()
        assert not report.failures, report.failures[0].error
        assert (tmp_path / "serial.jsonl").read_bytes() == \
            (tmp_path / "sharded.jsonl").read_bytes()


class TestFailurePropagation:
    def test_upstream_failure_marker_unblocks_waiters(self, tmp_path):
        from repro.harness.runner import _await_snapshot

        path = str(tmp_path / "x.snap")
        open(path + ".failed", "w").close()
        with pytest.raises(RuntimeError, match="upstream pipeline shard"):
            _await_snapshot(path, timeout_s=5)

    def test_wait_timeout_is_actionable(self, tmp_path):
        from repro.harness.runner import _await_snapshot

        with pytest.raises(TimeoutError, match="waited"):
            _await_snapshot(str(tmp_path / "never.snap"), timeout_s=0.05)
