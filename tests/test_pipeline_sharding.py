"""Job tasks: byte-identity without prefix replay.

``repro serve`` runs a job as one ``_job_task`` from its first (or resume)
boundary to its park or its end; the spans ``plan_spans`` cuts at the
job's cadence are where the task reports progress and may park.  The
contract: the record is byte-identical to the serial run, while a spy on
``DynamicGraph.stream_increment`` proves every increment is streamed
exactly once, whatever the cadence, whether one task runs the whole job or
the job parks at every span's end and each later task restores the park
checkpoint.  A task writes a checkpoint only where it parks.  The
scenarios use the stdlib generator, so these run on numpy-free installs
too.
"""

from __future__ import annotations

import gc
import json
import os
import re
from dataclasses import replace
from pathlib import Path

import pytest

from repro.graph.graph import DynamicGraph
from repro.harness import runner
from repro.harness.runner import (
    _job_task,
    park_checkpoint,
    plan_spans,
    run_scenario,
    snapshot_at,
)
from repro.harness.scenario import ChipSpec, DatasetSpec, Scenario
from repro.serve import ScenarioService, ServeConfig
from repro.snapshot import Snapshot
from repro.snapshot.format import SnapshotError

CORPUS = Path(__file__).parent / "corpus"


def eight_increment_scenario(name="pipe-bfs", algorithm="bfs") -> Scenario:
    return Scenario(
        name=name,
        dataset=DatasetSpec(vertices=60, edges=480, num_increments=8, seed=5,
                            generator="uniform"),
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


def run_job(scenario, cadence, spill, *, cold=False):
    """Run a scenario as ``repro serve``'s job tasks, in-process;
    ``(record, handoffs)``.

    One task runs the whole job, as an uninterrupted serve job does.  A
    cold run parks at every span's end, so each later task restores the
    checkpoint the previous one parked into.
    """
    spill.mkdir()
    handoffs, start, record = [], 0, None
    while record is None:
        start, record, handoff = _job_task(scenario, start, cadence,
                                           str(spill), park=lambda: cold)
        handoffs.append(handoff)
    return record, handoffs


def parking_after(reports):
    """A ``park`` callable that says yes at the ``reports``-th report."""
    answers = iter([False] * (reports - 1) + [True])
    return lambda: next(answers)


class TestInProcess:
    def test_pipeline_record_identical_to_serial(self, tmp_path):
        scenario = eight_increment_scenario()
        serial = run_scenario(scenario)
        piped, handoffs = run_job(scenario, 3, tmp_path / "spill")
        assert handoffs == ["fresh"]
        assert json.dumps(piped, sort_keys=True) == \
            json.dumps(serial, sort_keys=True)

    def test_no_prefix_replay_cpu_proof(self, monkeypatch, tmp_path):
        """Every restored task streams exactly its own increments: total
        CPU is one pass over the stream, independent of the park count."""
        scenario = eight_increment_scenario()
        serial = run_scenario(scenario)
        streamed = spy_streamed(monkeypatch)
        record, handoffs = run_job(scenario, 2, tmp_path / "spill",
                                   cold=True)
        assert handoffs == ["fresh"] + ["restored"] * 3
        assert record == serial
        assert streamed == list(range(scenario.dataset.num_increments))

    def test_every_shard_count_at_every_boundary(self, monkeypatch,
                                                 tmp_path):
        """Across cadences (so park points) and both ways to run a job:
        identical records, each increment streamed exactly once."""
        scenario = eight_increment_scenario(name="pipe-ingest",
                                            algorithm="ingest")
        serial = json.dumps(run_scenario(scenario), sort_keys=True)
        streamed = spy_streamed(monkeypatch)
        for cadence in (1, 3, 4):
            for cold in (False, True):
                streamed.clear()
                piped, _handoffs = run_job(
                    scenario, cadence, tmp_path / f"c{cadence}-{cold}",
                    cold=cold)
                assert json.dumps(piped, sort_keys=True) == serial, cadence
                assert streamed == list(
                    range(scenario.dataset.num_increments)), cadence


class TestSpanPlan:
    def test_cadence_boundaries_and_checkpoint_paths(self, tmp_path):
        scenario = eight_increment_scenario()
        assert plan_spans(scenario, 3) == [0, 3, 6, 8]
        assert park_checkpoint(str(tmp_path), 3) == \
            os.path.join(str(tmp_path), "inc00003.snap")
        assert plan_spans(scenario, 1) == list(range(9))
        assert plan_spans(scenario, 0) == plan_spans(scenario, 1)
        for cadence in (8, 20):
            assert plan_spans(scenario, cadence) == [0, 8]

    def test_truncated_scenario_runs_as_one_span(self, tmp_path):
        """A truncated run's boundaries can hold continuations no checkpoint
        captures, so its plan is one span at any cadence, not a failure:
        its task never parks, even when asked at every report."""
        spec = json.loads((CORPUS / "fuzz-truncation-carry.json").read_text())
        scenario = Scenario.from_dict(spec["scenario"])
        total = scenario.dataset.num_increments
        assert total > 1
        assert plan_spans(scenario, 1) == [0, total]
        record, handoffs = run_job(scenario, 1, tmp_path / "spill",
                                   cold=True)
        assert handoffs == ["fresh"]
        assert json.dumps(record, sort_keys=True) == \
            json.dumps(run_scenario(scenario), sort_keys=True)


class TestPooled:
    def test_spill_dir_is_cleaned_up(self, tmp_path, monkeypatch):
        """A job leaves nothing in the service's temp work dir once its
        record is stored, and the work dir goes when the service stops."""
        import tempfile

        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        scenario = eight_increment_scenario()
        service = ScenarioService(ServeConfig(
            jobs=2, cadence=3, store=str(tmp_path / "store.jsonl")))
        service.start()
        try:
            job, code = service.submit(scenario.spec_dict(), "spill")
            assert code == 201
            assert job.wait_until(lambda: job.terminal, timeout=120)
            assert job.state == "done", job.events
            assert os.listdir(service.work_dir) == []
        finally:
            service.stop()
        leftovers = [p for p in os.listdir(tmp_path)
                     if p.startswith("repro-serve-")]
        assert leftovers == []
        assert json.loads(service.record_bytes(job.id)) == \
            run_scenario(scenario)


class TestWarmSlot:
    """One task keeps its job's run live from its start boundary to its
    park or its end; a parked job lives only in its checkpoint, which the
    next task restores."""

    def test_warm_and_cold_spans_save_identical_checkpoints(self, tmp_path):
        """Parks after restored tasks (cold) and a park after seven
        increments in one task save the bytes ``snapshot_at`` captures
        from one uninterrupted stream."""
        scenario = eight_increment_scenario()
        cold, cold_handoffs = run_job(scenario, 1, tmp_path / "cold",
                                      cold=True)
        assert cold_handoffs == ["fresh"] + ["restored"] * 7
        assert sorted(os.listdir(tmp_path / "cold")) == [
            f"inc{b:05d}.snap" for b in range(1, 8)]
        for boundary in range(1, 8):
            assert (tmp_path / "cold" / f"inc{boundary:05d}.snap"
                    ).read_bytes() == \
                snapshot_at(scenario, boundary).to_bytes(), boundary
        spill = str(tmp_path / "warm")
        assert _job_task(scenario, 0, 1, spill,
                         park=parking_after(7)) == (7, None, "fresh")
        assert os.listdir(spill) == ["inc00007.snap"]
        assert (tmp_path / "warm" / "inc00007.snap").read_bytes() == \
            snapshot_at(scenario, 7).to_bytes()
        boundary, warm, handoff = _job_task(scenario, 7, 1, spill)
        assert (boundary, handoff) == (8, "restored")
        assert json.dumps(warm, sort_keys=True) == \
            json.dumps(cold, sort_keys=True) == \
            json.dumps(run_scenario(scenario), sort_keys=True)

    def test_continuing_spans_save_nothing(self, tmp_path):
        """The serve path: an uninterrupted job is one task that saves no
        checkpoint, so the spill dir stays empty, and the record is the
        serial one."""
        scenario = eight_increment_scenario()
        record, handoffs = run_job(scenario, 1, tmp_path / "spill")
        assert handoffs == ["fresh"]
        assert os.listdir(tmp_path / "spill") == []
        assert json.dumps(record, sort_keys=True) == \
            json.dumps(run_scenario(scenario), sort_keys=True)

    def test_unmatched_span_fails_naming_the_missing_checkpoint(
            self, tmp_path, monkeypatch):
        """A task resuming a job whose checkpoint is gone fails with the
        SnapshotError that names the file; it never builds a fresh run."""
        scenario = eight_increment_scenario()
        missing = str(tmp_path / "inc00002.snap")
        builds = []
        real_materialize = runner._materialize

        def counted(*args, **kwargs):
            builds.append(args)
            return real_materialize(*args, **kwargs)

        monkeypatch.setattr(runner, "_materialize", counted)
        with pytest.raises(SnapshotError, match=re.escape(missing)):
            _job_task(scenario, 2, 1, str(tmp_path))
        assert builds == []

    def test_park_saves_the_boundary_checkpoint_and_empties_the_slot(
            self, tmp_path):
        """A park saves the boundary's checkpoint and ends the task; the
        next task restores it and finishes with the serial record."""
        scenario = eight_increment_scenario()
        spill = tmp_path / "spill"
        assert _job_task(scenario, 0, 4, str(spill),
                         park=lambda: True) == (4, None, "fresh")
        assert os.listdir(spill) == ["inc00004.snap"]
        assert (spill / "inc00004.snap").read_bytes() == \
            snapshot_at(scenario, 4).to_bytes()
        boundary, record, handoff = _job_task(scenario, 4, 4, str(spill),
                                              park=lambda: True)
        assert (boundary, handoff) == (8, "restored")  # no park at the end
        assert json.dumps(record, sort_keys=True) == \
            json.dumps(run_scenario(scenario), sort_keys=True)

    def test_not_continued_on_spec_hash_mismatch(self, tmp_path):
        """A renamed spec saves the same checkpoint body, so only the spec
        hash tells the two apart: a task refuses the other spec's
        checkpoint."""
        scenario = eight_increment_scenario()
        renamed = eight_increment_scenario(name="pipe-bfs-renamed")
        mine = tmp_path / "inc00004.snap"
        snapshot_at(scenario, 4).save(mine)
        theirs = str(tmp_path / "theirs.snap")
        snapshot_at(renamed, 4).save(theirs)
        with open(mine, "rb") as a, open(theirs, "rb") as b:
            assert a.read()[-32:] == b.read()[-32:]
        with pytest.raises(SnapshotError, match="captured from scenario"):
            _job_task(renamed, 4, 4, str(tmp_path))

    def test_not_continued_on_boundary_mismatch(self, tmp_path, monkeypatch):
        """A task starts only where a span does, and streams from there."""
        scenario = eight_increment_scenario()
        snapshot_at(scenario, 2).save(tmp_path / "inc00002.snap")
        with pytest.raises(ValueError, match="no span .* at increment 3"):
            _job_task(scenario, 3, 2, str(tmp_path))
        streamed = spy_streamed(monkeypatch)
        boundary, record, handoff = _job_task(scenario, 2, 2, str(tmp_path))
        assert (boundary, handoff) == (8, "restored")
        assert streamed == list(range(2, 8))
        assert record == run_scenario(scenario)

    def test_continued_span_traces_only_itself(self, tmp_path):
        def traced(name):
            scenario = eight_increment_scenario()
            return scenario.with_(options=replace(
                scenario.options, trace_path=str(tmp_path / name)))

        def increments(name):
            events = json.loads((tmp_path / name).read_text())["traceEvents"]
            return [e["name"] for e in events if e.get("cat") == "sim"]

        spill = str(tmp_path / "spill")
        assert _job_task(traced("first.json"), 0, 4, spill,
                         park=lambda: True)[:2] == (4, None)
        assert _job_task(traced("second.json"), 4, 4, spill)[0] == 8
        assert increments("first.json") == [
            f"increment-{i}" for i in range(1, 5)]
        assert increments("second.json") == [
            f"increment-{i}" for i in range(5, 9)]

    def test_failed_span_leaves_no_slot(self, tmp_path, monkeypatch):
        """A task that raises closes its run; a later task still resumes
        the job from its checkpoint."""
        scenario = eight_increment_scenario()
        snapshot_at(scenario, 4).save(tmp_path / "inc00004.snap")
        closed = []
        real_close = DynamicGraph.close
        real_stream = DynamicGraph.stream_increment

        def close(self):
            closed.append(self)
            real_close(self)

        def fail_at_two(self, edges, **kwargs):
            if self.increments_streamed == 2:
                raise RuntimeError("increment 3 exploded")
            return real_stream(self, edges, **kwargs)

        monkeypatch.setattr(DynamicGraph, "close", close)
        monkeypatch.setattr(DynamicGraph, "stream_increment", fail_at_two)
        with pytest.raises(RuntimeError, match="exploded"):
            _job_task(scenario, 0, 4, str(tmp_path))
        assert len(closed) == 1 and closed[0].increments_streamed == 2
        monkeypatch.setattr(DynamicGraph, "stream_increment", real_stream)
        boundary, record, handoff = _job_task(scenario, 4, 4, str(tmp_path))
        assert (boundary, handoff) == (8, "restored")
        assert record == run_scenario(scenario)
        assert len(closed) == 3  # and run_scenario closed its own run


class TestCloseRun:
    """A closed run has no reference cycle left, so dropping it frees the
    chip by reference counting, with the cyclic collector off."""

    @pytest.mark.parametrize("algorithm", ["bfs", "ingest", "sssp"])
    def test_closed_run_leaves_nothing_to_collect(self, algorithm):
        scenario = eight_increment_scenario(algorithm=algorithm)
        gc.collect()
        gc.disable()
        try:
            run = runner._materialize(scenario)
            runner._run_span(scenario, run=run, close=True)
            del run
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_restored_run_closes_too(self):
        scenario = eight_increment_scenario()
        snapshot = Snapshot.from_bytes(snapshot_at(scenario, 4).to_bytes())
        gc.collect()
        gc.disable()
        try:
            run = runner._materialize(scenario, snapshot)
            runner._run_span(scenario, run=run, close=True)
            del run
            assert gc.collect() == 0
        finally:
            gc.enable()
