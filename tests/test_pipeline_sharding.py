"""Span hand-off: byte-identity without prefix replay.

``repro serve`` runs a job as the spans ``plan_spans`` cuts at its
cadence, each a ``_pipeline_span_task`` that picks the run up where its
predecessor stopped: from the live run in the warm slot, or from a saved
checkpoint.  The contract: the last span's record is byte-identical to the
serial run, while a spy on ``DynamicGraph.stream_increment`` proves every
increment is streamed exactly once, whatever the cadence, whether a span
continues the warm slot's live run or restores the checkpoint.  A span
never writes a checkpoint: one is written only where a job parks
(``_park_task``).  The scenarios use the stdlib generator, so these run
on numpy-free installs too.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import replace
from pathlib import Path

import pytest

from repro.graph.graph import DynamicGraph
from repro.harness import runner
from repro.harness.runner import (
    _park_task,
    _pipeline_span_task,
    plan_spans,
    run_scenario,
    snapshot_at,
)
from repro.harness.scenario import ChipSpec, DatasetSpec, Scenario
from repro.serve import ScenarioService, ServeConfig
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


def run_spans(scenario, cadence, spill, *, cold=False):
    """Run a scenario's planned spans in order; ``(record, handoffs)``.

    Spans save no checkpoint, as under ``repro serve``.  A cold run parks
    at every boundary, so each later span restores the park checkpoint.
    """
    spill.mkdir()
    handoffs = []
    for start, stop, snap_in, park_path in plan_spans(scenario, cadence,
                                                      str(spill)):
        _cycles, record, handoff = _pipeline_span_task(
            scenario, start, stop, snap_in)
        handoffs.append(handoff)
        if cold and park_path is not None:
            _park_task(scenario, stop, park_path)
    return record, handoffs


class TestInProcess:
    def test_pipeline_record_identical_to_serial(self, tmp_path):
        scenario = eight_increment_scenario()
        serial = run_scenario(scenario)
        piped, handoffs = run_spans(scenario, 3, tmp_path / "spill")
        assert handoffs == ["fresh", "warm", "warm"]
        assert json.dumps(piped, sort_keys=True) == \
            json.dumps(serial, sort_keys=True)

    def test_no_prefix_replay_cpu_proof(self, monkeypatch, tmp_path):
        """Every restored span streams exactly its own increments: total
        CPU is one pass over the stream, independent of the span count."""
        scenario = eight_increment_scenario()
        serial = run_scenario(scenario)
        streamed = spy_streamed(monkeypatch)
        record, handoffs = run_spans(scenario, 2, tmp_path / "spill",
                                     cold=True)
        assert handoffs == ["fresh"] + ["restored"] * 3
        assert record == serial
        assert streamed == list(range(scenario.dataset.num_increments))

    def test_every_shard_count_at_every_boundary(self, monkeypatch,
                                                 tmp_path):
        """Across cadences (so span counts) and both hand-offs: identical
        records, each increment streamed exactly once."""
        scenario = eight_increment_scenario(name="pipe-ingest",
                                            algorithm="ingest")
        serial = json.dumps(run_scenario(scenario), sort_keys=True)
        streamed = spy_streamed(monkeypatch)
        for cadence in (1, 3, 4):
            for cold in (False, True):
                streamed.clear()
                piped, _handoffs = run_spans(
                    scenario, cadence, tmp_path / f"c{cadence}-{cold}",
                    cold=cold)
                assert json.dumps(piped, sort_keys=True) == serial, cadence
                assert streamed == list(
                    range(scenario.dataset.num_increments)), cadence


class TestSpanPlan:
    def test_cadence_boundaries_and_checkpoint_paths(self, tmp_path):
        scenario = eight_increment_scenario()
        spill = str(tmp_path)

        def snap(boundary):
            return os.path.join(spill, f"inc{boundary:05d}.snap")

        assert plan_spans(scenario, 3, spill) == [
            (0, 3, None, snap(3)),
            (3, 6, snap(3), snap(6)),
            (6, 8, snap(6), None),
        ]
        assert [span[:2] for span in plan_spans(scenario, 1, spill)] == \
            [(i, i + 1) for i in range(8)]
        assert plan_spans(scenario, 0, spill) == plan_spans(scenario, 1,
                                                             spill)
        for cadence in (8, 20):
            assert plan_spans(scenario, cadence, spill) == [
                (0, 8, None, None)]

    def test_truncated_scenario_runs_as_one_span(self, tmp_path):
        """A truncated run's boundaries can hold continuations no checkpoint
        captures, so its plan is one span at any cadence, not a failure."""
        spec = json.loads((CORPUS / "fuzz-truncation-carry.json").read_text())
        scenario = Scenario.from_dict(spec["scenario"])
        total = scenario.dataset.num_increments
        assert total > 1
        assert plan_spans(scenario, 1, str(tmp_path)) == [
            (0, total, None, None)]
        record, handoffs = run_spans(scenario, 1, tmp_path / "spill")
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
    """A span continues its predecessor's live run only when it sits at
    exactly the span's start boundary of the span's own spec."""

    def test_warm_and_cold_spans_save_identical_checkpoints(self, tmp_path):
        """Parks after restored spans (cold) and after warm ones save the
        bytes ``snapshot_at`` captures from one uninterrupted stream."""
        scenario = eight_increment_scenario()
        cold, cold_handoffs = run_spans(scenario, 1, tmp_path / "cold",
                                        cold=True)
        assert cold_handoffs == ["fresh"] + ["restored"] * 7
        assert runner._warm is None  # the last span leaves no live run
        assert sorted(os.listdir(tmp_path / "cold")) == [
            f"inc{b:05d}.snap" for b in range(1, 8)]
        for boundary in range(1, 8):
            assert (tmp_path / "cold" / f"inc{boundary:05d}.snap"
                    ).read_bytes() == \
                snapshot_at(scenario, boundary).to_bytes(), boundary
        spans = plan_spans(scenario, 1, str(tmp_path / "warm"))
        warm_handoffs = [_pipeline_span_task(scenario, *span[:3])[2]
                         for span in spans[:-1]]
        assert warm_handoffs == ["fresh"] + ["warm"] * 6
        _park_task(scenario, 7, spans[-2][3])
        assert (tmp_path / "warm" / "inc00007.snap").read_bytes() == \
            snapshot_at(scenario, 7).to_bytes()
        _cycles, warm, handoff = _pipeline_span_task(scenario,
                                                     *spans[-1][:3])
        assert handoff == "restored"
        assert json.dumps(warm, sort_keys=True) == \
            json.dumps(cold, sort_keys=True) == \
            json.dumps(run_scenario(scenario), sort_keys=True)

    def test_continuing_spans_save_nothing(self, tmp_path):
        """The serve path: spans save no checkpoint, so the spill dir
        stays empty, and the record is the serial one."""
        scenario = eight_increment_scenario()
        record, handoffs = run_spans(scenario, 1, tmp_path / "spill")
        assert handoffs == ["fresh"] + ["warm"] * 7
        assert os.listdir(tmp_path / "spill") == []
        assert json.dumps(record, sort_keys=True) == \
            json.dumps(run_scenario(scenario), sort_keys=True)

    def test_unmatched_span_fails_naming_the_missing_checkpoint(
            self, tmp_path, monkeypatch):
        """A continuing span whose run is neither live here nor saved
        fails with the SnapshotError that names the file; it never builds
        a fresh run."""
        scenario = eight_increment_scenario()
        _pipeline_span_task(scenario, 0, 4, None)
        assert runner._warm.boundary == 4
        missing = str(tmp_path / "inc00002.snap")
        builds = []
        real_materialize = runner._materialize

        def counted(*args, **kwargs):
            builds.append(args)
            return real_materialize(*args, **kwargs)

        monkeypatch.setattr(runner, "_materialize", counted)
        with pytest.raises(SnapshotError, match=re.escape(missing)):
            _pipeline_span_task(scenario, 2, 8, missing)
        assert builds == []
        assert runner._warm is None

    def test_park_saves_the_boundary_checkpoint_and_empties_the_slot(
            self, tmp_path):
        scenario = eight_increment_scenario()
        spill = tmp_path / "spill"
        first, second = plan_spans(scenario, 4, str(spill))
        _pipeline_span_task(scenario, 0, 4, None)
        assert not spill.exists()
        _park_task(scenario, 4, first[3])
        assert os.listdir(spill) == ["inc00004.snap"]
        assert runner._warm is None
        assert (spill / "inc00004.snap").read_bytes() == \
            snapshot_at(scenario, 4).to_bytes()
        with pytest.raises(SnapshotError, match="no live run"):
            _park_task(scenario, 4, first[3])
        _cycles, record, handoff = _pipeline_span_task(scenario, *second[:3])
        assert handoff == "restored"
        assert json.dumps(record, sort_keys=True) == \
            json.dumps(run_scenario(scenario), sort_keys=True)

    def test_not_continued_on_spec_hash_mismatch(self, tmp_path):
        """A renamed spec saves the same checkpoint body, so only the spec
        hash tells its live run apart: a warm continue would run, a
        restore refuses the other spec's checkpoint."""
        scenario = eight_increment_scenario()
        renamed = eight_increment_scenario(name="pipe-bfs-renamed")
        mine = str(tmp_path / "mine.snap")
        _pipeline_span_task(scenario, 0, 4, None)
        assert runner._warm is not None
        snapshot_at(scenario, 4).save(mine)
        theirs = str(tmp_path / "theirs.snap")
        snapshot_at(renamed, 4).save(theirs)
        with open(mine, "rb") as a, open(theirs, "rb") as b:
            assert a.read()[-32:] == b.read()[-32:]
        with pytest.raises(SnapshotError, match="captured from scenario"):
            _pipeline_span_task(renamed, 4, 8, mine)
        assert runner._warm is None

    def test_not_continued_on_boundary_mismatch(self, tmp_path, monkeypatch):
        scenario = eight_increment_scenario()
        _pipeline_span_task(scenario, 0, 4, None)
        older = str(tmp_path / "inc2.snap")
        snapshot_at(scenario, 2).save(older)
        streamed = spy_streamed(monkeypatch)
        _cycles, record, handoff = _pipeline_span_task(scenario, 2, 8, older)
        assert handoff == "restored"
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

        _pipeline_span_task(traced("first.json"), 0, 4, None)
        assert runner._warm.run[1].simulator.tracer is None
        _cycles, _record, handoff = _pipeline_span_task(
            traced("second.json"), 4, 8, str(tmp_path / "inc4.snap"))
        assert handoff == "warm"
        assert increments("first.json") == [
            f"increment-{i}" for i in range(1, 5)]
        assert increments("second.json") == [
            f"increment-{i}" for i in range(5, 9)]

    def test_failed_span_leaves_no_slot(self, tmp_path):
        scenario = eight_increment_scenario()
        checkpoint = str(tmp_path / "inc4.snap")
        _pipeline_span_task(scenario, 0, 4, None)
        assert runner._warm is not None
        snapshot_at(scenario, 4).save(checkpoint)
        # Continues warm, then fails: the live run is not put back.
        with pytest.raises(ValueError, match="invalid span"):
            _pipeline_span_task(scenario, 4, 2, checkpoint)
        assert runner._warm is None
        # A restored span still works from the checkpoint.
        _cycles, record, handoff = _pipeline_span_task(scenario, 4, 8,
                                                       checkpoint)
        assert handoff == "restored" and record == run_scenario(scenario)
