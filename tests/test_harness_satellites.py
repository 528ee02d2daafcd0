"""Satellites around the snapshot PR: ported benchmark suites, report
sections (ablation / baselines / PNG export), the committed bench baseline
and the snapshot CLI verbs."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from helpers import requires_numpy

from repro import __version__
from repro.harness import get_suite
from repro.harness.bench import BENCH_SCHEMA, load_bench
from repro.harness.report import (
    ablation_rows_from_records,
    allocator_rows_from_records,
    baseline_rows_from_records,
    export_png_figures,
    render_suite_report,
)


#: The baseline CI's perf job gates against.
COMMITTED_BASELINE = (Path(__file__).resolve().parents[1]
                      / "benchmarks" / "BENCH_baseline.json")


# ----------------------------------------------------------------------
# Ported benchmark suites
# ----------------------------------------------------------------------
class TestPortedSuites:
    def test_ablations_suite_registered(self):
        scenarios = get_suite("ablations")
        names = [s.name for s in scenarios]
        assert names == [
            "ablation-allocator-vicinity", "ablation-allocator-random",
            "ablation-routing-yx", "ablation-routing-xy",
            "ablation-fidelity-cycle", "ablation-fidelity-latency",
        ]
        # One knob moves per scenario; everything else stays the paper's.
        by_name = dict(zip(names, scenarios))
        assert by_name["ablation-allocator-random"].options.ghost_allocator == "random"
        assert by_name["ablation-routing-xy"].chip.routing == "xy"
        assert by_name["ablation-fidelity-latency"].chip.fidelity == "latency"
        # Skewed workload: snowball sampling + small edge lists force ghosts.
        assert all(s.dataset.sampling == "snowball" for s in scenarios)
        assert all(s.chip.edge_list_capacity == 8 for s in scenarios)

    def test_baseline_comparison_suite_registered(self):
        scenarios = get_suite("baseline-comparison")
        assert [s.algorithm for s in scenarios] == ["ingest", "bfs"]
        assert all(s.name.startswith("baseline-") for s in scenarios)

    def test_suites_have_distinct_spec_hashes(self):
        hashes = [s.spec_hash()
                  for s in get_suite("ablations") + get_suite("baseline-comparison")
                  + get_suite("allocator-comparison")]
        assert len(set(hashes)) == len(hashes)

    def test_allocator_comparison_suite_registered(self):
        scenarios = get_suite("allocator-comparison")
        assert [s.name for s in scenarios] == [
            "allocator-comparison-vicinity", "allocator-comparison-random",
        ]
        assert [s.options.ghost_allocator for s in scenarios] == [
            "vicinity", "random"]
        # The examples/allocator_comparison.py workload: a skewed R-MAT
        # stream whose hub vertices overflow small edge lists into ghosts.
        for s in scenarios:
            assert s.dataset.generator == "rmat"
            assert s.dataset.vertices == 1024  # power of two (R-MAT scale 10)
            assert s.chip.edge_list_capacity == 8
            assert s.algorithm == "bfs"
        # The generator is identity: the rmat pin must survive the spec
        # round trip (unlike the default "sbm", which is omitted).
        spec = scenarios[0].spec_dict()
        assert spec["dataset"]["generator"] == "rmat"


# ----------------------------------------------------------------------
# Report sections
# ----------------------------------------------------------------------
def _fake_record(name, algorithm, *, dataset=None, chip=None, cycles=100,
                 increments=(40, 35, 25), allocator="vicinity",
                 ghost_distance=1.5, ghost_max_depth=2):
    dataset = dataset or {"vertices": 50, "edges": 200, "sampling": "edge",
                          "num_increments": len(increments),
                          "symmetric": False, "weighted": False, "seed": 7}
    chip = chip or {"side": 8, "fidelity": "cycle", "routing": "yx",
                    "edge_list_capacity": 8, "ghost_slots": 1,
                    "clock_ghz": 1.0}
    return {
        "spec_hash": f"hash-{name}",
        "name": name,
        "repro_version": __version__,
        "scenario": {"name": name, "dataset": dataset, "chip": chip,
                     "algorithm": algorithm,
                     "options": {"ghost_allocator": allocator,
                                 "placement": "round_robin", "root": 0,
                                 "max_cycles_per_increment": None}},
        "increment_sizes": [10] * len(increments),
        "increment_cycles": list(increments),
        "query_cycles": 0,
        "total_cycles": cycles,
        "energy": {"total_uj": 12.5, "time_us": 0.5},
        "stats": {"hops": 999, "mean_activation": 0.25,
                  "peak_activation": 0.5},
        "edges_stored": 200,
        "ghost_blocks": 3,
        "ghost_distance": ghost_distance,
        "ghost_max_depth": ghost_max_depth,
        "algo_metrics": {},
    }


class TestAblationSection:
    def test_rows_group_by_knob(self):
        records = [
            _fake_record("ablation-allocator-vicinity", "bfs", cycles=100),
            _fake_record("ablation-allocator-random", "bfs", cycles=130),
            _fake_record("ablation-routing-xy", "bfs", cycles=105),
            _fake_record("unrelated-bfs", "bfs"),
        ]
        rows = ablation_rows_from_records(records)
        assert [(r["Knob"], r["Value"]) for r in rows] == [
            ("allocator", "random"), ("allocator", "vicinity"),
            ("routing", "xy"),
        ]
        assert all(r["Hops"] == 999 for r in rows)

    def test_section_renders_only_when_present(self):
        with_rows = render_suite_report(
            [_fake_record("ablation-routing-xy", "bfs")])
        assert "Ablation sweeps" in with_rows
        without = render_suite_report([_fake_record("plain-bfs", "bfs")])
        assert "Ablation sweeps" not in without


class TestAllocatorSection:
    def test_rows_read_ghost_metrics_from_records(self):
        records = [
            _fake_record("allocator-comparison-vicinity", "bfs", cycles=100,
                         allocator="vicinity", ghost_distance=1.2,
                         ghost_max_depth=3),
            _fake_record("allocator-comparison-random", "bfs", cycles=140,
                         allocator="random", ghost_distance=10.7,
                         ghost_max_depth=3),
            _fake_record("unrelated-bfs", "bfs"),
        ]
        rows = allocator_rows_from_records(records)
        assert [r["Allocator"] for r in rows] == ["random", "vicinity"]
        assert [r["Mean Distance"] for r in rows] == [10.7, 1.2]
        assert all(r["Ghost Blocks"] == 3 for r in rows)

    def test_rows_tolerate_records_predating_ghost_metrics(self):
        record = _fake_record("allocator-comparison-vicinity", "bfs")
        del record["ghost_distance"]
        del record["ghost_max_depth"]
        (row,) = allocator_rows_from_records([record])
        assert row["Mean Distance"] == "-"
        assert row["Max Depth"] == "-"

    def test_section_renders_only_when_present(self):
        with_rows = render_suite_report(
            [_fake_record("allocator-comparison-random", "bfs",
                          allocator="random")])
        assert "Ghost allocator comparison" in with_rows
        without = render_suite_report([_fake_record("plain-bfs", "bfs")])
        assert "Ghost allocator comparison" not in without


class TestRmatDatasets:
    def test_rmat_spec_requires_power_of_two_vertices(self):
        from repro.harness.scenario import DatasetSpec

        with pytest.raises(ValueError, match="power-of-two"):
            DatasetSpec(vertices=1000, edges=8000, generator="rmat")
        spec = DatasetSpec(vertices=64, edges=512, generator="rmat")
        assert spec.name == "rmat-64v-512e-edge"

    @requires_numpy
    def test_rmat_materialisation_is_deterministic(self):
        from repro.harness.runner import materialize_dataset
        from repro.harness.scenario import DatasetSpec

        spec = DatasetSpec(vertices=64, edges=512, num_increments=3,
                           generator="rmat", seed=3)
        a, b = materialize_dataset(spec), materialize_dataset(spec)
        assert a.increment_sizes() == b.increment_sizes()
        assert [list(c) for c in a.increments] == [list(c) for c in b.increments]
        # Self loops are dropped, so slightly fewer than `edges` stream.
        assert 0 < a.total_edges <= 512

    @requires_numpy
    def test_records_carry_ghost_placement_metrics(self):
        from repro.harness.runner import run_scenario
        from repro.harness.scenario import ChipSpec, DatasetSpec, Scenario

        record = run_scenario(Scenario(
            name="rmat-smoke",
            dataset=DatasetSpec(vertices=64, edges=512, num_increments=2,
                                generator="rmat", seed=3),
            chip=ChipSpec(side=8, edge_list_capacity=8),
            algorithm="bfs",
        ))
        assert record["ghost_blocks"] > 0
        assert record["ghost_distance"] > 0
        assert record["ghost_max_depth"] >= 1


class TestBaselineSection:
    @requires_numpy
    def test_rows_pair_records_and_add_bsp_estimates(self):
        records = [
            _fake_record("baseline-ingest", "ingest"),
            _fake_record("baseline-bfs", "bfs", increments=(60, 50, 40)),
        ]
        rows = baseline_rows_from_records(records)
        assert [r["Increment"] for r in rows] == [1, 2, 3]
        assert [r["Incremental BFS overhead"] for r in rows] == [20, 15, 15]
        assert all(r["BSP estimate"] > 0 for r in rows)
        assert all(r["BSP supersteps"] >= 1 for r in rows)

    def test_non_baseline_pairs_are_ignored(self):
        records = [
            _fake_record("other-ingest", "ingest"),
            _fake_record("other-bfs", "bfs"),
        ]
        assert baseline_rows_from_records(records) == []


class TestPngExport:
    def test_export_skips_cleanly_or_writes_files(self, tmp_path):
        from repro._compat import get_matplotlib

        records = [
            _fake_record("fig-ingest", "ingest"),
            _fake_record("fig-bfs", "bfs", increments=(60, 50, 40)),
        ]
        written = export_png_figures(records, tmp_path / "figs")
        if get_matplotlib() is None:
            assert written == []
        else:  # pragma: no cover - exercised where matplotlib is installed
            assert written
            assert all(p.suffix == ".png" and p.stat().st_size > 0
                       for p in written)


# ----------------------------------------------------------------------
# Baseline refresh: the CI artifact is copied over the committed file, and
# load_bench guards what the perf gate then reads.
# ----------------------------------------------------------------------
class TestUpdateBaseline:
    def _ci_payload(self):
        return {
            "schema": BENCH_SCHEMA,
            "tag": "ci",
            "suite": "perf",
            "reps": 5,
            "repro_version": __version__,
            "workloads": [{"name": "w", "total_cycles": 10,
                           "median_cycles_per_sec": 1000.0}],
        }

    def test_committed_baseline_loads(self):
        baseline = load_bench(COMMITTED_BASELINE)
        assert baseline["suite"] == "perf"
        assert {w["name"] for w in baseline["workloads"]} == \
               {s.name for s in get_suite("perf")}
        # Every perf workload keeps a median for the CI gate.
        for workload in baseline["workloads"]:
            assert workload["median_cycles_per_sec"] > 0

    def test_rejects_wrong_schema(self, tmp_path):
        src = tmp_path / "bad.json"
        payload = self._ci_payload()
        payload["schema"] = "something/else"
        src.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="unsupported bench schema"):
            load_bench(src)

    def test_rejects_empty_workloads(self, tmp_path, capsys):
        from repro.cli import main

        src = tmp_path / "empty.json"
        payload = self._ci_payload()
        payload["workloads"] = []
        src.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="no workload medians"):
            load_bench(src)
        # The gate refuses it before benchmarking anything.
        assert main(["bench", "--baseline", str(src)]) == 2
        assert "no workload medians" in capsys.readouterr().err

    def test_rejects_workloads_without_medians(self, tmp_path):
        """A v3 stamp over v2-shaped workloads (medians only inside a
        per-kernel map) yields no workload median, so it would gate
        nothing: refused like an empty report."""
        src = tmp_path / "v2_shaped.json"
        payload = self._ci_payload()
        payload["workloads"] = [{"name": "w", "total_cycles": 10,
                                 "kernels": {"auto": {
                                     "median_cycles_per_sec": 1000.0}}}]
        src.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="no workload medians"):
            load_bench(src)


# ----------------------------------------------------------------------
# Snapshot CLI verbs
# ----------------------------------------------------------------------
@requires_numpy
class TestSnapshotCli:
    def test_save_info_restore_verify_round_trip(self, tmp_path, capsys):
        from repro.cli import main

        snap_path = tmp_path / "tiny.snap"
        assert main(["snapshot", "save", "--preset", "tiny",
                     "--scenario", "tiny-bfs", "--increment", "3",
                     "--out", str(snap_path)]) == 0
        assert snap_path.exists()
        assert main(["snapshot", "info", str(snap_path)]) == 0
        out = capsys.readouterr().out
        assert "increment: 3" in out and "state_hash" in out

        store = tmp_path / "resumed.jsonl"
        assert main(["snapshot", "restore", str(snap_path),
                     "--preset", "tiny", "--scenario", "tiny-bfs",
                     "--verify", "--store", str(store)]) == 0
        out = capsys.readouterr().out
        assert "byte-identical" in out
        record = json.loads(store.read_text().splitlines()[0])
        assert record["name"] == "tiny-bfs"

    def test_restore_wrong_scenario_fails_cleanly(self, tmp_path, capsys):
        from repro.cli import main

        snap_path = tmp_path / "tiny.snap"
        assert main(["snapshot", "save", "--preset", "tiny",
                     "--scenario", "tiny-ingest", "--increment", "2",
                     "--out", str(snap_path)]) == 0
        assert main(["snapshot", "restore", str(snap_path),
                     "--preset", "tiny", "--scenario", "tiny-bfs"]) == 2
        assert "not from" in capsys.readouterr().err

    def test_info_on_corrupt_file_fails_cleanly(self, tmp_path, capsys):
        from repro.cli import main

        bad = tmp_path / "bad.snap"
        bad.write_bytes(b"not a snapshot at all")
        assert main(["snapshot", "info", str(bad)]) == 2
        assert "bad magic" in capsys.readouterr().err

    def test_save_out_of_range_boundary_fails_cleanly(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["snapshot", "save", "--preset", "tiny",
                     "--scenario", "tiny-bfs", "--increment", "99",
                     "--out", str(tmp_path / "x.snap")]) == 2
        assert "out of range" in capsys.readouterr().err
