"""Tests for the experiment harness: specs, registry, store, runner, report."""

from __future__ import annotations

import json

import pytest

from repro.harness import (
    ChipSpec,
    DatasetSpec,
    ResultStore,
    Scenario,
    get_suite,
    list_suites,
    register_suite,
    run_scenario,
    run_suite,
    table2_rows_from_records,
)
from repro.algorithms.registry import algorithm_names
from repro.harness.scenario import RunOptions

from helpers import requires_numpy


def tiny_scenario(name="t", algorithm="ingest", **dataset_kwargs) -> Scenario:
    """A scenario small enough that running it takes well under a second."""
    defaults = dict(vertices=64, edges=256, sampling="edge", seed=3)
    defaults.update(dataset_kwargs)
    return Scenario(
        name=name,
        dataset=DatasetSpec(**defaults),
        chip=ChipSpec(side=4),
        algorithm=algorithm,
    )


def four_scenario_suite():
    """4 scenarios mixing algorithms and sampling orders (all tiny)."""
    return [
        tiny_scenario("s1", "ingest"),
        tiny_scenario("s2", "bfs"),
        tiny_scenario("s3", "bfs", sampling="snowball"),
        tiny_scenario("s4", "components", symmetric=True),
    ]


class TestScenarioSpec:
    def test_round_trip(self):
        for scenario in four_scenario_suite():
            rebuilt = Scenario.from_dict(scenario.spec_dict())
            assert rebuilt == scenario
            assert rebuilt.spec_hash() == scenario.spec_hash()

    def test_registry_suites_round_trip(self):
        for suite in list_suites():
            for scenario in get_suite(suite.name):
                assert Scenario.from_dict(scenario.spec_dict()) == scenario

    def test_spec_hash_stable_across_instances(self):
        a = tiny_scenario("same")
        b = tiny_scenario("same")
        assert a is not b
        assert a.spec_hash() == b.spec_hash()

    def test_spec_hash_ignores_dict_ordering(self):
        scenario = tiny_scenario("ordered")
        spec = scenario.spec_dict()
        # Round-trip through a JSON dict with reversed key order.
        shuffled = json.loads(json.dumps(spec, sort_keys=True))
        reordered = {k: shuffled[k] for k in reversed(list(shuffled))}
        assert Scenario.from_dict(reordered).spec_hash() == scenario.spec_hash()

    def test_spec_hash_sensitive_to_every_layer(self):
        base = tiny_scenario("base")
        variants = [
            base.with_(name="renamed"),
            base.with_(algorithm="bfs"),
            base.with_(dataset=DatasetSpec(vertices=64, edges=257, seed=3)),
            base.with_(chip=ChipSpec(side=8)),
            base.with_(options=RunOptions(ghost_allocator="random")),
        ]
        hashes = {base.spec_hash()} | {v.spec_hash() for v in variants}
        assert len(hashes) == len(variants) + 1

    def test_spec_hash_sensitive_to_repro_version(self, monkeypatch):
        scenario = tiny_scenario("versioned")
        before = scenario.spec_hash()
        monkeypatch.setattr("repro.harness.scenario.__version__", "0.0.0-test")
        assert scenario.spec_hash() != before

    def test_graph_seed_independent_of_name_and_version(self, monkeypatch):
        # Renaming a scenario or bumping the repro version must not change
        # the experiment's RNG (only the cache key), so results stay
        # comparable across releases.
        a, b = tiny_scenario("name-a"), tiny_scenario("name-b")
        assert a.spec_hash() != b.spec_hash()
        assert a.graph_seed() == b.graph_seed()
        before = a.graph_seed()
        monkeypatch.setattr("repro.harness.scenario.__version__", "0.0.0-test")
        assert a.graph_seed() == before
        # Distinct physical specs still decorrelate.
        assert tiny_scenario("name-a", "bfs").graph_seed() != before

    def test_unpinned_graph_seed_leaves_identity_unchanged(self):
        # Default RunOptions() omit graph_seed, so specs predating the field
        # keep their canonical JSON and derived seed (values pinned from
        # before it existed).
        scenario = tiny_scenario("unpinned")
        assert "graph_seed" not in scenario.spec_dict()["options"]
        assert scenario.canonical_json() == (
            '{"algorithm":"ingest","chip":{"clock_ghz":1.0,"edge_list_capacity":16,'
            '"fidelity":"cycle","ghost_slots":1,"routing":"yx","side":4},'
            '"dataset":{"edges":256,"num_increments":10,"sampling":"edge","seed":3,'
            '"symmetric":false,"vertices":64,"weighted":false},"name":"unpinned",'
            '"options":{"ghost_allocator":"vicinity","max_cycles_per_increment":null,'
            '"placement":"round_robin","root":0}}')
        assert scenario.graph_seed() == 777195390

    def test_pinned_graph_seed_is_identity_and_the_seed(self):
        base = tiny_scenario("pinned")
        pinned = base.with_(options=RunOptions(graph_seed=17))
        assert pinned.spec_dict()["options"]["graph_seed"] == 17
        assert pinned.graph_seed() == 17
        assert pinned.spec_hash() != base.spec_hash()
        assert Scenario.from_dict(pinned.spec_dict()) == pinned
        repinned = base.with_(options=RunOptions(graph_seed=18))
        assert repinned.spec_hash() != pinned.spec_hash()

    @pytest.mark.parametrize("seed", [-1, 1.5, "17", True])
    def test_graph_seed_must_be_a_non_negative_int(self, seed):
        with pytest.raises(ValueError, match="graph_seed"):
            RunOptions(graph_seed=seed)

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ValueError):
            tiny_scenario(algorithm="quantum")

    def test_algorithm_list_matches_registry_usage(self):
        for suite in list_suites():
            for scenario in get_suite(suite.name):
                assert scenario.algorithm in algorithm_names()

    def test_algorithms_suite_covers_whole_registry(self):
        # The algorithms sweep enumerates the registry, so a drop-in
        # workload file gets a suite scenario with no harness change.
        names = {s.algorithm for s in get_suite("algorithms")}
        assert names == set(algorithm_names())
        assert {"kcore", "labelprop"} <= names


class TestRegistry:
    def test_builtin_suites_present(self):
        names = {suite.name for suite in list_suites()}
        assert {"tiny", "paper-tiny", "paper-small", "chip-sweep",
                "sampling-sweep", "algorithms", "fidelity-sweep"} <= names

    def test_paper_tiny_has_at_least_eight_scenarios(self):
        assert len(get_suite("paper-tiny")) >= 8

    def test_unknown_suite_raises(self):
        with pytest.raises(KeyError):
            get_suite("no-such-suite")

    def test_register_and_fetch_custom_suite(self, monkeypatch):
        from repro.harness import registry
        # Work on a copy of the registry so the global suite set is
        # unchanged for other tests regardless of execution order.
        monkeypatch.setattr(registry, "_SUITES", dict(registry._SUITES))
        register_suite("test-custom", "registered by the test suite",
                       lambda: [tiny_scenario("custom")])
        scenarios = get_suite("test-custom")
        assert [s.name for s in scenarios] == ["custom"]


class TestResultStore:
    def test_put_get_roundtrip(self, tmp_path):
        store = ResultStore(tmp_path / "store.jsonl")
        record = {"spec_hash": "abc", "value": 1}
        store.put(record)
        reloaded = ResultStore(tmp_path / "store.jsonl")
        assert reloaded.get("abc") == record
        assert "abc" in reloaded and len(reloaded) == 1

    def test_replace_compacts_file(self, tmp_path):
        path = tmp_path / "store.jsonl"
        store = ResultStore(path)
        store.put({"spec_hash": "abc", "value": 1})
        store.put({"spec_hash": "xyz", "value": 2})
        store.put({"spec_hash": "abc", "value": 3})
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 2
        assert ResultStore(path).get("abc")["value"] == 3

    def test_put_many_mixed_append_and_replace(self, tmp_path):
        path = tmp_path / "store.jsonl"
        store = ResultStore(path)
        store.put_many([{"spec_hash": "a", "value": 1},
                        {"spec_hash": "b", "value": 2}])
        store.put_many([{"spec_hash": "a", "value": 3},
                        {"spec_hash": "c", "value": 4}])
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 3
        reloaded = ResultStore(path)
        assert reloaded.get("a")["value"] == 3
        assert reloaded.get("c")["value"] == 4

    def test_record_without_hash_rejected(self, tmp_path):
        store = ResultStore(tmp_path / "store.jsonl")
        with pytest.raises(ValueError):
            store.put({"value": 1})

    def test_corrupt_line_reported(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "store.jsonl"
        good = [run_scenario(tiny_scenario(name, generator="uniform"))
                for name in ("a", "b")]
        path.write_text(ResultStore.encode(good[0]) + "\nnot json\n[]\n"
                        + ResultStore.encode(good[1]) + "\n")
        with pytest.warns(RuntimeWarning) as caught:
            store = ResultStore(path)
        assert [r["name"] for r in store.records()] == ["a", "b"]
        assert [line for line, _reason in store.skipped] == [2, 3]
        messages = [str(w.message) for w in caught]
        assert len(messages) == 2
        assert messages[0].startswith(f"{path}:2: ")
        assert messages[1].startswith(f"{path}:3: ")
        assert all("rewrite" in m for m in messages)
        # Every command over the store keeps working.
        with pytest.warns(RuntimeWarning):
            assert main(["report", "--store", str(path)]) == 0
        capsys.readouterr()

    def test_report_skips_store_lines_that_are_not_records(self, tmp_path,
                                                           capsys):
        from repro.cli import main

        path = tmp_path / "store.jsonl"
        path.write_text('{"spec_hash": "a", "name": "x"}\n')
        with pytest.warns(RuntimeWarning, match="skipped store record 'a'"):
            assert main(["report", "--store", str(path)]) == 2
        assert "no records to report" in capsys.readouterr().err
        ResultStore(path).put(run_scenario(tiny_scenario("real",
                                                         generator="uniform")))
        with pytest.warns(RuntimeWarning) as caught:
            assert main(["report", "--store", str(path)]) == 0
        assert [str(w.message) for w in caught] == [
            "skipped store record 'a': not a harness record (no "
            "scenario, total_cycles, edges_stored, energy, "
            "increment_sizes, increment_cycles)"]
        assert "real" in capsys.readouterr().out

    def test_put_on_unchanged_store_does_not_reread(self, tmp_path,
                                                    monkeypatch):
        path = tmp_path / "store.jsonl"
        ResultStore(path).put({"spec_hash": "a", "value": 1})
        store = ResultStore(path)  # loaded from the file
        reads = []
        real_load = ResultStore._load

        def spy(self):
            reads.append(self)
            return real_load(self)

        monkeypatch.setattr(ResultStore, "_load", spy)
        store.put({"spec_hash": "b", "value": 2})
        store.put_many([{"spec_hash": "c", "value": 3}])
        assert reads == []
        # Another handle's rewrite changes the file: the next put reads
        # it once and keeps that handle's record.
        ResultStore(path).put({"spec_hash": "d", "value": 4})
        reads.clear()
        store.put({"spec_hash": "e", "value": 5})
        assert reads == [store]
        assert {r["spec_hash"] for r in ResultStore(path)} == \
            {"a", "b", "c", "d", "e"}

    def test_rewrite_writes_canonical_lines(self, tmp_path):
        path = tmp_path / "store.jsonl"
        path.write_text('{"value": 1,  "spec_hash": "a"}\n')
        ResultStore(path).put({"spec_hash": "b", "value": 2})
        assert path.read_text() == (
            ResultStore.encode({"spec_hash": "a", "value": 1}) + "\n"
            + ResultStore.encode({"spec_hash": "b", "value": 2}) + "\n")

    def test_get_returns_a_copy(self, tmp_path):
        path = tmp_path / "store.jsonl"
        store = ResultStore(path)
        record = {"spec_hash": "a", "stats": {"hops": 3}}
        store.put(record)
        before = path.read_bytes()
        got = store.get("a")
        got["stats"]["hops"] = 99
        got["extra"] = True
        record["stats"]["hops"] = 7
        assert store.get("a") == {"spec_hash": "a", "stats": {"hops": 3}}
        store.put({"spec_hash": "b"})
        assert path.read_bytes().startswith(before)


class TestRunner:
    @requires_numpy
    def test_cache_miss_then_hit(self, tmp_path):
        store = ResultStore(tmp_path / "store.jsonl")
        suite = [tiny_scenario("s1", "ingest"), tiny_scenario("s2", "bfs")]
        first = run_suite(suite, store=store)
        assert (first.cache_hits, first.cache_misses) == (0, 2)
        second = run_suite(suite, store=store)
        assert (second.cache_hits, second.cache_misses) == (2, 0)
        assert second.records == first.records

    @requires_numpy
    def test_force_recomputes_without_duplicates(self, tmp_path):
        path = tmp_path / "store.jsonl"
        store = ResultStore(path)
        suite = [tiny_scenario("s1", "ingest")]
        run_suite(suite, store=store)
        forced = run_suite(suite, store=store, force=True)
        assert (forced.cache_hits, forced.cache_misses) == (0, 1)
        assert len(path.read_text().strip().splitlines()) == 1

    @requires_numpy
    def test_parallel_results_byte_identical_to_serial(self, tmp_path):
        suite = four_scenario_suite()
        serial_store = ResultStore(tmp_path / "serial.jsonl")
        parallel_store = ResultStore(tmp_path / "parallel.jsonl")
        serial = run_suite(suite, jobs=1, store=serial_store)
        parallel = run_suite(four_scenario_suite(), jobs=4, store=parallel_store)
        assert serial.records == parallel.records
        assert (tmp_path / "serial.jsonl").read_bytes() == \
               (tmp_path / "parallel.jsonl").read_bytes()

    @requires_numpy
    def test_record_shape(self):
        record = run_scenario(tiny_scenario("shape", "bfs"))
        assert record["spec_hash"] == tiny_scenario("shape", "bfs").spec_hash()
        assert len(record["increment_cycles"]) == 10
        assert record["total_cycles"] == sum(record["increment_cycles"])
        assert record["edges_stored"] == 256
        assert record["algo_metrics"]["reached"] >= 1
        # Records must stay JSON-serialisable and deterministic.
        assert json.loads(json.dumps(record)) == record

    @requires_numpy
    def test_intra_suite_duplicates_run_once(self, tmp_path):
        store = ResultStore(tmp_path / "store.jsonl")
        twin_a, twin_b = tiny_scenario("twin"), tiny_scenario("twin")
        report = run_suite([twin_a, twin_b], store=store)
        assert len(report.outcomes) == 2
        assert report.cache_misses == 1 and report.cache_hits == 1
        assert report.outcomes[0].record == report.outcomes[1].record


class TestReport:
    @requires_numpy
    def test_table2_pairs_ingest_with_bfs(self):
        suite = [tiny_scenario("pair-ingest", "ingest"),
                 tiny_scenario("pair-bfs", "bfs")]
        report = run_suite(suite)
        rows = table2_rows_from_records(report.records)
        assert len(rows) == 1
        row = rows[0]
        assert row["Ingestion & BFS Energy (uJ)"] > row["Ingestion Energy (uJ)"]
