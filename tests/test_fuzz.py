"""Self-tests for the repro.fuzz subsystem.

Three families, mirroring the subsystem's three jobs:

* **strategies** — generated scenarios are always valid, respect the
  harness's cross-field constraints, and serialise round-trip;
* **oracle/campaign** — a green scenario reports one outcome per
  invariant; an injected perturbation (``REPRO_FUZZ_INJECT``, see
  :mod:`repro.snapshot.restore`) is caught, shrunk to the strategy floor
  and persisted as a corpus entry; crashes become failures, not aborts;
* **fingerprint** — each regime rule is reachable.
"""

from __future__ import annotations

import copy
import json

import pytest
from hypothesis import given, settings

from helpers import HYPOTHESIS_SUPPRESS
from repro.fuzz import (
    INVARIANTS,
    REGIMES,
    check_invariants,
    classify,
    first_divergence,
)
from repro.algorithms.registry import (
    algorithm_names,
    query_algorithm_names,
    symmetric_algorithm_names,
)
from repro.fuzz.campaign import FUZZ_PROFILES, run_campaign
from repro.fuzz.fingerprint import STORM_THRESHOLD
from repro.fuzz.oracle import _check_conservation
from repro.fuzz.strategies import scenarios
from repro.harness.runner import run_scenario
from repro.harness.scenario import (
    ChipSpec,
    DatasetSpec,
    RunOptions,
    Scenario,
)

#: A tiny fixed scenario with capturable boundaries: every oracle path
#: (snapshots, shards, traces) is exercised in well under a second.
FIXED = Scenario(
    name="fuzz-self",
    dataset=DatasetSpec(vertices=12, edges=24, sampling="edge",
                        num_increments=2, seed=3, generator="uniform"),
    chip=ChipSpec(side=2, edge_list_capacity=2),
    algorithm="ingest",
    options=RunOptions(snapshot_every=1),
)

TINY = settings(max_examples=15, deadline=None,
                suppress_health_check=HYPOTHESIS_SUPPRESS)


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
@TINY
@given(scenario=scenarios())
def test_strategy_generates_valid_scenarios(scenario):
    assert isinstance(scenario, Scenario)
    assert 0 <= scenario.options.root < scenario.dataset.vertices
    if scenario.algorithm in symmetric_algorithm_names():
        assert scenario.dataset.symmetric
    if scenario.algorithm in query_algorithm_names():
        assert scenario.options.max_cycles_per_increment is None
    # The spec serialises, hashes, and round-trips through from_dict.
    rebuilt = Scenario.from_dict(json.loads(
        json.dumps(scenario.spec_dict())))
    assert rebuilt.spec_hash() == scenario.spec_hash()


@TINY
@given(scenario=scenarios(numpy_ok=False))
def test_strategy_numpy_free_space(scenario):
    assert scenario.dataset.generator == "uniform"


def test_strategy_covers_newly_registered_algorithms():
    # The algorithm axis is drawn from the registry, so drop-in workloads
    # (kcore, labelprop) are fuzzed without touching the strategy module.
    from hypothesis import find

    assert {"kcore", "labelprop"} <= set(algorithm_names())
    for name in ("kcore", "labelprop"):
        found = find(scenarios(numpy_ok=False),
                     lambda s, name=name: s.algorithm == name,
                     settings=settings(max_examples=2000, deadline=None,
                                       suppress_health_check=HYPOTHESIS_SUPPRESS))
        assert found.algorithm == name
        assert found.dataset.symmetric  # capability-forced axis
        assert found.options.max_cycles_per_increment is None


# ----------------------------------------------------------------------
# Oracle + campaign
# ----------------------------------------------------------------------
def test_oracle_green_on_fixed_scenario():
    report = check_invariants(FIXED)
    assert [o.invariant for o in report.outcomes] == list(INVARIANTS)
    assert report.ok, [f"{o.invariant}: {o.detail}" for o in report.failures]
    assert report.classification["regime"] in REGIMES
    assert report.fingerprint["cycles"] > 0


def test_oracle_catches_injected_perturbation(monkeypatch):
    monkeypatch.setenv("REPRO_FUZZ_INJECT", "restore-stats")
    report = check_invariants(FIXED)
    assert not report.ok
    assert "snapshot_roundtrip" in {o.invariant for o in report.failures}


def test_conservation_catches_a_lost_delivery():
    record = run_scenario(FIXED)
    assert _check_conservation(FIXED, record).status == "ok"
    lost = copy.deepcopy(record)
    lost["stats"]["messages_delivered"] -= 1
    outcome = _check_conservation(FIXED, lost)
    assert outcome.status == "fail"
    assert "messages_injected == messages_delivered" in outcome.detail


def test_conservation_bounds_a_truncated_run():
    truncated = FIXED.with_(options=RunOptions(max_cycles_per_increment=20))
    record = run_scenario(truncated)
    stats = record["stats"]
    assert stats["hops_untraversed"] > 0  # messages were left in flight
    assert _check_conservation(truncated, record).status == "ok"
    overdrawn = copy.deepcopy(record)
    overdrawn["stats"]["hops_untraversed"] = stats["hops"] + 1
    assert _check_conservation(truncated, overdrawn).status == "fail"


def test_oracle_reports_crash_as_failure(monkeypatch):
    monkeypatch.setenv("REPRO_FUZZ_INJECT", "no-such-mode")
    report = check_invariants(FIXED)
    assert not report.ok
    assert any("crashed" in o.detail for o in report.failures)


def test_campaign_green_and_coverage_complete(tmp_path):
    result = run_campaign(profile="ci", max_examples=4, seed=0,
                          corpus_dir=str(tmp_path))
    assert result.ok
    assert result.examples == 4
    assert result.coverage_complete()
    assert not list(tmp_path.iterdir())  # no corpus entry when green


def test_campaign_catches_shrinks_and_persists(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_FUZZ_INJECT", "restore-stats")
    result = run_campaign(profile="ci", max_examples=10, seed=2,
                          corpus_dir=str(tmp_path))
    assert not result.ok
    spec = result.failure["scenario"]
    # hypothesis shrank to the floor of the strategy space: the smallest
    # graph on the smallest chip with the fewest increments.
    assert spec["dataset"]["vertices"] == 8
    assert spec["dataset"]["edges"] == 8
    assert spec["dataset"]["num_increments"] == 2
    assert spec["chip"]["side"] == 2
    # ...and the minimal spec was persisted, corpus-ready.
    assert result.corpus_file is not None
    with open(result.corpus_file, encoding="utf-8") as fh:
        entry = json.load(fh)
    assert entry["scenario"] == spec
    assert entry["failed"]
    assert entry["found_by"]["seed"] == 2


def test_campaign_rejects_unknown_profile():
    with pytest.raises(ValueError):
        run_campaign(profile="nope")
    assert set(FUZZ_PROFILES) == {"ci", "deep"}


# ----------------------------------------------------------------------
# Fingerprint + classification
# ----------------------------------------------------------------------
def _fp(**overrides):
    base = {"peak_in_flight": 0, "storm_threshold": STORM_THRESHOLD,
            "idle_fraction": 0.0, "mean_activation": 0.10}
    base.update(overrides)
    return base


def test_classify_reaches_every_regime():
    assert classify(_fp(peak_in_flight=800))["regime"] == "storm"
    assert classify(_fp(idle_fraction=0.9,
                        mean_activation=0.01))["regime"] == "parked"
    assert classify(_fp(mean_activation=0.40))["regime"] == "dense-diffusion"
    assert classify(_fp())["regime"] == "sparse-diffusion"
    # A classification is the regime label alone (version 2).
    assert classify(_fp()) == {"version": 2, "regime": "sparse-diffusion",
                               "storm_headroom": 0.0}
    assert STORM_THRESHOLD == 768
    assert classify(_fp(peak_in_flight=STORM_THRESHOLD))["regime"] == "storm"
    assert classify(_fp(peak_in_flight=STORM_THRESHOLD - 1))["regime"] \
        == "sparse-diffusion"


def test_first_divergence_reports_deepest_first_path():
    a = {"x": [1, {"y": 2}], "z": 3}
    assert first_divergence(a, {"x": [1, {"y": 2}], "z": 3}) is None
    assert first_divergence(a, {"x": [1, {"y": 9}], "z": 3}) \
        == "record.x[1].y: 2 != 9"
    assert first_divergence(a, {"x": [1], "z": 3}) == "record.x: length 2 != 1"
    assert first_divergence(a, {"z": 3}) == "record.x: missing on right"


def test_fuzz_package_imports_without_hypothesis_backed_names():
    # The eager surface (oracle + fingerprint) must stay stdlib-importable;
    # hypothesis-backed names resolve lazily.
    import repro.fuzz as fuzz

    assert fuzz.check_invariants is check_invariants
    assert callable(fuzz.run_campaign)
    with pytest.raises(AttributeError):
        fuzz.does_not_exist
