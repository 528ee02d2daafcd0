"""A1 -- Ablation: YX vs XY dimension-ordered routing.

The paper fixes YX routing (vertical first).  This ablation checks that the
choice does not change results and quantifies how much the cycle counts move
when the dimension order is flipped -- a sanity check that the reproduction's
conclusions do not hinge on the routing policy.
"""

from dataclasses import replace

import pytest

from conftest import BENCH_SEED, paper_pair

from repro.analysis.tables import render_table
from repro.harness import run_scenario


def _scenario(routing):
    scenario = paper_pair("graphchallenge-50k", "edge", BENCH_SEED)["bfs"]
    return scenario.with_(chip=replace(scenario.chip, routing=routing))


@pytest.mark.parametrize("routing", ["yx", "xy"])
def test_routing_ablation(benchmark, routing):
    scenario = _scenario(routing)
    record = benchmark.pedantic(
        lambda: run_scenario(scenario),
        rounds=1,
        iterations=1,
    )
    print()
    print(render_table([{
        "routing": routing,
        "total cycles": record["total_cycles"],
        "hops": record["stats"]["hops"],
        "BFS reached": record["algo_metrics"]["reached"],
        "energy (uJ)": round(record["energy"]["total_uj"], 1),
    }]))
    assert record["edges_stored"] == sum(record["increment_sizes"])
    assert record["algo_metrics"]["reached"] > 0


def test_routing_policies_agree_on_results_and_minimal_hops(benchmark):
    def run_both():
        return {
            routing: run_scenario(_scenario(routing))
            for routing in ("yx", "xy")
        }

    results = benchmark.pedantic(run_both, rounds=1, iterations=1)
    yx, xy = results["yx"], results["xy"]
    # Same work is done regardless of dimension order...
    assert yx["algo_metrics"]["reached"] == xy["algo_metrics"]["reached"]
    assert yx["edges_stored"] == xy["edges_stored"]
    # ...and both are minimal, so the per-message hop counts are identical;
    # total hops differ only through the (timing-dependent) number of stale
    # BFS messages, which stays within a few percent.
    assert abs(yx["stats"]["hops"] - xy["stats"]["hops"]) <= 0.05 * xy["stats"]["hops"]
