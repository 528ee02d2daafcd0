"""A2 -- Ablation: cycle-accurate vs latency-only NoC fidelity.

docs/architecture.md documents a fidelity knob: the default hop-by-hop NoC
with link contention, and a faster contention-free model that delivers after
the Manhattan delay.  This ablation quantifies the gap so users know what they
give up when they pick the fast mode for very large inputs.
"""

from dataclasses import replace

import pytest

from conftest import BENCH_SEED, paper_pair

from repro.analysis.tables import render_table
from repro.harness import run_scenario


def _scenario(fidelity):
    scenario = paper_pair("graphchallenge-50k", "snowball", BENCH_SEED)["bfs"]
    return scenario.with_(chip=replace(scenario.chip, fidelity=fidelity))


@pytest.mark.parametrize("fidelity", ["cycle", "latency"])
def test_fidelity_ablation(benchmark, fidelity):
    scenario = _scenario(fidelity)
    record = benchmark.pedantic(
        lambda: run_scenario(scenario),
        rounds=1,
        iterations=1,
    )
    print()
    print(render_table([{
        "fidelity": fidelity,
        "total cycles": record["total_cycles"],
        "hops": record["stats"]["hops"],
        "BFS reached": record["algo_metrics"]["reached"],
    }]))
    assert record["edges_stored"] == sum(record["increment_sizes"])


def test_latency_mode_is_an_optimistic_bound(benchmark):
    def run_both():
        return {
            fidelity: run_scenario(_scenario(fidelity))
            for fidelity in ("cycle", "latency")
        }

    results = benchmark.pedantic(run_both, rounds=1, iterations=1)
    cycle, latency = results["cycle"], results["latency"]
    # Identical algorithmic results and identical edges stored...
    assert cycle["algo_metrics"]["reached"] == latency["algo_metrics"]["reached"]
    assert cycle["edges_stored"] == latency["edges_stored"]
    # ...and the two fidelity levels agree on the overall cost to within a
    # modest band.  (Per-message delivery in latency mode is a lower bound,
    # but total cycles can shift slightly either way because the different
    # message interleavings change how much speculative BFS work is done.)
    ratio = latency["total_cycles"] / max(1, cycle["total_cycles"])
    print(f"\nlatency/cycle total-cycle ratio: {ratio:.2f} "
          f"({latency['total_cycles']} vs {cycle['total_cycles']} cycles)")
    assert 0.5 <= ratio <= 1.25
