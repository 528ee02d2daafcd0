"""A2 -- Ablation: cycle-accurate vs latency-only NoC fidelity.

docs/architecture.md documents a fidelity knob: the default hop-by-hop NoC
with link contention, and a faster contention-free model that delivers after
the Manhattan delay.  This ablation quantifies the gap so users know what they
give up when they pick the fast mode for very large inputs.
"""

import pytest

from conftest import BENCH_SEED, CHIP_50K, dataset_50k

from repro.analysis.experiments import run_streaming_experiment
from repro.analysis.tables import render_table


@pytest.mark.parametrize("fidelity", ["cycle", "latency"])
def test_fidelity_ablation(benchmark, fidelity):
    dataset = dataset_50k("snowball")
    chip = CHIP_50K.with_(fidelity=fidelity)
    result = benchmark.pedantic(
        lambda: run_streaming_experiment(dataset, chip=chip, with_bfs=True, seed=BENCH_SEED),
        rounds=1,
        iterations=1,
    )
    print()
    print(render_table([{
        "fidelity": fidelity,
        "total cycles": result.total_cycles,
        "hops": result.summary["hops"],
        "BFS reached": result.bfs_reached,
    }]))
    assert result.edges_stored == dataset.total_edges


def test_latency_mode_is_an_optimistic_bound(benchmark):
    dataset = dataset_50k("snowball")

    def run_both():
        return {
            fidelity: run_streaming_experiment(
                dataset, chip=CHIP_50K.with_(fidelity=fidelity), with_bfs=True,
                seed=BENCH_SEED,
            )
            for fidelity in ("cycle", "latency")
        }

    results = benchmark.pedantic(run_both, rounds=1, iterations=1)
    cycle, latency = results["cycle"], results["latency"]
    # Identical algorithmic results and identical edges stored...
    assert cycle.bfs_reached == latency.bfs_reached
    assert cycle.edges_stored == latency.edges_stored
    # ...and the two fidelity levels agree on the overall cost to within a
    # modest band.  (Per-message delivery in latency mode is a lower bound,
    # but total cycles can shift slightly either way because the different
    # message interleavings change how much speculative BFS work is done.)
    ratio = latency.total_cycles / max(1, cycle.total_cycles)
    print(f"\nlatency/cycle total-cycle ratio: {ratio:.2f} "
          f"({latency.total_cycles} vs {cycle.total_cycles} cycles)")
    assert 0.5 <= ratio <= 1.25
