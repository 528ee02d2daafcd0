"""E7 -- Figure 5 ablation: Vicinity Allocator vs Random Allocator.

The paper contrasts allocating ghost vertices within two hops of the
originating compute cell (Vicinity Allocator, Figure 5a) against scattering
them uniformly over the chip (Random Allocator, Figure 5b).  This benchmark
streams a skewed (R-MAT) graph -- whose hub vertices overflow into long
ghost chains -- under both policies and reports cycles, mean ghost distance
and energy.
"""

from dataclasses import replace

import pytest

from conftest import BENCH_SCALE, BENCH_SEED, paper_pair

from repro.analysis.tables import render_table
from repro.harness import DatasetSpec, RunOptions, Scenario, run_scenario


def _scenario(allocator: str) -> Scenario:
    # R-MAT scale (log2 of vertex count): skewed enough to force long ghost
    # chains on hub vertices, small enough to finish in seconds below paper scale.
    vertices = 1 << (16 if BENCH_SCALE == "paper" else 10)
    chip = paper_pair("graphchallenge-50k", "edge", BENCH_SEED)["bfs"].chip
    return Scenario(
        name=f"ablation-allocator-{allocator}",
        dataset=DatasetSpec(vertices=vertices, edges=12 * vertices, sampling="edge",
                            num_increments=5, seed=BENCH_SEED, generator="rmat"),
        chip=replace(chip, edge_list_capacity=8),
        algorithm="bfs",
        options=RunOptions(ghost_allocator=allocator, graph_seed=BENCH_SEED),
    )


def _run(allocator: str):
    record = run_scenario(_scenario(allocator))
    return {
        "allocator": allocator,
        "cycles": record["total_cycles"],
        "ghosts": record["ghost_blocks"],
        "mean_ghost_distance": record["ghost_distance"],
        "hops": record["stats"]["hops"],
        "energy_uj": record["energy"]["total_uj"],
        "edges": record["edges_stored"],
    }


@pytest.mark.parametrize("allocator", ["vicinity", "random"])
def test_allocator_ablation(benchmark, allocator):
    result = benchmark.pedantic(lambda: _run(allocator), rounds=1, iterations=1)
    print()
    print(render_table([{k.replace("_", " "): v if not isinstance(v, float) else round(v, 2)
                         for k, v in result.items()}]))
    assert result["ghosts"] > 0
    if allocator == "vicinity":
        # The defining property: ghosts stay within the 2-hop vicinity.
        assert result["mean_ghost_distance"] <= 2.0


def test_vicinity_beats_random_on_intra_vertex_locality(benchmark):
    """Direct head-to-head: vicinity allocation keeps ghosts closer and does
    not need more NoC hops than random allocation."""
    results = benchmark.pedantic(
        lambda: {name: _run(name) for name in ("vicinity", "random")},
        rounds=1, iterations=1,
    )
    print()
    print(render_table([
        {"allocator": r["allocator"],
         "mean ghost distance": round(r["mean_ghost_distance"], 2),
         "total hops": r["hops"],
         "cycles": r["cycles"],
         "energy (uJ)": round(r["energy_uj"], 1)}
        for r in results.values()
    ]))
    vicinity, random_ = results["vicinity"], results["random"]
    assert vicinity["edges"] == random_["edges"]
    assert vicinity["mean_ghost_distance"] < random_["mean_ghost_distance"]
