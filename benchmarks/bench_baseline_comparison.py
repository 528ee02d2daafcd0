"""A3 -- Baseline comparison: incremental message-driven BFS vs alternatives.

Puts the paper's approach next to the two strawmen its introduction argues
against:

* **recompute from scratch** -- same message-driven substrate, but BFS is
  rerun over the whole stored graph after every increment instead of being
  updated incrementally;
* **bulk-synchronous (Pregel-style) execution** -- a warm-started
  vertex-centric BSP engine whose cost estimate charges a global barrier per
  superstep.

The printed table reports per-increment costs; the assertions capture the
qualitative outcome (incremental updating does less work than recomputing).
"""

from conftest import BENCH_SEED, paper_pair

from repro.analysis.tables import render_table
from repro.baselines.bsp import bsp_incremental_bfs
from repro.baselines.static_recompute import static_recompute_bfs
from repro.harness import materialize_dataset, run_suite


def test_incremental_vs_recompute_vs_bsp(benchmark):
    pair = paper_pair("graphchallenge-50k", "edge", BENCH_SEED)
    dataset = materialize_dataset(pair["bfs"].dataset)
    chip = pair["bfs"].chip.to_chip_config()

    def run_all():
        incremental = run_suite(list(pair.values())).records
        recompute = static_recompute_bfs(
            chip, dataset.increments, dataset.num_vertices, root=0, seed=BENCH_SEED
        )
        bsp = bsp_incremental_bfs(
            dataset.num_vertices, dataset.increments, root=0,
            num_workers=chip.num_cells,
        )
        return incremental, recompute, bsp

    incremental, recompute, bsp = benchmark.pedantic(run_all, rounds=1, iterations=1)

    ingest_cycles, with_bfs_cycles = (r["increment_cycles"] for r in incremental)
    rows = []
    for i in range(len(dataset.increments)):
        rows.append({
            "Increment": i + 1,
            "Incremental (ingest+BFS)": with_bfs_cycles[i],
            "Incremental BFS overhead": max(0, with_bfs_cycles[i] - ingest_cycles[i]),
            "Recompute-from-scratch BFS": recompute.recompute_cycles[i],
            "BSP estimate": bsp[i].estimated_cycles,
            "BSP supersteps": bsp[i].supersteps,
        })
    print()
    print(render_table(rows))

    incremental_overhead = sum(with_bfs_cycles) - sum(ingest_cycles)
    total_recompute = sum(recompute.recompute_cycles)
    print(
        f"\nincremental BFS overhead {incremental_overhead} cycles vs "
        f"recompute-from-scratch {total_recompute} cycles "
        f"({total_recompute / max(1, incremental_overhead):.1f}x)"
    )
    # Who wins: updating incrementally does less BFS work than recomputing
    # the BFS from scratch after every increment.
    assert total_recompute > incremental_overhead
    # The BSP engine needs many supersteps (each with a global barrier),
    # reflecting the coarse-grain synchronization the paper argues against.
    assert all(r.supersteps >= 1 for r in bsp)
