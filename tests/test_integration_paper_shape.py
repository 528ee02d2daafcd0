"""Integration tests asserting the qualitative shapes the paper reports.

These do not check absolute numbers (our substrate is a scaled-down Python
simulator) but the trends that make the paper's figures and tables what they
are:

* edge-sampling increments take roughly similar time; snowball increments
  grow (Figures 8 and 9),
* ingestion+BFS costs more cycles and energy than ingestion alone (Table 2),
* the chip shows substantial parallel activity during streaming (Figures 6
  and 7),
* the vicinity allocator keeps ghosts closer than the random allocator
  (Figure 5), and incremental BFS beats recompute-from-scratch.
"""

import pytest

from repro.arch.config import ChipConfig
from repro.baselines.static_recompute import static_recompute_bfs
from repro.graph.graph import DynamicGraph
from repro.graph.rpvo import Edge
from repro.harness import ChipSpec, DatasetSpec, materialize_dataset, run_scenario
from repro.runtime.device import AMCCADevice

from helpers import run_paper_pair, shape_scenario

np = pytest.importorskip("numpy")  # these tests exercise numpy-backed features

CHIP = ChipSpec(side=8, edge_list_capacity=8)


@pytest.fixture(scope="module")
def edge_pair():
    dataset = DatasetSpec(vertices=200, edges=2000, sampling="edge", num_increments=5, seed=21)
    return run_paper_pair("edge", dataset, CHIP)


@pytest.fixture(scope="module")
def snowball_pair():
    dataset = DatasetSpec(vertices=400, edges=4000, sampling="snowball", num_increments=5,
                          seed=21)
    return run_paper_pair("snowball", dataset, CHIP)


class TestFigure8and9Shapes:
    def test_edge_sampling_ingestion_is_roughly_flat(self, edge_pair):
        records, _ = edge_pair
        cycles = np.array(records["ingest"]["increment_cycles"], dtype=float)
        assert cycles.max() <= 2.5 * cycles.min()

    def test_snowball_ingestion_grows(self, snowball_pair):
        # The first increment is dominated by the one-off cold-start ghost
        # allocation storm (every overflowing vertex allocates its first
        # ghost block), so the snowball growth signal — cycles tracking the
        # growing increment sizes — is asserted over the warm increments.
        records, _ = snowball_pair
        cycles = records["ingest"]["increment_cycles"][1:]
        assert np.mean(cycles[-2:]) > np.mean(cycles[:2])

    def test_bfs_curve_dominates_ingestion_curve(self, edge_pair, snowball_pair):
        for records, _ in (edge_pair, snowball_pair):
            ingest = records["ingest"]["increment_cycles"]
            bfs = records["bfs"]["increment_cycles"]
            assert sum(bfs) > sum(ingest)


class TestTable2Shape:
    def test_bfs_energy_and_time_exceed_ingestion(self, edge_pair):
        records, _ = edge_pair
        ingest = records["ingest"]["energy"]
        bfs = records["bfs"]["energy"]
        assert bfs["total_uj"] > ingest["total_uj"]
        assert bfs["time_us"] >= ingest["time_us"]

    def test_energy_scales_with_dataset_size(self):
        def ingest_energy(vertices, edges):
            dataset = DatasetSpec(vertices=vertices, edges=edges, sampling="edge",
                                  num_increments=3, seed=2)
            record = run_scenario(shape_scenario("scale", dataset, CHIP, "ingest"))
            return record["energy"]["total_uj"]

        e_small = ingest_energy(100, 800)
        e_large = ingest_energy(400, 3200)
        assert e_large > 2.5 * e_small


class TestFigure6and7Shapes:
    def test_chip_reaches_substantial_parallel_activity(self, edge_pair):
        _, activation = edge_pair
        assert activation["bfs"].max() > 30.0

    def test_activation_eventually_drains_to_zero(self, edge_pair):
        _, activation = edge_pair
        assert activation["bfs"][-1] <= 10.0


class TestFigure5AllocatorContrast:
    def _ghost_report(self, allocator: str):
        device = AMCCADevice(ChipConfig(width=8, height=8, edge_list_capacity=2))
        graph = DynamicGraph(device, 16, seed=5, ghost_allocator=allocator)
        # A single hub overflows repeatedly so many ghosts get allocated.
        edges = [Edge(0, 1 + (i % 15)) for i in range(120)]
        graph.stream_increment(edges)
        assert graph.degree(0) == 120
        return graph.ghost_report()

    def test_vicinity_keeps_ghosts_closer_than_random(self):
        vicinity = self._ghost_report("vicinity")
        random_ = self._ghost_report("random")
        assert vicinity["ghost_blocks"] > 0 and random_["ghost_blocks"] > 0
        assert vicinity["mean_ghost_distance"] <= 2.0
        assert random_["mean_ghost_distance"] > vicinity["mean_ghost_distance"]


class TestIncrementalVersusRecompute:
    def test_incremental_bfs_cheaper_than_recompute_at_the_end(self):
        spec = DatasetSpec(vertices=150, edges=1500, sampling="edge",
                           num_increments=5, seed=9)
        records, _ = run_paper_pair("recompute", spec, CHIP)
        incremental_bfs_cost = (
            records["bfs"]["total_cycles"] - records["ingest"]["total_cycles"]
        )
        dataset = materialize_dataset(spec)
        recompute = static_recompute_bfs(
            CHIP.to_chip_config(), dataset.increments, dataset.num_vertices, root=0, seed=1
        )
        # Recomputing from scratch every increment costs more than the total
        # incremental BFS overhead across the stream.
        assert sum(recompute.recompute_cycles) > incremental_bfs_cost
