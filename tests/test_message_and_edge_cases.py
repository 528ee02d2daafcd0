"""Edge-case tests: messages, disconnected snowball discovery, multi-run devices."""


from repro.arch.address import Address
from repro.arch.config import ChipConfig
from repro.arch.message import Message
from repro.algorithms.bfs import StreamingBFS
from repro.datasets.sampling import _discovery_order, snowball_sampling_increments
from repro.graph.graph import DynamicGraph
from repro.graph.rpvo import Edge
from repro.runtime.device import AMCCADevice

from helpers import build_bfs_graph


class TestMessage:
    def test_flit_count_rounds_up(self):
        msg = Message(src=0, dst=1, action="a", size_words=9)
        assert msg.flits(4) == 3
        assert msg.flits(0) == 1  # degenerate flit width treated as one flit
        assert Message(src=0, dst=1, action="a", size_words=1).flits(8) == 1


class TestSnowballDiscovery:
    def test_disconnected_vertices_appended_last(self):
        edges = [Edge(0, 1), Edge(1, 2)]
        order = _discovery_order(edges, num_vertices=6, seed_vertex=0)
        assert order[:3] == [0, 1, 2]
        assert sorted(order[3:]) == [3, 4, 5]
        assert len(order) == 6

    def test_seed_vertex_is_first(self):
        edges = [Edge(2, 3), Edge(3, 4)]
        order = _discovery_order(edges, num_vertices=5, seed_vertex=2)
        assert order[0] == 2

    def test_snowball_on_disconnected_graph_keeps_all_edges(self):
        edges = [Edge(0, 1), Edge(2, 3), Edge(4, 5)]
        increments = snowball_sampling_increments(edges, 6, num_increments=3, seed=1)
        assert sum(len(c) for c in increments) == 3


class TestMultiRunDevice:
    def test_two_graphs_can_share_one_device(self):
        """Two independent vertex sets on the same chip do not interfere."""
        device = AMCCADevice(ChipConfig.small(edge_list_capacity=4))
        graph_a = DynamicGraph(device, 10, seed=1)
        bfs_a = StreamingBFS(root=0)
        graph_a.attach(bfs_a)
        bfs_a.seed(graph_a, root=0)
        graph_a.stream_increment([Edge(0, 1), Edge(1, 2)])

        graph_b = DynamicGraph(device, 5, seed=2)
        graph_b.stream_increment([Edge(3, 4)])

        assert bfs_a.results(graph_a) == {0: 0, 1: 1, 2: 2}
        assert graph_b.degree(3) == 1
        assert graph_a.degree(0) == 1

    def test_streaming_after_query_algorithm(self):
        """Ingestion keeps working after a query diffusion ran on the device."""
        from repro.algorithms.triangles import TriangleCounting
        from repro.datasets.sbm import symmetrize

        device = AMCCADevice(ChipConfig.small(edge_list_capacity=6))
        graph = DynamicGraph(device, 12, seed=4)
        tc = TriangleCounting()
        graph.attach(tc)
        first = symmetrize([Edge(0, 1), Edge(1, 2), Edge(0, 2)])
        graph.stream_increment(first)
        tc.run(graph)
        assert tc.results(graph)["total"] == 1

        second = symmetrize([Edge(2, 3), Edge(3, 0)])
        graph.stream_increment(second)
        tc2 = TriangleCounting()
        # Re-running the query over the grown graph counts the new triangle too.
        graph.attach(tc2)
        for vid in range(12):
            graph.root_block(vid).state["triangles"] = 0
        tc2.run(graph)
        assert tc2.results(graph)["total"] == 2

    def test_empty_increment_is_a_noop(self, small_chip):
        _, graph, bfs = build_bfs_graph(small_chip, 10, root=0)
        result = graph.stream_increment([])
        assert result.extra["edges"] == 0
        assert graph.total_edges_stored() == 0

    def test_self_edge_roundtrip(self, small_chip):
        """A self loop is stored and does not break BFS termination."""
        _, graph, bfs = build_bfs_graph(small_chip, 5, root=0)
        graph.stream_increment([Edge(0, 0), Edge(0, 1)])
        assert graph.degree(0) == 2
        assert bfs.results(graph)[1] == 1

    def test_large_operand_messages_still_delivered(self, small_chip):
        """Multi-flit messages (oversized payloads) arrive intact."""
        device = AMCCADevice(small_chip)
        payloads = []
        device.register_action(
            "bulk", lambda ctx, obj, data: payloads.append(data), size_words=64
        )
        device.send("bulk", Address(30, -1), tuple(range(50)))
        device.run(max_cycles=500)
        assert payloads == [tuple(range(50))]
