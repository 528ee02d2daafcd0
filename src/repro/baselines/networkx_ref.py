"""NetworkX-based correctness oracles.

The paper states: "We verify the results for correctness against known
results found using NetworkX."  This module provides the same oracle for our
reproduction: build a NetworkX graph from any edge list (or any prefix of a
streaming dataset) and compute reference answers for every implemented
algorithm.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, List, Optional

from repro.datasets.streaming import StreamingDataset
from repro.graph.rpvo import Edge

if TYPE_CHECKING:  # pragma: no cover
    import networkx as nx


def build_networkx(edges: Iterable[Edge], num_vertices: Optional[int] = None,
                   directed: bool = True) -> "nx.DiGraph | nx.Graph":
    """Build a NetworkX graph from an edge list (all vertices included).

    NetworkX (Di)Graphs are simple graphs, so parallel edges collapse; the
    minimum weight is kept, which matches what a shortest-path relaxation
    over the full multigraph would use and keeps the oracle comparable to the
    chip, which stores every parallel edge.
    """
    import networkx as nx

    g: nx.DiGraph | nx.Graph = nx.DiGraph() if directed else nx.Graph()
    if num_vertices is not None:
        g.add_nodes_from(range(num_vertices))
    for edge in edges:
        if g.has_edge(edge.src, edge.dst):
            existing = g[edge.src][edge.dst].get("weight", edge.weight)
            if edge.weight < existing:
                g[edge.src][edge.dst]["weight"] = edge.weight
        else:
            g.add_edge(edge.src, edge.dst, weight=edge.weight)
    return g


class IncrementalOracle:
    """Reference results for every prefix of a streaming dataset.

    After increment ``k`` the oracle answers questions about the graph made
    of increments ``1..k`` -- exactly the state the chip should have reached
    when increment ``k``'s diffusion terminates.
    """

    def __init__(self, dataset: StreamingDataset, directed: bool = True) -> None:
        self.dataset = dataset
        self.directed = directed
        self._graph = build_networkx([], dataset.num_vertices, directed=directed)
        self._applied = 0

    # ------------------------------------------------------------------
    @property
    def increments_applied(self) -> int:
        return self._applied

    @property
    def graph(self) -> "nx.DiGraph | nx.Graph":
        """The NetworkX graph of all increments applied so far."""
        return self._graph

    def apply_increment(self, index: Optional[int] = None) -> "nx.DiGraph | nx.Graph":
        """Apply the next increment (or a specific one) to the oracle graph."""
        if index is None:
            index = self._applied
        for edge in self.dataset.increments[index]:
            self._graph.add_edge(edge.src, edge.dst, weight=edge.weight)
        self._applied = index + 1
        return self._graph

    def graph_after(self, k: int) -> "nx.DiGraph | nx.Graph":
        """A fresh graph containing increments ``1..k`` only."""
        return build_networkx(
            self.dataset.prefix_edges(k), self.dataset.num_vertices, directed=self.directed
        )

    # ------------------------------------------------------------------
    # Reference answers
    # ------------------------------------------------------------------
    def bfs_levels(self, root: int) -> Dict[int, int]:
        """Shortest-path (hop) levels from ``root`` on the current prefix."""
        import networkx as nx

        if root not in self._graph:
            return {}
        return dict(nx.single_source_shortest_path_length(self._graph, root))

    def sssp_distances(self, root: int) -> Dict[int, int]:
        """Weighted distances from ``root`` on the current prefix."""
        import networkx as nx

        if root not in self._graph:
            return {}
        lengths = nx.single_source_dijkstra_path_length(self._graph, root, weight="weight")
        return {v: int(d) for v, d in lengths.items()}

    def component_labels(self) -> Dict[int, int]:
        """Min-vertex-id component labels on the undirected view."""
        import networkx as nx

        undirected = self._graph.to_undirected() if self._graph.is_directed() else self._graph
        labels: Dict[int, int] = {}
        for component in nx.connected_components(undirected):
            smallest = min(component)
            for vid in component:
                labels[vid] = smallest
        return labels

    def triangle_count(self) -> int:
        """Total triangles of the undirected simple view."""
        import networkx as nx

        undirected = nx.Graph(self._graph.to_undirected() if self._graph.is_directed() else self._graph)
        undirected.remove_edges_from(nx.selfloop_edges(undirected))
        return sum(nx.triangles(undirected).values()) // 3


def reachable_counts_per_increment(dataset: StreamingDataset, root: int) -> List[int]:
    """How many vertices are reachable from ``root`` after each increment."""
    oracle = IncrementalOracle(dataset)
    out: List[int] = []
    for k in range(dataset.num_increments):
        oracle.apply_increment(k)
        out.append(len(oracle.bfs_levels(root)))
    return out
