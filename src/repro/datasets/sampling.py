"""Streaming orders: edge sampling and snowball sampling.

The GraphChallenge streaming datasets deliver the same underlying graph in
ten increments under two orders (paper Table 1):

* **edge sampling** -- "edges are inserted as if they were formed or observed
  in the real world": a random permutation split into equal increments, so
  every increment carries roughly the same number of edges;
* **snowball sampling** -- "edges are inserted as they are discovered from a
  starting point": vertices are discovered outward (breadth-first) from a
  seed, and an edge becomes available once both its endpoints are
  discovered.  Because later discovery waves contain more vertices (and
  those vertices connect back into the already-discovered core), increment
  sizes grow monotonically -- the shape visible in Table 1.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from collections import deque
from typing import List, Optional, Sequence

from repro.graph.rpvo import Edge


def split_even(items: Sequence, parts: int) -> List[List]:
    """Split a sequence into ``parts`` contiguous chunks of near-equal size."""
    if parts < 1:
        raise ValueError("parts must be >= 1")
    n = len(items)
    out: List[List] = []
    start = 0
    for i in range(parts):
        end = round((i + 1) * n / parts)
        out.append(list(items[start:end]))
        start = end
    return out


def edge_sampling_increments(
    edges: Sequence[Edge],
    num_increments: int = 10,
    seed: Optional[int] = None,
) -> List[List[Edge]]:
    """Random-order streaming: a shuffled split into equal increments."""
    rng = random.Random(seed)
    shuffled = list(edges)
    rng.shuffle(shuffled)
    return split_even(shuffled, num_increments)


def _discovery_order(edges: Sequence[Edge], num_vertices: int,
                     seed_vertex: int) -> List[int]:
    """Breadth-first vertex discovery order over the undirected view.

    Vertices unreachable from the seed are appended afterwards in increasing
    id order (they are "discovered" last, as a snowball crawl restarted on
    leftovers would find them).
    """
    adjacency: List[List[int]] = [[] for _ in range(num_vertices)]
    for edge in edges:
        src, dst = edge.src, edge.dst
        adjacency[src].append(dst)
        adjacency[dst].append(src)

    order: List[int] = []
    discovered = [False] * num_vertices
    queue: deque[int] = deque([seed_vertex])
    discovered[seed_vertex] = True
    while queue:
        vid = queue.popleft()
        order.append(vid)
        for nxt in adjacency[vid]:
            if not discovered[nxt]:
                discovered[nxt] = True
                queue.append(nxt)
    for vid in range(num_vertices):
        if not discovered[vid]:
            order.append(vid)
    return order


def snowball_sampling_increments(
    edges: Sequence[Edge],
    num_vertices: int,
    num_increments: int = 10,
    seed_vertex: int = 0,
    seed: Optional[int] = None,
) -> List[List[Edge]]:
    """Discovery-order streaming with monotonically growing increments.

    An edge is released in the increment during which its *later-discovered*
    endpoint is discovered; increments correspond to equal-sized slices of
    the vertex discovery order.  Ties inside an increment are shuffled so the
    stream is not artificially sorted.
    """
    rng = random.Random(seed)
    discovery_index = [0] * num_vertices
    for i, vid in enumerate(_discovery_order(edges, num_vertices, seed_vertex)):
        discovery_index[vid] = i

    # Boundaries of the vertex-discovery slices, one per increment: an edge
    # goes to the first slice whose boundary lies above its release index.
    boundaries = [round((i + 1) * num_vertices / num_increments) for i in range(num_increments)]

    increments: List[List[Edge]] = [[] for _ in range(num_increments)]
    for edge in edges:
        release = max(discovery_index[edge.src], discovery_index[edge.dst])
        increments[bisect_right(boundaries, release)].append(edge)
    for chunk in increments:
        rng.shuffle(chunk)
    return increments


def increment_sizes(increments: Sequence[Sequence[Edge]]) -> List[int]:
    """Edge counts of each increment (the rows of the paper's Table 1)."""
    return [len(chunk) for chunk in increments]
