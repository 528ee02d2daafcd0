"""R-MAT (recursive matrix) graph generator.

R-MAT graphs have strongly skewed degree distributions, which is exactly the
situation the RPVO ghost hierarchy is designed for (a handful of very hot
vertices overflow into long ghost chains).  The allocator ablation benchmark
uses R-MAT inputs to stress ghost allocation.
"""

from __future__ import annotations

from typing import List, Optional

from repro._compat import require_numpy
from repro.graph.rpvo import Edge


def generate_rmat(
    scale: int,
    edge_factor: int = 8,
    a: float = 0.57,
    b: float = 0.19,
    c: float = 0.19,
    seed: Optional[int] = None,
) -> List[Edge]:
    """Generate a directed R-MAT graph with ``2**scale`` vertices.

    Parameters follow the Graph500 convention: ``a + b + c + d = 1`` with
    ``d`` implied.  ``edge_factor`` is the average out-degree.
    """
    if scale < 1:
        raise ValueError("scale must be >= 1")
    np = require_numpy("R-MAT dataset generation")
    d = 1.0 - (a + b + c)
    if d < 0:
        raise ValueError("a + b + c must be <= 1")
    rng = np.random.default_rng(seed)
    num_vertices = 1 << scale
    num_edges = num_vertices * edge_factor

    srcs = np.zeros(num_edges, dtype=np.int64)
    dsts = np.zeros(num_edges, dtype=np.int64)
    # Each bit of the vertex id is chosen independently per recursion level.
    for level in range(scale):
        r = rng.random(num_edges)
        # Quadrant probabilities: (src_bit, dst_bit) in {(0,0),(0,1),(1,0),(1,1)}
        src_bit = (r >= a + b).astype(np.int64)
        dst_bit = (((r >= a) & (r < a + b)) | (r >= a + b + c)).astype(np.int64)
        srcs |= src_bit << level
        dsts |= dst_bit << level

    keep = srcs != dsts
    srcs, dsts = srcs[keep], dsts[keep]
    return list(map(Edge, srcs.tolist(), dsts.tolist()))
