"""Stochastic block model generator with heavy-tailed degrees.

The GraphChallenge streaming datasets are generated from a degree-corrected
stochastic block model: vertices belong to communities ("blocks"), most edges
stay within a block, and vertex degrees follow a heavy-tailed distribution.
This module generates graphs with those properties using vectorised NumPy
sampling so that even the paper-scale graphs (hundreds of thousands of
vertices, tens of millions of edges) are produced in seconds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional

from repro._compat import require_numpy
from repro.graph.rpvo import Edge

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np


@dataclass(frozen=True)
class SBMParams:
    """Parameters of the degree-corrected stochastic block model.

    Parameters
    ----------
    num_vertices:
        Number of vertices; vertex ids are ``0 .. num_vertices - 1``.
    num_edges:
        Number of (directed) edges to sample.
    num_blocks:
        Number of communities.  Vertices are assigned to blocks contiguously
        (block sizes differ by at most one vertex).
    intra_prob:
        Probability that an edge stays inside its source's block.
    degree_exponent:
        Pareto shape of the per-vertex degree propensity; smaller values give
        heavier tails (more skew).
    allow_self_loops:
        Whether ``u -> u`` edges may be emitted (GraphChallenge graphs have
        none, so the default is False).
    seed:
        Seed of the NumPy generator; identical parameters and seed always
        produce the identical edge list.
    """

    num_vertices: int
    num_edges: int
    num_blocks: int = 8
    intra_prob: float = 0.8
    degree_exponent: float = 2.5
    allow_self_loops: bool = False
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        if self.num_vertices < 2:
            raise ValueError("need at least two vertices")
        if self.num_edges < 1:
            raise ValueError("need at least one edge")
        if not 1 <= self.num_blocks <= self.num_vertices:
            raise ValueError("num_blocks must be between 1 and num_vertices")
        if not 0.0 <= self.intra_prob <= 1.0:
            raise ValueError("intra_prob must be in [0, 1]")
        if self.degree_exponent <= 1.0:
            raise ValueError("degree_exponent must be > 1")


def block_of(params: SBMParams, vids: "np.ndarray") -> "np.ndarray":
    """Block index of each vertex id (contiguous assignment)."""
    np = require_numpy("SBM dataset generation")
    return (vids.astype(np.int64) * params.num_blocks) // params.num_vertices


def _block_bounds(params: SBMParams) -> "np.ndarray":
    """Start offsets of each block, plus a final sentinel at num_vertices."""
    np = require_numpy("SBM dataset generation")
    blocks = np.arange(params.num_blocks + 1, dtype=np.int64)
    return np.ceil(blocks * params.num_vertices / params.num_blocks).astype(np.int64)


def generate_sbm_arrays(params: SBMParams) -> "tuple[np.ndarray, np.ndarray]":
    """Sample the edge list as a pair of NumPy arrays ``(srcs, dsts)``."""
    np = require_numpy("SBM dataset generation")
    rng = np.random.default_rng(params.seed)
    n, m = params.num_vertices, params.num_edges

    # Heavy-tailed degree propensities, normalised into a sampling distribution.
    weights = rng.pareto(params.degree_exponent - 1.0, size=n) + 1.0
    probs = weights / weights.sum()

    # Oversample to leave room for discarding self loops.
    oversample = int(m * 1.15) + 16
    srcs = rng.choice(n, size=oversample, p=probs)
    dsts = rng.choice(n, size=oversample, p=probs)

    # Force a fraction of edges to stay inside the source's block by folding
    # the destination into that block's vertex range.
    bounds = _block_bounds(params)
    src_blocks = block_of(params, srcs)
    starts = bounds[src_blocks]
    sizes = bounds[src_blocks + 1] - starts
    intra = rng.random(oversample) < params.intra_prob
    folded = starts + (dsts % np.maximum(sizes, 1))
    dsts = np.where(intra, folded, dsts)

    if not params.allow_self_loops:
        keep = srcs != dsts
        srcs, dsts = srcs[keep], dsts[keep]

    if srcs.size < m:  # pragma: no cover - extremely unlikely with oversampling
        extra = m - srcs.size
        more_s = rng.choice(n, size=extra * 2 + 4, p=probs)
        more_d = rng.choice(n, size=extra * 2 + 4, p=probs)
        keep = more_s != more_d
        srcs = np.concatenate([srcs, more_s[keep]])
        dsts = np.concatenate([dsts, more_d[keep]])

    return srcs[:m].astype(np.int64), dsts[:m].astype(np.int64)


def generate_sbm(params: SBMParams) -> List[Edge]:
    """Sample the SBM edge list as :class:`~repro.graph.rpvo.Edge` objects."""
    srcs, dsts = generate_sbm_arrays(params)
    return list(map(Edge, srcs.tolist(), dsts.tolist()))


def symmetrize(edges: List[Edge]) -> List[Edge]:
    """Return the edge list with the reverse of every edge appended.

    Undirected algorithms (connected components, triangles, Jaccard) expect
    both directions of every edge to be streamed.
    """
    out = list(edges)
    out.extend(edge.reversed() for edge in edges)
    return out
