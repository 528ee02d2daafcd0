"""Streaming dataset bundles mirroring the paper's Table 1 configurations.

A :class:`StreamingDataset` is an underlying SBM graph split into ten
increments by one of the two sampling orders.  The
:func:`paper_dataset_configs` helper returns the four dataset configurations
of Table 1 (50 K / 500 K vertices x edge / snowball sampling) at a
configurable scale factor, because the full-size graphs are impractical on a
pure-Python cycle-accurate simulator (docs/harness.md lists the scales each
suite runs at).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.datasets.sampling import (
    edge_sampling_increments,
    increment_sizes,
    snowball_sampling_increments,
)
from repro.datasets.sbm import SBMParams, generate_sbm, symmetrize
from repro.graph.rpvo import Edge

SAMPLING_KINDS = ("edge", "snowball")


@dataclass
class StreamingDataset:
    """A dynamic graph delivered as a sequence of edge increments."""

    name: str
    num_vertices: int
    sampling: str
    increments: List[List[Edge]] = field(default_factory=list)
    seed: Optional[int] = None

    # ------------------------------------------------------------------
    @property
    def num_increments(self) -> int:
        return len(self.increments)

    @property
    def total_edges(self) -> int:
        return sum(len(chunk) for chunk in self.increments)

    def increment_sizes(self) -> List[int]:
        """Edge counts per increment (one row of Table 1)."""
        return increment_sizes(self.increments)

    def all_edges(self) -> List[Edge]:
        """Every edge of the final graph, in streaming order."""
        out: List[Edge] = []
        for chunk in self.increments:
            out.extend(chunk)
        return out

    def prefix_edges(self, upto_increment: int) -> List[Edge]:
        """Edges of the first ``upto_increment`` increments (for verification)."""
        out: List[Edge] = []
        for chunk in self.increments[:upto_increment]:
            out.extend(chunk)
        return out

    def summary_row(self) -> Dict[str, object]:
        """One row of the Table 1 reproduction."""
        return {
            "vertices": self.num_vertices,
            "sampling": self.sampling,
            "increments": self.increment_sizes(),
            "final_edges": self.total_edges,
        }


def generate_uniform(num_vertices: int, num_edges: int,
                     seed: Optional[int] = None) -> List[Edge]:
    """Uniform random directed edges without self loops, pure stdlib.

    The numpy-free graph family behind ``DatasetSpec(generator="uniform")``:
    the fuzz oracle needs *some* deterministic dataset model on no-numpy
    installs, where the SBM generator refuses to run.  Identical
    ``(num_vertices, num_edges, seed)`` always produce the identical edge
    list on every platform (``random.Random`` is specified stdlib
    behaviour).
    """
    if num_vertices < 2:
        raise ValueError("need at least two vertices")
    if num_edges < 1:
        raise ValueError("need at least one edge")
    rng = random.Random(seed)
    edges: List[Edge] = []
    while len(edges) < num_edges:
        u = rng.randrange(num_vertices)
        v = rng.randrange(num_vertices)
        if u != v:
            edges.append(Edge(u, v))
    return edges


def make_streaming_dataset(
    num_vertices: int,
    num_edges: int,
    sampling: str = "edge",
    num_increments: int = 10,
    *,
    num_blocks: Optional[int] = None,
    intra_prob: float = 0.8,
    degree_exponent: float = 2.5,
    symmetric: bool = False,
    seed: Optional[int] = None,
    name: Optional[str] = None,
    generator: str = "sbm",
) -> StreamingDataset:
    """Generate a graph and split it into streaming increments.

    ``generator="sbm"`` (default) samples the paper's degree-corrected
    stochastic block model (requires numpy); ``generator="uniform"``
    samples uniform random edges with the stdlib RNG and runs numpy-free;
    ``generator="rmat"`` samples a Graph500-style recursive-matrix graph
    (requires numpy, power-of-two ``num_vertices``) whose strongly skewed
    degree distribution stresses ghost allocation.  For R-MAT,
    ``num_edges`` is the *attempted* count — the edge factor is
    ``num_edges // num_vertices`` and self loops are dropped, so slightly
    fewer edges actually stream.
    """
    if sampling not in SAMPLING_KINDS:
        raise ValueError(f"sampling must be one of {SAMPLING_KINDS}")
    if generator not in ("sbm", "uniform", "rmat"):
        raise ValueError(
            f"generator must be 'sbm', 'uniform' or 'rmat', not {generator!r}")
    if generator == "uniform":
        edges = generate_uniform(num_vertices, num_edges, seed=seed)
    elif generator == "rmat":
        from repro.datasets.rmat import generate_rmat

        scale = num_vertices.bit_length() - 1
        if (1 << scale) != num_vertices:
            raise ValueError(
                f"rmat generator needs a power-of-two vertex count, "
                f"not {num_vertices}")
        edge_factor = max(1, num_edges // num_vertices)
        edges = generate_rmat(scale, edge_factor, seed=seed)
    else:
        if num_blocks is None:
            # GraphChallenge-like community sizes (a few tens of vertices per
            # block) so a snowball's early discovery slices span several blocks
            # and increment sizes grow the way Table 1 shows.
            num_blocks = max(4, min(num_vertices // 32, num_vertices))
        params = SBMParams(
            num_vertices=num_vertices,
            num_edges=num_edges,
            num_blocks=num_blocks,
            intra_prob=intra_prob,
            degree_exponent=degree_exponent,
            seed=seed,
        )
        edges = generate_sbm(params)
    if symmetric:
        edges = symmetrize(edges)
    if sampling == "edge":
        increments = edge_sampling_increments(edges, num_increments, seed=seed)
    else:
        increments = snowball_sampling_increments(
            edges, num_vertices, num_increments, seed_vertex=0, seed=seed
        )
    return StreamingDataset(
        name=name or f"{generator}-{num_vertices}v-{sampling}",
        num_vertices=num_vertices,
        sampling=sampling,
        increments=increments,
        seed=seed,
    )


#: Scale presets: fraction of the paper's graph sizes that keeps a pure-Python
#: cycle-accurate simulation tractable.  "paper" is the full published size.
SCALE_PRESETS: Dict[str, float] = {
    "tiny": 1 / 500,
    "small": 1 / 100,
    "medium": 1 / 25,
    "large": 1 / 5,
    "paper": 1.0,
}


def paper_dataset_configs(scale: str | float = "small",
                          seed: int = 7) -> List[StreamingDataset]:
    """The four Table 1 dataset configurations at a chosen scale.

    At scale 1.0 ("paper") this is 50 K vertices / 1.0 M edges and 500 K
    vertices / 10.2 M edges, each under edge and snowball sampling.
    """
    factor = SCALE_PRESETS[scale] if isinstance(scale, str) else float(scale)
    if factor <= 0:
        raise ValueError("scale factor must be positive")
    configs = [
        ("graphchallenge-50k", 50_000, 1_000_000),
        ("graphchallenge-500k", 500_000, 10_200_000),
    ]
    datasets: List[StreamingDataset] = []
    for base_name, vertices, edges in configs:
        n = max(64, int(round(vertices * factor)))
        m = max(4 * n, int(round(edges * factor)))
        for sampling in SAMPLING_KINDS:
            datasets.append(
                make_streaming_dataset(
                    n,
                    m,
                    sampling=sampling,
                    seed=seed,
                    name=f"{base_name}-{sampling}",
                )
            )
    return datasets
