"""Dataset generation: GraphChallenge-like streaming dynamic graphs.

The paper streams dynamic graphs from MIT's Streaming GraphChallenge, which
are stochastic-block-model (SBM) graphs delivered in ten increments under two
sampling orders:

* **edge sampling** -- edges arrive in random order, so every increment has
  roughly the same number of edges;
* **snowball sampling** -- edges arrive as they are discovered outward from a
  starting point, so increments grow monotonically.

The GraphChallenge files themselves are a gated download, so this package
generates statistically similar graphs from scratch (see the paper-to-module
map in docs/architecture.md): an SBM generator with heavy-tailed degrees
(:mod:`repro.datasets.sbm`), the two sampling orders
(:mod:`repro.datasets.sampling`), an R-MAT generator for skew experiments
(:mod:`repro.datasets.rmat`), and plain TSV edge-list IO
(:mod:`repro.datasets.io`).
"""

from repro.datasets.rmat import generate_rmat
from repro.datasets.sampling import edge_sampling_increments, snowball_sampling_increments
from repro.datasets.sbm import SBMParams, generate_sbm
from repro.datasets.streaming import (
    StreamingDataset,
    make_streaming_dataset,
    paper_dataset_configs,
)
from repro.datasets.io import read_edge_list, write_edge_list

__all__ = [
    "generate_rmat",
    "edge_sampling_increments",
    "snowball_sampling_increments",
    "SBMParams",
    "generate_sbm",
    "StreamingDataset",
    "make_streaming_dataset",
    "paper_dataset_configs",
    "read_edge_list",
    "write_edge_list",
]
