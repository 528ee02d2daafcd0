"""Streaming, message-driven graph algorithms.

Every workload in this package implements the single
:class:`~repro.algorithms.base.Algorithm` contract and registers itself
with the :mod:`~repro.algorithms.registry` via the
``@register_algorithm`` decorator, declaring its capabilities (streaming
vs query, root requirement, symmetry requirement, ...) as data.  The
harness, CLI, fuzzer and report layers all enumerate the registry, so a
new workload is one self-registering file dropped into this package —
see ``docs/algorithms.md`` for the walkthrough.

The paper demonstrates its structures with **streaming dynamic BFS** and
names Triangle Counting, Jaccard Coefficient and Stochastic Block
Partition as natural follow-on algorithms.  Registered workloads:

* :class:`~repro.algorithms.bfs.StreamingBFS` -- the paper's application
  (Listings 4 and 5): every inserted edge may trigger an incremental level
  relaxation that diffuses along the new edge, never recomputing from
  scratch.
* :class:`~repro.algorithms.sssp.StreamingSSSP` -- weighted generalisation
  of BFS (incremental single-source shortest paths).
* :class:`~repro.algorithms.components.StreamingConnectedComponents` --
  min-label propagation maintained under edge insertions.
* :class:`~repro.algorithms.pagerank.PageRankDelta` -- asynchronous
  push-based PageRank maintained by residual diffusion.
* :class:`~repro.algorithms.triangles.TriangleCounting` and
  :class:`~repro.algorithms.jaccard.JaccardCoefficient` -- query diffusions
  run over the ingested graph (the paper's future-work algorithms).
* :class:`~repro.algorithms.kcore.KCoreDecomposition` -- monotone
  distributed coreness (exact k-core numbers via h-index refinement).
* :class:`~repro.algorithms.labelprop.LabelPropagation` -- synchronous
  majority-label community detection in host-mediated super-steps.
"""

from repro.algorithms import registry
from repro.algorithms.base import Algorithm
from repro.algorithms.registry import (
    AlgorithmInfo,
    Capabilities,
    algorithm_infos,
    algorithm_names,
    get_algorithm,
    register_algorithm,
)

registry.discover()

from repro.algorithms.bfs import StreamingBFS  # noqa: E402
from repro.algorithms.components import StreamingConnectedComponents  # noqa: E402
from repro.algorithms.jaccard import JaccardCoefficient  # noqa: E402
from repro.algorithms.kcore import KCoreDecomposition  # noqa: E402
from repro.algorithms.labelprop import LabelPropagation  # noqa: E402
from repro.algorithms.pagerank import PageRankDelta  # noqa: E402
from repro.algorithms.sssp import StreamingSSSP  # noqa: E402
from repro.algorithms.triangles import TriangleCounting  # noqa: E402

__all__ = [
    "Algorithm",
    "AlgorithmInfo",
    "Capabilities",
    "register_algorithm",
    "get_algorithm",
    "algorithm_names",
    "algorithm_infos",
    "StreamingBFS",
    "StreamingConnectedComponents",
    "JaccardCoefficient",
    "KCoreDecomposition",
    "LabelPropagation",
    "PageRankDelta",
    "StreamingSSSP",
    "TriangleCounting",
]
