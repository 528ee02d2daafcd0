"""Pin the edge streams the dataset builders produce.

Each case hashes every increment's ``(src, dst, weight)`` stream of a
small fixed-seed spec, built through ``runner.materialize_dataset``, and
compares it with a recorded SHA-256 digest.  A builder that streams a
different edge, weight or order, or splits the increments elsewhere,
changes every record and checkpoint downstream.
"""

import hashlib

import pytest

from helpers import requires_numpy
from repro.harness.runner import materialize_dataset
from repro.harness.scenario import DatasetSpec


def digest(spec: DatasetSpec) -> str:
    h = hashlib.sha256()
    for chunk in materialize_dataset(spec).increments:
        h.update(b"|")
        for edge in chunk:
            h.update(b"%d %d %d;" % (edge.src, edge.dst, edge.weight))
    return h.hexdigest()


CASES = [
    pytest.param(
        DatasetSpec(vertices=60, edges=500, sampling="edge",
                    num_increments=5, seed=3, generator="uniform"),
        "6e2b95fe5f4692fc2e4b43a47f5a779595991cfb9a1bc439d7102de2616a37b2",
        id="uniform-edge"),
    pytest.param(
        DatasetSpec(vertices=60, edges=500, sampling="snowball",
                    num_increments=5, seed=3, generator="uniform"),
        "704449ed1b8a839c76c9fcbf3914750280b891ad8d3ba61b28af224aa4153ddb",
        id="uniform-snowball"),
    pytest.param(
        DatasetSpec(vertices=96, edges=700, sampling="edge",
                    num_increments=5, seed=5),
        "823f8d61fa4ab09a2563d47e6fb834a4807c82e237d63fe31a0a101eb17b755e",
        id="sbm-edge", marks=requires_numpy),
    pytest.param(
        DatasetSpec(vertices=96, edges=700, sampling="snowball",
                    num_increments=5, seed=5),
        "440a018b732b909c5f95e91e7b14f3895f5504f4be81df7f9bb27bc645d0dbc4",
        id="sbm-snowball", marks=requires_numpy),
    pytest.param(
        DatasetSpec(vertices=64, edges=512, sampling="edge",
                    num_increments=5, seed=9, generator="rmat"),
        "628ce4f9649c4200bd9e59836524a0d2b466e1fedec2d0440c5dbfc26a4a6b2d",
        id="rmat-edge", marks=requires_numpy),
    pytest.param(
        DatasetSpec(vertices=64, edges=512, sampling="snowball",
                    num_increments=5, seed=9, generator="rmat"),
        "5697bfe7c2536f166fe67fe978bde7a096043cf8f8cd1b3edd54f9320d985530",
        id="rmat-snowball", marks=requires_numpy),
    pytest.param(
        DatasetSpec(vertices=40, edges=300, sampling="snowball",
                    num_increments=4, seed=2, symmetric=True,
                    generator="uniform"),
        "5ccb3af75df73baf90bb52d673bc452d9878b8e0b597744edf05773bddb5f17b",
        id="uniform-symmetric"),
    pytest.param(
        DatasetSpec(vertices=40, edges=300, sampling="edge",
                    num_increments=4, seed=2, weighted=True,
                    generator="uniform"),
        "69b9c7ecd7d9e36a64d8bc4498f75fd3e96827d113c11b1c841aaa3a4f406725",
        id="uniform-weighted"),
]


@pytest.mark.parametrize("spec, expected", CASES)
def test_increment_streams_are_pinned(spec, expected):
    assert digest(spec) == expected
