"""Declarative scenario specifications for the experiment harness.

A :class:`Scenario` is a fully declarative description of one experiment
run: *what graph* (:class:`DatasetSpec`), *on what chip*
(:class:`ChipSpec`), *running what algorithm*, *with which run options*
(:class:`RunOptions`).  Scenarios are frozen dataclasses so they can be
hashed, pickled to worker processes, serialised to JSON and round-tripped
losslessly — the content hash of the canonical JSON form (plus the repro
version) is the cache key of the result store.

Nothing in this module builds a device or touches the simulator; the
runner (:mod:`repro.harness.runner`) materialises scenarios into runs.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Any, Dict, Optional

from repro import __version__
from repro.arch.config import ChipConfig

@dataclass(frozen=True)
class DatasetSpec:
    """Declarative description of a streaming dataset (see Table 1).

    ``generator`` selects the underlying graph model: ``"sbm"`` (the
    paper's degree-corrected stochastic block model; needs numpy),
    ``"uniform"`` (uniform random edges, pure stdlib — the numpy-free
    family the fuzz oracle uses on no-numpy installs) or ``"rmat"``
    (Graph500-style recursive matrix, needs numpy; strongly skewed
    degrees — the allocator-comparison suite's ghost-chain stressor).
    R-MAT requires a power-of-two vertex count and treats ``edges`` as
    the attempted count ``vertices * edge_factor`` (self loops are
    dropped, so slightly fewer edges stream).  The generator **is**
    experiment identity — different generators stream different edges —
    but the default is omitted from
    :meth:`Scenario.spec_dict` so every pre-existing spec hash, graph seed
    and stored record stays byte-identical.
    """

    vertices: int = 200
    edges: int = 2000
    sampling: str = "edge"
    num_increments: int = 10
    symmetric: bool = False
    weighted: bool = False
    seed: int = 7
    generator: str = "sbm"

    def __post_init__(self) -> None:
        if self.vertices <= 0 or self.edges <= 0:
            raise ValueError("vertices and edges must be positive")
        if self.sampling not in ("edge", "snowball"):
            raise ValueError(f"unknown sampling {self.sampling!r}")
        if self.num_increments <= 0:
            raise ValueError("num_increments must be positive")
        if self.generator not in ("sbm", "uniform", "rmat"):
            raise ValueError(f"unknown generator {self.generator!r}")
        if self.generator == "rmat" and self.vertices & (self.vertices - 1):
            raise ValueError(
                f"rmat generator needs a power-of-two vertex count, "
                f"not {self.vertices}")

    @property
    def name(self) -> str:
        prefix = "sbm" if self.generator == "sbm" else self.generator
        return f"{prefix}-{self.vertices}v-{self.edges}e-{self.sampling}"


@dataclass(frozen=True)
class ChipSpec:
    """Declarative description of the simulated chip for one scenario."""

    side: int = 32
    fidelity: str = "cycle"
    routing: str = "yx"
    edge_list_capacity: int = 16
    ghost_slots: int = 1
    clock_ghz: float = 1.0

    def to_chip_config(self) -> ChipConfig:
        """Materialise into the simulator's :class:`ChipConfig`."""
        return ChipConfig(
            width=self.side,
            height=self.side,
            fidelity=self.fidelity,
            routing=self.routing,
            edge_list_capacity=self.edge_list_capacity,
            ghost_slots=self.ghost_slots,
            clock_ghz=self.clock_ghz,
        )


@dataclass(frozen=True)
class RunOptions:
    """Knobs of the run itself (allocator, placement, roots, budgets).

    ``snapshot_every``/``snapshot_dir`` make long runs resumable: every N
    streamed increments the runner saves a :mod:`repro.snapshot` checkpoint
    into ``snapshot_dir`` (``<scenario>-incNNNN.snap``).  ``trace_path``
    writes a Chrome trace-event JSON of the run (see :mod:`repro.obs`).
    They are **operational knobs, not experiment identity**: a
    checkpointed or traced run produces the bit-identical record of a plain
    one (tracing is observer-only by contract), so all three fields are
    stripped from :meth:`Scenario.spec_dict` (and therefore from spec
    hashes, graph seeds and stored records).

    ``graph_seed`` pins the seed of placement and ghost allocation, which
    :meth:`Scenario.graph_seed` otherwise derives from the spec.  It **is**
    experiment identity, but the default ``None`` is omitted from
    :meth:`Scenario.spec_dict` so every spec without a pin keeps its exact
    canonical JSON, hash and derived seed.
    """

    ghost_allocator: str = "vicinity"
    placement: str = "round_robin"
    root: int = 0
    max_cycles_per_increment: Optional[int] = None
    snapshot_every: int = 0
    snapshot_dir: Optional[str] = None
    trace_path: Optional[str] = None
    graph_seed: Optional[int] = None

    def __post_init__(self) -> None:
        seed = self.graph_seed
        if seed is not None and (type(seed) is not int or seed < 0):
            raise ValueError(
                f"graph_seed must be a non-negative int, not {seed!r}")


@dataclass(frozen=True)
class Scenario:
    """One declarative experiment: dataset x chip x algorithm x options."""

    name: str
    dataset: DatasetSpec = field(default_factory=DatasetSpec)
    chip: ChipSpec = field(default_factory=ChipSpec)
    algorithm: str = "bfs"
    options: RunOptions = field(default_factory=RunOptions)

    def __post_init__(self) -> None:
        from repro.algorithms import registry

        try:
            info = registry.get_algorithm(self.algorithm)
        except ValueError:
            raise ValueError(
                f"unknown algorithm {self.algorithm!r}; expected one of "
                f"{tuple(registry.algorithm_names())}"
            ) from None
        # A post-stream query phase's terminator counts its own sent-vs-
        # completed messages, so it requires fully drained increments —
        # combining it with max_cycles_per_increment (which can leave
        # streaming messages in flight) is rejected at construction.
        # Found by ``repro fuzz run`` (see tests/corpus/).
        if (not info.caps.supports_truncation
                and self.options.max_cycles_per_increment is not None):
            raise ValueError(
                f"{self.algorithm!r} runs a post-stream query phase, which "
                "requires fully drained increments; it cannot be combined "
                "with max_cycles_per_increment"
            )

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def spec_dict(self) -> Dict[str, Any]:
        """Nested plain-dict form of the scenario (JSON-serialisable).

        The run's ``snapshot_every``/``snapshot_dir``/``trace_path`` knobs
        are stripped: a checkpointed or traced run's record is a plain
        run's, so the serialised spec (and everything derived from it: the
        canonical JSON, the spec hash, the graph seed, the record's
        embedded scenario) leaves them out.
        """
        data = asdict(self)
        data["options"].pop("snapshot_every", None)
        data["options"].pop("snapshot_dir", None)
        data["options"].pop("trace_path", None)
        # The dataset generator IS identity (different generators stream
        # different edges) but the default is omitted so specs predating the
        # field keep their exact canonical JSON, hash and graph seed.
        if data["dataset"].get("generator") == "sbm":
            del data["dataset"]["generator"]
        if data["options"].get("graph_seed") is None:
            del data["options"]["graph_seed"]
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Scenario":
        """Rebuild a scenario from :meth:`spec_dict` output.

        A field the scenario does not have raises :class:`TypeError`, at
        the top level as in every nested spec.
        """
        unknown = set(data) - {f.name for f in fields(cls)}
        if unknown:
            raise TypeError(f"unexpected scenario field(s) {sorted(unknown)}")
        return cls(
            name=data["name"],
            dataset=DatasetSpec(**data["dataset"]),
            chip=ChipSpec(**data["chip"]),
            algorithm=data["algorithm"],
            options=RunOptions(**data["options"]),
        )

    def canonical_json(self) -> str:
        """Canonical JSON encoding: sorted keys, no whitespace variance.

        This string is also the scenario's **version-independent identity**:
        store lifecycle tooling (``repro suite diff``, ``repro store
        compact``) uses it — via
        :func:`repro.harness.store.record_identity` — to line up records of
        the same experiment across repro versions, which :meth:`spec_hash`
        deliberately cannot do because the version is folded into the hash.
        """
        return json.dumps(self.spec_dict(), sort_keys=True, separators=(",", ":"))

    def spec_hash(self) -> str:
        """Content hash of the spec + repro version — the result-store key.

        Including :data:`repro.__version__` means a release that changes
        simulator behaviour invalidates every cached result automatically.
        """
        payload = f"{__version__}\n{self.canonical_json()}".encode()
        return hashlib.sha256(payload).hexdigest()

    # ------------------------------------------------------------------
    # Derived knobs
    # ------------------------------------------------------------------
    def graph_seed(self) -> int:
        """Deterministic per-scenario seed for placement/ghost allocation.

        Derived from the *physical* part of the spec only — dataset, chip,
        algorithm and run options, **not** the scenario name and not
        :data:`repro.__version__` — so distinct experiments decorrelate
        while renaming a scenario or releasing a new version does not
        silently change the experiment's RNG.  (The cache key,
        :meth:`spec_hash`, deliberately does include name and version.)
        A pinned :attr:`RunOptions.graph_seed` is returned as is.
        """
        if self.options.graph_seed is not None:
            return self.options.graph_seed
        spec = self.spec_dict()
        del spec["name"]
        payload = json.dumps(spec, sort_keys=True, separators=(",", ":")).encode()
        return int(hashlib.sha256(payload).hexdigest()[:8], 16) % (2**31 - 1)

    def with_(self, **kwargs) -> "Scenario":
        """Copy with some top-level fields replaced."""
        return replace(self, **kwargs)

    def describe(self) -> str:
        """One-line human summary used by ``repro suite list``."""
        d, c = self.dataset, self.chip
        return (
            f"{self.name}: {self.algorithm} on {d.vertices}v/{d.edges}e "
            f"{d.sampling} x{d.num_increments}inc, chip {c.side}x{c.side} "
            f"({c.fidelity})"
        )
