"""The Recursively Parallel Vertex Object (RPVO).

A logical vertex is stored as a hierarchy of *blocks*: one **root block**
plus zero or more **ghost blocks** (Figure 1 of the paper).  Every block has

* a bounded local edge list (the scratchpad memories of the compute cells
  are small, so edge lists cannot grow unboundedly in place),
* one or more ghost slots, each a ``Future`` of a global address: when a
  block's edge list fills up, a new ghost block is allocated on a nearby
  compute cell and further edges recurse into it,
* a per-algorithm state dictionary (BFS level, SSSP distance, component id,
  ...), initialised by the attached streaming algorithm.

Despite being spread over many compute cells, the vertex presents a single
programming abstraction: actions are always addressed to the *root* block's
address, and the blocks forward work among themselves.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.arch.address import Address
from repro.runtime.futures import Future, FutureState

#: Sentinel for "no value yet" vertex state (e.g. unreached BFS level).
INFINITY = 1 << 30


@dataclass(frozen=True)
class Edge:
    """A streamed graph edge ``src -> dst`` with an integer weight.

    This is the host-side representation read by the IO channels.  Inside the
    chip, edges are stored as :class:`EdgeSlot` entries that reference the
    destination vertex's root block by global address.
    """

    src: int
    dst: int
    weight: int = 1

    def reversed(self) -> "Edge":
        """The same edge in the opposite direction (for symmetrized graphs)."""
        return Edge(self.dst, self.src, self.weight)


@dataclass(frozen=True)
class EdgeSlot:
    """One entry of a block's local edge list (paper Listing 3).

    ``dst_addr`` is the global address of the destination vertex's root
    block -- the address actions are propagated to when diffusing along this
    edge.  ``dst_vid`` is kept for host-side read-back and verification.
    """

    dst_addr: Address
    dst_vid: int
    weight: int = 1


class VertexBlock:
    """One block (root or ghost) of an RPVO.

    Parameters
    ----------
    vid:
        Id of the logical vertex this block belongs to.
    capacity:
        Maximum number of edges the block stores locally before recursing
        into a ghost block.
    ghost_slots:
        Number of ghost futures per block (the paper notes an RPVO may have
        two or more ghosts to arbitrate among).
    is_root:
        True for the root block of the vertex (the block whose address the
        rest of the system knows).
    """

    __slots__ = (
        "vid",
        "capacity",
        "is_root",
        "edges",
        "ghosts",
        "ghost_addrs",
        "state",
        "mirror",
        "depth",
        "inserts_seen",
        "forwards",
    )

    def __init__(
        self,
        vid: int,
        capacity: int,
        ghost_slots: int = 1,
        is_root: bool = True,
        depth: int = 0,
        state: Optional[Dict[str, Any]] = None,
    ) -> None:
        if capacity < 1:
            raise ValueError("edge-list capacity must be >= 1")
        if ghost_slots < 1:
            raise ValueError("ghost_slots must be >= 1")
        self.vid = vid
        self.capacity = capacity
        self.is_root = is_root
        self.edges: List[EdgeSlot] = []
        self.ghosts: List[Future] = [Future() for _ in range(ghost_slots)]
        # Resolved ghost addresses (set when the corresponding future is
        # fulfilled) so diffusion can walk the ghost hierarchy cheaply.
        self.ghost_addrs: List[Optional[Address]] = [None] * ghost_slots
        self.state: Dict[str, Any] = dict(state) if state else {}
        # Root-only mirror of every destination vertex id inserted into this
        # logical vertex (including edges stored in ghosts).  Analytics
        # queries (triangle counting, Jaccard) read it; the diffusion-based
        # algorithms never do.  It is a host-side convenience of this
        # reproduction, not a structure of the paper's RPVO.
        self.mirror: List[int] = []
        self.depth = depth
        self.inserts_seen = 0
        self.forwards = 0

    # ------------------------------------------------------------------
    @property
    def has_room(self) -> bool:
        """True while the local edge list is below capacity (Listing 6 line 3)."""
        return len(self.edges) < self.capacity

    @property
    def degree_local(self) -> int:
        """Number of edges stored in this block only."""
        return len(self.edges)

    def append_edge(self, slot: EdgeSlot) -> None:
        """Insert an edge into the local edge list (must have room)."""
        if not self.has_room:
            raise OverflowError(
                f"vertex {self.vid} block (depth {self.depth}) is full "
                f"({self.capacity} edges)"
            )
        self.edges.append(slot)

    # ------------------------------------------------------------------
    # Ghost helpers
    # ------------------------------------------------------------------
    def ghost_slot_for(self, dst_vid: int) -> int:
        """Deterministically pick which ghost slot an overflow edge goes to."""
        return dst_vid % len(self.ghosts)

    def resolved_ghosts(self) -> List[Address]:
        """Addresses of ghosts whose allocation has completed."""
        return [addr for addr in self.ghost_addrs if addr is not None]

    # ------------------------------------------------------------------
    # State helpers
    # ------------------------------------------------------------------
    def get_state(self, key: str, default: Any = None) -> Any:
        return self.state.get(key, default)

    def set_state(self, key: str, value: Any) -> None:
        self.state[key] = value

    def words(self) -> int:
        """Approximate memory footprint in words (for allocation accounting)."""
        return 4 + self.capacity * 2 + len(self.ghosts)

    # ------------------------------------------------------------------
    # Snapshot support (see repro.snapshot)
    # ------------------------------------------------------------------
    def to_state(self) -> Dict[str, Any]:
        """The block as plain values (edges, ghost futures, algorithm state).

        A *pending* ghost future means an allocation continuation is in
        flight somewhere on the chip — transient state that only exists
        while a diffusion is running, and that cannot be serialised (its
        dependent queue holds closures).  Capturing such a block raises;
        at an increment boundary every future is null or fulfilled with an
        empty queue, so graph-level captures there always succeed.
        """
        from repro.snapshot.format import SnapshotError

        ghost_futures: List[tuple] = []
        for future in self.ghosts:
            if future.is_pending or future.queue_length:
                raise SnapshotError(
                    f"vertex {self.vid} (depth {self.depth}) has a pending "
                    "ghost allocation in flight; capture at an increment "
                    "boundary")
            ghost_futures.append((future.is_fulfilled, future.peek(),
                                  future.fulfilled_count))
        return {
            "vid": self.vid,
            "capacity": self.capacity,
            "is_root": self.is_root,
            "depth": self.depth,
            "edges": list(self.edges),
            "ghost_futures": ghost_futures,
            "ghost_addrs": list(self.ghost_addrs),
            # Deep copy: algorithm state may nest mutable containers
            # (jaccard keeps a per-pair dict), and a captured Snapshot
            # must not alias state the live run keeps mutating.
            "state": copy.deepcopy(self.state),
            "mirror": list(self.mirror),
            "inserts_seen": self.inserts_seen,
            "forwards": self.forwards,
        }

    def apply_state(self, state: Dict[str, Any]) -> None:
        """Overlay :meth:`to_state` output onto this (layout-matching) block."""
        if (state["vid"] != self.vid or state["capacity"] != self.capacity
                or len(state["ghost_futures"]) != len(self.ghosts)):
            from repro.snapshot.format import SnapshotError

            raise SnapshotError(
                f"snapshot block v{state['vid']} (capacity "
                f"{state['capacity']}) does not match vertex {self.vid} "
                f"(capacity {self.capacity}): the chip spec or graph seed "
                "differs from the captured run")
        self.is_root = state["is_root"]
        self.depth = state["depth"]
        self.edges = list(state["edges"])
        for future, (fulfilled, value, count) in zip(self.ghosts,
                                                     state["ghost_futures"]):
            if fulfilled:
                future.state = FutureState.FULFILLED
                future.value = value
            future.fulfilled_count = count
        self.ghost_addrs = list(state["ghost_addrs"])
        # Deep copy for the same reason as in to_state: the restored block
        # must not mutate the Snapshot body it was rebuilt from.
        self.state = copy.deepcopy(state["state"])
        self.mirror = list(state["mirror"])
        self.inserts_seen = state["inserts_seen"]
        self.forwards = state["forwards"]

    @classmethod
    def from_state(cls, state: Dict[str, Any]) -> "VertexBlock":
        """Rebuild a (ghost) block captured by :meth:`to_state`."""
        block = cls(
            vid=state["vid"],
            capacity=state["capacity"],
            ghost_slots=len(state["ghost_futures"]),
            is_root=state["is_root"],
            depth=state["depth"],
        )
        block.apply_state(state)
        return block

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kind = "root" if self.is_root else f"ghost(d{self.depth})"
        return (
            f"VertexBlock(v{self.vid} {kind} edges={len(self.edges)}/{self.capacity} "
            f"state={self.state})"
        )
