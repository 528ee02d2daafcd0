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
from array import array
from dataclasses import dataclass
from itertools import accumulate, chain
from operator import attrgetter
from typing import Any, Dict, List, Optional, Sequence, Tuple

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

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kind = "root" if self.is_root else f"ghost(d{self.depth})"
        return (
            f"VertexBlock(v{self.vid} {kind} edges={len(self.edges)}/{self.capacity} "
            f"state={self.state})"
        )


# ----------------------------------------------------------------------
# Snapshot support (see repro.snapshot): blocks as column tables
# ----------------------------------------------------------------------
#: One int64 column per scalar block field, named after the attribute.
_BLOCK_SCALARS = ("vid", "capacity", "depth", "is_root", "inserts_seen",
                 "forwards")
_EDGE_COLUMNS = ("dst_cc", "dst_obj", "dst_vid", "weight")
#: Per ghost slot; -1 stands for ``None`` (null future, unresolved ghost).
_SLOT_COLUMNS = ("future_cc", "future_obj", "future_count", "ghost_cc",
                 "ghost_obj")
#: Value types an algorithm-state dict can hold without being deep-copied.
_PLAIN = frozenset({int, float, str, bool, type(None)})


def _copy_state(state: Dict[str, Any]) -> Dict[str, Any]:
    """A copy of a block's algorithm state that shares no mutable object.

    Most algorithms keep only scalars, where a shallow copy suffices; a
    nested container (jaccard's pair map, kcore's neighbour bounds) takes
    a deep copy.
    """
    for value in state.values():
        if type(value) not in _PLAIN:
            return copy.deepcopy(state)
    return dict(state)


def _offsets(lists: List[list]) -> array:
    return array("q", list(accumulate(map(len, lists), initial=0)))


def capture_blocks(blocks: Sequence[VertexBlock],
                   addrs: Sequence[Address]) -> Dict[str, Any]:
    """RPVO blocks as one table of int64 columns (snapshot capture).

    ``addrs`` holds each block's memory address (``cc``/``obj`` columns).
    Edge slots and mirrors are flattened across blocks with an offsets
    column each (``edge_offsets[i]:edge_offsets[i + 1]`` are block ``i``'s
    slots).  Ghost futures and resolved ghost addresses take one entry per
    ghost slot.  Algorithm state stays a list of per-block dicts, copied
    so the table shares nothing the live run keeps mutating.

    A *pending* ghost future means an allocation continuation is in flight
    somewhere on the chip: transient state that only exists while a
    diffusion is running, and that cannot be serialised (its dependent
    queue holds closures).  Capturing such a block raises; at an increment
    boundary every future is null or fulfilled with an empty queue, so
    graph-level captures there always succeed.
    """
    from repro.snapshot.format import SnapshotError

    # array("q", list) converts in one C pass; array("q", iterator) grows
    # element by element and is slower.
    table: Dict[str, Any] = {
        "cc": array("q", [addr.cc_id for addr in addrs]),
        "obj": array("q", [addr.obj_id for addr in addrs]),
    }
    for name in _BLOCK_SCALARS:
        table[name] = array("q", list(map(attrgetter(name), blocks)))
    edge_lists = [block.edges for block in blocks]
    slots = list(chain.from_iterable(edge_lists))
    table["edge_offsets"] = _offsets(edge_lists)
    table["dst_cc"] = array("q", [s.dst_addr.cc_id for s in slots])
    table["dst_obj"] = array("q", [s.dst_addr.obj_id for s in slots])
    table["dst_vid"] = array("q", [s.dst_vid for s in slots])
    table["weight"] = array("q", [s.weight for s in slots])
    mirrors = [block.mirror for block in blocks]
    table["mirror_offsets"] = _offsets(mirrors)
    table["mirror"] = array("q", list(chain.from_iterable(mirrors)))
    columns: Tuple[List[int], ...] = ([], [], [], [], [])
    future_cc, future_obj, future_count, ghost_cc, ghost_obj = columns
    for block in blocks:
        for future, addr in zip(block.ghosts, block.ghost_addrs):
            if future.state is FutureState.PENDING:
                raise SnapshotError(
                    f"vertex {block.vid} (depth {block.depth}) has a pending "
                    "ghost allocation in flight; capture at an increment "
                    "boundary")
            value = future.value  # None, or the ghost block's Address
            future_cc.append(-1 if value is None else value.cc_id)
            future_obj.append(-1 if value is None else value.obj_id)
            future_count.append(future.fulfilled_count)
            ghost_cc.append(-1 if addr is None else addr.cc_id)
            ghost_obj.append(-1 if addr is None else addr.obj_id)
    for name, column in zip(_SLOT_COLUMNS, columns):
        table[name] = array("q", column)
    table["state"] = [_copy_state(block.state) for block in blocks]
    return table


def check_block_table(table: Dict[str, Any], ghost_slots: int,
                      name: str) -> int:
    """Validate a decoded block table's shape; returns its block count.

    Every per-block column has the block count, every offsets column
    starts at 0, never decreases and ends at its flat column's length, and
    every per-slot column has ``blocks * ghost_slots`` entries.  A table
    that fails raises a :class:`SnapshotError` naming ``name``.
    """
    from repro.snapshot.format import SnapshotError

    count = len(table["vid"])

    def expect(column: str, length: int) -> None:
        if len(table[column]) != length:
            raise SnapshotError(
                f"corrupt snapshot: {name} column {column!r} has "
                f"{len(table[column])} entries, expected {length}")

    for column in ("cc", "obj", "state") + _BLOCK_SCALARS:
        expect(column, count)
    for offsets, flat in (("edge_offsets", _EDGE_COLUMNS),
                          ("mirror_offsets", ("mirror",))):
        expect(offsets, count + 1)
        bounds = table[offsets]
        if bounds[0] != 0 or any(a > b for a, b in zip(bounds, bounds[1:])):
            raise SnapshotError(
                f"corrupt snapshot: {name} column {offsets!r} does not "
                "start at 0 and never decrease")
        for column in flat:
            expect(column, bounds[-1])
    for column in _SLOT_COLUMNS:
        expect(column, count * ghost_slots)
    return count


def restore_blocks(table: Dict[str, Any],
                   blocks: Sequence[VertexBlock]) -> None:
    """Overlay a :func:`capture_blocks` table onto layout-matching blocks.

    ``blocks[i]`` takes row ``i`` (the caller has checked the table with
    :func:`check_block_table` and matched vids and capacities).  Restored
    blocks share no mutable object with the table, so one snapshot can be
    restored any number of times.
    """
    interned: Dict[Tuple[int, int], Address] = {}

    def address(cc: int, obj: int) -> Address:
        addr = interned.get((cc, obj))
        if addr is None:
            addr = interned[(cc, obj)] = Address(cc, obj)
        return addr

    slots = [EdgeSlot(address(cc, obj), vid, weight)
             for cc, obj, vid, weight in zip(*(table[c]
                                               for c in _EDGE_COLUMNS))]
    edge_offsets = table["edge_offsets"]
    mirror = table["mirror"].tolist()
    mirror_offsets = table["mirror_offsets"]
    future_cc, future_obj, future_count, ghost_cc, ghost_obj = (
        table[c] for c in _SLOT_COLUMNS)
    states = table["state"]
    j = 0
    for i, (block, is_root, depth, inserts, forwards) in enumerate(zip(
            blocks, table["is_root"], table["depth"],
            table["inserts_seen"], table["forwards"])):
        block.is_root = bool(is_root)
        block.depth = depth
        block.inserts_seen = inserts
        block.forwards = forwards
        block.edges = slots[edge_offsets[i]:edge_offsets[i + 1]]
        block.mirror = mirror[mirror_offsets[i]:mirror_offsets[i + 1]]
        block.state = _copy_state(states[i])
        ghost_addrs = block.ghost_addrs
        for s, future in enumerate(block.ghosts):
            if future_cc[j] >= 0:
                future.state = FutureState.FULFILLED
                future.value = address(future_cc[j], future_obj[j])
            future.fulfilled_count = future_count[j]
            ghost_addrs[s] = (None if ghost_cc[j] < 0
                              else address(ghost_cc[j], ghost_obj[j]))
            j += 1
