"""Turn-restricted dimension-ordered routing for the AM-CCA mesh.

The paper uses deadlock-free, minimal, turn-restricted routing following the
turn model of Glass & Ni, specifically **YX dimension-ordered routing** that
"takes vertical paths first before turning horizontal".  XY routing (the
mirror policy) is provided as well so benchmarks can ablate the choice.

Both policies are *minimal*: every route has exactly Manhattan-distance hops.
Both are deadlock free because once the first dimension is exhausted the
route never turns back into it, which removes the cyclic channel dependencies
required for deadlock in a mesh.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.arch.config import ChipConfig

#: Mesh directions as (dx, dy) deltas.
NORTH = (0, -1)
SOUTH = (0, 1)
EAST = (1, 0)
WEST = (-1, 0)

#: Direction indices of the directed-link id scheme (see :class:`LinkTable`).
#: The order N, W, E, S makes ascending link id agree with lexicographic
#: ``(src_cell, dst_cell)`` order, so id-ordered sweeps have a stable,
#: documented meaning.
DIR_NORTH = 0
DIR_WEST = 1
DIR_EAST = 2
DIR_SOUTH = 3

#: Human-readable names, indexed by direction id.
DIR_NAMES = ("north", "west", "east", "south")

#: A route as two straight legs: ``(first, step, length)`` of each, in
#: link-id space (see :meth:`RoutingPolicy.route_legs`).
Legs = Tuple[int, int, int, int, int, int]


class LinkTable:
    """Integer ids for every directed link of the mesh.

    A directed link ``u -> v`` between neighbouring compute cells gets the id
    ``u * 4 + direction`` where *direction* is one of :data:`DIR_NORTH`,
    :data:`DIR_WEST`, :data:`DIR_EAST`, :data:`DIR_SOUTH`.  Ids are dense
    (``4 * num_cells`` slots) so per-link state lives in flat preallocated
    arrays instead of dictionaries; border slots that point off-mesh are
    simply never used (their destination is ``-1``).

    The cycle-accurate NoC keys its queues and sweep stamps by link id,
    and routing policies describe whole routes as two straight legs of link
    ids (:meth:`RoutingPolicy.route_legs`).
    """

    __slots__ = ("width", "height", "num_cells", "num_links", "dst", "steps")

    def __init__(self, config: ChipConfig) -> None:
        w, h = config.width, config.height
        n = w * h
        self.width = w
        self.height = h
        self.num_cells = n
        self.num_links = 4 * n
        dst = [-1] * self.num_links
        for u in range(n):
            x, y = u % w, u // w
            base = u * 4
            if y > 0:
                dst[base + DIR_NORTH] = u - w
            if x > 0:
                dst[base + DIR_WEST] = u - 1
            if x < w - 1:
                dst[base + DIR_EAST] = u + 1
            if y < h - 1:
                dst[base + DIR_SOUTH] = u + w
        #: Destination cell per link id (-1 for off-mesh border slots).
        self.dst = dst
        #: Link-id step between consecutive links of a straight run, per
        #: direction: heading north the next link leaves the cell one row
        #: up, so its id is ``4 * width`` lower.
        self.steps = (-4 * w, -4, 4, 4 * w)

    # ------------------------------------------------------------------
    def lid(self, u: int, v: int) -> int:
        """The id of the directed link ``u -> v`` (must be mesh neighbours).

        Vertical moves are checked first so the scheme stays unambiguous on
        degenerate width-1 meshes (where ``u - 1 == u - width``).
        """
        w = self.width
        if v == u - w:
            return u * 4 + DIR_NORTH
        if v == u + w:
            return u * 4 + DIR_SOUTH
        if v == u - 1:
            return u * 4 + DIR_WEST
        if v == u + 1:
            return u * 4 + DIR_EAST
        raise ValueError(f"cells {u} and {v} are not mesh neighbours")

    def endpoints(self, lid: int) -> Tuple[int, int]:
        """The ``(src_cell, dst_cell)`` pair of a link id."""
        return lid >> 2, self.dst[lid]

    def is_valid(self, lid: int) -> bool:
        """True when the link id names a real on-mesh link."""
        return 0 <= lid < self.num_links and self.dst[lid] >= 0

    def describe(self, lid: int) -> str:
        """Human-readable form, e.g. ``"5->13 (south)"``."""
        u, v = self.endpoints(lid)
        return f"{u}->{v} ({DIR_NAMES[lid & 3]})"


class RoutingPolicy:
    """Base class for mesh routing policies.

    A routing policy answers a single question: given the current compute
    cell and the destination, which neighbouring cell does the message move
    to next?  Policies must be minimal and deterministic so the simulator can
    precompute route lengths.  Both policies here are dimension ordered, so
    a whole route is two straight legs (:meth:`route_legs`).
    """

    name = "abstract"

    def __init__(self, config: ChipConfig) -> None:
        self.config = config
        # route_legs runs once per injection and next_hop once per flit-hop
        # per cycle in the reference NoC, so cell coordinates are
        # precomputed once instead of re-deriving (and re-validating) them
        # through config.coords_of.
        self._coords: List[Tuple[int, int]] = [
            config.coords_of(cc) for cc in range(config.num_cells)
        ]
        self._width = config.width
        #: Directed-link id table shared with the NoC and the statistics.
        self.link_table = LinkTable(config)

    def next_hop(self, current: int, dst: int) -> int:
        """Return the next compute cell on the route from ``current`` to ``dst``."""
        raise NotImplementedError

    def route_legs(self, src: int, dst: int) -> Legs:
        """The ``src -> dst`` route as two straight legs of link ids.

        Returns ``(first, step, length)`` of the first leg followed by the
        same triple for the second: leg ``k`` crosses the links ``first +
        i * step`` for ``i < length``.  Either length may be 0 (a same-row
        or same-column route); both are 0 when ``src == dst``.  The
        cycle-accurate NoC calls this once per injected message and walks
        the legs by arithmetic, so it allocates nothing but the result.
        """
        raise NotImplementedError

    def route_lids(self, src: int, dst: int) -> List[int]:
        """The full ``src -> dst`` route as a list of directed-link ids."""
        a, step_a, len_a, b, step_b, len_b = self.route_legs(src, dst)
        route = list(range(a, a + step_a * len_a, step_a))
        route += range(b, b + step_b * len_b, step_b)
        return route

    # ------------------------------------------------------------------
    def route(self, src: int, dst: int) -> List[int]:
        """Full route as a list of compute cells, excluding ``src``.

        The last element is always ``dst``.  For ``src == dst`` the route is
        empty.
        """
        hops: List[int] = []
        cur = src
        guard = self.config.num_cells * 4 + 4
        while cur != dst:
            cur = self.next_hop(cur, dst)
            hops.append(cur)
            if len(hops) > guard:  # pragma: no cover - defensive
                raise RuntimeError(f"routing loop detected {src}->{dst}")
        return hops

    def route_length(self, src: int, dst: int) -> int:
        """Number of hops on the route (equals Manhattan distance)."""
        return self.config.manhattan(src, dst)


class YXRouting(RoutingPolicy):
    """Dimension-ordered routing: move in Y (vertical) first, then X.

    This is the policy used in the paper.  The only allowed turn is
    vertical -> horizontal, so no cycle of channel dependencies can form.
    """

    name = "yx"

    def next_hop(self, current: int, dst: int) -> int:
        coords = self._coords
        cx, cy = coords[current]
        dx, dy = coords[dst]
        if cy != dy:
            return current + self._width if dy > cy else current - self._width
        if cx != dx:
            return current + 1 if dx > cx else current - 1
        return current

    def route_legs(self, src: int, dst: int) -> Legs:
        # Vertical leg from src (link-id stride 4*width), then horizontal
        # leg (stride 4) from the turn cell in dst's row and src's column.
        # Direction offsets: N=0, W=1, E=2, S=3.
        sx, sy = self._coords[src]
        dx, dy = self._coords[dst]
        w = self._width
        turn = (src + (dy - sy) * w) * 4
        if dy >= sy:
            a, step_a, len_a = src * 4 + 3, w * 4, dy - sy
        else:
            a, step_a, len_a = src * 4, -w * 4, sy - dy
        if dx >= sx:
            return a, step_a, len_a, turn + 2, 4, dx - sx
        return a, step_a, len_a, turn + 1, -4, sx - dx


class XYRouting(RoutingPolicy):
    """Dimension-ordered routing: move in X (horizontal) first, then Y."""

    name = "xy"

    def next_hop(self, current: int, dst: int) -> int:
        coords = self._coords
        cx, cy = coords[current]
        dx, dy = coords[dst]
        if cx != dx:
            return current + 1 if dx > cx else current - 1
        if cy != dy:
            return current + self._width if dy > cy else current - self._width
        return current

    def route_legs(self, src: int, dst: int) -> Legs:
        # Mirror of YXRouting.route_legs: horizontal leg first, then vertical.
        sx, sy = self._coords[src]
        dx, dy = self._coords[dst]
        w = self._width
        turn = (src + dx - sx) * 4
        if dx >= sx:
            a, step_a, len_a = src * 4 + 2, 4, dx - sx
        else:
            a, step_a, len_a = src * 4 + 1, -4, sx - dx
        if dy >= sy:
            return a, step_a, len_a, turn + 3, w * 4, dy - sy
        return a, step_a, len_a, turn, -w * 4, sy - dy


_POLICIES = {"yx": YXRouting, "xy": XYRouting}


def make_routing(config: ChipConfig) -> RoutingPolicy:
    """Instantiate the routing policy named by ``config.routing``."""
    try:
        cls = _POLICIES[config.routing]
    except KeyError:  # pragma: no cover - config validates earlier
        raise ValueError(f"unknown routing policy {config.routing!r}") from None
    return cls(config)


def turns_of(config: ChipConfig, route_cells: List[int], src: int) -> List[Tuple[Tuple[int, int], Tuple[int, int]]]:
    """Return the list of (incoming-direction, outgoing-direction) turns on a route.

    Used by tests to assert the turn restriction: YX routes never turn from a
    horizontal movement back into a vertical one, and vice versa for XY.
    """
    turns = []
    prev = src
    prev_dir: Tuple[int, int] | None = None
    for cell in route_cells:
        px, py = config.coords_of(prev)
        cx, cy = config.coords_of(cell)
        cur_dir = (cx - px, cy - py)
        if prev_dir is not None and cur_dir != prev_dir:
            turns.append((prev_dir, cur_dir))
        prev_dir = cur_dir
        prev = cell
    return turns
