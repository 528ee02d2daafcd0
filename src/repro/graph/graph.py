"""Host-facing facade tying vertices, streaming ingestion and an algorithm.

:class:`DynamicGraph` owns

* the root :class:`~repro.graph.rpvo.VertexBlock` of every logical vertex
  (allocated across the chip by a placement policy),
* the ghost allocator used for overflow blocks,
* the :class:`~repro.graph.ingest.EdgeIngestor` implementing
  ``insert-edge-action``,
* at most one attached streaming algorithm (BFS in the paper; see
  :mod:`repro.algorithms` for the full set), and
* host-side read-back used for verification against NetworkX.

A typical streaming experiment is a sequence of
:meth:`DynamicGraph.stream_increment` calls -- one per dynamic-graph
increment -- each of which queues the increment's edges on the IO channels,
runs the chip until the diffusion terminates, and returns that increment's
cycle count and statistics.
"""

from __future__ import annotations

from array import array
from typing import TYPE_CHECKING, Any, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.arch.address import Address
from repro.arch.config import ChipConfig
from repro.graph.allocator import GhostAllocator, VertexPlacement, make_ghost_allocator
from repro.graph.ingest import INSERT_EDGE_ACTION, EdgeIngestor
from repro.graph.rpvo import (
    Edge,
    EdgeSlot,
    VertexBlock,
    capture_blocks,
    check_block_table,
    restore_blocks,
)
from repro.runtime.device import AMCCADevice, RunResult
from repro.runtime.terminator import Terminator

if TYPE_CHECKING:  # pragma: no cover
    import networkx as nx


class DynamicGraph:
    """A streaming dynamic graph distributed over an AM-CCA chip."""

    def __init__(
        self,
        device: AMCCADevice,
        num_vertices: int,
        *,
        capacity: Optional[int] = None,
        ghost_slots: Optional[int] = None,
        placement: str = "round_robin",
        ghost_allocator: GhostAllocator | str = "vicinity",
        seed: Optional[int] = None,
        ingest_only: bool = False,
    ) -> None:
        if num_vertices <= 0:
            raise ValueError("num_vertices must be positive")
        self.device = device
        self.config: ChipConfig = device.config
        self.num_vertices = num_vertices
        self.capacity = capacity if capacity is not None else self.config.edge_list_capacity
        self.ghost_slots = ghost_slots if ghost_slots is not None else self.config.ghost_slots
        self.ingest_only = ingest_only
        self.algorithm = None  # type: ignore[assignment]
        self.ghost_blocks_allocated = 0

        if isinstance(ghost_allocator, str):
            ghost_allocator = make_ghost_allocator(ghost_allocator, self.config, seed=seed)
        self.ghost_allocator = ghost_allocator

        # --- allocate root blocks across the chip -----------------------
        self.placement = VertexPlacement(self.config, placement, seed=seed)
        cells = self.placement.place(num_vertices)
        self.vertex_addrs: Dict[int, Address] = {}
        self._root_blocks: Dict[int, VertexBlock] = {}
        for vid in range(num_vertices):
            block = VertexBlock(
                vid=vid,
                capacity=self.capacity,
                ghost_slots=self.ghost_slots,
                is_root=True,
            )
            addr = device.allocate_on(cells[vid], block, words=block.words())
            self.vertex_addrs[vid] = addr
            self._root_blocks[vid] = block

        # --- register the ingestion action -------------------------------
        self.ingestor = EdgeIngestor(self)
        self.ingestor.register()

        # streaming bookkeeping
        self.increments_streamed = 0
        self.edges_streamed = 0
        self.increment_results: List[RunResult] = []
        #: Work left outstanding by a truncated increment
        #: (``max_cycles_per_increment``).  The next increment's terminator
        #: starts pre-charged with it, so carried-over completions retire
        #: cleanly instead of driving the fresh counter negative.
        self.carried_outstanding = 0

    # ------------------------------------------------------------------
    # Algorithm attachment
    # ------------------------------------------------------------------
    def attach(self, algorithm) -> None:
        """Attach an algorithm (registers its actions, inits block state)."""
        self.algorithm = algorithm
        algorithm.attach(self)
        for block in self._root_blocks.values():
            algorithm.init_state(block)

    def detach(self) -> None:
        """Detach the current algorithm (pure ingestion afterwards)."""
        self.algorithm = None

    def close(self) -> None:
        """Break the run's reference cycles, so dropping the run frees it.

        The graph, its ingestor, its algorithm and its device point at each
        other; this cuts those links (and the device's own, see
        :meth:`AMCCADevice.close`), so the chip goes by reference counting
        as soon as the last outside reference does.  The graph cannot
        stream afterwards: close only a run that no caller keeps.
        """
        if self.algorithm is not None:
            self.algorithm.graph = None
        self.ingestor.close()
        self.device.close()

    # ------------------------------------------------------------------
    # Addresses and blocks
    # ------------------------------------------------------------------
    def address_of(self, vid: int) -> Address:
        """Global address of a vertex's root block."""
        return self.vertex_addrs[vid]

    def root_block(self, vid: int) -> VertexBlock:
        """Host-side reference to a vertex's root block."""
        return self._root_blocks[vid]

    def blocks_of(self, vid: int) -> List[VertexBlock]:
        """All blocks (root plus reachable ghosts) of a logical vertex."""
        blocks: List[VertexBlock] = []
        seen: Set[int] = set()
        stack: List[VertexBlock] = [self._root_blocks[vid]]
        while stack:
            block = stack.pop()
            if id(block) in seen:
                continue
            seen.add(id(block))
            blocks.append(block)
            for addr in block.resolved_ghosts():
                stack.append(self.device.get_object(addr))
        return blocks

    def ghost_chain_depth(self, vid: int) -> int:
        """Maximum ghost depth reached by a vertex (0 = root only)."""
        return max(block.depth for block in self.blocks_of(vid))

    # ------------------------------------------------------------------
    # Streaming
    # ------------------------------------------------------------------
    def _edge_to_transfer(self, edge: Edge) -> Tuple[Address, Tuple]:
        """Map a streamed edge to its target address and operands."""
        src_addr = self.vertex_addrs[edge.src]
        dst_addr = self.vertex_addrs[edge.dst]
        slot = EdgeSlot(dst_addr=dst_addr, dst_vid=edge.dst, weight=edge.weight)
        return src_addr, (slot,)

    def stream_increment(
        self,
        edges: Sequence[Edge] | Iterable[Edge],
        *,
        phase: Optional[str] = None,
        terminator: Optional[Terminator] = None,
        max_cycles: Optional[int] = None,
    ) -> RunResult:
        """Stream one dynamic-graph increment and run until it terminates.

        Returns the :class:`~repro.runtime.device.RunResult` for this
        increment only (its ``cycles`` field is the per-increment cycle count
        plotted in the paper's Figures 8 and 9).
        """
        edges = list(edges)
        phase = phase or f"increment-{self.increments_streamed + 1}"
        terminator = terminator or Terminator(phase)
        if self.carried_outstanding:
            # A previous increment was cut off by its cycle budget with
            # work still in flight; that work completes under *this*
            # increment's terminator, so charge it as sent here.
            terminator.on_sent(self.carried_outstanding)
        queued = self.device.register_data_transfer(
            edges, INSERT_EDGE_ACTION, self._edge_to_transfer
        )
        result = self.device.run(terminator=terminator, max_cycles=max_cycles, phase=phase)
        self.carried_outstanding = terminator.outstanding
        result.extra["edges"] = queued
        result.extra["terminator"] = terminator
        self.increments_streamed += 1
        self.edges_streamed += queued
        self.increment_results.append(result)
        return result

    def stream(self, increments: Sequence[Sequence[Edge]], **kwargs) -> List[RunResult]:
        """Stream a list of increments back to back; returns one result each."""
        return [self.stream_increment(inc, **kwargs) for inc in increments]

    # ------------------------------------------------------------------
    # Host-side read-back (verification)
    # ------------------------------------------------------------------
    def edges_of(self, vid: int) -> List[Tuple[int, int]]:
        """All ``(dst_vid, weight)`` pairs stored anywhere in the vertex's RPVO."""
        out: List[Tuple[int, int]] = []
        for block in self.blocks_of(vid):
            out.extend((slot.dst_vid, slot.weight) for slot in block.edges)
        return out

    def degree(self, vid: int) -> int:
        """Out-degree of a vertex (edges stored across root and ghosts)."""
        return len(self.edges_of(vid))

    def total_edges_stored(self) -> int:
        """Total number of edges stored on the chip (all vertices)."""
        return sum(self.degree(vid) for vid in range(self.num_vertices))

    def vertex_state(self, vid: int, key: str, default: Any = None) -> Any:
        """Read one algorithm-state field from a vertex's root block."""
        return self._root_blocks[vid].get_state(key, default)

    def to_networkx(self, directed: bool = True) -> "nx.DiGraph | nx.Graph":
        """Reconstruct the currently stored graph as a NetworkX graph."""
        import networkx as nx

        g: nx.DiGraph | nx.Graph = nx.DiGraph() if directed else nx.Graph()
        g.add_nodes_from(range(self.num_vertices))
        for vid in range(self.num_vertices):
            for dst, weight in self.edges_of(vid):
                g.add_edge(vid, dst, weight=weight)
        return g

    # ------------------------------------------------------------------
    # Snapshot support (see repro.snapshot)
    # ------------------------------------------------------------------
    def snapshot_state(self) -> Dict[str, Any]:
        """Graph-side state as plain values: blocks, allocator RNG, cursors.

        Blocks are captured column-wise (:func:`~repro.graph.rpvo.capture_blocks`)
        in two tables: ``roots`` in vertex-id order, and ``ghosts``, allocated
        at runtime, in ``(cell, object id)`` memory order.  Root addresses
        are derivable (the constructor re-places them deterministically)
        but are captured anyway so a restore can verify the layout matches.
        The ghost allocator's RNG state rides along so the next overflow
        after a restore picks the same cell the uninterrupted run would.
        """
        from repro.snapshot.format import SnapshotError

        ghosts: List[VertexBlock] = []
        ghost_addrs: List[Address] = []
        for cell in self.device.simulator.cells:
            for obj_id, obj in cell.memory.items():
                if not isinstance(obj, VertexBlock):
                    raise SnapshotError(
                        f"cell {cell.cc_id} memory slot {obj_id} holds a "
                        f"{type(obj).__name__}, not a VertexBlock; "
                        "graph-level snapshots only cover RPVO state")
                if not obj.is_root:
                    ghosts.append(obj)
                    ghost_addrs.append(Address(cell.cc_id, obj_id))
        allocator = self.ghost_allocator
        version, internal, gauss = allocator.rng.getstate()
        ingestor = self.ingestor
        return {
            "num_vertices": self.num_vertices,
            "increments_streamed": self.increments_streamed,
            "edges_streamed": self.edges_streamed,
            "carried_outstanding": self.carried_outstanding,
            "ghost_blocks_allocated": self.ghost_blocks_allocated,
            "increment_results": [
                (r.phase, r.cycles, r.start_cycle, r.end_cycle)
                for r in self.increment_results
            ],
            "roots": capture_blocks(list(self._root_blocks.values()),
                                    list(self.vertex_addrs.values())),
            "ghosts": capture_blocks(ghosts, ghost_addrs),
            "allocator": {
                "name": allocator.name,
                "rng": (version, array("q", internal), gauss),
                "placed": dict(allocator.placed),
                "distances": array("q", getattr(allocator, "_distances", ())),
            },
            "ingestor": {
                "edges_inserted": ingestor.edges_inserted,
                "ghosts_allocated": ingestor.ghosts_allocated,
                "ghost_forwards": ingestor.ghost_forwards,
                "future_enqueues": ingestor.future_enqueues,
            },
            "algorithm": self._algorithm_scalars(),
        }

    def _algorithm_scalars(self) -> Dict[str, Any]:
        """Host-side scalar counters of the attached algorithm (if any)."""
        if self.algorithm is None:
            return {}
        return {
            key: value
            for key, value in vars(self.algorithm).items()
            if isinstance(value, (int, float, str, bool, type(None)))
        }

    def restore_snapshot_state(self, state: Dict[str, Any]) -> None:
        """Overlay :meth:`snapshot_state` output onto this freshly built graph.

        The graph must have been constructed from the same spec (vertices,
        placement, seed, chip) and have streamed nothing yet; the root-block
        address check catches mismatches.  Both block tables are checked
        (:func:`~repro.graph.rpvo.check_block_table`) before any block is
        touched.  Cell-level allocation counters are owned by
        :meth:`repro.arch.simulator.Simulator.restore_state`.
        """
        from repro.snapshot.format import SnapshotError

        if state["num_vertices"] != self.num_vertices:
            raise SnapshotError(
                f"snapshot has {state['num_vertices']} vertices, this graph "
                f"has {self.num_vertices}: scenario/spec mismatch")
        if self.increments_streamed:
            raise SnapshotError(
                "restore target must be a freshly built graph "
                f"(this one already streamed {self.increments_streamed} "
                "increments)")
        roots, ghosts = state["roots"], state["ghosts"]
        if check_block_table(roots, self.ghost_slots, "roots") != self.num_vertices:
            raise SnapshotError(
                f"corrupt snapshot: {len(roots['vid'])} root blocks for "
                f"{self.num_vertices} vertices")
        check_block_table(ghosts, self.ghost_slots, "ghosts")
        for vid, (cc, obj, captured_vid, capacity) in enumerate(zip(
                roots["cc"], roots["obj"], roots["vid"], roots["capacity"])):
            addr = self.vertex_addrs[vid]
            if (addr.cc_id, addr.obj_id) != (cc, obj):
                raise SnapshotError(
                    f"vertex {vid} was placed at {Address(cc, obj)} in the "
                    f"captured run but at {addr} here: the chip spec, "
                    "placement policy or graph seed differs")
            if (captured_vid, capacity) != (vid, self.capacity):
                raise SnapshotError(
                    f"snapshot block v{captured_vid} (capacity {capacity}) "
                    f"does not match vertex {vid} (capacity "
                    f"{self.capacity}): the chip spec or graph seed differs "
                    "from the captured run")
        restore_blocks(roots, list(self._root_blocks.values()))
        cells = self.device.simulator.cells
        blocks = [VertexBlock(vid, capacity, self.ghost_slots, is_root=False)
                  for vid, capacity in zip(ghosts["vid"], ghosts["capacity"])]
        restore_blocks(ghosts, blocks)
        for cc, obj, block in zip(ghosts["cc"], ghosts["obj"], blocks):
            if not 0 <= cc < len(cells):
                raise SnapshotError(
                    f"corrupt snapshot: ghost block on cell {cc} of "
                    f"{len(cells)}")
            cells[cc].memory[obj] = block
        self.increments_streamed = state["increments_streamed"]
        self.edges_streamed = state["edges_streamed"]
        self.carried_outstanding = state["carried_outstanding"]
        self.ghost_blocks_allocated = state["ghost_blocks_allocated"]
        stats = self.device.simulator.stats
        self.increment_results = [
            RunResult(cycles=cycles, start_cycle=start, end_cycle=end,
                      stats=stats, phase=phase)
            for phase, cycles, start, end in state["increment_results"]
        ]
        allocator = self.ghost_allocator
        alloc_state = state["allocator"]
        if alloc_state["name"] != allocator.name:
            raise SnapshotError(
                f"snapshot used the {alloc_state['name']!r} ghost allocator, "
                f"this graph uses {allocator.name!r}")
        version, internal, gauss = alloc_state["rng"]
        allocator.rng.setstate((version, tuple(internal), gauss))
        allocator.placed = dict(alloc_state["placed"])
        if hasattr(allocator, "_distances"):
            allocator._distances = list(alloc_state["distances"])
        for key, value in state["ingestor"].items():
            setattr(self.ingestor, key, value)
        if self.algorithm is not None:
            for key, value in state["algorithm"].items():
                setattr(self.algorithm, key, value)
        # Re-arm the IO channels for items queued but not yet injected at
        # capture time (the item queues themselves are restored with the
        # simulator's IO state; only the factory — code — must be rebuilt).
        io = self.device.simulator.io
        if io._pending and io._factory is None:
            io._factory = self.device.make_transfer_factory(
                INSERT_EDGE_ACTION, self._edge_to_transfer)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def ghost_report(self) -> Dict[str, Any]:
        """Summary of ghost allocation behaviour (used by the allocator ablation)."""
        depths = [self.ghost_chain_depth(v) for v in range(self.num_vertices)]
        return {
            "ghost_blocks": self.ghost_blocks_allocated,
            "max_depth": max(depths) if depths else 0,
            "mean_ghost_distance": self.ghost_allocator.mean_distance(),
            "allocator": self.ghost_allocator.name,
        }

    def per_increment_cycles(self) -> List[int]:
        """Cycle counts of every streamed increment, in order."""
        return [r.cycles for r in self.increment_results]
