"""IO channels and IO cells: how data streams onto the AM-CCA chip.

The chip borders carry IO channels composed of IO cells, each attached to a
border compute cell (Figure 2 of the paper).  During a streaming increment
every IO cell, every cycle, reads one queued item (an edge), builds the
action message registered for the transfer (``INSERT_ACTION`` in the paper's
Listing 1) and sends it to its attached compute cell, from which it enters
the mesh.

:class:`IOSystem` owns the IO cells of all configured chip sides and
round-robins the items of a registered transfer across them, which is how
the paper describes the distribution of edges among IO cells.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Iterable, List, Optional, Sequence

from repro.arch.config import ChipConfig
from repro.arch.message import Message

#: Builds the message for one streamed item; provided by the runtime/device.
MessageFactory = Callable[[object, int], Optional[Message]]


class IOCell:
    """A single IO cell attached to one border compute cell."""

    __slots__ = ("io_id", "attached_cc", "queue", "injected")

    def __init__(self, io_id: int, attached_cc: int) -> None:
        self.io_id = io_id
        self.attached_cc = attached_cc
        self.queue: Deque[object] = deque()
        self.injected = 0

    @property
    def pending(self) -> int:
        return len(self.queue)

    def push(self, item: object) -> None:
        self.queue.append(item)


def _border_cells(config: ChipConfig, side: str) -> List[int]:
    """Compute-cell ids along one chip border, ordered along the border."""
    if side == "west":
        return [config.cc_at(0, y) for y in range(config.height)]
    if side == "east":
        return [config.cc_at(config.width - 1, y) for y in range(config.height)]
    if side == "north":
        return [config.cc_at(x, 0) for x in range(config.width)]
    if side == "south":
        return [config.cc_at(x, config.height - 1) for x in range(config.width)]
    raise ValueError(f"unknown side {side!r}")


class IOSystem:
    """All IO channels of the chip plus the registered data transfer."""

    def __init__(self, config: ChipConfig) -> None:
        self.config = config
        self.cells: List[IOCell] = []
        io_id = 0
        seen = set()
        for side in config.io_sides:
            for cc in _border_cells(config, side):
                if cc in seen:
                    # A corner cell can belong to two sides; attach one IO cell only.
                    continue
                seen.add(cc)
                self.cells.append(IOCell(io_id, cc))
                io_id += 1
        self._factory: Optional[MessageFactory] = None
        self.total_items = 0
        self.total_injected = 0
        # Incrementally maintained so the simulator's per-cycle quiescence
        # check does not re-sum every IO cell's queue length.
        self._pending = 0

    # ------------------------------------------------------------------
    def register_transfer(self, items: Sequence[object] | Iterable[object],
                          factory: MessageFactory) -> int:
        """Queue ``items`` round-robin across the IO cells for streaming.

        Multiple transfers may be registered over a run (one per streaming
        increment); items are appended behind whatever is still queued.
        Returns the number of items queued.
        """
        if not self.cells:
            raise RuntimeError("chip has no IO cells configured")
        self._factory = factory
        count = 0
        ncells = len(self.cells)
        for i, item in enumerate(items):
            self.cells[i % ncells].push(item)
            count += 1
        self.total_items += count
        self._pending += count
        return count

    @property
    def pending(self) -> int:
        """Number of items still waiting to be injected."""
        return self._pending

    @property
    def drained(self) -> bool:
        return self._pending == 0

    # ------------------------------------------------------------------
    # Snapshot support (see repro.snapshot).  Queued items are exported
    # per IO cell (round-robin position included, by construction); the
    # message *factory* is code and is re-registered by whichever layer
    # owns it (the device's data-transfer machinery) after import.
    # ------------------------------------------------------------------
    def export_state(self) -> dict:
        return {
            "total_items": self.total_items,
            "total_injected": self.total_injected,
            "queues": [list(cell.queue) for cell in self.cells],
            "injected": [cell.injected for cell in self.cells],
        }

    def import_state(self, state: dict) -> None:
        self.total_items = state["total_items"]
        self.total_injected = state["total_injected"]
        pending = 0
        for cell, items, injected in zip(self.cells, state["queues"],
                                         state["injected"]):
            cell.queue = deque(items)
            cell.injected = injected
            pending += len(items)
        self._pending = pending

    def step(self, cycle: int) -> List[Message]:
        """Advance every IO cell by one cycle; return the created messages.

        Each IO cell with queued items emits at most one message (the
        paper's 1 edge/cycle rule).
        """
        if self._factory is None or self._pending == 0:
            return []
        out: List[Message] = []
        out_append = out.append
        factory = self._factory
        drained = 0
        for cell in self.cells:
            q = cell.queue
            if not q:
                continue
            msg = factory(q.popleft(), cell.attached_cc)
            drained += 1
            if msg is not None:
                cell.injected += 1
                out_append(msg)
        self._pending -= drained
        self.total_injected += len(out)
        return out
