"""Tests for the compute cell: memory, task execution, one operation per cycle.

The execution rule runs in ``Simulator.step``, so the execution tests drive
a small chip with directly enqueued tasks and read each cycle's operation
off the cell's counters and the per-cycle statistics.
"""

import pytest

from repro.arch.address import Address
from repro.arch.cell import ComputeCell, Task
from repro.arch.config import ChipConfig
from repro.arch.message import Message
from repro.arch.simulator import Simulator


def make_cell(cc_id=0):
    return ComputeCell(cc_id, 0, 0)


def simple_task(cost=1, messages=None, label="t"):
    msgs = messages or []
    return Task(lambda: (cost, list(msgs)), label=label)


def make_chip():
    """A 2x2 chip whose executor records every message delivered to it."""
    sim = Simulator(ChipConfig(width=2, height=2))
    delivered = []

    def execute(cell, msg):
        delivered.append((cell.cc_id, msg))
        return 1, []

    sim.set_executor(execute)
    return sim, delivered


def spy_injections(sim):
    """Record ``(cycle, message)`` for every message handed to the NoC.

    The native cell loop injects along a route it has already seen
    without calling ``noc.inject``, so a test reading staging cycles this
    way sends each message along a route of its own.
    """
    injected = []
    inject = sim.noc.inject

    def spy(msg, cycle):
        injected.append((cycle, msg))
        inject(msg, cycle)

    sim.noc.inject = spy
    return injected


def step(sim, cc_id=0):
    """Advance the chip one cycle and name cell ``cc_id``'s operation in it.

    A busy cycle executes one instruction or stages one message, so the
    cell's counters tell which: ``"compute"``, ``"stage"``, or ``None``.
    """
    cell = sim.cell(cc_id)
    instructions, staged = cell.instructions_executed, cell.messages_staged
    sim.step()
    if cell.instructions_executed > instructions:
        return "compute"
    if cell.messages_staged > staged:
        return "stage"
    return None


class TestMemory:
    def test_allocate_returns_local_address(self):
        cell = make_cell(3)
        addr = cell.allocate({"x": 1}, words=5)
        assert addr.cc_id == 3
        assert cell.get(addr) == {"x": 1}
        assert cell.memory_words == 5

    def test_allocate_unique_object_ids(self):
        cell = make_cell()
        addrs = [cell.allocate(i) for i in range(10)]
        assert len({a.obj_id for a in addrs}) == 10

    def test_deallocate_frees_words(self):
        cell = make_cell()
        addr = cell.allocate("obj", words=4)
        cell.deallocate(addr, words=4)
        assert cell.memory_words == 0
        with pytest.raises(KeyError):
            cell.get(addr)

    def test_get_remote_address_raises(self):
        cell = make_cell(0)
        with pytest.raises(ValueError):
            cell.get(Address(1, 0))

    def test_deallocate_remote_address_raises(self):
        cell = make_cell(0)
        with pytest.raises(ValueError):
            cell.deallocate(Address(2, 0))

    def test_allocation_counter(self):
        cell = make_cell()
        for i in range(4):
            cell.allocate(i)
        assert cell.allocations == 4


class TestContinuations:
    def test_register_and_pop(self):
        cell = make_cell()
        cid = cell.register_continuation(lambda v: v)
        fn = cell.pop_continuation(cid)
        assert fn(7) == 7
        with pytest.raises(KeyError):
            cell.pop_continuation(cid)

    def test_ids_are_unique(self):
        cell = make_cell()
        ids = {cell.register_continuation(lambda v: v) for _ in range(5)}
        assert len(ids) == 5


class TestExecution:
    def test_idle_cell_does_nothing(self):
        sim, _ = make_chip()
        assert step(sim) is None
        assert not sim.cell(0).has_work
        assert sim.stats.cycles_by_active_cells == {0: 1}

    def test_single_cycle_task(self):
        sim, _ = make_chip()
        sim.enqueue_task(0, simple_task(cost=1))
        assert step(sim) == "compute"
        assert step(sim) is None
        cell = sim.cell(0)
        assert cell.tasks_executed == 1
        assert cell.instructions_executed == 1
        assert sim.stats.cycles_by_active_cells == {1: 1, 0: 1}

    def test_multi_cycle_task_charges_each_cycle(self):
        sim, _ = make_chip()
        sim.enqueue_task(0, simple_task(cost=3))
        ops = [step(sim) for _ in range(4)]
        assert ops == ["compute", "compute", "compute", None]
        assert sim.cell(0).instructions_executed == 3
        assert sim.stats.cycles_by_active_cells == {1: 3, 0: 1}

    def test_minimum_cost_is_one(self):
        sim, _ = make_chip()
        sim.enqueue_task(0, simple_task(cost=0))
        assert step(sim) == "compute"
        assert step(sim) is None
        assert sim.cell(0).instructions_executed == 1

    def test_messages_released_after_instructions(self):
        msg = Message(src=0, dst=1, action="a")
        sim, delivered = make_chip()
        injected = spy_injections(sim)
        cell = sim.cell(0)
        sim.enqueue_task(0, simple_task(cost=2, messages=[msg]))
        assert step(sim) == "compute"      # first instruction
        assert not cell.staging            # message held until cost charged
        assert step(sim) == "compute"      # second instruction -> release
        assert list(cell.staging) == [msg]
        assert step(sim) == "stage"        # staging takes its own cycle
        assert not cell.staging and injected == [(2, msg)]
        assert sim.stats.cycles_by_in_flight == {0: 2, 1: 1}
        sim.run()
        assert delivered == [(1, msg)]

    def test_one_staging_per_cycle(self):
        msgs = [Message(src=0, dst=dst, action="a") for dst in (1, 2, 3)]
        sim, delivered = make_chip()
        injected = spy_injections(sim)
        sim.enqueue_task(0, simple_task(cost=1, messages=msgs))
        assert step(sim) == "compute"
        assert [step(sim) for _ in range(3)] == ["stage"] * 3
        assert injected == [(1, msgs[0]), (2, msgs[1]), (3, msgs[2])]
        sim.run()
        assert [m for _, m in delivered] == msgs
        assert sim.cell(0).messages_staged == 3

    def test_staging_drains_before_next_task(self):
        msg = Message(src=0, dst=1, action="a")
        sim, _ = make_chip()
        cell = sim.cell(0)
        sim.enqueue_task(0, simple_task(cost=1, messages=[msg]))
        sim.enqueue_task(0, simple_task(cost=1, label="second"))
        assert step(sim) == "compute"
        assert step(sim) == "stage"
        assert cell.tasks_executed == 1
        assert step(sim) == "compute"  # only now does the second task start
        assert cell.tasks_executed == 2

    def test_has_work_reflects_all_queues(self):
        sim, _ = make_chip()
        cell = sim.cell(0)
        assert not cell.has_work
        sim.enqueue_task(0, simple_task())
        assert cell.has_work
        step(sim)
        assert not cell.has_work

    def test_busy_cycles_counter(self):
        sim, _ = make_chip()
        sim.enqueue_task(0, simple_task(cost=2))
        step(sim)
        step(sim)
        assert sim.cell(0).busy_cycles == 2
        assert sim.stats.cycles_by_active_cells == {1: 2}


class TestTaskRepr:
    def test_task_label(self):
        task = simple_task(label="insert-edge")
        assert "insert-edge" in repr(task)
