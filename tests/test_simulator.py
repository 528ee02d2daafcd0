"""Tests for the cycle-driven simulator: dispatch, quiescence, accounting."""

import pytest

from repro.arch.cell import Task
from repro.arch.config import ChipConfig
from repro.arch.message import Message
from repro.arch.simulator import Simulator


def echo_executor(record):
    """An executor that records delivered messages and does one cycle of work."""

    def execute(cell, msg):
        record.append((cell.cc_id, msg.action, msg.operands))
        return 1, []

    return execute


def make_sim(record=None, **overrides):
    cfg = ChipConfig(width=4, height=4, **overrides)
    sim = Simulator(cfg)
    sim.set_executor(echo_executor(record if record is not None else []))
    return cfg, sim


class TestDispatchAndDelivery:
    def test_requires_executor(self):
        sim = Simulator(ChipConfig(width=2, height=2))
        with pytest.raises(RuntimeError):
            sim.step()

    def test_message_is_dispatched_at_destination(self):
        record = []
        cfg, sim = make_sim(record)
        msg = Message(src=0, dst=cfg.cc_at(3, 3), action="ping", operands=(42,))
        sim.inject_message(msg)
        sim.run(max_cycles=100)
        assert record == [(cfg.cc_at(3, 3), "ping", (42,))]

    def test_enqueue_task_directly(self):
        record = []
        cfg, sim = make_sim(record)
        done = []
        sim.enqueue_task(5, Task(lambda: (done.append(True) or (1, [])), label="x"))
        sim.run(max_cycles=10)
        assert done == [True]

    def test_quiescence_detected(self):
        record = []
        _, sim = make_sim(record)
        msg = Message(src=0, dst=10, action="ping")
        sim.inject_message(msg)
        cycles = sim.run(max_cycles=1000)
        assert sim.is_quiescent
        assert cycles < 1000

    def test_idle_chip_is_quiescent_immediately(self):
        _, sim = make_sim()
        assert sim.is_quiescent
        assert sim.run(max_cycles=5) <= 5

    def test_run_until_predicate(self):
        record = []
        _, sim = make_sim(record)
        for i in range(4):
            sim.inject_message(Message(src=0, dst=15, action="p", operands=(i,)))
        sim.run(until=lambda: len(record) >= 2, max_cycles=500)
        assert len(record) >= 2

    def test_max_cycles_budget_respected(self):
        record = []
        _, sim = make_sim(record)
        sim.inject_message(Message(src=0, dst=15, action="p"))
        ran = sim.run(max_cycles=2)
        assert ran == 2


class TestAccounting:
    def test_active_cells_recorded_per_cycle(self):
        record = []
        cfg, sim = make_sim(record)
        sim.inject_message(Message(src=0, dst=cfg.cc_at(1, 0), action="p"))
        sim.run(max_cycles=50)
        assert sim.stats.cycles > 0
        assert max(sim.stats.cycles_by_active_cells) >= 1

    def test_finalize_collects_cell_counters_idempotently(self):
        record = []
        _, sim = make_sim(record)
        sim.inject_message(Message(src=0, dst=9, action="p"))
        sim.run(max_cycles=100)
        first = sim.finalize().instructions
        second = sim.finalize().instructions
        assert first == second >= 1

    def test_energy_report_nonzero_after_work(self):
        record = []
        _, sim = make_sim(record)
        sim.inject_message(Message(src=0, dst=9, action="p"))
        sim.run(max_cycles=100)
        assert sim.energy_report().total_uj > 0

    def test_memory_occupancy(self):
        _, sim = make_sim()
        sim.cell(3).allocate("obj", words=7)
        occupancy = sim.memory_occupancy()
        assert occupancy[3] == 7
        assert occupancy[0] == 0

    def test_all_objects_iterates_memory(self):
        _, sim = make_sim()
        sim.cell(1).allocate("a")
        sim.cell(2).allocate("b")
        assert set(sim.all_objects()) == {"a", "b"}


class TestStagedPropagation:
    def test_task_propagated_message_travels(self):
        """A task that emits a message gets it staged, injected and delivered."""
        cfg = ChipConfig(width=4, height=4)
        sim = Simulator(cfg)
        arrived = []

        def execute(cell, msg):
            if msg.action == "first":
                out = Message(src=cell.cc_id, dst=cfg.cc_at(3, 3), action="second")
                return 1, [out]
            arrived.append(cell.cc_id)
            return 1, []

        sim.set_executor(execute)
        sim.inject_message(Message(src=0, dst=cfg.cc_at(0, 3), action="first"))
        sim.run(max_cycles=200)
        assert arrived == [cfg.cc_at(3, 3)]
        assert sim.is_quiescent
