"""Busy-cell parking: transparency and truncation-safe parked-cell accounting.

A cell that starts a multi-cycle action is parked in the wake wheel instead
of being stepped through its instruction burn.  These tests pin the two
guarantees that make the mechanism safe:

* **Transparency** — for every workload and every ``max_cycles`` budget,
  a parking run produces exactly the statistics and cycle counts of the
  unparked cycle-by-cycle run.
* **Truncation accounting** — ``Simulator.finalize`` credits the elapsed
  portion of parked cells' instruction burns, idempotently, and without
  double counting when a truncated run is resumed.
"""

import pytest

from repro.arch.config import ChipConfig
from repro.runtime.device import AMCCADevice
from repro.runtime.terminator import Terminator


def build_relay_device(fidelity="cycle", fast_park=True):
    """A device whose workload alternates long burns with lone far messages.

    A ``relay`` action charges a long instruction burn (so the cell parks)
    and then propagates a single message to the opposite corner (so exactly
    one flit crosses the mesh alone while nothing else runs).
    """
    device = AMCCADevice(ChipConfig.small().with_(fidelity=fidelity))
    sim = device.simulator
    sim._fast_park = fast_park
    cfg = device.config
    corners = [cfg.cc_at(1, 1), cfg.cc_at(6, 6)]
    targets = [device.allocate_on(cc, {"hits": 0}) for cc in corners]

    def relay(ctx, obj, k):
        obj["hits"] += 1
        ctx.charge(12)
        if k > 0:
            nxt = targets[k % 2]
            ctx.propagate("relay", nxt, k - 1)

    device.register_action("relay", relay)
    device.send("relay", targets[0], 6)
    return device, sim


def run_relay(fidelity="cycle", fast=True, max_cycles=None):
    """Run the relay workload; return (summary, cycles, peak_parked)."""
    device, sim = build_relay_device(fidelity, fast_park=fast)
    peak = [0]
    step = sim.step

    def watch_parked():
        did_work = step()
        peak[0] = max(peak[0], sim._parked_count)
        return did_work

    sim.step = watch_parked
    result = device.run(Terminator(), max_cycles=max_cycles)
    summary = device.stats().summary()
    return summary, result.cycles, peak[0]


class TestParkTransparency:
    @pytest.mark.parametrize("fidelity", ["cycle", "latency"])
    def test_full_run_identical(self, fidelity):
        slow = run_relay(fidelity, fast=False)
        fast = run_relay(fidelity, fast=True)
        assert fast[0] == slow[0]          # bit-identical statistics
        assert fast[1] == slow[1]          # same simulated cycles
        assert fast[2] > 0 == slow[2]      # only the fast run parked

    @pytest.mark.parametrize("fidelity", ["cycle", "latency"])
    def test_every_truncation_point_is_identical(self, fidelity):
        full_cycles = run_relay(fidelity, fast=False)[1]
        for budget in range(1, full_cycles + 2, 7):
            slow = run_relay(fidelity, fast=False, max_cycles=budget)
            fast = run_relay(fidelity, fast=True, max_cycles=budget)
            assert fast[1] == slow[1] == min(budget, full_cycles), budget
            assert fast[0] == slow[0], f"stats diverge at budget {budget}"


class TestTruncationAccounting:
    def test_finalize_credits_mid_park_burns(self):
        # Truncate inside the very first burn: the unparked reference counts
        # one instruction per elapsed cycle; finalize() must agree.
        for budget in (3, 5, 9, 12):
            slow = run_relay("cycle", fast=False, max_cycles=budget)
            fast = run_relay("cycle", fast=True, max_cycles=budget)
            assert fast[0]["instructions"] == slow[0]["instructions"], budget

    def test_finalize_is_idempotent(self):
        device, sim = build_relay_device()
        device.run(Terminator(), max_cycles=9)
        first = device.stats().summary()
        second = device.stats().summary()
        assert first == second

    def test_resumed_run_does_not_double_count(self):
        reference = run_relay("cycle", fast=False)[0]

        device, sim = build_relay_device()
        terminator = Terminator()
        device.run(terminator, max_cycles=9)
        # Mid-run reconciliation (e.g. a report between increments)...
        device.stats()
        # ...then resume to completion: totals must match the straight run.
        device.run(terminator)
        assert device.stats().summary() == reference

    def test_busy_cycles_credited_on_cells(self):
        device, sim = build_relay_device()
        device.run(Terminator(), max_cycles=9)
        device.stats()
        busy_fast = sum(cell.busy_cycles for cell in sim.cells)

        device2, sim2 = build_relay_device(fast_park=False)
        device2.run(Terminator(), max_cycles=9)
        busy_slow = sum(cell.busy_cycles for cell in sim2.cells)
        assert busy_fast == busy_slow
