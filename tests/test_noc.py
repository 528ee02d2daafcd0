"""Tests for both NoC fidelity models: delivery, latency, contention."""


from repro.arch.config import ChipConfig
from repro.arch.message import Message
from repro.arch.noc import CycleAccurateNoC, LatencyNoC, build_noc
from repro.arch.routing import make_routing
from repro.arch.stats import SimStats


def make_noc(fidelity="cycle", width=8, height=8, kernel="auto"):
    cfg = ChipConfig(width=width, height=height, fidelity=fidelity, kernel=kernel)
    stats = SimStats(num_cells=cfg.num_cells)
    return cfg, stats, build_noc(cfg, stats)


def drain(noc, max_cycles=10_000):
    """Advance the NoC until empty; return [(cycle, message), ...]."""
    delivered = []
    cycle = 1
    while not noc.is_empty and cycle < max_cycles:
        for msg in noc.advance(cycle):
            delivered.append((cycle, msg))
        cycle += 1
    return delivered


class TestBuildNoc:
    def test_cycle_fidelity(self):
        _, _, noc = make_noc("cycle")
        assert isinstance(noc, CycleAccurateNoC)

    def test_latency_fidelity(self):
        _, _, noc = make_noc("latency")
        assert isinstance(noc, LatencyNoC)


class TestCycleAccurateNoC:
    def test_delivery_latency_equals_manhattan(self):
        cfg, _, noc = make_noc("cycle")
        src, dst = cfg.cc_at(0, 0), cfg.cc_at(5, 3)
        msg = Message(src=src, dst=dst, action="a")
        noc.inject(msg, cycle=0)
        delivered = drain(noc)
        assert len(delivered) == 1
        cycle, got = delivered[0]
        assert got is msg
        assert got.hops == cfg.manhattan(src, dst)
        assert cycle == cfg.manhattan(src, dst)

    def test_local_message_delivered_without_hops(self):
        cfg, stats, noc = make_noc("cycle")
        msg = Message(src=5, dst=5, action="a")
        noc.inject(msg, cycle=0)
        delivered = noc.advance(1)
        assert delivered == [msg]
        assert msg.hops == 0
        assert stats.hops == 0

    def test_no_message_is_lost(self):
        cfg, _, noc = make_noc("cycle")
        msgs = [
            Message(src=i % cfg.num_cells, dst=(i * 7 + 3) % cfg.num_cells, action="a")
            for i in range(100)
        ]
        for m in msgs:
            noc.inject(m, cycle=0)
        delivered = drain(noc)
        assert len(delivered) == len(msgs)
        # A message hashes by identity.
        assert {m for _, m in delivered} == set(msgs)

    def test_link_contention_serializes(self):
        """Messages sharing every link are delivered one cycle apart."""
        cfg, _, noc = make_noc("cycle")
        src, dst = cfg.cc_at(0, 0), cfg.cc_at(0, 4)
        msgs = [Message(src=src, dst=dst, action="a") for _ in range(4)]
        for m in msgs:
            noc.inject(m, cycle=0)
        delivered = drain(noc)
        cycles = sorted(c for c, _ in delivered)
        assert len(set(cycles)) == 4, "serialized messages must arrive on distinct cycles"
        assert min(cycles) == cfg.manhattan(src, dst)

    def test_disjoint_paths_do_not_contend(self):
        cfg, _, noc = make_noc("cycle")
        a = Message(src=cfg.cc_at(0, 0), dst=cfg.cc_at(0, 3), action="a")
        b = Message(src=cfg.cc_at(7, 7), dst=cfg.cc_at(7, 4), action="a")
        noc.inject(a, cycle=0)
        noc.inject(b, cycle=0)
        delivered = drain(noc)
        assert [c for c, _ in delivered] == [3, 3]

    def test_hop_count_statistics(self):
        cfg, stats, noc = make_noc("cycle")
        msg = Message(src=cfg.cc_at(0, 0), dst=cfg.cc_at(2, 2), action="a")
        noc.inject(msg, cycle=0)
        drain(noc)
        assert stats.hops == 4
        assert stats.messages_injected == 1

    def test_oversized_message_charges_extra_flits(self):
        cfg = ChipConfig(width=8, height=8, max_message_words=4)
        stats = SimStats(num_cells=cfg.num_cells)
        noc = CycleAccurateNoC(cfg, make_routing(cfg), stats)
        msg = Message(src=cfg.cc_at(0, 0), dst=cfg.cc_at(0, 2), action="a", size_words=8)
        noc.inject(msg, cycle=0)
        drain(noc)
        assert stats.hops == 2 * 2  # 2 link traversals x 2 flits

    def test_one_hop_per_cycle(self):
        # Hops are written once at delivery, so progress in flight shows as
        # the untraversed remainder falling by one link per advance; the
        # advance call that returns the message is its delivery cycle.
        cfg, _, noc = make_noc("cycle", kernel="python")
        msg = Message(src=cfg.cc_at(0, 0), dst=cfg.cc_at(0, 5), action="a")
        noc.inject(msg, cycle=0)
        assert noc.untraversed_hops() == 5
        for cycle in range(1, 5):
            assert noc.advance(cycle) == []
            assert noc.untraversed_hops() == 5 - cycle
        assert noc.advance(5) == [msg]
        assert msg.hops == 5
        assert noc.untraversed_hops() == 0


class TestLatencyNoC:
    def test_delivery_after_manhattan_delay(self):
        cfg, _, noc = make_noc("latency")
        src, dst = cfg.cc_at(1, 1), cfg.cc_at(4, 6)
        msg = Message(src=src, dst=dst, action="a")
        noc.inject(msg, cycle=0)
        dist = cfg.manhattan(src, dst)
        for cycle in range(1, dist):
            assert noc.advance(cycle) == []
        assert noc.advance(dist) == [msg]

    def test_no_contention_same_path(self):
        cfg, _, noc = make_noc("latency")
        src, dst = cfg.cc_at(0, 0), cfg.cc_at(0, 4)
        msgs = [Message(src=src, dst=dst, action="a") for _ in range(5)]
        for m in msgs:
            noc.inject(m, cycle=0)
        delivered = drain(noc)
        assert len({c for c, _ in delivered}) == 1, "latency model ignores contention"

    def test_minimum_one_cycle_latency(self):
        cfg, _, noc = make_noc("latency")
        msg = Message(src=3, dst=3, action="a")
        noc.inject(msg, cycle=0)
        assert noc.advance(0) == []
        assert noc.advance(1) == [msg]

    def test_hops_counted(self):
        cfg, stats, noc = make_noc("latency")
        msg = Message(src=cfg.cc_at(0, 0), dst=cfg.cc_at(3, 3), action="a")
        noc.inject(msg, cycle=0)
        drain(noc)
        assert stats.hops == 6


class TestFidelityComparison:
    def test_latency_is_lower_bound_of_cycle_model(self):
        """Under contention the cycle-accurate model can only be slower."""
        for fidelity in ("cycle", "latency"):
            cfg, _, noc = make_noc(fidelity)
            src, dst = cfg.cc_at(0, 0), cfg.cc_at(0, 5)
            for _ in range(6):
                noc.inject(Message(src=src, dst=dst, action="a"), cycle=0)
            delivered = drain(noc)
            last = max(c for c, _ in delivered)
            if fidelity == "latency":
                latency_last = last
            else:
                cycle_last = last
        assert cycle_last >= latency_last
