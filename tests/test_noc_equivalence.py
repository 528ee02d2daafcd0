"""Equivalence of the array-based NoC fast path with the reference model.

The array-keyed :class:`~repro.arch.noc.CycleAccurateNoC` must be
indistinguishable from the dictionary-based
:class:`~repro.arch.noc.ReferenceCycleAccurateNoC` (the executable spec):
same delivery order, same delivery cycles, same hop counts and same link
statistics, from single-message cases through full fixed-seed simulations.
Also covers the link-id tables, the two-leg route construction and the
deadline-bucketed latency model.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.arch.config import ChipConfig
from repro.arch.message import Message
from repro.arch.noc import (
    CycleAccurateNoC,
    LatencyNoC,
    ReferenceCycleAccurateNoC,
    build_noc,
)
from repro.arch.routing import LinkTable, make_routing
from repro.arch.stats import SimStats
from repro.datasets.streaming import make_streaming_dataset
from repro.graph.graph import DynamicGraph
from repro.runtime.device import AMCCADevice
from repro.snapshot.format import pack_value

from helpers import requires_numpy


def make_pair(width=8, height=8, routing="yx", max_message_words=8):
    """A (fast, reference) NoC pair over identical configs."""
    nocs = []
    for _ in range(2):
        cfg = ChipConfig(width=width, height=height, routing=routing,
                         max_message_words=max_message_words)
        stats = SimStats(num_cells=cfg.num_cells)
        nocs.append((cfg, stats, make_routing(cfg)))
    cfg_a, stats_a, pol_a = nocs[0]
    cfg_b, stats_b, pol_b = nocs[1]
    fast = CycleAccurateNoC(cfg_a, pol_a, stats_a)
    ref = ReferenceCycleAccurateNoC(cfg_b, pol_b, stats_b)
    return fast, ref


def drain_schedule(noc, injections, max_cycles=50_000):
    """Inject per schedule and drain; return [(cycle, index, hops), ...].

    ``injections`` is a list of (cycle, src, dst, size_words) tuples sorted
    by cycle; messages are injected before the advance of their cycle, the
    same order the simulator uses for IO injections.  ``index`` is a
    delivered message's injection order, looked up by identity (a message
    hashes by identity), so schedules of two NoCs compare directly.
    """
    out = []
    order = {}
    pending = list(injections)
    cycle = 0
    while (pending or not noc.is_empty) and cycle < max_cycles:
        while pending and pending[0][0] == cycle:
            _, src, dst, size = pending.pop(0)
            msg = Message(src=src, dst=dst, action="a", size_words=size)
            order[msg] = len(order)
            noc.inject(msg, cycle)
        for msg in noc.advance(cycle):
            out.append((cycle, order[msg], msg.hops))
        cycle += 1
    assert noc.is_empty, "drain did not converge"
    return out


class TestLinkTable:
    def test_ids_are_dense_and_invertible(self):
        cfg = ChipConfig(width=5, height=3)
        table = LinkTable(cfg)
        assert table.num_links == 4 * cfg.num_cells
        for u in range(cfg.num_cells):
            # Each neighbour is the destination of exactly one of u's slots,
            # so (lid >> 2, dst[lid]) names the link.
            slots = table.dst[4 * u:4 * u + 4]
            assert sorted(v for v in slots if v >= 0) == sorted(cfg.neighbors(u))

    def test_border_slots_are_invalid(self):
        cfg = ChipConfig(width=4, height=4)
        table = LinkTable(cfg)
        invalid = [lid for lid in range(table.num_links) if table.dst[lid] < 0]
        # Each border cell is missing one link per adjacent border.
        assert len(invalid) == 4 * 4  # 4 sides x 4 cells on a 4x4 mesh
        assert all(table.dst[lid] == -1 for lid in invalid)

    def test_lid_order_matches_lexicographic_endpoint_order(self):
        cfg = ChipConfig(width=4, height=4)
        table = LinkTable(cfg)
        pairs = [(lid >> 2, table.dst[lid]) for lid in range(table.num_links)
                 if table.dst[lid] >= 0]
        assert pairs == sorted(pairs)


def walk_lids(policy, src, dst):
    """The ``src -> dst`` route rebuilt link by link from ``next_hop``,
    finding each link id from the table's destination column."""
    table = policy.link_table
    lids = []
    cur = src
    while cur != dst:
        nxt = policy.next_hop(cur, dst)
        (lid,) = [lid for lid in range(4 * cur, 4 * cur + 4)
                  if table.dst[lid] == nxt]
        lids.append(lid)
        cur = nxt
    return lids


def leg_lids(policy, src, dst):
    """The link ids of the ``src -> dst`` route's two legs, in order."""
    a, step_a, len_a, b, step_b, len_b = policy.route_legs(src, dst)
    return ([a + i * step_a for i in range(len_a)]
            + [b + i * step_b for i in range(len_b)])


class TestRouteLids:
    @pytest.mark.parametrize("routing", ["yx", "xy"])
    def test_legs_match_next_hop_walk(self, routing):
        cfg = ChipConfig(width=7, height=5, routing=routing)
        policy = make_routing(cfg)
        rng = random.Random(3)
        for _ in range(200):
            src = rng.randrange(cfg.num_cells)
            dst = rng.randrange(cfg.num_cells)
            assert leg_lids(policy, src, dst) == walk_lids(policy, src, dst), (
                routing, src, dst)

    @settings(max_examples=300)
    @given(data=st.data())
    def test_legs_expand_to_next_hop_walk(self, data):
        routing = data.draw(st.sampled_from(["yx", "xy"]), label="routing")
        width, height = data.draw(
            st.sampled_from([(7, 5), (1, 6), (6, 1)]), label="mesh")
        cfg = ChipConfig(width=width, height=height, routing=routing)
        policy = make_routing(cfg)
        src = data.draw(st.integers(0, cfg.num_cells - 1), label="src")
        sx, sy = cfg.coords_of(src)
        pair = data.draw(st.sampled_from(["random", "same row", "same column"]),
                         label="pair")
        if pair == "same row":
            dst = cfg.cc_at(data.draw(st.integers(0, width - 1)), sy)
        elif pair == "same column":
            dst = cfg.cc_at(sx, data.draw(st.integers(0, height - 1)))
        else:
            dst = data.draw(st.integers(0, cfg.num_cells - 1), label="dst")
        a, step_a, len_a, b, step_b, len_b = policy.route_legs(src, dst)
        assert leg_lids(policy, src, dst) == walk_lids(policy, src, dst)
        assert len_a + len_b == cfg.manhattan(src, dst)
        # Each leg runs straight, and the two run in different directions:
        # the NoC reads a queued message's leg off its link's direction.
        table = policy.link_table
        for first, step, length in ((a, step_a, len_a), (b, step_b, len_b)):
            if length:
                assert step == table.steps[first & 3]
        if len_a and len_b:
            assert a & 3 != b & 3

    def test_route_length_is_manhattan(self):
        cfg = ChipConfig(width=9, height=9)
        policy = make_routing(cfg)
        for src, dst in ((0, 80), (5, 5), (8, 72), (40, 0)):
            assert len(leg_lids(policy, src, dst)) == cfg.manhattan(src, dst)


class TestLegStateRoundTrip:
    """Export -> import into a fresh python NoC resumes the legs exactly."""

    @staticmethod
    def run(noc, sched, start, cycles):
        """Inject and advance cycles ``start..cycles-1``; per cycle, return
        (deliveries as (cycle, message state), untraversed hops, export bytes)."""
        out = []
        for cycle in range(start, cycles):
            for when, src, dst, tag in sched:
                if when == cycle:
                    noc.inject(Message(src=src, dst=dst, action="a",
                                       operands=(tag,)), cycle)
            delivered = [(cycle, m.to_state()) for m in noc.advance(cycle)]
            out.append((delivered, noc.untraversed_hops(),
                        pack_value(noc.export_state())))
        return out

    @pytest.mark.parametrize("routing", ["yx", "xy"])
    def test_resume_at_every_cycle_matches_uninterrupted_run(self, routing):
        cfg = ChipConfig(width=6, height=6, routing=routing)
        # Routes converging on one corner and one column, so messages queue
        # on links before, on and after their turn.
        sched = [(c, cfg.cc_at(x, y), cfg.cc_at(5, 5), (c, x, y))
                 for c in range(4) for x, y in ((0, 0), (0, 3), (2, 0), (5, 0))]
        sched += [(c, cfg.cc_at(0, 5), cfg.cc_at(3, 1), (c, "col"))
                  for c in range(3)]
        cycles = 30

        def fresh():
            stats = SimStats(num_cells=cfg.num_cells)
            return CycleAccurateNoC(cfg, make_routing(cfg), stats)

        whole = self.run(fresh(), sched, 0, cycles)
        assert whole[-1][1] == 0 and sum(len(d) for d, _, _ in whole) == len(sched)
        positions = set()
        for cut in range(1, cycles):
            live = fresh()
            self.run(live, sched, 0, cut)
            state = live.export_state()
            for _lid, entries in state["active"]:
                for msg_state, hop in entries:
                    first_leg = live.routing.route_legs(*msg_state[:2])[2]
                    positions.add("before" if hop < first_leg - 1 else
                                  "last of first leg" if hop == first_leg - 1
                                  else "first of second leg" if hop == first_leg
                                  else "after")
            resumed = fresh()
            resumed.import_state(state)
            assert resumed.untraversed_hops() == live.untraversed_hops()
            assert self.run(resumed, sched, cut, cycles) == whole[cut:], cut
        assert positions == {"before", "last of first leg",
                             "first of second leg", "after"}


class TestScheduleEquivalence:
    """The fast path and the reference produce byte-identical schedules."""

    def test_single_message(self):
        fast, ref = make_pair()
        sched = [(0, 0, 27, 2)]
        assert drain_schedule(fast, sched) == drain_schedule(ref, sched)

    def test_two_messages_contending_for_one_link(self):
        # Both messages need the same first link: FIFO order decides, and
        # both models must agree on it.
        fast, ref = make_pair()
        cfg = ChipConfig(width=8, height=8)
        src, dst = cfg.cc_at(2, 2), cfg.cc_at(2, 6)
        sched = [(0, src, dst, 2), (0, src, dst, 2)]
        a = drain_schedule(fast, sched)
        b = drain_schedule(ref, sched)
        assert a == b
        assert len({c for c, _, _ in a}) == 2  # serialized on the shared links

    def test_corner_turn_routes_contend_identically(self):
        # Routes that turn at the same corner cell share only the post-turn
        # links; the queue order at the merge point must match.
        fast, ref = make_pair()
        cfg = ChipConfig(width=8, height=8)
        sched = [
            (0, cfg.cc_at(0, 0), cfg.cc_at(5, 4), 2),
            (0, cfg.cc_at(0, 4), cfg.cc_at(5, 4), 2),
            (1, cfg.cc_at(0, 2), cfg.cc_at(5, 4), 2),
        ]
        assert drain_schedule(fast, sched) == drain_schedule(ref, sched)

    def test_multi_flit_messages(self):
        fast, ref = make_pair(max_message_words=4)
        sched = [(0, 0, 18, 8), (0, 0, 18, 12), (2, 3, 18, 4)]
        assert drain_schedule(fast, sched) == drain_schedule(ref, sched)
        assert fast.stats.hops == ref.stats.hops

    def test_local_deliveries_first(self):
        fast, ref = make_pair()
        sched = [(0, 9, 9, 2), (0, 9, 17, 2)]
        assert drain_schedule(fast, sched) == drain_schedule(ref, sched)

    @pytest.mark.parametrize("routing", ["yx", "xy"])
    def test_random_storm(self, routing):
        fast, ref = make_pair(routing=routing)
        rng = random.Random(42)
        n = 64
        sched = sorted(
            (rng.randrange(30), rng.randrange(n), rng.randrange(n),
             rng.choice((2, 2, 2, 8, 12)))
            for _ in range(300)
        )
        a = drain_schedule(fast, sched)
        b = drain_schedule(ref, sched)
        assert a == b
        for field in ("hops", "link_busy", "messages_injected"):
            assert getattr(fast.stats, field) == getattr(ref.stats, field), field


@requires_numpy
class TestFullSimulationEquivalence:
    """Fixed-seed end-to-end runs: fidelity='cycle' == fidelity='cycle-ref'."""

    @pytest.mark.parametrize("sampling", ["edge", "snowball"])
    def test_streaming_bfs_records_identical(self, sampling):
        records = {}
        for fidelity in ("cycle", "cycle-ref"):
            dataset = make_streaming_dataset(
                150, 1200, sampling=sampling, num_increments=4, seed=11)
            chip = ChipConfig(width=8, height=8, edge_list_capacity=8,
                              fidelity=fidelity)
            device = AMCCADevice(chip)
            graph = DynamicGraph(device, dataset.num_vertices, seed=5)
            from repro.algorithms.bfs import StreamingBFS
            bfs = StreamingBFS(root=0)
            graph.attach(bfs)
            bfs.seed(graph, root=0)
            cycles = []
            delivery_order = []
            for i, increment in enumerate(dataset.increments, start=1):
                result = graph.stream_increment(increment, phase=f"inc-{i}")
                cycles.append(result.cycles)
            stats = device.stats()
            records[fidelity] = {
                "increment_cycles": cycles,
                "summary": stats.summary(),
                "bfs": bfs.results(graph),
            }
        fast, ref = records["cycle"], records["cycle-ref"]
        assert fast["increment_cycles"] == ref["increment_cycles"]
        assert fast["summary"] == ref["summary"]
        assert fast["bfs"] == ref["bfs"]

    def test_build_noc_selects_reference(self):
        cfg = ChipConfig(width=4, height=4, fidelity="cycle-ref")
        stats = SimStats(num_cells=cfg.num_cells)
        assert isinstance(build_noc(cfg, stats), ReferenceCycleAccurateNoC)


class TestLatencyBatched:
    def test_batched_and_legacy_modes_identical(self):
        """Delivery order and hops follow the contention-free model: each
        message is due at its inject cycle plus ``max(1, manhattan)``, in
        injection order within a deadline, and hops are manhattan x flits."""
        cfg = ChipConfig(width=8, height=8, fidelity="latency")
        stats = SimStats(num_cells=cfg.num_cells)
        noc = LatencyNoC(cfg, make_routing(cfg), stats)
        rng = random.Random(13)
        injected = []
        for cycle in range(20):
            for _ in range(rng.randrange(12)):
                msg = Message(src=rng.randrange(64), dst=rng.randrange(64),
                              action="a", size_words=rng.choice((2, 8, 12)))
                injected.append((cycle, msg))
                noc.inject(msg, cycle)
        flit_words = cfg.max_message_words
        expected = sorted(
            (cycle + max(1, cfg.manhattan(m.src, m.dst)), i)
            for i, (cycle, m) in enumerate(injected))
        order = {m: i for i, (_, m) in enumerate(injected)}
        out = []
        cycle = 0
        while not noc.is_empty and cycle < 1000:
            out.extend((cycle, order[m]) for m in noc.advance(cycle))
            cycle += 1
        assert out == expected
        assert stats.hops == sum(cfg.manhattan(m.src, m.dst) * m.flits(flit_words)
                                 for _, m in injected)
