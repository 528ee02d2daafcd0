"""Pinning tests for the prepaid-hops truncation accounting.

The fast cycle NoC and the latency model prepay a
message's whole flit-hop charge at injection; the per-hop-accruing
``cycle-ref`` model is the executable spec of what was actually traversed.
``untraversed_hops()`` / ``SimStats.hops_untraversed`` turn the documented
truncation caveat into explicit accounting, pinned here by reconciling the
fast models against the reference mid-flight:

    fast.stats.hops - fast.untraversed_hops() == ref.stats.hops

at every cycle, with the remainder identically 0 at quiescence.
"""

import random

from repro.arch.config import ChipConfig
from repro.arch.message import Message
from repro.arch.noc import (
    CycleAccurateNoC,
    LatencyNoC,
    ReferenceCycleAccurateNoC,
)
from repro.arch.routing import make_routing
from repro.arch.stats import SimStats
from repro.harness import ChipSpec, DatasetSpec, RunOptions, Scenario
from repro.harness.runner import run_scenario


def _build(model_cls, width=6, height=6, max_message_words=4):
    cfg = ChipConfig(width=width, height=height,
                     max_message_words=max_message_words)
    stats = SimStats(num_cells=cfg.num_cells)
    pol = make_routing(cfg)
    return model_cls(cfg, pol, stats)


def _schedule(num_cells, n=250, seed=11):
    """A deterministic burst of (cycle, src, dst, size) injections."""
    rng = random.Random(seed)
    return sorted(
        (rng.randrange(30), rng.randrange(num_cells),
         rng.randrange(num_cells), rng.randrange(1, 12))
        for _ in range(n)
    )


def _drive(noc, injections, stop_cycle):
    """Inject per schedule and advance up to (excluding) ``stop_cycle``."""
    pending = list(injections)
    for cycle in range(stop_cycle):
        while pending and pending[0][0] == cycle:
            _, src, dst, size = pending.pop(0)
            noc.inject(Message(src=src, dst=dst, action="a", size_words=size),
                       cycle)
        noc.advance(cycle)
    assert not pending, "schedule extends past the driven window"


def _drain(noc, start_cycle, max_cycles=50_000):
    cycle = start_cycle
    while not noc.is_empty and cycle < max_cycles:
        noc.advance(cycle)
        cycle += 1
    assert noc.is_empty


def _fast_vs_ref(make_fast):
    fast = make_fast()
    ref = _build(ReferenceCycleAccurateNoC)
    injections = _schedule(fast.config.num_cells)

    # Truncate mid-flight: the prepaid models must reconcile with the
    # reference's accrued hops through the untraversed remainder.
    _drive(fast, injections, 35)
    _drive(ref, injections, 35)
    assert fast.in_flight == ref.in_flight > 0
    assert ref.untraversed_hops() == 0
    assert fast.untraversed_hops() > 0
    assert fast.stats.hops - fast.untraversed_hops() == ref.stats.hops

    # At quiescence the remainder vanishes and the totals agree exactly.
    _drain(fast, 35)
    _drain(ref, 35)
    assert fast.untraversed_hops() == 0
    assert fast.stats.hops == ref.stats.hops


def test_cycle_noc_reconciles_with_reference():
    _fast_vs_ref(lambda: _build(CycleAccurateNoC))


def test_latency_noc_charges_everything_up_front():
    noc = _build(LatencyNoC)
    noc.inject(Message(src=0, dst=35, action="a", size_words=9), 0)
    # Nothing traversed yet: the whole distance x flits charge is pending.
    assert noc.untraversed_hops() == noc.stats.hops > 0
    _drain(noc, 1)
    assert noc.untraversed_hops() == 0


def _trunc_scenario(**overrides):
    kwargs = dict(
        name="prepaid-trunc",
        dataset=DatasetSpec(vertices=80, edges=600, sampling="snowball",
                            seed=3, generator="uniform"),
        chip=ChipSpec(side=4, edge_list_capacity=8),
        algorithm="bfs",
        options=RunOptions(max_cycles_per_increment=40),
    )
    kwargs.update(overrides)
    return Scenario(**kwargs)


def test_record_exposes_untraversed_remainder():
    record = run_scenario(_trunc_scenario())
    stats = record["stats"]
    # The budget truncates mid-flight, so the remainder is visible...
    assert stats["hops_untraversed"] > 0
    assert stats["hops_untraversed"] < stats["hops"]
    # ...and a quiescent run of the same workload accounts a clean zero.
    quiesced = run_scenario(
        _trunc_scenario(options=RunOptions()))
    assert quiesced["stats"]["hops_untraversed"] == 0
