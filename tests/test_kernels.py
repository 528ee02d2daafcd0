"""Tests for the NoC kernel name and the deleted kernel knob.

The cycle-accurate NoC has one implementation, the pure-Python sweep, so
:func:`repro.arch.kernels.resolve_kernel` answers ``"python"`` for every
chip; the benchmark records that answer in its environment.  The kernel
field is gone from both chip descriptions, and the identities it was
always stripped from did not move.
"""

from dataclasses import fields

import pytest

from repro.arch.config import ChipConfig
from repro.arch.kernels import resolve_kernel
from repro.arch.noc import CycleAccurateNoC, build_noc
from repro.arch.stats import SimStats
from repro.harness.registry import build_paper_suite, get_suite
from repro.harness.scenario import ChipSpec, Scenario


def perfbench_chips():
    """The chips of the three perfbench workloads, as perfbench builds them."""
    small = {s.name: s for s in build_paper_suite(1 / 50)}
    perf = {s.name: s for s in get_suite("perf")}
    return {
        "ingest-edge": small["graphchallenge-50k-edge-ingest"].chip,
        "bfs-snowball": perf["graphchallenge-500k-snowball-bfs"].chip,
        "serve-mixed": ChipSpec(side=8),
    }


class TestResolveKernel:
    def test_auto_resolves_to_fastest_available(self):
        # The pure-Python sweep is the one kernel, so it is the fastest
        # available one for every chip.
        assert resolve_kernel(ChipConfig(width=4, height=4)) == "python"

    def test_build_noc_python_pin(self):
        cfg = ChipConfig(width=4, height=4)
        stats = SimStats(num_cells=cfg.num_cells)
        noc = build_noc(cfg, stats)
        assert type(noc) is CycleAccurateNoC

    def test_numpy_kernel_name_rejected(self):
        # A stale pin of the deleted numpy kernel is an error, not a silent
        # fallback, in either chip description.
        with pytest.raises(TypeError, match="kernel"):
            ChipConfig(width=4, height=4, kernel="numpy")
        with pytest.raises(TypeError, match="kernel"):
            ChipSpec(side=8, kernel="numpy")

    def test_perfbench_chips_resolve_to_python(self):
        for workload, chip in perfbench_chips().items():
            config = chip.to_chip_config()
            assert resolve_kernel(config) == "python", workload
            stats = SimStats(num_cells=config.num_cells)
            assert type(build_noc(config, stats)) is CycleAccurateNoC, workload

    def test_config_rejects_unknown_kernel(self):
        # The knob is gone from both chip descriptions; a stale spec that
        # still names a kernel is refused, not silently ignored.
        assert "kernel" not in {f.name for f in fields(ChipConfig)}
        assert "kernel" not in {f.name for f in fields(ChipSpec)}
        spec = Scenario(name="k", chip=ChipSpec(side=8)).spec_dict()
        for name in ("auto", "python", "native", "numpy"):
            spec["chip"]["kernel"] = name
            with pytest.raises(TypeError, match="kernel"):
                Scenario.from_dict(spec)


class TestKernelIsExecutionDetail:
    def test_spec_hash_and_seed_ignore_kernel(self):
        # The canonical JSON and graph seed a kernel-pinned spec had when
        # the pin was a stripped field: deleting it moved neither.
        scenario = Scenario(name="k", chip=ChipSpec(side=8))
        assert scenario.canonical_json() == (
            '{"algorithm":"bfs","chip":{"clock_ghz":1.0,'
            '"edge_list_capacity":16,"fidelity":"cycle","ghost_slots":1,'
            '"routing":"yx","side":8},"dataset":{"edges":2000,'
            '"num_increments":10,"sampling":"edge","seed":7,'
            '"symmetric":false,"vertices":200,"weighted":false},"name":"k",'
            '"options":{"ghost_allocator":"vicinity",'
            '"max_cycles_per_increment":null,"placement":"round_robin",'
            '"root":0}}')
        assert scenario.graph_seed() == 844320757
