"""Tests for NoC kernel selection.

Covers kernel resolution (config field x ``REPRO_KERNEL`` environment) and
the kernel-independence of harness identities/records.  The native kernel's
own equivalence tests live in ``tests/test_native_kernel.py``.
"""

import pytest

from repro.arch import kernels
from repro.arch._native import HAVE_NATIVE
from repro.arch.config import KERNELS, ChipConfig
from repro.arch.kernels import resolve_kernel
from repro.arch.noc import CycleAccurateNoC, build_noc
from repro.arch.stats import SimStats
from repro.harness.scenario import ChipSpec, Scenario

from helpers import requires_numpy

# "auto" is the C sweep wherever the extension is built, python elsewhere.
AUTO_KERNEL = "native" if HAVE_NATIVE else "python"


class TestResolveKernel:
    def test_auto_resolves_to_fastest_available(self, monkeypatch):
        monkeypatch.delenv(kernels.KERNEL_ENV, raising=False)
        assert resolve_kernel(ChipConfig(width=4, height=4)) == AUTO_KERNEL

    def test_env_overrides_auto(self, monkeypatch):
        monkeypatch.setenv(kernels.KERNEL_ENV, "python")
        assert resolve_kernel(ChipConfig(width=4, height=4)) == "python"
        monkeypatch.setenv(kernels.KERNEL_ENV, "auto")
        assert resolve_kernel(ChipConfig(width=4, height=4)) == AUTO_KERNEL

    def test_explicit_config_beats_env(self, monkeypatch):
        monkeypatch.setenv(kernels.KERNEL_ENV, "native")
        cfg = ChipConfig(width=4, height=4, kernel="python")
        assert resolve_kernel(cfg) == "python"

    def test_bad_env_value_rejected(self, monkeypatch):
        monkeypatch.setenv(kernels.KERNEL_ENV, "fortran")
        with pytest.raises(ValueError):
            resolve_kernel(ChipConfig(width=4, height=4))

    def test_numpy_kernel_name_rejected(self, monkeypatch):
        # A stale pin of the deleted numpy kernel is an error, not a silent
        # fallback, in the config and in the environment alike.
        with pytest.raises(ValueError):
            ChipConfig(width=4, height=4, kernel="numpy")
        monkeypatch.setenv(kernels.KERNEL_ENV, "numpy")
        with pytest.raises(ValueError):
            resolve_kernel(ChipConfig(width=4, height=4))

    def test_auto_without_numpy_falls_back(self, monkeypatch):
        monkeypatch.delenv(kernels.KERNEL_ENV, raising=False)
        monkeypatch.setattr(kernels, "HAVE_NATIVE", False)
        assert resolve_kernel(ChipConfig(width=4, height=4)) == "python"

    def test_build_noc_python_pin(self):
        cfg = ChipConfig(width=4, height=4, kernel="python")
        stats = SimStats(num_cells=cfg.num_cells)
        noc = build_noc(cfg, stats)
        assert type(noc) is CycleAccurateNoC

    def test_config_rejects_unknown_kernel(self):
        with pytest.raises(ValueError):
            ChipConfig(width=4, height=4, kernel="cuda")


class TestKernelIsExecutionDetail:
    """The kernel pin never leaks into identities, seeds or records."""

    def test_spec_hash_and_seed_ignore_kernel(self):
        base = Scenario(name="k", chip=ChipSpec(side=8))
        for kernel in KERNELS:
            pinned = Scenario(name="k", chip=ChipSpec(side=8, kernel=kernel))
            assert pinned.spec_hash() == base.spec_hash()
            assert pinned.graph_seed() == base.graph_seed()
            assert "kernel" not in pinned.spec_dict()["chip"]

    @requires_numpy
    def test_records_identical_across_kernels(self):
        from repro.harness.runner import run_scenario
        from repro.harness.scenario import DatasetSpec

        scenario = Scenario(
            name="kernel-equiv",
            dataset=DatasetSpec(vertices=80, edges=600, num_increments=3,
                                seed=13),
            chip=ChipSpec(side=8, edge_list_capacity=8),
            algorithm="bfs",
        )
        assert (run_scenario(scenario, kernel="auto")
                == run_scenario(scenario, kernel="python"))

