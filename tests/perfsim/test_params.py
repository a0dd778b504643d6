"""Tests for workload/output parameter validation."""

import pytest

from repro.perfsim.params import OutputParams, WorkloadParams
from repro.runtime.halo import HaloSpec
from repro.topology.machines import BLUE_GENE_L


class TestWorkloadParams:
    def test_defaults(self):
        wl = WorkloadParams()
        assert wl.levels == 35
        assert wl.flops_per_cell == 8000.0
        assert wl.halo.rounds_per_step == 36

    def test_halo_levels_kept_consistent(self):
        """The exchanged-field depth follows the compute depth."""
        wl = WorkloadParams(levels=20)
        assert wl.halo.levels == 20

    def test_explicit_halo_preserved_otherwise(self):
        wl = WorkloadParams(halo=HaloSpec(width=5, levels=35))
        assert wl.halo.width == 5

    def test_explicit_halo_depth_kept(self):
        wl = WorkloadParams(halo=HaloSpec(levels=40))
        assert wl.levels == 35
        assert wl.halo == HaloSpec(levels=40)

    def test_seconds_per_point(self):
        wl = WorkloadParams()
        expected = 35 * 8000.0 / BLUE_GENE_L.sustained_flops_per_core
        assert wl.seconds_per_point(BLUE_GENE_L.sustained_flops_per_core) == \
            pytest.approx(expected)

    def test_negative_overlap_rejected(self):
        with pytest.raises(ValueError):
            WorkloadParams(halo_compute_overlap=-1)

    def test_nonpositive_flops_rejected(self):
        with pytest.raises(ValueError):
            WorkloadParams(flops_per_cell=0.0)


class TestOutputParams:
    def test_defaults(self):
        out = OutputParams()
        assert out.enabled
        assert out.include_parent
        assert out.interval_steps == 6

    def test_validation(self):
        with pytest.raises(ValueError):
            OutputParams(interval_steps=0)
        with pytest.raises(ValueError):
            OutputParams(bytes_per_point=0.0)

    def test_high_frequency_config(self):
        out = OutputParams(interval_steps=4, include_parent=False)
        assert not out.include_parent
