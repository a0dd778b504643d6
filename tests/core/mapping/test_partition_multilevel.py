"""Tests for the partition and multi-level mappings."""

import pytest

from repro.core.mapping.base import SlotSpace
from repro.core.mapping.metrics import nest_and_parent_metrics
from repro.core.mapping.multilevel import MultiLevelMapping
from repro.core.mapping.oblivious import ObliviousMapping
from repro.core.mapping.partition_map import PartitionMapping
from repro.errors import MappingError
from repro.runtime.halo import HaloSpec
from repro.runtime.process_grid import GridRect, ProcessGrid
from repro.topology.torus import Torus3D


@pytest.fixture
def fig6_setup():
    grid = ProcessGrid(8, 4)
    space = SlotSpace(Torus3D((4, 4, 2)), 1)
    rects = [GridRect(0, 0, 4, 4), GridRect(4, 0, 4, 4)]
    return grid, space, rects


class TestPartitionMapping:
    def test_bijection(self, fig6_setup):
        grid, space, rects = fig6_setup
        p = PartitionMapping().place(grid, space, rects)
        assert len(set(p.slot_indices())) == grid.size

    def test_nest_neighbours_one_hop(self, fig6_setup):
        """Fig 6(a): neighbouring nest processes are torus neighbours."""
        grid, space, rects = fig6_setup
        p = PartitionMapping().place(grid, space, rects)
        # Ranks 0 and 8 are y-neighbours inside sibling 1.
        assert p.hops_between(0, 8) == 1

    def test_each_partition_contiguous_plane(self, fig6_setup):
        grid, space, rects = fig6_setup
        p = PartitionMapping().place(grid, space, rects)
        sib1 = {p.node_of(r)[2] for r in grid.ranks_in(rects[0])}
        sib2 = {p.node_of(r)[2] for r in grid.ranks_in(rects[1])}
        # Fig 6(a): one sibling per z-plane.
        assert sib1 != sib2
        assert len(sib1) == 1 and len(sib2) == 1

    def test_requires_full_machine(self):
        grid = ProcessGrid(4, 4)
        space = SlotSpace(Torus3D((4, 4, 2)), 1)
        with pytest.raises(MappingError):
            PartitionMapping().place(grid, space, [GridRect(0, 0, 4, 4)])

    def test_no_rects_single_partition(self):
        grid = ProcessGrid(8, 4)
        space = SlotSpace(Torus3D((4, 4, 2)), 1)
        p = PartitionMapping().place(grid, space)
        assert len(set(p.slot_indices())) == 32

    def test_beats_oblivious_on_nests(self, fig6_setup):
        grid, space, rects = fig6_setup
        spec = HaloSpec(width=1, levels=1, rounds_per_step=1)
        domains = [(40, 40), (40, 40)]
        obl = nest_and_parent_metrics(
            ObliviousMapping().place(grid, space, rects), (80, 40), domains, rects, spec)
        par = nest_and_parent_metrics(
            PartitionMapping().place(grid, space, rects), (80, 40), domains, rects, spec)
        assert par["nest0"].average_hops < obl["nest0"].average_hops
        assert par["nest1"].average_hops < obl["nest1"].average_hops


class TestMultiLevelMapping:
    def test_reproduces_fig6b_exactly(self, fig6_setup):
        """The paper's worked example, node for node."""
        grid, space, rects = fig6_setup
        p = MultiLevelMapping().place(grid, space, rects)
        expected = [
            (0, 0, 0), (1, 0, 0), (1, 0, 1), (0, 0, 1),
            (3, 0, 1), (2, 0, 1), (2, 0, 0), (3, 0, 0),
        ]
        assert [p.node_of(r) for r in range(8)] == expected

    def test_parent_seam_one_hop(self, fig6_setup):
        """Fig 6(b): processes 3 and 4 are 1 hop apart."""
        grid, space, rects = fig6_setup
        p = MultiLevelMapping().place(grid, space, rects)
        assert p.hops_between(3, 4) == 1

    def test_all_parent_neighbours_one_hop(self, fig6_setup):
        """The universal-mapping property of the multi-level scheme."""
        grid, space, rects = fig6_setup
        p = MultiLevelMapping().place(grid, space, rects)
        for rank in range(grid.size):
            for nbr in grid.neighbors_of(rank):
                assert p.hops_between(rank, nbr) == 1

    def test_at_least_as_good_as_partition_on_parent(self, fig6_setup):
        grid, space, rects = fig6_setup
        spec = HaloSpec(width=1, levels=1, rounds_per_step=1)
        domains = [(40, 40), (40, 40)]
        pm = nest_and_parent_metrics(
            PartitionMapping().place(grid, space, rects), (80, 40), domains, rects, spec)
        ml = nest_and_parent_metrics(
            MultiLevelMapping().place(grid, space, rects), (80, 40), domains, rects, spec)
        assert ml["parent"].average_hops <= pm["parent"].average_hops


class TestLargeConfigurations:
    def test_bgl_rack_four_siblings(self):
        """The Table 2 allocation on a full BG/L rack (VN mode)."""
        grid = ProcessGrid(32, 32)
        space = SlotSpace(Torus3D((8, 8, 8)), 2)
        rects = [
            GridRect(0, 0, 18, 24), GridRect(0, 24, 18, 8),
            GridRect(18, 0, 14, 12), GridRect(18, 12, 14, 20),
        ]
        spec = HaloSpec()
        domains = [(394, 418), (232, 202), (232, 256), (313, 337)]
        obl = ObliviousMapping().place(grid, space, rects)
        for M in (PartitionMapping, MultiLevelMapping):
            p = M().place(grid, space, rects)
            assert len(set(p.slot_indices())) == 1024
            m = nest_and_parent_metrics(p, (286, 307), domains, rects, spec)
            o = nest_and_parent_metrics(obl, (286, 307), domains, rects, spec)
            for key in m:
                assert m[key].average_hops < o[key].average_hops, key

    def test_awkward_areas_still_bijective(self):
        grid = ProcessGrid(32, 32)
        space = SlotSpace(Torus3D((8, 8, 8)), 2)
        rects = [GridRect(0, 0, 21, 32), GridRect(21, 0, 11, 32)]
        for M in (PartitionMapping, MultiLevelMapping):
            p = M().place(grid, space, rects)
            assert len(set(p.slot_indices())) == 1024

    def test_bgp_vn_mode(self):
        grid = ProcessGrid(64, 64)
        space = SlotSpace(Torus3D((8, 8, 16)), 4)
        rects = [GridRect(0, 0, 32, 64), GridRect(32, 0, 32, 64)]
        p = PartitionMapping().place(grid, space, rects)
        assert len(set(p.slot_indices())) == 4096
