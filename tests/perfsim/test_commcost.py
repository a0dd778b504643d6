"""Tests for the halo communication cost model."""

import numpy as np
import pytest

from repro.core.mapping.base import SlotSpace
from repro.core.mapping.oblivious import ObliviousMapping
from repro.core.mapping.partition_map import PartitionMapping
from repro.netsim.engine import VECTOR
from repro.perfsim.commcost import CommCost, comm_costs
from repro.perfsim.params import WorkloadParams
from repro.runtime.process_grid import GridRect, ProcessGrid
from repro.topology.machines import BLUE_GENE_L
from repro.topology.torus import Torus3D

WL = WorkloadParams()


def setup(grid_shape=(8, 8), torus_dims=(4, 4, 4), rpn=1, mapping=None):
    grid = ProcessGrid(*grid_shape)
    torus = Torus3D(torus_dims)
    space = SlotSpace(torus, rpn)
    placement = (mapping or ObliviousMapping()).place(grid, space)
    return grid, torus, placement.vector


def alone_cost(grid, rect, nx, ny, torus, nodes, machine, workload):
    """One domain exchanging alone: the set of one."""
    (cost,) = comm_costs(grid, [rect], [(nx, ny)], torus, nodes, machine, workload)
    return cost


class TestHaloCommCost:
    def test_single_rank_no_comm(self):
        grid, torus, nodes = setup()
        c = alone_cost(grid, GridRect(0, 0, 1, 1), 100, 100,
                       torus, nodes, BLUE_GENE_L, WL)
        assert c.time == 0.0
        assert c == CommCost.zero()

    def test_positive_for_real_grid(self):
        grid, torus, nodes = setup()
        c = alone_cost(grid, grid.full_rect(), 200, 200,
                       torus, nodes, BLUE_GENE_L, WL)
        assert c.time > 0.0
        assert c.ideal_time <= c.time
        assert c.average_hops > 0.0

    def test_rounds_multiply(self):
        grid, torus, nodes = setup()
        wl1 = WorkloadParams()
        import dataclasses
        from repro.runtime.halo import HaloSpec

        wl2 = WorkloadParams(halo=HaloSpec(rounds_per_step=72))
        c1 = alone_cost(grid, grid.full_rect(), 200, 200, torus, nodes,
                        BLUE_GENE_L, wl1)
        c2 = alone_cost(grid, grid.full_rect(), 200, 200, torus, nodes,
                        BLUE_GENE_L, wl2)
        assert c2.time == pytest.approx(2 * c1.time)

    def test_bigger_domain_more_bytes(self):
        grid, torus, nodes = setup()
        small = alone_cost(grid, grid.full_rect(), 100, 100, torus, nodes,
                           BLUE_GENE_L, WL)
        large = alone_cost(grid, grid.full_rect(), 400, 400, torus, nodes,
                           BLUE_GENE_L, WL)
        assert large.time > small.time


class TestConcurrentCommCosts:
    def test_matches_isolated_when_disjoint_placement(self):
        """With partition mapping, siblings use disjoint torus regions, so
        concurrency costs (almost) nothing extra."""
        grid = ProcessGrid(8, 8)
        rects = [GridRect(0, 0, 4, 8), GridRect(4, 0, 4, 8)]
        torus = Torus3D((4, 4, 4))
        space = SlotSpace(torus, 1)
        placement = PartitionMapping().place(grid, space, rects)
        nodes = placement.vector
        domains = [(200, 200), (200, 200)]
        conc = comm_costs(grid, rects, domains, torus, nodes, BLUE_GENE_L, WL)
        for rect, dom, c in zip(rects, domains, conc):
            alone = alone_cost(grid, rect, *dom, torus, nodes, BLUE_GENE_L, WL)
            assert c.time == pytest.approx(alone.time, rel=0.01)

    def test_oblivious_interleaving_costs_more(self):
        """Under the default mapping sibling regions interleave in the
        torus, so concurrent exchanges contend — the congestion the paper's
        mappings remove."""
        grid, torus, nodes = setup()
        rects = [GridRect(0, 0, 4, 8), GridRect(4, 0, 4, 8)]
        domains = [(300, 300), (300, 300)]
        conc = comm_costs(grid, rects, domains, torus, nodes, BLUE_GENE_L, WL)
        alone = [
            alone_cost(grid, r, *d, torus, nodes, BLUE_GENE_L, WL)
            for r, d in zip(rects, domains)
        ]
        assert sum(c.time for c in conc) >= sum(a.time for a in alone)

    def test_one_cost_per_sibling(self):
        grid, torus, nodes = setup()
        rects = [GridRect(0, 0, 4, 8), GridRect(4, 0, 2, 8), GridRect(6, 0, 2, 8)]
        domains = [(100, 100), (80, 80), (60, 60)]
        conc = comm_costs(grid, rects, domains, torus, nodes, BLUE_GENE_L, WL)
        assert len(conc) == 3

    def test_empty_exchange_is_zero_among_live_ones(self):
        grid, torus, nodes = setup()
        rects = [GridRect(0, 0, 1, 1), GridRect(4, 0, 4, 8)]
        domains = [(100, 100), (200, 200)]
        conc = comm_costs(grid, rects, domains, torus, nodes, BLUE_GENE_L, WL)
        assert conc[0] == CommCost.zero()
        assert conc[1] == alone_cost(
            grid, rects[1], *domains[1], torus, nodes, BLUE_GENE_L, WL
        )

    def test_concurrent_set_leaves_cached_loads_read_only(self):
        """A set's summed loads never write into a member's cached vector."""
        grid, torus, nodes = setup()
        rects = [GridRect(0, 0, 4, 8), GridRect(4, 0, 2, 8), GridRect(6, 0, 2, 8)]
        domains = [(300, 300), (80, 80), (60, 60)]
        alone = [
            alone_cost(grid, r, *d, torus, nodes, BLUE_GENE_L, WL)
            for r, d in zip(rects, domains)
        ]

        def lookup(*members):
            return VECTOR.route_exchange(
                torus, nodes, grid, members, WL.halo, BLUE_GENE_L
            )

        cached = [lookup((r, *d))[1] for r, d in zip(rects, domains)]
        before = [loads.array.copy() for loads in cached]
        conc = comm_costs(grid, rects, domains, torus, nodes, BLUE_GENE_L, WL)
        assert conc[0].max_link_bytes == sum(before).max()
        # The set's own entry holds the exact int64 sum of its members.
        set_loads = lookup(*((r, *d) for r, d in zip(rects, domains)))[1]
        np.testing.assert_array_equal(set_loads.array, sum(before))
        for loads, values in zip(cached, before):
            assert not loads.array.flags.writeable
            np.testing.assert_array_equal(loads.array, values)
        assert not set_loads.array.flags.writeable
        # Pricing again alone still sees only each exchange's own loads.
        assert [
            alone_cost(grid, r, *d, torus, nodes, BLUE_GENE_L, WL)
            for r, d in zip(rects, domains)
        ] == alone
