"""Tests for the sequential XYZT and TXYZ mappings."""

import numpy as np
import pytest

from repro.core.mapping.base import SlotSpace
from repro.core.mapping.oblivious import ObliviousMapping
from repro.core.mapping.txyz import TxyzMapping
from repro.errors import MappingError
from repro.runtime.process_grid import ProcessGrid
from repro.topology.torus import Torus3D


class TestOblivious:
    def test_fig5b_layout(self):
        """Fig 5(b): ranks 0-3 on the top row of the z=0 plane, etc."""
        grid = ProcessGrid(8, 4)
        space = SlotSpace(Torus3D((4, 4, 2)), 1)
        p = ObliviousMapping().place(grid, space)
        assert p.node_of(0) == (0, 0, 0)
        assert p.node_of(3) == (3, 0, 0)
        assert p.node_of(4) == (0, 1, 0)
        assert p.node_of(16) == (0, 0, 1)

    def test_fig5_hop_claims(self):
        """Paper: ranks 0 and 8 are 2 hops apart; 8 and 16 are 3 hops."""
        grid = ProcessGrid(8, 4)
        space = SlotSpace(Torus3D((4, 4, 2)), 1)
        p = ObliviousMapping().place(grid, space)
        assert p.hops_between(0, 8) == 2
        assert p.hops_between(8, 16) == 3

    def test_vn_mode_wraps_to_second_core(self):
        grid = ProcessGrid(8, 8)
        space = SlotSpace(Torus3D((4, 4, 2)), 2)
        p = ObliviousMapping().place(grid, space)
        # Ranks 0 and 32 share node (0,0,0) on different cores.
        assert p.node_of(0) == p.node_of(32)
        assert p.hops_between(0, 32) == 0

    def test_capacity_check(self):
        grid = ProcessGrid(8, 8)
        space = SlotSpace(Torus3D((4, 4, 2)), 1)
        with pytest.raises(MappingError):
            ObliviousMapping().place(grid, space)

    def test_partial_machine_allowed(self):
        grid = ProcessGrid(4, 4)
        space = SlotSpace(Torus3D((4, 4, 2)), 1)
        p = ObliviousMapping().place(grid, space)
        assert len(p.slots) == 16


class TestTxyz:
    def test_cores_fastest(self):
        grid = ProcessGrid(8, 8)
        space = SlotSpace(Torus3D((4, 4, 2)), 2)
        p = TxyzMapping().place(grid, space)
        # Ranks 0 and 1 share node (0,0,0); rank 2 moves to (1,0,0).
        assert p.node_of(0) == p.node_of(1) == (0, 0, 0)
        assert p.node_of(2) == (1, 0, 0)

    def test_equals_oblivious_for_one_rank_per_node(self):
        grid = ProcessGrid(8, 4)
        space = SlotSpace(Torus3D((4, 4, 2)), 1)
        a = ObliviousMapping().place(grid, space)
        b = TxyzMapping().place(grid, space)
        assert np.array_equal(a.vector.coords, b.vector.coords)

    def test_x_neighbours_colocated_in_vn(self):
        """TXYZ's selling point: consecutive ranks share a node."""
        grid = ProcessGrid(32, 32)
        space = SlotSpace(Torus3D((8, 8, 8)), 2)
        p = TxyzMapping().place(grid, space)
        zero_hop_pairs = sum(
            1 for r in range(0, 1024, 2) if p.hops_between(r, r + 1) == 0
        )
        assert zero_hop_pairs == 512
