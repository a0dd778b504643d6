"""Tests for mapping foundations: SlotSpace, Box, Placement."""

import pytest

from repro.core.mapping.base import Box, Placement, SlotSpace
from repro.errors import MappingError
from repro.runtime.process_grid import ProcessGrid
from repro.topology.torus import Torus3D


class TestSlotSpace:
    def test_dims_extend_depth(self):
        space = SlotSpace(Torus3D((8, 8, 8)), 2)
        assert space.dims == (8, 8, 16)
        assert space.num_slots == 1024

    def test_node_of(self):
        space = SlotSpace(Torus3D((4, 4, 2)), 2)
        assert space.node_of((1, 2, 0)) == (1, 2, 0)
        assert space.node_of((1, 2, 1)) == (1, 2, 0)
        assert space.node_of((1, 2, 2)) == (1, 2, 1)

    def test_node_of_out_of_range(self):
        space = SlotSpace(Torus3D((4, 4, 2)), 1)
        with pytest.raises(MappingError):
            space.node_of((4, 0, 0))

    def test_slot_index_unique(self):
        space = SlotSpace(Torus3D((3, 2, 2)), 2)
        seen = set()
        X, Y, S = space.dims
        for s in range(S):
            for y in range(Y):
                for x in range(X):
                    seen.add(space.slot_index((x, y, s)))
        assert len(seen) == space.num_slots


class TestBox:
    def test_volume_and_slots(self):
        b = Box(1, 2, 3, 2, 2, 2)
        assert b.volume == 8
        slots = b.slots()
        assert len(slots) == 8
        assert slots[0] == (1, 2, 3)
        assert slots[-1] == (2, 3, 4)

    def test_rejects_empty(self):
        with pytest.raises(Exception):
            Box(0, 0, 0, 0, 1, 1)

    def test_rejects_negative_origin(self):
        with pytest.raises(MappingError):
            Box(-1, 0, 0, 1, 1, 1)


class TestPlacement:
    def test_valid_bijection(self):
        grid = ProcessGrid(2, 2)
        space = SlotSpace(Torus3D((2, 2, 1)), 1)
        slots = ((0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0))
        p = Placement(space=space, grid=grid, slots=slots, name="test")
        assert p.node_of(0) == (0, 0, 0)
        assert p.hops_between(0, 3) == 2

    def test_duplicate_slot_rejected(self):
        grid = ProcessGrid(2, 1)
        space = SlotSpace(Torus3D((2, 1, 1)), 1)
        with pytest.raises(MappingError):
            Placement(space=space, grid=grid,
                      slots=((0, 0, 0), (0, 0, 0)), name="bad")

    def test_wrong_cardinality_rejected(self):
        grid = ProcessGrid(2, 2)
        space = SlotSpace(Torus3D((2, 2, 1)), 1)
        with pytest.raises(MappingError):
            Placement(space=space, grid=grid, slots=((0, 0, 0),), name="bad")

    def test_colocated_ranks_zero_hops(self):
        grid = ProcessGrid(2, 1)
        space = SlotSpace(Torus3D((1, 1, 1)), 2)
        p = Placement(space=space, grid=grid,
                      slots=((0, 0, 0), (0, 0, 1)), name="vn")
        assert p.hops_between(0, 1) == 0

    def test_node_array(self):
        grid = ProcessGrid(2, 1)
        space = SlotSpace(Torus3D((2, 1, 1)), 2)
        p = Placement(space=space, grid=grid,
                      slots=((0, 0, 1), (1, 0, 0)), name="t")
        assert p.vector.coords.tolist() == [[0, 0, 0], [1, 0, 0]]
        assert p.vector.node_ranks.tolist() == [0, 1]
