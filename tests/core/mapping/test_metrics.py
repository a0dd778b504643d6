"""Tests for mapping quality metrics."""

import pytest

from repro.core.mapping.base import Placement, SlotSpace
from repro.core.mapping.metrics import average_hops, evaluate_mapping, hop_bytes
from repro.errors import MappingError
from repro.runtime.process_grid import ProcessGrid
from repro.topology.torus import Torus3D
from repro.verify.reference.halo import HaloMessage, from_messages


@pytest.fixture
def line_placement():
    """4 ranks in a row on a 4x1x1 ring."""
    grid = ProcessGrid(4, 1)
    space = SlotSpace(Torus3D((4, 1, 1)), 1)
    slots = tuple((x, 0, 0) for x in range(4))
    return Placement(space=space, grid=grid, slots=slots, name="line")


class TestAverageHops:
    def test_neighbours(self, line_placement):
        msgs = from_messages([HaloMessage(0, 1, 100), HaloMessage(1, 2, 100)])
        assert average_hops(line_placement, msgs) == 1.0

    def test_wraparound(self, line_placement):
        msgs = from_messages([HaloMessage(0, 3, 100)])
        assert average_hops(line_placement, msgs) == 1.0

    def test_mixed(self, line_placement):
        msgs = from_messages([HaloMessage(0, 1, 100), HaloMessage(0, 2, 100)])
        assert average_hops(line_placement, msgs) == 1.5

    def test_empty_rejected(self, line_placement):
        with pytest.raises(MappingError):
            average_hops(line_placement, from_messages([]))


class TestHopBytes:
    def test_weighted(self, line_placement):
        msgs = from_messages([HaloMessage(0, 1, 100), HaloMessage(0, 2, 50)])
        assert hop_bytes(line_placement, msgs) == 100 + 2 * 50


class TestEvaluate:
    def test_full_metrics(self, line_placement):
        msgs = from_messages(
            [HaloMessage(0, 1, 100), HaloMessage(0, 2, 50), HaloMessage(1, 1, 10)]
        )
        m = evaluate_mapping(line_placement, msgs)
        assert m.num_messages == 3
        assert m.max_hops == 2
        assert m.intra_node_fraction == pytest.approx(1 / 3)
        assert m.hop_bytes == 200.0

    def test_empty_rejected(self, line_placement):
        with pytest.raises(MappingError):
            evaluate_mapping(line_placement, from_messages([]))
