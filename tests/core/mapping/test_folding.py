"""Tests for the reference fold/fill primitives.

The array forms in :mod:`repro.core.mapping.folding` are compared with
them position by position in ``tests/core/mapping/test_placement_parity.py``.
"""

import pytest

from repro.core.mapping.base import Box
from repro.errors import MappingError
from repro.verify.reference.folding import (
    chunk_coord,
    fill_rect_into_box,
    fold_coord,
    snake_fill,
    snake_order_box,
    snake_order_box_depth_first,
    snake_order_rect,
)


class TestCoords:
    def test_chunk(self):
        assert chunk_coord(0, 4) == (0, 0)
        assert chunk_coord(3, 4) == (3, 0)
        assert chunk_coord(4, 4) == (0, 1)
        assert chunk_coord(9, 4) == (1, 2)

    def test_fold_reverses_odd_layers(self):
        assert fold_coord(3, 4) == (3, 0)
        assert fold_coord(4, 4) == (3, 1)  # seam: position stays put
        assert fold_coord(7, 4) == (0, 1)
        assert fold_coord(8, 4) == (0, 2)

    def test_fold_seam_adjacency(self):
        """Consecutive indices across a fold seam keep the same position."""
        for a in (2, 3, 5):
            for i in range(3 * a - 1):
                p1, l1 = fold_coord(i, a)
                p2, l2 = fold_coord(i + 1, a)
                assert abs(p1 - p2) + abs(l1 - l2) == 1

    def test_chunk_seam_jumps(self):
        p1, l1 = chunk_coord(3, 4)
        p2, l2 = chunk_coord(4, 4)
        assert abs(p1 - p2) == 3  # the jump folding avoids

    def test_orientation_flips(self):
        assert fold_coord(0, 4, orientation=1) == (3, 0)

    def test_invalid_inputs(self):
        with pytest.raises(MappingError):
            chunk_coord(-1, 4)
        with pytest.raises(MappingError):
            fold_coord(0, 0)


class TestSnakeOrders:
    def test_rect_consecutive_adjacent(self):
        seq = list(snake_order_rect(5, 4))
        assert len(seq) == 20
        assert len(set(seq)) == 20
        for (i1, j1), (i2, j2) in zip(seq, seq[1:]):
            assert abs(i1 - i2) + abs(j1 - j2) == 1

    def test_box_consecutive_adjacent(self):
        box = Box(0, 0, 0, 3, 4, 2)
        seq = snake_order_box(box)
        assert len(seq) == 24
        assert len(set(seq)) == 24
        for a, b in zip(seq, seq[1:]):
            assert sum(abs(x - y) for x, y in zip(a, b)) == 1

    def test_depth_first_consecutive_adjacent(self):
        box = Box(1, 1, 0, 3, 2, 4)
        seq = snake_order_box_depth_first(box)
        assert len(seq) == 24
        assert len(set(seq)) == 24
        for a, b in zip(seq, seq[1:]):
            assert sum(abs(x - y) for x, y in zip(a, b)) == 1

    def test_depth_first_runs_share_columns(self):
        box = Box(0, 0, 0, 2, 2, 4)
        seq = snake_order_box_depth_first(box)
        # First 4 slots all in the (0,0) node column.
        assert all(s[:2] == (0, 0) for s in seq[:4])


class TestFillRectIntoBox:
    def test_perfect_plane_fill(self):
        fill = fill_rect_into_box(4, 4, Box(0, 0, 0, 4, 4, 1), style="chunk")
        assert fill is not None
        assert fill[(2, 3)] == (2, 3, 0)

    def test_fold_two_planes_matches_fig6b(self):
        fill = fill_rect_into_box(4, 4, Box(0, 0, 0, 2, 4, 2), style="fold")
        assert fill is not None
        # Row 0 of Fig 6(b) sibling 1: 0 -> (0,0,0), 1 -> (1,0,0),
        # 2 -> (1,0,1), 3 -> (0,0,1).
        assert fill[(0, 0)] == (0, 0, 0)
        assert fill[(1, 0)] == (1, 0, 0)
        assert fill[(2, 0)] == (1, 0, 1)
        assert fill[(3, 0)] == (0, 0, 1)

    def test_fold_orientation_one_matches_fig6b_sibling2(self):
        fill = fill_rect_into_box(4, 4, Box(2, 0, 0, 2, 4, 2),
                                  style="fold", orientation=1)
        assert fill is not None
        # Fig 6(b) sibling 2: 4 -> (3,0,1), 5 -> (2,0,1), 6 -> (2,0,0).
        assert fill[(0, 0)] == (3, 0, 1)
        assert fill[(1, 0)] == (2, 0, 1)
        assert fill[(2, 0)] == (2, 0, 0)
        assert fill[(3, 0)] == (3, 0, 0)

    def test_returns_none_when_unfactorable(self):
        # 14x12 cannot wrap into a 3x8x7 box (needs 5x2 > 7 layers).
        assert fill_rect_into_box(14, 12, Box(0, 0, 0, 3, 8, 7), style="chunk") is None

    def test_injective(self):
        fill = fill_rect_into_box(18, 24, Box(0, 0, 0, 6, 8, 9), style="chunk")
        assert fill is not None
        assert len(set(fill.values())) == 18 * 24

    def test_fold_injective(self):
        fill = fill_rect_into_box(18, 24, Box(0, 0, 0, 6, 8, 9), style="fold")
        assert fill is not None
        assert len(set(fill.values())) == 18 * 24

    def test_volume_mismatch_rejected(self):
        with pytest.raises(MappingError):
            fill_rect_into_box(4, 4, Box(0, 0, 0, 4, 4, 2), style="chunk")

    def test_unknown_style_rejected(self):
        with pytest.raises(MappingError):
            fill_rect_into_box(4, 4, Box(0, 0, 0, 4, 4, 1), style="spiral")


class TestSnakeFill:
    def test_always_succeeds_when_volume_matches(self):
        fill = snake_fill(14, 12, Box(0, 0, 0, 3, 8, 7))
        assert len(set(fill.values())) == 168

    def test_depth_first_variant(self):
        fill = snake_fill(14, 12, Box(0, 0, 0, 3, 8, 7), depth_first=True)
        assert len(set(fill.values())) == 168

    def test_consecutive_rect_positions_on_adjacent_slots(self):
        fill = snake_fill(6, 4, Box(0, 0, 0, 4, 3, 2))
        seq = list(snake_order_rect(6, 4))
        for pos_a, pos_b in zip(seq, seq[1:]):
            a, b = fill[pos_a], fill[pos_b]
            assert sum(abs(x - y) for x, y in zip(a, b)) == 1
