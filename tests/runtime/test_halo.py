"""Tests for repro.runtime.halo."""

import pytest

from repro.runtime.halo import MESSAGES_PER_STEP, HaloSpec, halo_batch
from repro.runtime.process_grid import GridRect, ProcessGrid


class TestHaloSpec:
    def test_paper_message_count(self):
        # Sec 3.3: 144 messages per step over 4 neighbours = 36 rounds.
        spec = HaloSpec()
        assert MESSAGES_PER_STEP == 144
        assert spec.rounds_per_step == 36

    def test_strip_bytes(self):
        spec = HaloSpec(width=3, levels=35, bytes_per_value=8)
        assert spec.strip_bytes(10) == 10 * 3 * 35 * 8

    def test_validation(self):
        with pytest.raises(Exception):
            HaloSpec(width=0)


class TestHaloMessages:
    def test_interior_rank_sends_four(self):
        g = ProcessGrid(4, 4)
        msgs = halo_batch(g, g.full_rect(), 40, 40, HaloSpec(width=1, levels=1))
        interior = g.rank_of(1, 1)
        assert int((msgs.src == interior).sum()) == 4

    def test_corner_rank_sends_two(self):
        g = ProcessGrid(4, 4)
        msgs = halo_batch(g, g.full_rect(), 40, 40, HaloSpec(width=1, levels=1))
        assert int((msgs.src == 0).sum()) == 2

    def test_total_message_count(self):
        # 2 * (px-1) * py east-west pairs + 2 * px * (py-1) north-south.
        g = ProcessGrid(4, 3)
        msgs = halo_batch(g, g.full_rect(), 40, 30, HaloSpec(width=1, levels=1))
        assert len(msgs) == 2 * 3 * 3 + 2 * 4 * 2

    def test_messages_pair_up(self):
        g = ProcessGrid(3, 3)
        msgs = halo_batch(g, g.full_rect(), 30, 30, HaloSpec(width=1, levels=1))
        pairs = set(zip(msgs.src.tolist(), msgs.dst.tolist()))
        assert all((d, s) in pairs for s, d in pairs)

    def test_bytes_use_sender_tile_edge(self):
        g = ProcessGrid(2, 1)
        spec = HaloSpec(width=2, levels=5)
        # 10x7 over 2x1: tiles are 5x7 wide; E/W strips carry the height.
        msgs = halo_batch(g, g.full_rect(), 10, 7, spec)
        assert set(msgs.nbytes.tolist()) == {spec.strip_bytes(7)}

    def test_sub_rect_stays_inside(self):
        g = ProcessGrid(8, 4)
        rect = GridRect(4, 0, 4, 4)
        msgs = halo_batch(g, rect, 40, 40, HaloSpec(width=1, levels=1))
        members = set(g.ranks_in(rect))
        assert set(msgs.src.tolist()) | set(msgs.dst.tolist()) <= members

    def test_single_rank_no_messages(self):
        g = ProcessGrid(4, 4)
        msgs = halo_batch(g, GridRect(0, 0, 1, 1), 40, 40, HaloSpec())
        assert len(msgs) == 0

    def test_ragged_decomposition_bytes_differ(self):
        g = ProcessGrid(3, 1)
        spec = HaloSpec(width=1, levels=1)
        # 10 points over 3 columns: widths 4, 3, 3 -> N/S strips would
        # differ, but with height 1 there are only E/W strips of height 1.
        msgs = halo_batch(g, g.full_rect(), 10, 4, spec)
        assert set(msgs.nbytes.tolist()) == {spec.strip_bytes(4)}
