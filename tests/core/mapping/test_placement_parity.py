"""Hypothesis parity: the array placement pipeline vs the reference.

Every mapping heuristic must produce a placement *bit-identical* to its
per-rank reference in :mod:`repro.verify.reference.mapping` — same slot
coordinates rank for rank — and every metric must agree exactly with the
per-message reference (integer hop sums divided once, so even the floats
match to the last bit).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.mapping import folding
from repro.core.mapping.base import Box, Placement, SlotSpace
from repro.core.mapping.metrics import average_hops, evaluate_mapping, hop_bytes
from repro.core.mapping.multilevel import MultiLevelMapping
from repro.core.mapping.oblivious import ObliviousMapping
from repro.core.mapping.partition_map import PartitionMapping
from repro.core.mapping.txyz import TxyzMapping
from repro.errors import MappingError
from repro.runtime.halo import HaloSpec, halo_batch
from repro.runtime.process_grid import GridRect, ProcessGrid
from repro.topology.torus import Torus3D
from repro.verify.reference import folding as ref_folding
from repro.verify.reference import mapping as ref
from repro.verify.reference.halo import halo_messages

MAPPINGS = [ObliviousMapping, TxyzMapping, PartitionMapping, MultiLevelMapping]


def _split_rects(grid, cuts):
    """Partition *grid* into vertical strips at the given column cuts."""
    edges = sorted({0, grid.px, *cuts})
    return [
        GridRect(a, 0, b - a, grid.py)
        for a, b in zip(edges, edges[1:])
        if b > a
    ]


@st.composite
def placement_case(draw):
    """A random full-machine (grid, space, rects) configuration."""
    x = draw(st.sampled_from([2, 3, 4]))
    y = draw(st.sampled_from([2, 3, 4]))
    z = draw(st.sampled_from([1, 2, 4]))
    rpn = draw(st.sampled_from([1, 2]))
    torus = Torus3D((x, y, z))
    slots = x * y * z * rpn
    # Factor the slot count into a px*py grid (partition mappings need a
    # full machine partition).
    factors = [p for p in range(1, slots + 1) if slots % p == 0]
    px = draw(st.sampled_from(factors))
    py = slots // px
    grid = ProcessGrid(px, py)
    space = SlotSpace(torus, rpn)
    if px >= 2 and draw(st.booleans()):
        n_cuts = draw(st.integers(1, min(3, px - 1)))
        cuts = draw(
            st.lists(
                st.integers(1, px - 1),
                min_size=n_cuts,
                max_size=n_cuts,
                unique=True,
            )
        )
        rects = _split_rects(grid, cuts)
    else:
        rects = None
    return grid, space, rects


@given(placement_case(), st.sampled_from(MAPPINGS))
@settings(max_examples=150, deadline=None)
def test_every_heuristic_bit_identical_across_backends(case, mapping_cls):
    grid, space, rects = case
    vec = mapping_cls().place(grid, space, rects)
    sca = ref.place(mapping_cls(), grid, space, rects)
    assert np.array_equal(vec.slots, sca.slots)
    assert vec.name == sca.name
    assert vec.vector.digest == sca.vector.digest
    assert [tuple(n) for n in vec.vector.coords.tolist()] == ref.node_tuples(sca)


@given(placement_case(), st.sampled_from(MAPPINGS))
@settings(max_examples=60, deadline=None)
def test_metrics_bit_identical_across_backends(case, mapping_cls):
    grid, space, rects = case
    placement = mapping_cls().place(grid, space, rects)
    nx = 8 * grid.px
    ny = 8 * grid.py
    batch = halo_batch(grid, grid.full_rect(), nx, ny, HaloSpec())
    msgs = halo_messages(grid, grid.full_rect(), nx, ny, HaloSpec())
    if not msgs:
        return
    m_v = evaluate_mapping(placement, batch)
    ah_v = average_hops(placement, batch)
    hb_v = hop_bytes(placement, batch)
    m_s = ref.evaluate_mapping(placement, msgs)
    ah_s = ref.average_hops(placement, msgs)
    hb_s = ref.hop_bytes(placement, msgs)
    assert m_v == m_s
    assert ah_v == ah_s
    assert hb_v == hb_s


def _as_dict(fill):
    """An ``(h, w, 3)`` array fill as the reference ``{(i, j): slot}`` dict."""
    h, w = fill.shape[:2]
    return {(i, j): tuple(fill[j, i].tolist()) for j in range(h) for i in range(w)}


@given(
    st.integers(1, 4), st.integers(1, 4), st.integers(1, 4), st.data(),
    st.sampled_from(["chunk", "fold"]), st.integers(0, 1),
)
@settings(max_examples=150, deadline=None)
def test_fold_primitives_match_reference(bw, bh, bd, data, style, orientation):
    box = Box(1, 2, 0, bw, bh, bd)
    w = data.draw(st.sampled_from(
        [f for f in range(1, box.volume + 1) if box.volume % f == 0]
    ))
    h = box.volume // w
    fill = folding.fill_rect_into_box_array(
        w, h, box, style=style, orientation=orientation
    )
    expect = ref_folding.fill_rect_into_box(
        w, h, box, style=style, orientation=orientation
    )
    assert (fill is None) == (expect is None)
    if fill is not None:
        assert _as_dict(fill) == expect
    for depth_first in (False, True):
        assert _as_dict(
            folding.snake_fill_array(w, h, box, depth_first=depth_first)
        ) == ref_folding.snake_fill(w, h, box, depth_first=depth_first)
    assert [tuple(r) for r in folding.snake_order_box_array(box).tolist()] == (
        ref_folding.snake_order_box(box)
    )


def test_placement_accepts_array_and_tuple_forms_identically():
    space = SlotSpace(Torus3D((2, 2, 2)), 2)
    grid = ProcessGrid(4, 4)
    p_array = ObliviousMapping().place(grid, space)
    slots = tuple(map(tuple, p_array.slots.tolist()))
    p_tuple = Placement(space=space, grid=grid, slots=slots, name="oblivious")
    assert p_tuple.slots.dtype == np.int64 and p_tuple.slots.shape == (16, 3)
    assert np.array_equal(p_tuple.slots, p_array.slots)
    assert p_tuple.vector.digest == p_array.vector.digest


def _slots_as(form, slots):
    """*slots* as the array heuristics hand them over ("vector") or as
    the tuple the reference heuristics build ("scalar")."""
    return np.asarray(slots, dtype=np.int64) if form == "vector" else slots


@pytest.mark.parametrize("name", ["vector", "scalar"])
def test_out_of_bounds_slot_message_parity(name):
    space = SlotSpace(Torus3D((2, 2, 1)), 1)
    grid = ProcessGrid(2, 2)
    slots = ((0, 0, 0), (1, 0, 0), (0, 1, 0), (5, 1, 0))
    with pytest.raises(MappingError, match=r"slot \(5, 1, 0\) outside slot box"):
        Placement(space=space, grid=grid, slots=_slots_as(name, slots), name="bad")


@pytest.mark.parametrize("name", ["vector", "scalar"])
def test_duplicate_slot_message_parity(name):
    space = SlotSpace(Torus3D((2, 2, 1)), 1)
    grid = ProcessGrid(2, 2)
    slots = ((0, 0, 0), (1, 0, 0), (0, 0, 0), (1, 1, 0))
    with pytest.raises(MappingError, match=r"ranks 0 and 2 both mapped"):
        Placement(space=space, grid=grid, slots=_slots_as(name, slots), name="bad")
