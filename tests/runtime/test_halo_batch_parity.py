"""Hypothesis parity: the vectorized halo builder vs the reference.

``halo_batch`` must reproduce the reference ``halo_messages``
message-for-message — same (src, dst, nbytes) triples in the same order
— across random grids, rectangles (including 1-wide and 1-tall strips),
domain sizes (including domains smaller than the rectangle, where ranks
idle), and halo specs.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime.halo import HaloSpec, halo_batch
from repro.runtime.process_grid import GridRect, ProcessGrid
from repro.verify.reference.halo import from_messages, halo_messages, to_messages


@st.composite
def halo_case(draw):
    """A random (grid, rect, nx, ny, spec) halo-exchange case."""
    px = draw(st.integers(1, 10))
    py = draw(st.integers(1, 10))
    grid = ProcessGrid(px, py)
    x0 = draw(st.integers(0, px - 1))
    y0 = draw(st.integers(0, py - 1))
    w = draw(st.integers(1, px - x0))
    h = draw(st.integers(1, py - y0))
    rect = GridRect(x0, y0, w, h)
    # The decomposition needs at least one grid point per rank row/column
    # (upstream, effective_rect clamps rectangles to the domain).
    nx = draw(st.integers(w, 200))
    ny = draw(st.integers(h, 200))
    spec = HaloSpec(
        width=draw(st.integers(1, 5)),
        levels=draw(st.integers(1, 40)),
        bytes_per_value=draw(st.sampled_from([4, 8])),
    )
    return grid, rect, nx, ny, spec


@given(halo_case())
@settings(max_examples=300, deadline=None)
def test_array_builder_matches_scalar_exactly(case):
    grid, rect, nx, ny, spec = case
    msgs = halo_messages(grid, rect, nx, ny, spec)
    batch = halo_batch(grid, rect, nx, ny, spec)
    assert len(batch) == len(msgs)
    for i, m in enumerate(msgs):
        assert (int(batch.src[i]), int(batch.dst[i]), int(batch.nbytes[i])) == (
            m.src,
            m.dst,
            m.nbytes,
        )


@given(halo_case())
@settings(max_examples=100, deadline=None)
def test_batch_roundtrip(case):
    grid, rect, nx, ny, spec = case
    msgs = halo_messages(grid, rect, nx, ny, spec)
    batch = from_messages(msgs)
    assert to_messages(batch) == msgs
    assert len(batch) == len(msgs)


@given(halo_case())
@settings(max_examples=100, deadline=None)
def test_halo_batch_dispatcher_identical_across_backends(case):
    """The production batch equals the reference list's column arrays,
    dtype included."""
    grid, rect, nx, ny, spec = case
    v = halo_batch(grid, rect, nx, ny, spec)
    s = from_messages(halo_messages(grid, rect, nx, ny, spec))
    for col_v, col_s in ((v.src, s.src), (v.dst, s.dst), (v.nbytes, s.nbytes)):
        assert col_v.dtype == col_s.dtype == np.int64
        assert np.array_equal(col_v, col_s)


def test_batch_arrays_read_only():
    grid = ProcessGrid(4, 4)
    batch = halo_batch(grid, grid.full_rect(), 100, 100, HaloSpec())
    with pytest.raises(ValueError):
        batch.src[0] = 99
    with pytest.raises(ValueError):
        batch.nbytes[0] = 99


def test_empty_exchange_single_rank():
    grid = ProcessGrid(1, 1)
    batch = halo_batch(grid, grid.full_rect(), 50, 50, HaloSpec())
    assert len(batch) == 0
    assert to_messages(batch) == []
    assert not batch
