"""Fold and fill primitives shared by the partition-aware mappings.

Embedding a ``w x h`` rank rectangle into an ``a x b x d`` slot box means
wrapping the rectangle's axes across the box's depth layers. Two wrapping
styles are used:

* **chunk** — split an axis into consecutive runs (``i -> (i % a, i // a)``):
  what plain partition mapping does; run seams may be several hops apart.
* **fold** — boustrophedon wrap (``i -> (a-1-i % a, ...)`` on odd layers):
  the multi-level trick of Fig 6(b); consecutive indices across a fold
  seam stay exactly one layer apart, i.e. one hop.

A generic snake (boustrophedon) serialisation of rectangles and boxes is
also provided as the locality-preserving *fallback* fill when a rectangle
does not factor into its box.

Every primitive is closed-form index algebra over whole rectangles and
boxes (``*_array``). Fills are shaped ``(h, w, 3)`` and indexed
``[j, i]``, exactly the ``{(i, j): slot}`` dicts of the per-position
primitives in :mod:`repro.verify.reference.folding`, their parity oracle.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.mapping.base import Box
from repro.errors import MappingError

__all__ = [
    "snake_index_grid",
    "snake_order_box_array",
    "snake_order_box_depth_first_array",
    "fill_rect_into_box_array",
    "snake_fill_array",
]


def snake_index_grid(w: int, h: int) -> np.ndarray:
    """``(h, w)`` array of each position's rank in a row-boustrophedon walk.

    ``out[j, i]`` is the serialisation index of rectangle position
    ``(i, j)`` — even rows run forward, odd rows backward.
    """
    i = np.arange(w, dtype=np.int64)
    j = np.arange(h, dtype=np.int64)
    return j[:, None] * w + np.where(j[:, None] % 2 == 0, i, w - 1 - i)


def snake_order_box_array(box: Box) -> np.ndarray:
    """``(volume, 3)`` slots of *box* in
    :func:`repro.verify.reference.folding.snake_order_box` order."""
    ds = np.arange(box.d, dtype=np.int64)
    row_idx = np.arange(box.h, dtype=np.int64)
    col_idx = np.arange(box.w, dtype=np.int64)
    dy = np.where(ds[:, None] % 2 == 0, row_idx, box.h - 1 - row_idx)  # (d, h)
    forward = (ds[:, None] * box.h + row_idx) % 2 == 0  # (d, h)
    dx = np.where(forward[:, :, None], col_idx, box.w - 1 - col_idx)  # (d, h, w)
    out = np.empty((box.d, box.h, box.w, 3), dtype=np.int64)
    out[..., 0] = box.x0 + dx
    out[..., 1] = box.y0 + dy[:, :, None]
    out[..., 2] = box.s0 + ds[:, None, None]
    return out.reshape(box.volume, 3)


def snake_order_box_depth_first_array(box: Box) -> np.ndarray:
    """``(volume, 3)`` slots in
    :func:`repro.verify.reference.folding.snake_order_box_depth_first` order."""
    dy = np.arange(box.h, dtype=np.int64)
    colpos = np.arange(box.w, dtype=np.int64)
    dsq = np.arange(box.d, dtype=np.int64)
    dx = np.where(dy[:, None] % 2 == 0, colpos, box.w - 1 - colpos)  # (h, w)
    col = dy[:, None] * box.w + colpos  # the reference loop's visit counter
    ds = np.where(col[:, :, None] % 2 == 0, dsq, box.d - 1 - dsq)  # (h, w, d)
    out = np.empty((box.h, box.w, box.d, 3), dtype=np.int64)
    out[..., 0] = box.x0 + dx[:, :, None]
    out[..., 1] = box.y0 + dy[:, None, None]
    out[..., 2] = box.s0 + ds
    return out.reshape(box.volume, 3)


def fill_rect_into_box_array(
    w: int,
    h: int,
    box: Box,
    *,
    style: str,
    orientation: int = 0,
) -> Optional[np.ndarray]:
    """Array form of :func:`repro.verify.reference.folding.fill_rect_into_box`.

    Returns ``(h, w, 3)`` or ``None``: same wrap algebra evaluated once
    per axis and broadcast, same ``None`` condition when the rectangle
    does not factor into the box.
    """
    if style not in ("chunk", "fold"):
        raise MappingError(f"unknown fill style {style!r}")
    if w * h != box.volume:
        raise MappingError(
            f"rect {w}x{h} has {w * h} ranks, box {box} has {box.volume} slots"
        )
    dx_layers = -(-w // box.w)
    dy_layers = -(-h // box.h)
    if dx_layers * dy_layers > box.d:
        return None

    i = np.arange(w, dtype=np.int64)
    j = np.arange(h, dtype=np.int64)
    pos_x, sx = i % box.w, i // box.w  # (w,)
    pos_y, sy = j % box.h, j // box.h  # (h,)
    out = np.empty((h, w, 3), dtype=np.int64)
    if style == "fold":
        y_or = orientation if dy_layers > 1 else 0
        x_or_base = orientation if dx_layers > 1 else 0
        y = np.where((sy + y_or) % 2 == 1, box.h - 1 - pos_y, pos_y)
        flip_x = (sx[None, :] + x_or_base + sy[:, None]) % 2 == 1  # (h, w)
        x = np.where(flip_x, box.w - 1 - pos_x[None, :], pos_x[None, :])
        s_layer = sy[:, None] * dx_layers + np.where(
            sy[:, None] % 2 == 0, sx[None, :], dx_layers - 1 - sx[None, :]
        )
        if orientation % 2 and dx_layers * dy_layers > 1:
            s_layer = dx_layers * dy_layers - 1 - s_layer
        out[..., 0] = box.x0 + x
        out[..., 1] = (box.y0 + y)[:, None]
    else:
        s_layer = sy[:, None] * dx_layers + sx[None, :]
        out[..., 0] = box.x0 + pos_x[None, :]
        out[..., 1] = (box.y0 + pos_y)[:, None]
    out[..., 2] = box.s0 + s_layer
    return out


def snake_fill_array(
    w: int, h: int, box: Box, *, depth_first: bool = False
) -> np.ndarray:
    """Array form of :func:`repro.verify.reference.folding.snake_fill`.

    The fallback fill as ``(h, w, 3)``.
    """
    if w * h != box.volume:
        raise MappingError(
            f"rect {w}x{h} has {w * h} ranks, box {box} has {box.volume} slots"
        )
    order = (
        snake_order_box_depth_first_array(box)
        if depth_first
        else snake_order_box_array(box)
    )
    return order[snake_index_grid(w, h)]
