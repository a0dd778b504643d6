"""Reference fold and fill primitives: per-position Python loops.

The scalar forms of :mod:`repro.core.mapping.folding`, kept as the
oracle for its array functions. Fills are ``{(i, j): slot}`` dicts; the
array forms are ``(h, w, 3)`` arrays indexed ``[j, i]``. The wrapping
styles (chunk and fold) are described in :mod:`repro.core.mapping.folding`.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Tuple

from repro.core.mapping.base import Box, SlotCoord
from repro.errors import MappingError

__all__ = [
    "chunk_coord",
    "fold_coord",
    "snake_order_rect",
    "snake_order_box",
    "fill_rect_into_box",
    "snake_order_box_depth_first",
    "snake_fill",
]


def chunk_coord(i: int, a: int) -> Tuple[int, int]:
    """Chunked wrap: ``(position, layer)`` with positions running forward."""
    if i < 0 or a <= 0:
        raise MappingError(f"invalid chunk_coord({i}, {a})")
    return (i % a, i // a)


def fold_coord(i: int, a: int, *, orientation: int = 0) -> Tuple[int, int]:
    """Folded wrap: positions reverse on odd layers (boustrophedon).

    ``orientation`` flips which layers run forward — used to make
    neighbouring partitions' folds meet at adjacent layers.
    """
    if i < 0 or a <= 0:
        raise MappingError(f"invalid fold_coord({i}, {a})")
    pos, layer = i % a, i // a
    if (layer + orientation) % 2:
        pos = a - 1 - pos
    return (pos, layer)


def snake_order_rect(w: int, h: int) -> Iterator[Tuple[int, int]]:
    """All ``(i, j)`` of a rectangle in row-boustrophedon order.

    Consecutive outputs are always 4-neighbour adjacent.
    """
    for j in range(h):
        cols = range(w) if j % 2 == 0 else range(w - 1, -1, -1)
        for i in cols:
            yield (i, j)


def snake_order_box(box: Box) -> List[SlotCoord]:
    """All slots of *box* in a 3-D boustrophedon (consecutive = adjacent).

    Layers (s) are traversed in order; within each layer rows snake, and
    the row direction also snakes between layers so the first slot of a
    layer sits directly above the last slot of the previous one.
    """
    out: List[SlotCoord] = []
    for ds in range(box.d):
        rows = range(box.h) if ds % 2 == 0 else range(box.h - 1, -1, -1)
        for row_idx, dy in enumerate(rows):
            # Row direction alternates globally so consecutive slots touch.
            forward = (ds * box.h + row_idx) % 2 == 0
            cols = range(box.w) if forward else range(box.w - 1, -1, -1)
            for dx in cols:
                out.append((box.x0 + dx, box.y0 + dy, box.s0 + ds))
    return out


def fill_rect_into_box(
    w: int,
    h: int,
    box: Box,
    *,
    style: str,
    orientation: int = 0,
) -> Dict[Tuple[int, int], SlotCoord] | None:
    """Embed a ``w x h`` rectangle into *box* by wrapping both axes.

    The x axis wraps across ``dx = ceil(w / box.w)`` layers and the y axis
    across ``dy = ceil(h / box.h)``; layer pairs combine into the box depth
    as ``s = sy * dx + sx``. Returns ``None`` when ``dx * dy > box.d``
    (the rectangle does not factor into the box) so callers can fall back
    to :func:`snake_fill`.

    ``style`` is ``"chunk"`` (partition mapping) or ``"fold"``
    (multi-level mapping).
    """
    if style not in ("chunk", "fold"):
        raise MappingError(f"unknown fill style {style!r}")
    if w * h != box.volume:
        raise MappingError(
            f"rect {w}x{h} has {w * h} ranks, box {box} has {box.volume} slots"
        )
    dx = -(-w // box.w)
    dy = -(-h // box.h)
    if dx * dy > box.d:
        return None

    out: Dict[Tuple[int, int], SlotCoord] = {}
    # Orientation only matters along axes that actually fold (layers > 1);
    # flipping an unfolded axis would be a gratuitous reflection.
    y_or = orientation if dy > 1 else 0
    x_or_base = orientation if dx > 1 else 0
    for j in range(h):
        if style == "fold":
            y, sy = fold_coord(j, box.h, orientation=y_or)
        else:
            y, sy = chunk_coord(j, box.h)
        for i in range(w):
            if style == "fold":
                x, sx = fold_coord(i, box.w, orientation=x_or_base + sy)
                # Snake the x-layers within each y-layer so successive
                # sx differ by one slot plane.
                s_layer = sy * dx + (sx if sy % 2 == 0 else dx - 1 - sx)
                if orientation % 2:
                    # Odd orientation reverses the layer order so this
                    # partition's fold enters where its neighbour's fold
                    # exits (Fig 6(b): sibling 2 curls plane 1 -> 0).
                    s_layer = dx * dy - 1 - s_layer if dx * dy > 1 else s_layer
            else:
                x, sx = chunk_coord(i, box.w)
                s_layer = sy * dx + sx
            out[(i, j)] = (box.x0 + x, box.y0 + y, box.s0 + s_layer)
    return out


def snake_order_box_depth_first(box: Box) -> List[SlotCoord]:
    """Box slots serialised with the depth (s) axis *fastest*.

    Node columns are visited in a boustrophedon over the ``(x, y)``
    footprint and each column's slots snake up/down — consecutive slots
    are adjacent, and runs of ``ranks_per_node`` consecutive slots land on
    the same node. This order suits deep thin boxes, where the layer-major
    order of :func:`snake_order_box` would put virtual-topology rows many
    layers apart.
    """
    out: List[SlotCoord] = []
    col = 0
    for dy in range(box.h):
        cols = range(box.w) if dy % 2 == 0 else range(box.w - 1, -1, -1)
        for dx in cols:
            depths = range(box.d) if col % 2 == 0 else range(box.d - 1, -1, -1)
            for ds in depths:
                out.append((box.x0 + dx, box.y0 + dy, box.s0 + ds))
            col += 1
    return out


def snake_fill(
    w: int, h: int, box: Box, *, depth_first: bool = False
) -> Dict[Tuple[int, int], SlotCoord]:
    """Fallback fill: pair the rectangle snake with a box snake.

    Always succeeds when volumes match; consecutive rectangle positions
    land on adjacent slots, so locality degrades gracefully rather than
    failing. ``depth_first`` selects the s-fastest box serialisation.
    """
    if w * h != box.volume:
        raise MappingError(
            f"rect {w}x{h} has {w * h} ranks, box {box} has {box.volume} slots"
        )
    slots = snake_order_box_depth_first(box) if depth_first else snake_order_box(box)
    return {pos: slots[k] for k, pos in enumerate(snake_order_rect(w, h))}
