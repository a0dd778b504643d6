"""Reference halo builder: one :class:`HaloMessage` object per message.

The original per-rank Python walk over the decomposition, kept as the
oracle for :func:`repro.runtime.halo.halo_batch` (same message order,
same integer sizes), plus the converters between the object list and the
production :class:`~repro.runtime.halo.HaloBatch` columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.runtime.decomposition import decompose
from repro.runtime.halo import HaloBatch, HaloSpec
from repro.runtime.process_grid import GridRect, ProcessGrid

__all__ = ["HaloMessage", "halo_messages", "to_messages", "from_messages"]


@dataclass(frozen=True)
class HaloMessage:
    """One directional halo message between world ranks in one round."""

    src: int
    dst: int
    nbytes: int


def halo_messages(
    grid: ProcessGrid,
    rect: GridRect,
    nx: int,
    ny: int,
    spec: HaloSpec,
) -> List[HaloMessage]:
    """All messages of one halo-exchange round of a nest on *rect*.

    The nest's ``nx x ny`` domain is block-decomposed over the rectangle's
    ``width x height`` sub-grid. Every rank sends to each existing
    neighbour (boundary tiles have fewer neighbours). Message sizes use
    the *sender's* tile edge, matching how WRF packs its halo strips.
    """
    dec = decompose(nx, ny, rect.width, rect.height)
    msgs: List[HaloMessage] = []
    for py in range(rect.height):
        for px in range(rect.width):
            src = grid.rank_of(rect.x0 + px, rect.y0 + py)
            w = dec.col_widths[px]
            h = dec.row_heights[py]
            # East/west messages carry a vertical strip of `h` points.
            for dx in (-1, 1):
                qx = px + dx
                if 0 <= qx < rect.width:
                    dst = grid.rank_of(rect.x0 + qx, rect.y0 + py)
                    msgs.append(HaloMessage(src, dst, spec.strip_bytes(h)))
            # North/south messages carry a horizontal strip of `w` points.
            for dy in (-1, 1):
                qy = py + dy
                if 0 <= qy < rect.height:
                    dst = grid.rank_of(rect.x0 + px, rect.y0 + qy)
                    msgs.append(HaloMessage(src, dst, spec.strip_bytes(w)))
    return msgs


def to_messages(batch: HaloBatch) -> List[HaloMessage]:
    """Materialise the :class:`HaloMessage` objects of *batch*."""
    return [
        HaloMessage(s, d, b)
        for s, d, b in zip(
            batch.src.tolist(), batch.dst.tolist(), batch.nbytes.tolist()
        )
    ]


def from_messages(messages: List[HaloMessage]) -> HaloBatch:
    """Column arrays of an existing message list."""
    n = len(messages)
    return HaloBatch(
        src=np.fromiter((m.src for m in messages), dtype=np.int64, count=n),
        dst=np.fromiter((m.dst for m in messages), dtype=np.int64, count=n),
        nbytes=np.fromiter((m.nbytes for m in messages), dtype=np.int64, count=n),
    )
