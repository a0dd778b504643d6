"""The TXYZ mapping — the stock alternative compared in Table 4.

TXYZ enumerates the core ("T") axis fastest: all cores of node (0,0,0)
receive consecutive ranks, then all cores of node (1,0,0), and so on in
x, y, z order. On a VN-mode run this keeps *x-adjacent* virtual-topology
neighbours on the same or adjacent node (good for the fast axis) at the
price of stretching the y neighbourhood even further than XYZT.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.core.mapping.base import Mapping, Placement, SlotSpace
from repro.runtime.process_grid import GridRect, ProcessGrid

__all__ = ["TxyzMapping"]


class TxyzMapping(Mapping):
    """Sequential TXYZ placement (cores fastest)."""

    name = "txyz"

    def place(
        self,
        grid: ProcessGrid,
        space: SlotSpace,
        rects: Optional[Sequence[GridRect]] = None,
    ) -> Placement:
        """Rank *r* goes to node ``r // rpn`` (xyz order), core ``r % rpn``.

        *rects* is accepted for interface uniformity and ignored.
        """
        self._check_capacity(grid, space)
        torus = space.torus
        rpn = space.ranks_per_node
        x_dim, y_dim, _ = torus.dims
        rank = np.arange(grid.size, dtype=np.int64)
        node_idx = rank // rpn
        core = rank % rpn
        slot_arr = np.empty((grid.size, 3), dtype=np.int64)
        slot_arr[:, 0] = node_idx % x_dim
        slot_arr[:, 1] = (node_idx // x_dim) % y_dim
        slot_arr[:, 2] = (node_idx // (x_dim * y_dim)) * rpn + core
        return Placement(space=space, grid=grid, slots=slot_arr, name=self.name)
