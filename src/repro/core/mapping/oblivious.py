"""The topology-oblivious (default XYZT) mapping — Fig 5(b).

Blue Gene's default placement assigns MPI ranks to torus coordinates in
increasing x, then y, then z order, wrapping to the next core of each node
only after all nodes received one rank (the trailing "T" of XYZT). This is
the placement the paper's "topology-oblivious" results use: correct, but
ignorant of the 2-D neighbourhood structure, so virtual-topology rows end
up several torus hops apart.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.core.mapping.base import Mapping, Placement, SlotSpace
from repro.runtime.process_grid import GridRect, ProcessGrid

__all__ = ["ObliviousMapping"]


class ObliviousMapping(Mapping):
    """Sequential XYZT placement (the Blue Gene default)."""

    name = "oblivious"

    def place(
        self,
        grid: ProcessGrid,
        space: SlotSpace,
        rects: Optional[Sequence[GridRect]] = None,
    ) -> Placement:
        """Rank *r* goes to node ``r % nodes`` (xyz order), core ``r // nodes``.

        *rects* is accepted for interface uniformity and ignored.
        """
        self._check_capacity(grid, space)
        torus = space.torus
        nodes = torus.num_nodes
        rpn = space.ranks_per_node
        x_dim, y_dim, _ = torus.dims
        rank = np.arange(grid.size, dtype=np.int64)
        node_idx = rank % nodes
        core = rank // nodes
        slot_arr = np.empty((grid.size, 3), dtype=np.int64)
        slot_arr[:, 0] = node_idx % x_dim
        slot_arr[:, 1] = (node_idx // x_dim) % y_dim
        slot_arr[:, 2] = (node_idx // (x_dim * y_dim)) * rpn + core
        return Placement(space=space, grid=grid, slots=slot_arr, name=self.name)
