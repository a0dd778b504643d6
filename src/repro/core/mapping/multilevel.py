"""Multi-level mapping — Fig 6(b).

A refinement of partition mapping: each sibling's rectangle is *folded*
(boustrophedon) across the torus planes of its sub-box instead of chunked.
Folding keeps processes on both sides of every wrap seam exactly one hop
apart, and alternating the fold orientation between adjacent partitions
lets parent-domain neighbours across partition boundaries meet at adjacent
(often wrapped) torus coordinates — the "universal mapping scheme
benefitting both the nested simulations and the parent simulation" of the
paper.

Rectangles that do not factor into their sub-box ("non-foldable mappings",
which the paper leaves to future work) fall back to the partition-style
fill automatically.
"""

from __future__ import annotations

import numpy as np

from repro.core.mapping.base import Box
from repro.core.mapping.folding import fill_rect_into_box_array
from repro.core.mapping.partition_map import PartitionMapping
from repro.runtime.process_grid import GridRect

__all__ = ["MultiLevelMapping"]


class MultiLevelMapping(PartitionMapping):
    """Partition mapping with folded (boustrophedon) box fills."""

    name = "multilevel"
    _fill_style = "fold"

    def _structured_fill_array(
        self, rect: GridRect, box: Box, orientation: int
    ) -> np.ndarray | None:
        """Folded fill; orientation comes from the guillotine recursion.

        Orientations alternate across every cut so a partition's fold
        exits on the plane where its neighbour's fold enters (Fig 6(b):
        sibling 1 folds plane 0 -> 1, sibling 2 curls plane 1 -> 0).
        Non-foldable rectangles fall back to the chunked partition fill.
        """
        filled = fill_rect_into_box_array(
            rect.width, rect.height, box, style="fold", orientation=orientation
        )
        if filled is not None:
            return filled
        return fill_rect_into_box_array(rect.width, rect.height, box, style="chunk")
