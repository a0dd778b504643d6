"""Partition mapping — Fig 6(a).

Each sibling's processor rectangle is mapped onto a contiguous sub-box of
the torus (recovered through the guillotine structure of the allocation)
and filled with the *chunk* style: the rectangle keeps its 2-D shape
within each torus plane, planes stack consecutively. Neighbouring
processes of a nest are therefore neighbouring torus nodes; parent-domain
neighbours across partition seams may still be a few hops apart (the gap
the multi-level mapping closes).
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.core.mapping.base import Box, Mapping, Placement, SlotSpace
from repro.core.mapping.boxes import assign_boxes
from repro.core.mapping.folding import (
    fill_rect_into_box_array,
    snake_fill_array,
    snake_index_grid,
    snake_order_box_array,
    snake_order_box_depth_first_array,
)
from repro.errors import MappingError
from repro.runtime.process_grid import GridRect, ProcessGrid

__all__ = ["PartitionMapping"]


class PartitionMapping(Mapping):
    """Map each partition onto contiguous torus nodes (chunk fill)."""

    name = "partition"
    _fill_style = "chunk"

    def place(
        self,
        grid: ProcessGrid,
        space: SlotSpace,
        rects: Optional[Sequence[GridRect]] = None,
    ) -> Placement:
        """Place *grid* ranks respecting the per-sibling *rects*.

        Without *rects* the whole grid is treated as a single partition,
        which still yields a locality-preserving 2D->3D embedding (useful
        for single-domain runs).
        """
        self._check_capacity(grid, space)
        if grid.size != space.num_slots:
            raise MappingError(
                f"partition-aware mappings need a full machine partition: "
                f"{grid.size} ranks vs {space.num_slots} slots"
            )
        if rects is None:
            rects = [grid.full_rect()]
        X, Y, S = space.dims
        root = Box(0, 0, 0, X, Y, S)

        # Every candidate fill is an ``(h, w, 3)`` slot array; hop scores
        # are exact-integer sums divided once, so candidate selection
        # (first minimum wins) is bit-identical to the reference.
        #
        # The box-split axis preference interacts with how rectangles
        # factor into their boxes in hard-to-predict ways; build the
        # placement under both preferences and keep the one with fewer
        # internal hops (assignment is cheap relative to the savings).
        best: tuple[float, np.ndarray] | None = None
        for prefer_depth in (self._fill_style == "chunk", self._fill_style != "chunk"):
            own, shared = assign_boxes(rects, root, prefer_depth_cut=prefer_depth)
            slot_arr = np.full((grid.size, 3), -1, dtype=np.int64)
            handled_shared: set[int] = set()
            score = 0.0
            for idx, rect in enumerate(rects):
                if idx in own:
                    box, orientation = own[idx]
                    score += self._fill_own_array(
                        grid, rect, box, orientation, slot_arr, space
                    )
                elif idx not in handled_shared:
                    box, group = shared[idx]
                    score += self._fill_shared_array(
                        grid, rects, group, box, slot_arr, space
                    )
                    handled_shared.update(group)
            if best is None or score < best[0]:
                best = (score, slot_arr)
        assert best is not None

        # Third candidate: one global structured fill of the whole grid.
        # When partition areas do not factor into the box (no exact
        # guillotine split exists), the per-rect path degrades to snake
        # segments; a global fold keeps every 2-D adjacency short and each
        # rectangle still lands on a contiguous folded band.
        global_choice = self._global_fill_array(grid, root, rects, space)
        if global_choice is not None and global_choice[0] < best[0]:
            best = global_choice
        return Placement(space=space, grid=grid, slots=best[1], name=self.name)

    @staticmethod
    def _rect_ranks(grid: ProcessGrid, rect: GridRect) -> np.ndarray:
        """``(h, w)`` grid of the ranks covered by *rect*."""
        gx = rect.x0 + np.arange(rect.width, dtype=np.int64)
        gy = rect.y0 + np.arange(rect.height, dtype=np.int64)
        return gy[:, None] * grid.px + gx[None, :]

    def _fill_own_array(
        self,
        grid: ProcessGrid,
        rect: GridRect,
        box: Box,
        orientation: int,
        out: np.ndarray,
        space: SlotSpace,
    ) -> float:
        candidates: list[np.ndarray] = []
        fill = self._structured_fill_array(rect, box, orientation)
        if fill is not None:
            candidates.append(fill)
        transposed = self._structured_fill_array(
            GridRect(rect.y0, rect.x0, rect.height, rect.width), box, orientation
        )
        if transposed is not None:
            candidates.append(transposed.transpose(1, 0, 2))
        candidates.append(snake_fill_array(rect.width, rect.height, box))
        candidates.append(
            snake_fill_array(rect.width, rect.height, box, depth_first=True)
        )

        scores = [self._fill_score_array(f, space) for f in candidates]
        best_index = min(range(len(scores)), key=scores.__getitem__)
        ranks = self._rect_ranks(grid, rect)
        out[ranks.ravel()] = candidates[best_index].reshape(-1, 3)
        return scores[best_index] * rect.area

    @staticmethod
    def _fill_score_array(fill: np.ndarray, space: SlotSpace) -> float:
        """Mean torus hops over the internal 4-neighbour pairs of an
        ``(h, w, 3)`` fill (lower = better).

        Fill slots lie in the slot box, so their nodes lie in the torus
        and every coordinate difference is already below its dimension:
        the wrap needs no modulo.
        """
        nodes = fill.copy()
        nodes[..., 2] //= space.ranks_per_node
        dims = np.asarray(space.torus.dims, dtype=np.int64)
        h, w = fill.shape[:2]
        total = 0
        if w > 1:
            d = np.abs(nodes[:, :-1] - nodes[:, 1:])
            total += int(np.minimum(d, dims - d).sum())
        if h > 1:
            d = np.abs(nodes[:-1, :] - nodes[1:, :])
            total += int(np.minimum(d, dims - d).sum())
        count = h * (w - 1) + w * (h - 1)
        return total / count if count else 0.0

    def _structured_fill_array(
        self, rect: GridRect, box: Box, orientation: int
    ) -> np.ndarray | None:
        return fill_rect_into_box_array(
            rect.width, rect.height, box, style=self._fill_style
        )

    def _fill_shared_array(
        self,
        grid: ProcessGrid,
        rects: Sequence[GridRect],
        group: Sequence[int],
        box: Box,
        out: np.ndarray,
        space: SlotSpace,
    ) -> float:
        scores: list[float] = []
        fills: list[list[tuple[np.ndarray, np.ndarray]]] = []
        for order in (snake_order_box_array(box), snake_order_box_depth_first_array(box)):
            placed: list[tuple[np.ndarray, np.ndarray]] = []
            score = 0.0
            cursor = 0
            for idx in group:
                rect = rects[idx]
                segment = order[cursor : cursor + rect.area]
                cursor += rect.area
                local = segment[snake_index_grid(rect.width, rect.height)]
                score += self._fill_score_array(local, space) * rect.area
                placed.append((self._rect_ranks(grid, rect), local))
            if cursor != len(order):  # pragma: no cover - defensive
                raise MappingError("shared box fill did not consume all slots")
            fills.append(placed)
            scores.append(score)
        best_index = scores.index(min(scores))
        for ranks, local in fills[best_index]:
            out[ranks.ravel()] = local.reshape(-1, 3)
        return scores[best_index]

    def _global_fill_array(
        self,
        grid: ProcessGrid,
        root: Box,
        rects: Sequence[GridRect],
        space: SlotSpace,
    ) -> tuple[float, np.ndarray] | None:
        fill = fill_rect_into_box_array(grid.px, grid.py, root, style=self._fill_style)
        if fill is None:
            return None
        slot_arr = np.full((grid.size, 3), -1, dtype=np.int64)
        score = 0.0
        for rect in rects:
            local = fill[rect.y0 : rect.y0 + rect.height, rect.x0 : rect.x0 + rect.width]
            score += self._fill_score_array(local, space) * rect.area
            ranks = self._rect_ranks(grid, rect)
            slot_arr[ranks.ravel()] = local.reshape(-1, 3)
        return (score, slot_arr)
