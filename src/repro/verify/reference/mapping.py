"""Reference mapping heuristics and metrics: per-rank Python walks.

The scalar forms of the four Sec 3.3 heuristics (oblivious XYZT, TXYZ,
partition, multi-level) and of the hop metrics, kept as the oracle for
:mod:`repro.core.mapping`. The heuristics fill ``{(i, j): slot}`` dicts
one position at a time and score candidates with
:meth:`~repro.topology.torus.Torus3D.distance`; the metrics call
:meth:`~repro.core.mapping.base.Placement.hops_between` once per message.
Hops and byte counts are integers, so production and reference agree
exactly, candidate choice and division included.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.mapping.base import Box, Mapping, Placement, SlotCoord, SlotSpace
from repro.core.mapping.boxes import assign_boxes
from repro.core.mapping.metrics import MappingMetrics
from repro.errors import MappingError
from repro.runtime.process_grid import GridRect, ProcessGrid
from repro.verify.reference.folding import (
    fill_rect_into_box,
    snake_fill,
    snake_order_box,
    snake_order_box_depth_first,
    snake_order_rect,
)
from repro.verify.reference.halo import HaloMessage

__all__ = [
    "ObliviousMapping",
    "TxyzMapping",
    "PartitionMapping",
    "MultiLevelMapping",
    "place",
    "average_hops",
    "hop_bytes",
    "evaluate_mapping",
]


class ObliviousMapping(Mapping):
    """Sequential XYZT placement, one rank at a time."""

    name = "oblivious"

    def place(
        self,
        grid: ProcessGrid,
        space: SlotSpace,
        rects: Optional[Sequence[GridRect]] = None,
    ) -> Placement:
        """Rank *r* goes to node ``r % nodes`` (xyz order), core ``r // nodes``."""
        self._check_capacity(grid, space)
        torus = space.torus
        nodes = torus.num_nodes
        rpn = space.ranks_per_node
        slots: list[SlotCoord] = []
        for rank in range(grid.size):
            core = rank // nodes
            node_idx = rank % nodes
            x, y, z = torus.coord_of(node_idx)
            slots.append((x, y, z * rpn + core))
        return Placement(space=space, grid=grid, slots=tuple(slots), name=self.name)


class TxyzMapping(Mapping):
    """Sequential TXYZ placement (cores fastest), one rank at a time."""

    name = "txyz"

    def place(
        self,
        grid: ProcessGrid,
        space: SlotSpace,
        rects: Optional[Sequence[GridRect]] = None,
    ) -> Placement:
        """Rank *r* goes to node ``r // rpn`` (xyz order), core ``r % rpn``."""
        self._check_capacity(grid, space)
        torus = space.torus
        rpn = space.ranks_per_node
        slots: list[SlotCoord] = []
        for rank in range(grid.size):
            node_idx = rank // rpn
            core = rank % rpn
            x, y, z = torus.coord_of(node_idx)
            slots.append((x, y, z * rpn + core))
        return Placement(space=space, grid=grid, slots=tuple(slots), name=self.name)


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
        """Place *grid* ranks respecting the per-sibling *rects*."""
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

        # The box-split axis preference interacts with how rectangles
        # factor into their boxes in hard-to-predict ways; build the
        # placement under both preferences and keep the one with fewer
        # internal hops (assignment is cheap relative to the savings).
        best: tuple[float, Dict[int, SlotCoord]] | None = None
        for prefer_depth in (self._fill_style == "chunk", self._fill_style != "chunk"):
            own, shared = assign_boxes(rects, root, prefer_depth_cut=prefer_depth)
            slot_of_rank: Dict[int, SlotCoord] = {}
            handled_shared: set[int] = set()
            score = 0.0
            for idx, rect in enumerate(rects):
                if idx in own:
                    box, orientation = own[idx]
                    score += self._fill_own(
                        grid, rect, box, orientation, slot_of_rank, space
                    )
                elif idx not in handled_shared:
                    box, group = shared[idx]
                    score += self._fill_shared(
                        grid, rects, group, box, slot_of_rank, space
                    )
                    handled_shared.update(group)
            if best is None or score < best[0]:
                best = (score, slot_of_rank)
        assert best is not None

        # Third candidate: one global structured fill of the whole grid.
        # When partition areas do not factor into the box (no exact
        # guillotine split exists), the per-rect path degrades to snake
        # segments; a global fold keeps every 2-D adjacency short and each
        # rectangle still lands on a contiguous folded band.
        global_choice = self._global_fill(grid, root, rects, space)
        if global_choice is not None and global_choice[0] < best[0]:
            best = global_choice

        slots = tuple(best[1][r] for r in range(grid.size))
        return Placement(space=space, grid=grid, slots=slots, name=self.name)

    def _global_fill(
        self,
        grid: ProcessGrid,
        root: Box,
        rects: Sequence[GridRect],
        space: SlotSpace,
    ) -> tuple[float, Dict[int, SlotCoord]] | None:
        fill = fill_rect_into_box(grid.px, grid.py, root, style=self._fill_style)
        if fill is None:
            return None
        slot_of_rank: Dict[int, SlotCoord] = {}
        score = 0.0
        for rect in rects:
            local = {
                (i, j): fill[(rect.x0 + i, rect.y0 + j)]
                for j in range(rect.height)
                for i in range(rect.width)
            }
            score += self._fill_score(local, rect, space) * rect.area
            for (i, j), slot in local.items():
                slot_of_rank[grid.rank_of(rect.x0 + i, rect.y0 + j)] = slot
        return (score, slot_of_rank)

    def _fill_own(
        self,
        grid: ProcessGrid,
        rect: GridRect,
        box: Box,
        orientation: int,
        out: Dict[int, SlotCoord],
        space: SlotSpace,
    ) -> float:
        """Fill one rectangle, picking the best of several candidate fills.

        Candidates: the structured (chunk/fold) fill, the same with the
        rectangle's axes transposed (sometimes only one orientation
        factors into the box), and the always-valid snake fallback. The
        winner minimises the mean hop distance over the rectangle's
        internal 4-neighbour pairs — a cheap local proxy for the halo
        cost the network simulator will charge.
        """
        candidates: list[Dict[Tuple[int, int], SlotCoord]] = []
        fill = self._structured_fill(rect, box, orientation)
        if fill is not None:
            candidates.append(fill)
        transposed = self._structured_fill(
            GridRect(rect.y0, rect.x0, rect.height, rect.width), box, orientation
        )
        if transposed is not None:
            candidates.append(
                {(i, j): slot for (j, i), slot in transposed.items()}
            )
        candidates.append(snake_fill(rect.width, rect.height, box))
        candidates.append(snake_fill(rect.width, rect.height, box, depth_first=True))

        scored = [(self._fill_score(f, rect, space), f) for f in candidates]
        best_score, best = min(scored, key=lambda sf: sf[0])
        for (i, j), slot in best.items():
            out[grid.rank_of(rect.x0 + i, rect.y0 + j)] = slot
        return best_score * rect.area

    @staticmethod
    def _fill_score(
        fill: Dict[Tuple[int, int], SlotCoord], rect: GridRect, space: SlotSpace
    ) -> float:
        """Mean torus hops over internal 4-neighbour pairs (lower = better)."""
        torus = space.torus
        total = 0
        count = 0
        for j in range(rect.height):
            for i in range(rect.width):
                here = space.node_of(fill[(i, j)])
                if i + 1 < rect.width:
                    total += torus.distance(here, space.node_of(fill[(i + 1, j)]))
                    count += 1
                if j + 1 < rect.height:
                    total += torus.distance(here, space.node_of(fill[(i, j + 1)]))
                    count += 1
        return total / count if count else 0.0

    def _structured_fill(
        self, rect: GridRect, box: Box, orientation: int
    ) -> Dict[Tuple[int, int], SlotCoord] | None:
        return fill_rect_into_box(
            rect.width, rect.height, box, style=self._fill_style
        )

    def _fill_shared(
        self,
        grid: ProcessGrid,
        rects: Sequence[GridRect],
        group: Sequence[int],
        box: Box,
        out: Dict[int, SlotCoord],
        space: SlotSpace,
    ) -> float:
        """Give each group member a contiguous snake segment of the box.

        Both box serialisations (layer-major and depth-first) are tried;
        the one with the lower total internal-hop score across the group
        wins — deep boxes strongly favour the depth-first order.
        """
        candidates: list[Dict[int, SlotCoord]] = []
        scores: list[float] = []
        for order in (snake_order_box(box), snake_order_box_depth_first(box)):
            fill: Dict[int, SlotCoord] = {}
            score = 0.0
            cursor = 0
            for idx in group:
                rect = rects[idx]
                local: Dict[Tuple[int, int], SlotCoord] = {}
                for i, j in snake_order_rect(rect.width, rect.height):
                    local[(i, j)] = order[cursor]
                    cursor += 1
                score += self._fill_score(local, rect, space) * rect.area
                for (i, j), slot in local.items():
                    fill[grid.rank_of(rect.x0 + i, rect.y0 + j)] = slot
            if cursor != len(order):  # pragma: no cover - defensive
                raise MappingError("shared box fill did not consume all slots")
            candidates.append(fill)
            scores.append(score)
        best_index = scores.index(min(scores))
        out.update(candidates[best_index])
        return scores[best_index]


class MultiLevelMapping(PartitionMapping):
    """Partition mapping with folded (boustrophedon) box fills."""

    name = "multilevel"
    _fill_style = "fold"

    def _structured_fill(
        self, rect: GridRect, box: Box, orientation: int
    ) -> Dict[Tuple[int, int], SlotCoord] | None:
        """Folded fill; orientation comes from the guillotine recursion.

        Orientations alternate across every cut so a partition's fold
        exits on the plane where its neighbour's fold enters (Fig 6(b):
        sibling 1 folds plane 0 -> 1, sibling 2 curls plane 1 -> 0).
        """
        filled = fill_rect_into_box(
            rect.width, rect.height, box, style="fold", orientation=orientation
        )
        if filled is not None:
            return filled
        # Non-foldable: fall back to the chunked partition fill.
        return fill_rect_into_box(rect.width, rect.height, box, style="chunk")


_BY_NAME = {
    cls.name: cls
    for cls in (ObliviousMapping, TxyzMapping, PartitionMapping, MultiLevelMapping)
}


def place(
    mapping: Mapping,
    grid: ProcessGrid,
    space: SlotSpace,
    rects: Optional[Sequence[GridRect]] = None,
) -> Placement:
    """The reference placement of the heuristic *mapping* implements."""
    return _BY_NAME[mapping.name]().place(grid, space, rects)


def average_hops(placement: Placement, messages: Iterable[HaloMessage]) -> float:
    """Mean torus hop count over *messages* under *placement*."""
    total = 0
    count = 0
    for msg in messages:
        total += placement.hops_between(msg.src, msg.dst)
        count += 1
    if count == 0:
        raise MappingError("no messages to evaluate")
    return total / count


def hop_bytes(placement: Placement, messages: Iterable[HaloMessage]) -> float:
    """Total hop-byte volume (sum of bytes * hops) — the classic metric."""
    return float(
        sum(placement.hops_between(m.src, m.dst) * m.nbytes for m in messages)
    )


def evaluate_mapping(
    placement: Placement, messages: Sequence[HaloMessage]
) -> MappingMetrics:
    """Full metric set for *messages* under *placement*."""
    if not messages:
        raise MappingError("no messages to evaluate")
    hops: List[int] = [placement.hops_between(m.src, m.dst) for m in messages]
    hb = float(sum(h * m.nbytes for h, m in zip(hops, messages)))
    zero = sum(1 for h in hops if h == 0)
    return MappingMetrics(
        num_messages=len(messages),
        average_hops=sum(hops) / len(hops),
        max_hops=max(hops),
        hop_bytes=hb,
        intra_node_fraction=zero / len(hops),
    )
