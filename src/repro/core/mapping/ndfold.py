"""Prototype 2D -> N-D torus mapping (the Blue Gene/Q future work).

The paper's conclusion: "we plan to extend the mapping heuristics ...
as well as develop novel schemes for the 5D torus topology of Blue
Gene/Q". This module implements such a scheme:

**Mixed-radix folding.** Split the torus dimensions (plus a virtual
"core" dimension of ``ranks_per_node`` slots) into two groups whose
extents multiply to the process grid's ``Px`` and ``Py``. Each grid axis
is then folded boustrophedon-wise through its dimension group: the
digit of every level reverses direction whenever the level above
advances, so *consecutive grid positions always differ by one step in
exactly one torus dimension* — every 2-D neighbour pair is at most one
hop apart (zero when the step lands in the core dimension).

The default BG/Q placement (ranks in ABCDE order, like XYZT on 3-D
machines) is provided as the baseline.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import MappingError
from repro.runtime.halo import HaloBatch
from repro.runtime.process_grid import ProcessGrid
from repro.topology.torusnd import NdCoord, TorusND

__all__ = [
    "NdPlacement",
    "fold_mixed_radix",
    "split_dims_for_grid",
    "default_nd_placement",
    "folded_nd_placement",
    "nd_average_hops",
]

#: Marker index for the virtual core dimension in dimension groups.
CORE_DIM = -1


@dataclass(frozen=True)
class NdPlacement:
    """Rank -> N-D torus node assignment."""

    torus: TorusND
    grid: ProcessGrid
    nodes: Tuple[NdCoord, ...]
    ranks_per_node: int
    name: str

    def __post_init__(self) -> None:
        if len(self.nodes) != self.grid.size:
            raise MappingError(
                f"placement covers {len(self.nodes)} ranks, grid has {self.grid.size}"
            )
        counts: Dict[NdCoord, int] = {}
        for node in self.nodes:
            if not self.torus.contains(node):
                raise MappingError(f"node {node} outside torus {self.torus.dims}")
            counts[node] = counts.get(node, 0) + 1
            if counts[node] > self.ranks_per_node:
                raise MappingError(
                    f"node {node} holds more than {self.ranks_per_node} ranks"
                )

    def node_of(self, rank: int) -> NdCoord:
        """Torus node of world rank *rank*."""
        return self.nodes[rank]

    def hops_between(self, a: int, b: int) -> int:
        """Torus hop distance between two ranks."""
        return self.torus.distance(self.nodes[a], self.nodes[b])


def fold_mixed_radix(i: int, dims: Sequence[int]) -> Tuple[int, ...]:
    """Boustrophedon mixed-radix digits of *i* over *dims* (first fastest).

    Consecutive *i* differ by exactly one step in exactly one digit —
    the N-D generalisation of :func:`repro.core.mapping.folding.fold_coord`.
    """
    total = 1
    for d in dims:
        total *= d
    if not (0 <= i < total):
        raise MappingError(f"index {i} outside mixed radix of product {total}")
    digits: List[int] = []
    stride = 1
    for d in dims:
        digit = (i // stride) % d
        layer = i // (stride * d)
        digits.append(d - 1 - digit if layer % 2 else digit)
        stride *= d
    return tuple(digits)


def split_dims_for_grid(
    torus: TorusND, ranks_per_node: int, px: int, py: int
) -> Optional[Tuple[List[int], List[int]]]:
    """Partition torus dims (+ core dim) into groups with products px, py.

    Returns ``(x_dims, y_dims)`` as lists of dimension indices
    (:data:`CORE_DIM` marks the virtual core dimension, placed in the x
    group so x-neighbours co-locate first), or ``None`` when no exact
    split exists. Among valid splits, the one spreading each axis over
    the fewest dimensions is preferred (fewer fold seams).
    """
    if px * py != torus.num_nodes * ranks_per_node:
        raise MappingError(
            f"grid {px}x{py} does not fill {torus.num_nodes} nodes x "
            f"{ranks_per_node} ranks"
        )
    entries: List[Tuple[int, int]] = [(CORE_DIM, ranks_per_node)] if ranks_per_node > 1 else []
    entries += [(idx, d) for idx, d in enumerate(torus.dims)]

    best: Optional[Tuple[List[int], List[int]]] = None
    best_spread = 10**9
    n = len(entries)
    for r in range(0, n + 1):
        for combo in combinations(range(n), r):
            prod = 1
            for k in combo:
                prod *= entries[k][1]
            if prod != px:
                continue
            x_group = [entries[k][0] for k in combo]
            y_group = [entries[k][0] for k in range(n) if k not in combo]
            # Core dimension, when present, prefers the x group (fast axis).
            spread = len(x_group) * len(y_group) + (
                0 if (CORE_DIM in x_group or ranks_per_node == 1) else 1
            )
            if spread < best_spread:
                best_spread = spread
                best = (x_group, y_group)
    return best


def default_nd_placement(
    grid: ProcessGrid, torus: TorusND, ranks_per_node: int = 1
) -> NdPlacement:
    """The machine default: ranks in torus-coordinate order, cores last."""
    n = torus.num_nodes
    if grid.size > n * ranks_per_node:
        raise MappingError(
            f"{grid.size} ranks exceed {n * ranks_per_node} slots"
        )
    nodes = tuple(torus.coord_of(rank % n) for rank in range(grid.size))
    return NdPlacement(
        torus=torus, grid=grid, nodes=nodes,
        ranks_per_node=ranks_per_node, name="nd-default",
    )


def folded_nd_placement(
    grid: ProcessGrid, torus: TorusND, ranks_per_node: int = 1
) -> NdPlacement:
    """The mixed-radix folded placement (every 2-D neighbour <= 1 hop).

    Raises :class:`~repro.errors.MappingError` when the grid extents do
    not factor over the torus dimensions (e.g. a prime grid side) — the
    N-D analogue of the paper's "non-foldable" caveat.
    """
    split = split_dims_for_grid(torus, ranks_per_node, grid.px, grid.py)
    if split is None:
        raise MappingError(
            f"grid {grid.px}x{grid.py} is not foldable over torus "
            f"{torus.dims} with {ranks_per_node} ranks/node"
        )
    x_group, y_group = split
    x_extents = [
        ranks_per_node if d == CORE_DIM else torus.dims[d] for d in x_group
    ]
    y_extents = [
        ranks_per_node if d == CORE_DIM else torus.dims[d] for d in y_group
    ]

    nodes: List[NdCoord] = []
    for rank in range(grid.size):
        gx, gy = grid.position_of(rank)
        x_digits = fold_mixed_radix(gx, x_extents)
        y_digits = fold_mixed_radix(gy, y_extents)
        coord = [0] * torus.ndim
        for dim, digit in zip(x_group, x_digits):
            if dim != CORE_DIM:
                coord[dim] = digit
        for dim, digit in zip(y_group, y_digits):
            if dim != CORE_DIM:
                coord[dim] = digit
        nodes.append(tuple(coord))
    return NdPlacement(
        torus=torus, grid=grid, nodes=tuple(nodes),
        ranks_per_node=ranks_per_node, name="nd-folded",
    )


def nd_average_hops(placement: NdPlacement, messages: HaloBatch) -> float:
    """Mean torus hops of *messages* under *placement*."""
    if not len(messages):
        raise MappingError("no messages to evaluate")
    return sum(
        placement.hops_between(src, dst)
        for src, dst in zip(messages.src.tolist(), messages.dst.tolist())
    ) / len(messages)
