"""Mapping foundations: slot space, placements, the Mapping interface.

**Slot space.** A machine partition is a torus of nodes with ``rpn`` MPI
ranks per node (1 in CO/SMP mode, 2 in Dual/VN-on-BG/L, 4 in VN-on-BG/P).
We model the rank-placement target as a 3-D box of *slots* with dimensions
``(X, Y, Z * rpn)``: slot ``(x, y, s)`` lives on node ``(x, y, s // rpn)``.
Extending the z axis keeps the target a clean box (so rectangles can be
embedded contiguously) while preserving the property that slots on the
same node are zero hops apart.

**Placement.** The result of a mapping: for every world rank, the slot it
occupies (a bijection onto a subset of slots) and therefore the node
coordinate the network simulator routes from.

A placement holds one representation: a read-only ``(P, 3)`` ``int64``
slot array. The constructor normalises its input once, checks bounds and
bijection vectorized (the per-rank walk runs only to word an error), and
builds the node array with its
:class:`~repro.netsim.engine.PlacementVector` (node ranks and route-cache
digest) exactly once, so every placement-cache hit reuses them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import MappingError
from repro.runtime.process_grid import GridRect, ProcessGrid
from repro.topology.torus import Torus3D, TorusCoord
from repro.util.validation import check_positive_int

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.netsim.engine import PlacementVector

__all__ = ["SlotCoord", "SlotSpace", "Box", "Placement", "Mapping"]

SlotCoord = Tuple[int, int, int]


class SlotSpace:
    """The box of rank slots over a node torus."""

    __slots__ = ("_torus", "_rpn")

    def __init__(self, torus: Torus3D, ranks_per_node: int = 1):
        self._torus = torus
        self._rpn = check_positive_int(ranks_per_node, "ranks_per_node")

    @property
    def torus(self) -> Torus3D:
        """The underlying node torus."""
        return self._torus

    @property
    def ranks_per_node(self) -> int:
        """MPI ranks per node."""
        return self._rpn

    @property
    def dims(self) -> Tuple[int, int, int]:
        """Slot-box dimensions ``(X, Y, Z * rpn)``."""
        x, y, z = self._torus.dims
        return (x, y, z * self._rpn)

    @property
    def num_slots(self) -> int:
        """Total rank capacity."""
        return self._torus.num_nodes * self._rpn

    def node_of(self, slot: SlotCoord) -> TorusCoord:
        """The torus node hosting *slot*."""
        x, y, s = slot
        X, Y, S = self.dims
        if not (0 <= x < X and 0 <= y < Y and 0 <= s < S):
            raise MappingError(f"slot {slot} outside slot box {self.dims}")
        return (x, y, s // self._rpn)

    def slot_index(self, slot: SlotCoord) -> int:
        """Linear slot id (x fastest, then y, then s) for bijection checks."""
        x, y, s = slot
        X, Y, S = self.dims
        if not (0 <= x < X and 0 <= y < Y and 0 <= s < S):
            raise MappingError(f"slot {slot} outside slot box {self.dims}")
        return x + X * (y + Y * s)

    def __repr__(self) -> str:
        X, Y, S = self.dims
        return f"SlotSpace({X}x{Y}x{S}, rpn={self._rpn})"


@dataclass(frozen=True)
class Box:
    """An axis-aligned sub-box of slot space: origin + extents."""

    x0: int
    y0: int
    s0: int
    w: int
    h: int
    d: int

    def __post_init__(self) -> None:
        check_positive_int(self.w, "w")
        check_positive_int(self.h, "h")
        check_positive_int(self.d, "d")
        if min(self.x0, self.y0, self.s0) < 0:
            raise MappingError(f"box origin must be non-negative: {self}")

    @property
    def volume(self) -> int:
        """Number of slots contained."""
        return self.w * self.h * self.d

    @property
    def extents(self) -> Tuple[int, int, int]:
        """``(w, h, d)``."""
        return (self.w, self.h, self.d)

    def slots(self) -> List[SlotCoord]:
        """All slots, x fastest, then y, then s."""
        return [
            (self.x0 + dx, self.y0 + dy, self.s0 + ds)
            for ds in range(self.d)
            for dy in range(self.h)
            for dx in range(self.w)
        ]


@dataclass(frozen=True, eq=False)
class Placement:
    """A complete rank -> slot assignment.

    Attributes
    ----------
    space:
        The slot space mapped into.
    grid:
        The virtual process grid mapped from.
    slots:
        ``slots[rank]`` is the slot of world rank *rank*, as one read-only
        ``(P, 3)`` ``int64`` array. The constructor accepts any ``(P, 3)``
        integer array-like: arrays from the heuristics, tuples from the
        reference heuristics.
    name:
        The producing mapping's name (for reports).
    vector:
        The per-rank node coordinates wrapped for the network engine (node
        ranks plus the route-cache digest), built once by the constructor.

    Placements compare by identity: the placement cache shares one object
    per key, and nothing compares their contents.
    """

    space: SlotSpace
    grid: ProcessGrid
    slots: np.ndarray
    name: str
    vector: PlacementVector = field(init=False, repr=False)

    def __post_init__(self) -> None:
        # Imported here, not at module level: the engine imports repro.exec,
        # whose plan cache imports repro.core and so this module.
        from repro.netsim.engine import PlacementVector

        slots = np.array(self.slots, dtype=np.int64)
        slots = slots.reshape(len(slots), 3)
        slots.flags.writeable = False
        object.__setattr__(self, "slots", slots)
        if len(slots) != self.grid.size:
            raise MappingError(
                f"placement covers {len(slots)} ranks, grid has {self.grid.size}"
            )
        # One shared slot-index implementation (slot_indices) serves both
        # the constructor's bijection check and the verification oracles.
        ids = self.slot_indices()
        if np.bincount(ids).max() > 1:
            self._raise_duplicate(ids)
        nodes = slots.copy()
        nodes[:, 2] //= self.space.ranks_per_node
        nodes.flags.writeable = False
        object.__setattr__(self, "vector", PlacementVector(self.space.torus, nodes))

    def _raise_duplicate(self, ids: np.ndarray) -> None:
        """Report the first duplicated slot: the lowest rank that reuses one."""
        seen: Dict[int, int] = {}
        for rank, idx in enumerate(ids.tolist()):
            if idx in seen:
                slot = tuple(self.slots[rank].tolist())
                raise MappingError(
                    f"ranks {seen[idx]} and {rank} both mapped to slot {slot}"
                )
            seen[idx] = rank
        raise AssertionError("duplicate ids vanished")  # pragma: no cover

    def node_of(self, rank: int) -> TorusCoord:
        """Torus node of world rank *rank*."""
        return self.space.node_of(tuple(self.slots[rank].tolist()))

    def slot_indices(self) -> np.ndarray:
        """Linear slot id of every rank, in rank order (``int64``).

        The placement is a bijection onto a slot subset exactly when
        these ids are pairwise distinct. Derived from :attr:`slots` on
        every call, never from the node array the constructor builds, so
        verification oracles can re-check a placement whose slots were
        replaced after construction.
        """
        X, Y, S = self.space.dims
        slots = self.slots
        outside = (slots < 0) | (slots >= (X, Y, S))
        if outside.any():
            rank = int(np.flatnonzero(outside.any(axis=1))[0])
            slot = tuple(slots[rank].tolist())
            raise MappingError(f"slot {slot} outside slot box {self.space.dims}")
        return slots[:, 0] + X * (slots[:, 1] + Y * slots[:, 2])

    def hops_between(self, rank_a: int, rank_b: int) -> int:
        """Torus hop distance between two ranks (0 if co-located)."""
        return self.space.torus.distance(self.node_of(rank_a), self.node_of(rank_b))


class Mapping:
    """Base class of all 2D -> 3D mapping heuristics."""

    #: Short identifier used in tables and reports.
    name: str = "abstract"

    def place(
        self,
        grid: ProcessGrid,
        space: SlotSpace,
        rects: Optional[Sequence[GridRect]] = None,
    ) -> Placement:
        """Produce a placement of *grid*'s ranks into *space*.

        *rects* carries the per-sibling processor rectangles for the
        partition-aware mappings; topology-oblivious mappings ignore it.
        """
        raise NotImplementedError

    def _check_capacity(self, grid: ProcessGrid, space: SlotSpace) -> None:
        if grid.size > space.num_slots:
            raise MappingError(
                f"{grid.size} ranks exceed {space.num_slots} slots of {space!r}"
            )
