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

A placement is array-backed: mappings may hand the constructor a dense
``(P, 3)`` ``int64`` slot array (what the vectorized heuristics produce),
the bijection check runs vectorized, and :meth:`Placement.nodes_array`
exposes the per-rank node coordinates as an array the network engine
consumes without materialising a Python tuple list per iteration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import MappingError
from repro.runtime.process_grid import GridRect, ProcessGrid
from repro.topology.torus import Torus3D, TorusCoord
from repro.util.validation import check_positive_int

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

    def slots_array(self) -> np.ndarray:
        """All slots as a ``(volume, 3)`` ``int64`` array, :meth:`slots` order."""
        s_idx, y_idx, x_idx = np.indices((self.d, self.h, self.w))
        out = np.empty((self.volume, 3), dtype=np.int64)
        out[:, 0] = self.x0 + x_idx.ravel()
        out[:, 1] = self.y0 + y_idx.ravel()
        out[:, 2] = self.s0 + s_idx.ravel()
        return out


@dataclass(frozen=True)
class Placement:
    """A complete rank -> slot assignment.

    Attributes
    ----------
    space:
        The slot space mapped into.
    grid:
        The virtual process grid mapped from.
    slots:
        ``slots[rank]`` is the slot of world rank *rank*. The constructor
        also accepts a ``(P, 3)`` integer array, which is normalised to
        the tuple form (so equality and reprs do not depend on the input
        form) while the array is retained for :meth:`slots_array`.
    name:
        The producing mapping's name (for reports).
    """

    space: SlotSpace
    grid: ProcessGrid
    slots: Tuple[SlotCoord, ...]
    name: str

    def __post_init__(self) -> None:
        if isinstance(self.slots, np.ndarray):
            arr = np.ascontiguousarray(self.slots, dtype=np.int64)
            arr = arr.reshape(len(arr), 3)
            arr.flags.writeable = False
            slots = tuple(map(tuple, arr.tolist()))
            object.__setattr__(self, "slots", slots)
            object.__setattr__(self, "_slots_arr", (slots, arr))
        if len(self.slots) != self.grid.size:
            raise MappingError(
                f"placement covers {len(self.slots)} ranks, grid has {self.grid.size}"
            )
        # One shared slot-index implementation (slot_indices) serves both
        # the constructor's bijection check and the verification oracles.
        ids = self.slot_indices()
        if len(set(ids)) != len(ids):
            self._raise_duplicate(ids)

    def _raise_duplicate(self, ids: Sequence[int]) -> None:
        """Report the first duplicated slot: the lowest rank that reuses one."""
        seen: Dict[int, int] = {}
        for rank, (slot, idx) in enumerate(zip(self.slots, ids)):
            if idx in seen:
                raise MappingError(
                    f"ranks {seen[idx]} and {rank} both mapped to slot {slot}"
                )
            seen[idx] = rank
        raise AssertionError("duplicate ids vanished")  # pragma: no cover

    def node_of(self, rank: int) -> TorusCoord:
        """Torus node of world rank *rank*."""
        return self.space.node_of(self.slots[rank])

    def nodes(self) -> List[TorusCoord]:
        """Per-rank node coordinates (index = world rank), as tuples."""
        return [self.space.node_of(s) for s in self.slots]

    def slots_array(self) -> np.ndarray:
        """Per-rank slot coordinates as a read-only ``(P, 3)`` array.

        Cached against the identity of :attr:`slots`, so oracles that
        mutate a copied placement's ``slots`` (via ``object.__setattr__``)
        get a freshly derived array, never a stale one.
        """
        cached = self.__dict__.get("_slots_arr")
        if cached is not None and cached[0] is self.slots:
            return cached[1]
        arr = np.asarray(self.slots, dtype=np.int64).reshape(len(self.slots), 3)
        arr.flags.writeable = False
        object.__setattr__(self, "_slots_arr", (self.slots, arr))
        return arr

    def nodes_array(self) -> np.ndarray:
        """Per-rank node coordinates as a read-only ``(P, 3)`` array.

        Feeds :func:`repro.netsim.engine.as_placement` directly — no
        per-rank tuple list is built on the simulation hot path.
        """
        cached = self.__dict__.get("_nodes_arr")
        if cached is not None and cached[0] is self.slots:
            return cached[1]
        nodes = self.slots_array().copy()
        nodes[:, 2] //= self.space.ranks_per_node
        nodes.flags.writeable = False
        object.__setattr__(self, "_nodes_arr", (self.slots, nodes))
        return nodes

    def slot_indices(self) -> List[int]:
        """Linear slot id of every rank, in rank order.

        The placement is a bijection onto a slot subset exactly when
        these ids are pairwise distinct; computed from raw coordinates
        (not ``__post_init__`` state) so verification oracles can
        re-check placements mutated after construction.
        """
        X, Y, S = self.space.dims
        arr = self.slots_array()
        dims = np.array([X, Y, S], dtype=np.int64)
        ok = (arr >= 0).all(axis=1) & (arr < dims).all(axis=1)
        if not bool(ok.all()):
            x, y, s = self.slots[int(np.flatnonzero(~ok)[0])]
            raise MappingError(
                f"slot ({x}, {y}, {s}) outside slot box {self.space.dims}"
            )
        return (arr[:, 0] + X * (arr[:, 1] + Y * arr[:, 2])).tolist()

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
