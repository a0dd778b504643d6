"""Memoized placements for sweep workloads.

Experiment drivers rebuild the same placement over and over: a rank
sweep prices every mapping at every rank count, the fuzzer shrinks a
failing scenario through near-identical variants, ``simulate_iteration``
re-places the grid on every call when no placement is supplied. Placing
is pure — a deterministic function of the mapping heuristic, the process
grid, the slot space, and the partition rectangles — so the work is
memoized behind a keyed LRU cache:

    (mapping name, grid dims, torus dims, ranks-per-node, rects
    signature) -> Placement

Cached placements are frozen dataclasses, shared rather than copied. Each
carries the node array and :class:`~repro.netsim.engine.PlacementVector`
it built once, so a hit hands the engine a ready route-cache digest.

Eviction is **byte-budgeted**, not entry-counted: an entry is charged the
bytes of the arrays it holds (slots, nodes and node ranks: 7 MiB at
131,072 ranks, 28 kB at 512), so a fixed entry cap would let residency
grow with the rank count. The budget comes from
:func:`repro.netsim.budget.placement_cache_budget_bytes` (an eighth
of ``REPRO_NETSIM_MEM_MB``). The cache is one
:class:`~repro.exec.cache.BoundedCache` (``exec.placement_cache``):
eviction, TTL, locking, counters and their registry mirror are
documented there.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence, Tuple

from repro.exec.cache import BoundedCache
from repro.netsim.budget import placement_cache_budget_bytes
from repro.runtime.process_grid import GridRect, ProcessGrid

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.mapping.base import Mapping, Placement, SlotSpace

__all__ = [
    "cached_placement",
    "placement_cache_stats",
    "reset_placement_cache",
]

PlacementKey = Tuple[
    str, int, int, Tuple[int, int, int], int, Optional[Tuple[GridRect, ...]]
]


def _placement_nbytes(placement: "Placement") -> int:
    """Resident bytes of one cached placement: the arrays it holds."""
    vector = placement.vector
    return placement.slots.nbytes + vector.coords.nbytes + vector.node_ranks.nbytes


_PLACEMENT_CACHE = BoundedCache(
    "exec.placement_cache",
    maxsize=512,
    budget_bytes=placement_cache_budget_bytes,
    sizeof=_placement_nbytes,
)

#: Current placement-cache counters.
placement_cache_stats = _PLACEMENT_CACHE.stats
#: Drop all cached placements and zero the counters (tests, benchmarks).
reset_placement_cache = _PLACEMENT_CACHE.clear


def _key(
    mapping: "Mapping",
    grid: ProcessGrid,
    space: "SlotSpace",
    rects: Optional[Sequence[GridRect]],
) -> PlacementKey:
    signature = None if rects is None else tuple(rects)
    return (
        mapping.name,
        grid.px,
        grid.py,
        space.torus.dims,
        space.ranks_per_node,
        signature,
    )


def cached_placement(
    mapping: "Mapping",
    grid: ProcessGrid,
    space: "SlotSpace",
    rects: Optional[Sequence[GridRect]] = None,
) -> "Placement":
    """The memoized ``mapping.place(grid, space, rects)`` placement.

    Heuristics are keyed by :attr:`Mapping.name`, so two instances of the
    same mapping class share entries (mappings carry no other state).
    """
    key = _key(mapping, grid, space, rects)
    placement = _PLACEMENT_CACHE.get(key)
    if placement is None:
        placement = mapping.place(grid, space, rects)
        _PLACEMENT_CACHE.put(key, placement)
    return placement
