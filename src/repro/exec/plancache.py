"""Memoized execution plans for sweep workloads.

Sweeps re-plan the same configurations over and over: the fuzzer shrinks
a failing scenario by re-building near-identical variants, the planner
prices three strategy/mapping combinations per rank count, experiment
drivers revisit configurations across rank sweeps. Planning is pure —
allocation (Huffman tree + split-tree partitioning) is a deterministic
function of the grid, the sibling specs, and the driving ratios — so the
work is memoized behind a keyed LRU cache:

    (strategy, grid dims, sibling signature, ratios digest) -> ExecutionPlan

The sibling signature is the tuple of frozen :class:`DomainSpec`s (the
parent included — nest weights depend on ``steps_per_parent_step`` and
validation inspects the parent); the ratios digest is the exact float
tuple, ``None`` for the sequential strategy. Cached plans are frozen
dataclasses, shared rather than copied.

The cache is one :class:`~repro.exec.cache.BoundedCache`
(``exec.plan_cache``, up to 1024 plans, no byte budget): locking, TTL,
counters and their registry mirror are documented there.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from repro.core.scheduler.plan import ExecutionPlan
from repro.core.scheduler.strategies import ParallelSiblingsStrategy, SequentialStrategy
from repro.exec.cache import BoundedCache
from repro.runtime.process_grid import ProcessGrid
from repro.wrf.grid import DomainSpec

__all__ = [
    "sequential_plan",
    "parallel_plan",
    "plan_cache_stats",
    "reset_plan_cache",
]

PlanKey = Tuple[str, int, int, Tuple[DomainSpec, ...], Optional[Tuple[float, ...]]]

_PLAN_CACHE = BoundedCache("exec.plan_cache", maxsize=1024)

#: Current plan-cache counters.
plan_cache_stats = _PLAN_CACHE.stats
#: Drop all cached plans and zero the counters (tests, benchmarks).
reset_plan_cache = _PLAN_CACHE.clear


def _key(
    strategy: str,
    grid: ProcessGrid,
    parent: DomainSpec,
    siblings: Sequence[DomainSpec],
    ratios: Optional[Sequence[float]],
) -> PlanKey:
    digest = None if ratios is None else tuple(float(r) for r in ratios)
    return (strategy, grid.px, grid.py, (parent, *siblings), digest)


def sequential_plan(
    grid: ProcessGrid, parent: DomainSpec, siblings: Sequence[DomainSpec]
) -> ExecutionPlan:
    """The memoized :class:`SequentialStrategy` plan."""
    key = _key("sequential", grid, parent, siblings, None)
    plan = _PLAN_CACHE.get(key)
    if plan is None:
        plan = SequentialStrategy().plan(grid, parent, list(siblings))
        _PLAN_CACHE.put(key, plan)
    return plan


def parallel_plan(
    grid: ProcessGrid,
    parent: DomainSpec,
    siblings: Sequence[DomainSpec],
    ratios: Sequence[float],
) -> ExecutionPlan:
    """The memoized :class:`ParallelSiblingsStrategy` plan for *ratios*."""
    key = _key("parallel", grid, parent, siblings, ratios)
    plan = _PLAN_CACHE.get(key)
    if plan is None:
        plan = ParallelSiblingsStrategy().plan(
            grid, parent, list(siblings), ratios=list(ratios)
        )
        _PLAN_CACHE.put(key, plan)
    return plan
