"""The memoized plan cache: hits, keying, and plan identity."""

from __future__ import annotations

import pytest

from repro.core.scheduler.strategies import ParallelSiblingsStrategy, SequentialStrategy
from repro.exec.plancache import (
    parallel_plan,
    plan_cache_stats,
    reset_plan_cache,
    sequential_plan,
)
from repro.runtime.process_grid import ProcessGrid
from repro.wrf.grid import DomainSpec


@pytest.fixture(autouse=True)
def _fresh_cache():
    reset_plan_cache()
    yield
    reset_plan_cache()


@pytest.fixture
def domains(pacific, two_siblings):
    return pacific, two_siblings


def test_cached_plan_equals_uncached(domains):
    parent, siblings = domains
    grid = ProcessGrid(16, 16)
    assert sequential_plan(grid, parent, siblings) == SequentialStrategy().plan(
        grid, parent, list(siblings)
    )
    ratios = [float(s.points) for s in siblings]
    assert parallel_plan(grid, parent, siblings, ratios) == (
        ParallelSiblingsStrategy().plan(grid, parent, list(siblings), ratios=ratios)
    )


def test_repeat_lookups_hit_and_share_the_object(domains):
    parent, siblings = domains
    grid = ProcessGrid(16, 16)
    a = sequential_plan(grid, parent, siblings)
    b = sequential_plan(grid, parent, siblings)
    assert a is b
    stats = plan_cache_stats()
    assert stats.hits == 1 and stats.misses == 1 and stats.entries == 1
    assert stats.hit_rate == 0.5


def test_key_distinguishes_grid_siblings_and_ratios(domains):
    parent, siblings = domains
    g1, g2 = ProcessGrid(16, 16), ProcessGrid(32, 32)
    r1 = [1.0, 2.0]
    r2 = [2.0, 1.0]
    plans = {
        id(parallel_plan(g, parent, siblings, r))
        for g in (g1, g2)
        for r in (r1, r2)
    }
    assert len(plans) == 4
    assert plan_cache_stats().misses == 4
    # One-sibling variant misses too (different signature).
    parallel_plan(g1, parent, siblings[:1], [1.0])
    assert plan_cache_stats().misses == 5


def test_int_and_float_ratios_share_an_entry(domains):
    # The fuzzer passes int point counts, the planner floats — the key
    # digest normalises so both hit one entry.
    parent, siblings = domains
    grid = ProcessGrid(16, 16)
    a = parallel_plan(grid, parent, siblings, [s.points for s in siblings])
    b = parallel_plan(grid, parent, siblings, [float(s.points) for s in siblings])
    assert a is b
    assert plan_cache_stats().hits == 1
