"""The memoized placement cache: hits, keying, the byte-budget knob, and counters."""

from __future__ import annotations

import pytest

from repro.core.mapping.base import SlotSpace
from repro.core.mapping.multilevel import MultiLevelMapping
from repro.core.mapping.oblivious import ObliviousMapping
from repro.core.mapping.partition_map import PartitionMapping
from repro.exec.placementcache import (
    cached_placement,
    placement_cache_stats,
    reset_placement_cache,
)
from repro.obs.metrics import registry
from repro.runtime.process_grid import GridRect, ProcessGrid
from repro.topology.torus import Torus3D


@pytest.fixture(autouse=True)
def _fresh_cache():
    reset_placement_cache()
    yield
    reset_placement_cache()


def _space(dims=(4, 4, 2), rpn=1):
    return SlotSpace(Torus3D(dims), rpn)


def test_cached_placement_equals_uncached():
    grid = ProcessGrid(8, 4)
    space = _space()
    rects = [GridRect(0, 0, 4, 4), GridRect(4, 0, 4, 4)]
    assert cached_placement(PartitionMapping(), grid, space, rects) == (
        PartitionMapping().place(grid, space, rects)
    )
    assert cached_placement(ObliviousMapping(), grid, space) == (
        ObliviousMapping().place(grid, space)
    )


def test_repeat_lookups_hit_and_share_the_object():
    grid = ProcessGrid(8, 4)
    space = _space()
    a = cached_placement(ObliviousMapping(), grid, space)
    b = cached_placement(ObliviousMapping(), grid, space)
    assert a is b
    stats = placement_cache_stats()
    assert stats.hits == 1 and stats.misses == 1 and stats.entries == 1
    assert stats.hit_rate == 0.5


def test_instances_of_same_mapping_share_entries():
    grid = ProcessGrid(8, 4)
    space = _space()
    a = cached_placement(MultiLevelMapping(), grid, space)
    b = cached_placement(MultiLevelMapping(), grid, space)
    assert a is b
    assert placement_cache_stats().entries == 1


def test_key_distinguishes_mapping_grid_space_and_rects():
    grid = ProcessGrid(8, 4)
    space = _space()
    rects = [GridRect(0, 0, 4, 4), GridRect(4, 0, 4, 4)]
    placements = {
        id(cached_placement(m, g, s, r))
        for m, g, s, r in [
            (ObliviousMapping(), grid, space, None),
            (PartitionMapping(), grid, space, None),
            (PartitionMapping(), grid, space, rects),
            (ObliviousMapping(), ProcessGrid(4, 8), space, None),
            (ObliviousMapping(), ProcessGrid(8, 8), _space((4, 4, 2), 2), None),
        ]
    }
    assert len(placements) == 5
    stats = placement_cache_stats()
    assert stats.misses == 5 and stats.hits == 0 and stats.entries == 5


def test_byte_budget_evicts_lru_first(monkeypatch):
    grid = ProcessGrid(4, 2)
    space = _space((2, 2, 2), 1)
    a = cached_placement(ObliviousMapping(), grid, space)
    from repro.exec.placementcache import _placement_nbytes

    one = _placement_nbytes(a)
    # Budget fits exactly two placements of this size.
    monkeypatch.setenv("REPRO_PLACEMENT_CACHE_MB", str(2.5 * one / 2**20))
    reset_placement_cache()
    cached_placement(ObliviousMapping(), grid, space)
    cached_placement(PartitionMapping(), grid, space)
    stats = placement_cache_stats()
    assert stats.entries == 2 and stats.evictions == 0
    assert stats.resident_bytes == 2 * one
    cached_placement(MultiLevelMapping(), grid, space)
    stats = placement_cache_stats()
    assert stats.entries == 2 and stats.evictions == 1
    # LRU-first: the oblivious entry (oldest) went; partition remains hot.
    cached_placement(PartitionMapping(), grid, space)
    assert placement_cache_stats().hits == 1
    snap = registry().snapshot("exec.placement_cache.")
    assert snap["exec.placement_cache.evictions"]["value"] == 1
    assert snap["exec.placement_cache.resident_bytes"]["value"] == 2 * one


class TestFuzzedReconciliation:
    """Counters reconcile across fuzzed batches and worker counts."""

    BUDGET = 20
    SEED = 31

    @pytest.fixture(scope="class")
    def reports(self):
        from repro.verify import fuzz

        a = fuzz(self.BUDGET, seed=self.SEED, jobs=1, collect_metrics=True)
        b = fuzz(self.BUDGET, seed=self.SEED, jobs=2, collect_metrics=True)
        return a, b

    def test_metrics_identical_across_jobs(self, reports):
        a, b = reports
        assert a.metrics == b.metrics
        for name in ("exec.placement_cache", "exec.plan_cache"):
            assert a.metrics[f"{name}.misses"]["value"] > 0

    def test_merged_counters_reconcile_with_replay(self, reports):
        """Merged worker counters equal a single-process replay's totals.

        Replays the same scenario stream with the per-task reset
        discipline :func:`repro.exec.pool._reset_task_state` uses,
        accumulating the placement and plan caches' *internal* hit/miss
        ints — the merged snapshot's registry counters must match
        exactly.
        """
        from repro.exec.cache import clear_caches
        from repro.exec.plancache import plan_cache_stats
        from repro.util.rng import make_rng
        from repro.verify.fuzzer import _draw_scenarios, failures_for

        a, _ = reports
        scenarios, _, _ = _draw_scenarios(make_rng(self.SEED), self.BUDGET)
        stats_of = {
            "exec.placement_cache": placement_cache_stats,
            "exec.plan_cache": plan_cache_stats,
        }
        totals = dict.fromkeys(stats_of, (0, 0))
        for scenario in scenarios:
            clear_caches()
            registry().reset()
            failures_for(scenario)
            for name, stats_fn in stats_of.items():
                stats = stats_fn()
                hits, misses = totals[name]
                totals[name] = (hits + stats.hits, misses + stats.misses)
        for name, (hits, misses) in totals.items():
            # Captured deltas drop counters that stayed at zero.
            merged_hits = a.metrics.get(f"{name}.hits", {"value": 0})["value"]
            assert merged_hits == hits
            assert a.metrics[f"{name}.misses"]["value"] == misses
            assert misses > 0
