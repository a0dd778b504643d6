"""The memoized placement cache: hits, keying, the byte-budget knob, and counters."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.mapping.base import SlotSpace
from repro.core.mapping.multilevel import MultiLevelMapping
from repro.core.mapping.oblivious import ObliviousMapping
from repro.core.mapping.partition_map import PartitionMapping
from repro.core.scheduler.strategies import ParallelSiblingsStrategy
from repro.exec.placementcache import (
    _placement_nbytes,
    cached_placement,
    placement_cache_stats,
    reset_placement_cache,
)
from repro.netsim.budget import placement_cache_budget_bytes
from repro.netsim.engine import PlacementVector
from repro.obs.metrics import registry
from repro.perfsim.simulate import simulate_iteration
from repro.runtime.process_grid import GridRect, ProcessGrid
from repro.topology.machines import BLUE_GENE_L, BLUE_GENE_P
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
    for mapping, r in ((PartitionMapping(), rects), (ObliviousMapping(), None)):
        cached = cached_placement(mapping, grid, space, r)
        fresh = mapping.place(grid, space, r)
        assert cached.name == fresh.name
        assert np.array_equal(cached.slots, fresh.slots)
        assert cached.vector.digest == fresh.vector.digest


def test_placement_slots_are_read_only():
    placement = cached_placement(ObliviousMapping(), ProcessGrid(8, 4), _space())
    with pytest.raises(ValueError):
        placement.slots[0, 0] = 1
    with pytest.raises(ValueError):
        placement.vector.coords[0, 0] = 1
    with pytest.raises(ValueError):
        placement.vector.node_ranks[0] = 1


def test_warm_simulate_iteration_builds_no_placement_vector(
    monkeypatch, pacific, table2_siblings
):
    """A warm iteration reuses the vector its cached placement built."""
    plan = ParallelSiblingsStrategy().plan(
        ProcessGrid(32, 32), pacific, table2_siblings,
        ratios=[s.points for s in table2_siblings],
    )
    cold = simulate_iteration(plan, BLUE_GENE_L, mapping=MultiLevelMapping())
    built = []
    real_init = PlacementVector.__init__

    def spy(self, *args, **kwargs):
        built.append(args)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(PlacementVector, "__init__", spy)
    warm = simulate_iteration(plan, BLUE_GENE_L, mapping=MultiLevelMapping())
    assert built == []
    assert warm == cold
    assert placement_cache_stats().hits == 1


def test_131k_placement_fits_the_smallest_budget(monkeypatch):
    """A 131,072-rank BG/P placement is charged its arrays (slots, nodes,
    node ranks: 7 MiB), so the 8 MiB placement budget of
    ``REPRO_NETSIM_MEM_MB=64`` keeps it."""
    monkeypatch.setenv("REPRO_NETSIM_MEM_MB", "64")
    ranks = 131072
    space = SlotSpace(
        BLUE_GENE_P.torus_for_ranks(ranks), BLUE_GENE_P.mode().ranks_per_node
    )
    grid = ProcessGrid(256, 512)
    placement = cached_placement(ObliviousMapping(), grid, space)
    charge = _placement_nbytes(placement)
    assert charge == (3 + 3 + 1) * 8 * ranks == 7 * 2**20
    assert charge < placement_cache_budget_bytes() == 8 * 2**20
    assert cached_placement(ObliviousMapping(), grid, space) is placement
    stats = placement_cache_stats()
    assert (stats.hits, stats.entries, stats.resident_bytes) == (1, 1, charge)


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
    one = _placement_nbytes(a)
    # The placement budget is an eighth of the overall netsim budget;
    # size that so the cache fits exactly two placements of this size.
    monkeypatch.setenv("REPRO_NETSIM_MEM_MB", str(8 * 2.5 * one / 2**20))
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
