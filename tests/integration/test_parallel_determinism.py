"""End-to-end determinism contract: ``jobs=N`` is byte-identical to ``jobs=1``.

The acceptance bar for the parallel sweep fabric: the fuzzer, the
capacity planner, and the experiment drivers must produce identical
artifacts — failure lists, rendered reports, result dataclasses, and
merged metrics snapshots — for every worker count. Workers on this
machine may be more numerous than cores; determinism must not depend on
scheduling.
"""

from __future__ import annotations

import pytest

from repro.analysis.experiments import fig15_speedup
from repro.analysis.planner import recommend
from repro.exec.cache import clear_caches
from repro.exec.plancache import plan_cache_stats
from repro.netsim.engine import route_cache_stats
from repro.obs.metrics import registry
from repro.topology.machines import BLUE_GENE_L
from repro.util.rng import make_rng
from repro.verify import fuzz
from repro.verify.fuzzer import _draw_scenarios, failures_for
from repro.workloads.regions import pacific_configurations

BUDGET = 50
SEED = 7


class TestFuzzDeterminism:
    @pytest.fixture(scope="class")
    def reports(self):
        a = fuzz(BUDGET, seed=SEED, jobs=1, collect_metrics=True)
        b = fuzz(BUDGET, seed=SEED, jobs=4, collect_metrics=True)
        return a, b

    def test_identical_failure_lists(self, reports):
        a, b = reports
        assert a.failures == b.failures
        assert a.scenarios_run == b.scenarios_run == BUDGET
        assert a.infeasible_skips == b.infeasible_skips

    def test_identical_renders(self, reports):
        a, b = reports
        assert a.render() == b.render()
        # The render must not leak jobs/metrics — it is part of the
        # cross-worker-count contract.
        assert "jobs" not in a.render()

    def test_identical_merged_metrics_snapshots(self, reports):
        a, b = reports
        assert a.metrics is not None and b.metrics is not None
        assert a.metrics == b.metrics
        assert a.metrics["verify.fuzz.scenarios_run"]["value"] == BUDGET

    @pytest.fixture(scope="class")
    def replay(self):
        """``(hits, misses)`` per cache, summed over a single-process re-run.

        Replays the same scenario stream with the same per-scenario
        reset discipline the capture path uses, accumulating each
        cache's *internal* hit/miss ints.
        """
        stats_of = {
            "netsim.route_cache": route_cache_stats,
            "exec.plan_cache": plan_cache_stats,
        }
        totals = dict.fromkeys(stats_of, (0, 0))
        scenarios, _, _ = _draw_scenarios(make_rng(SEED), BUDGET)
        for scenario in scenarios:
            clear_caches()
            registry().reset()
            failures_for(scenario)
            for name, stats_fn in stats_of.items():
                stats = stats_fn()
                hits, misses = totals[name]
                totals[name] = (hits + stats.hits, misses + stats.misses)
        return totals

    def test_merged_route_cache_counters_reconcile(self, reports, replay):
        """Merged worker counters equal a single-process re-run's totals."""
        a, _ = reports
        hits, misses = replay["netsim.route_cache"]
        assert a.metrics["netsim.route_cache.hits"]["value"] == hits
        assert a.metrics["netsim.route_cache.misses"]["value"] == misses

    def test_merged_plan_cache_counters_reconcile(self, reports, replay):
        a, _ = reports
        hits, misses = replay["exec.plan_cache"]
        assert misses > 0
        # Captured deltas drop counters that stayed at zero.
        assert a.metrics.get("exec.plan_cache.hits", {"value": 0})["value"] == hits
        assert a.metrics["exec.plan_cache.misses"]["value"] == misses


class TestPlannerDeterminism:
    def test_recommend_identical_across_jobs(self):
        config = pacific_configurations(1, seed=2010)[0]
        a = recommend(config, BLUE_GENE_L, max_ranks=1024, jobs=1)
        b = recommend(config, BLUE_GENE_L, max_ranks=1024, jobs=2)
        assert a == b
        assert a.render() == b.render()


class TestExperimentDeterminism:
    def test_fig15_identical_across_jobs(self):
        a = fig15_speedup(ranks=(32, 64, 128, 256), jobs=1)
        b = fig15_speedup(ranks=(32, 64, 128, 256), jobs=2)
        assert a == b
        assert a.render() == b.render()
