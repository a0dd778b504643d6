"""Tests for the metrics registry: boundaries, merging, differentials."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    merge_snapshots,
    registry,
)
from repro.util.rng import make_rng


# -------------------------------------------------------------- counters
class TestCounter:
    def test_inc_accumulates(self):
        c = Counter("t")
        c.inc()
        c.inc(4)
        c.inc(0)
        assert c.value == 5

    def test_negative_increment_rejected(self):
        c = Counter("t")
        with pytest.raises(ValueError, match="negative"):
            c.inc(-1)
        assert c.value == 0

    def test_reset_and_snapshot(self):
        c = Counter("t")
        c.inc(3)
        assert c.snapshot() == {"type": "counter", "value": 3}
        c.reset()
        assert c.value == 0


class TestGauge:
    def test_set_overwrites(self):
        g = Gauge("t")
        g.set(5)
        g.set(2)
        assert g.value == 2
        assert g.updates == 2

    def test_set_max_keeps_extreme(self):
        g = Gauge("t")
        g.set_max(3)
        g.set_max(10)
        g.set_max(7)
        assert g.value == 10
        assert g.updates == 3

    def test_set_max_accepts_negative_first_sample(self):
        # The first sample must stick even when it is below the zero
        # initial value — "no samples yet" is not a sample of 0.
        g = Gauge("t")
        g.set_max(-5)
        assert g.value == -5


# ------------------------------------------------------------ histograms
class TestHistogramBoundaries:
    def test_boundary_exact_values_take_the_bucket_they_bound(self):
        h = Histogram("t", [1.0, 2.0, 4.0])
        h.observe(1.0)
        h.observe(2.0)
        h.observe(4.0)
        # Prometheus `le` semantics: value <= bound lands in that bucket.
        assert h.counts == [1, 1, 1, 0]

    def test_interior_and_underflow_values(self):
        h = Histogram("t", [1.0, 2.0, 4.0])
        h.observe(-3.0)
        h.observe(0.5)
        h.observe(1.5)
        h.observe(3.999)
        assert h.counts == [2, 1, 1, 0]
        assert h.count == 4
        assert h.sum == pytest.approx(2.999)

    def test_overflow_bucket_catches_everything_above_the_last_bound(self):
        h = Histogram("t", [1.0, 2.0, 4.0])
        h.observe(4.0000001)
        h.observe(1e308)
        h.observe(float("inf"))
        assert h.counts == [0, 0, 0, 3]
        assert h.count == 3

    def test_bounds_validation(self):
        with pytest.raises(ValueError, match="no bucket boundaries"):
            Histogram("t", [])
        with pytest.raises(ValueError, match="finite"):
            Histogram("t", [1.0, float("inf")])
        with pytest.raises(ValueError, match="finite"):
            Histogram("t", [float("nan")])
        with pytest.raises(ValueError, match="ascending"):
            Histogram("t", [1.0, 1.0])
        with pytest.raises(ValueError, match="ascending"):
            Histogram("t", [2.0, 1.0])

    def test_reset_zeroes_counts_in_place(self):
        h = Histogram("t", [1.0, 2.0])
        h.observe(0.5)
        h.observe(9.0)
        h.reset()
        assert h.counts == [0, 0, 0]
        assert h.count == 0
        assert h.sum == 0.0
        assert h.bounds == (1.0, 2.0)


# --------------------------------------------------------------- merging
def _snapshot(counter_v, gauge_v, gauge_updates, hist_obs):
    reg = MetricsRegistry()
    c = reg.counter("m.counter")
    c.inc(counter_v)
    g = reg.gauge("m.gauge")
    for _ in range(gauge_updates):
        g.set_max(gauge_v)
    h = reg.histogram("m.hist", [1.0, 10.0])
    for v in hist_obs:
        h.observe(v)
    return reg.snapshot()


class TestMergeSnapshots:
    def test_counters_add_gauges_max_histograms_bucket_add(self):
        a = _snapshot(3, 5, 1, [0.5, 20.0])
        b = _snapshot(4, 2, 2, [5.0])
        merged = merge_snapshots(a, b)
        assert merged["m.counter"]["value"] == 7
        assert merged["m.gauge"]["value"] == 5
        assert merged["m.gauge"]["updates"] == 3
        assert merged["m.hist"]["counts"] == [1, 1, 1]
        assert merged["m.hist"]["count"] == 3
        assert merged["m.hist"]["sum"] == pytest.approx(25.5)

    def test_associative_and_commutative(self):
        a = _snapshot(1, 9, 1, [0.1])
        b = _snapshot(5, 3, 4, [2.0, 100.0])
        c = _snapshot(2, 11, 2, [])
        left = merge_snapshots(merge_snapshots(a, b), c)
        right = merge_snapshots(a, merge_snapshots(b, c))
        assert left == right
        assert merge_snapshots(a, b) == merge_snapshots(b, a)

    def test_disjoint_names_pass_through(self):
        a = {"only.a": {"type": "counter", "value": 1}}
        b = {"only.b": {"type": "counter", "value": 2}}
        merged = merge_snapshots(a, b)
        assert merged == {
            "only.a": {"type": "counter", "value": 1},
            "only.b": {"type": "counter", "value": 2},
        }

    def test_type_mismatch_rejected(self):
        a = {"m": {"type": "counter", "value": 1}}
        b = {"m": {"type": "gauge", "value": 1, "updates": 1}}
        with pytest.raises(TypeError, match="cannot merge"):
            merge_snapshots(a, b)

    def test_histogram_boundary_mismatch_rejected(self):
        a = {"m": {"type": "histogram", "bounds": [1.0], "counts": [0, 0],
                   "count": 0, "sum": 0.0}}
        b = {"m": {"type": "histogram", "bounds": [2.0], "counts": [0, 0],
                   "count": 0, "sum": 0.0}}
        with pytest.raises(ValueError, match="boundary mismatch"):
            merge_snapshots(a, b)


# -------------------------------------------------------------- registry
class TestRegistry:
    def test_get_or_create_returns_the_same_object(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.histogram("h", [1, 2]) is reg.histogram("h", [1, 2])

    def test_kind_conflict_rejected(self):
        reg = MetricsRegistry()
        reg.counter("a")
        with pytest.raises(TypeError, match="already registered"):
            reg.gauge("a")

    def test_histogram_boundary_conflict_rejected(self):
        reg = MetricsRegistry()
        reg.histogram("h", [1.0, 2.0])
        with pytest.raises(ValueError, match="already registered"):
            reg.histogram("h", [1.0, 3.0])

    def test_snapshot_prefix_filter(self):
        reg = MetricsRegistry()
        reg.counter("netsim.hits").inc(2)
        reg.counter("iosim.events").inc(1)
        snap = reg.snapshot("netsim.")
        assert list(snap) == ["netsim.hits"]

    def test_reset_preserves_object_identity(self):
        reg = MetricsRegistry()
        c = reg.counter("a.count")
        g = reg.gauge("a.gauge")
        c.inc(7)
        g.set(3)
        reg.reset()
        # Hot paths hold module-level references; reset must zero the
        # very same objects, never replace them.
        assert reg.counter("a.count") is c
        assert c.value == 0
        assert g.value == 0

    def test_reset_prefix_scopes_the_zeroing(self):
        reg = MetricsRegistry()
        reg.counter("a.count").inc(1)
        reg.counter("b.count").inc(1)
        reg.reset("a.")
        assert reg.counter("a.count").value == 0
        assert reg.counter("b.count").value == 1


# ----------------------------------------------------------- differential
class TestNetsimDifferential:
    def test_route_cache_counters_match_stats_over_fuzzed_batch(self):
        """The registry's hit/miss counters ARE `route_cache_stats()`.

        Runs a batch of fuzzed scenarios through the real engine and
        checks the two counting paths agree *after every build*, not just
        at the end — any drift (a miss counted without a metric inc, a
        reset that misses one side) shows up at the first divergence.
        """
        from repro.netsim.engine import reset_route_cache, route_cache_stats
        from repro.verify.scenarios import random_scenario

        reset_route_cache()
        registry().reset("netsim.")
        rng = make_rng(1234)
        built = 0
        attempts = 0
        while built < 6 and attempts < 40:
            attempts += 1
            scenario = random_scenario(rng)
            try:
                scenario.build()
            except ConfigurationError:
                continue  # infeasible draw: resample, as the fuzzer does
            built += 1
            stats = route_cache_stats()
            snap = registry().snapshot("netsim.route_cache.")
            assert snap["netsim.route_cache.hits"]["value"] == stats.hits
            assert snap["netsim.route_cache.misses"]["value"] == stats.misses
        assert built == 6
        stats = route_cache_stats()
        assert stats.hits + stats.misses > 0
        # Every cache miss routes one exchange and records its link-load
        # extreme, so the histogram count is the miss count.
        hist = registry().get("netsim.exchange.max_link_bytes")
        assert hist is not None
        assert hist.count == stats.misses


# ------------------------------------------------------------ process RSS
class TestProcessRss:
    """The proc.rss.* gauges behind the strong-scaling memory assertions."""

    def test_current_rss_is_positive_here(self):
        from repro.obs.metrics import current_rss_bytes

        # A running CPython interpreter is comfortably over a megabyte.
        assert current_rss_bytes() > 2**20

    def test_peak_source_available(self):
        from repro.obs.metrics import peak_rss_bytes

        # ru_maxrss and /proc VmRSS account pages differently, so
        # neither strictly bounds the other; sample_rss() reconciles
        # them with max(). Here we only require the source works.
        assert peak_rss_bytes() > 2**20

    def test_sample_rss_sets_gauges(self):
        from repro.obs.metrics import sample_rss

        registry().reset("proc.rss.")
        out = sample_rss()
        snap = registry().snapshot("proc.rss.")
        assert snap["proc.rss.current_bytes"]["value"] == out["current"]
        assert snap["proc.rss.peak_bytes"]["value"] == out["peak"]
        assert out["peak"] >= out["current"] > 0

    def test_peak_gauge_is_high_water_mark(self):
        from repro.obs.metrics import sample_rss

        registry().reset("proc.rss.")
        first = sample_rss()["peak"]
        # A second sample can only hold or raise the recorded peak.
        sample_rss()
        snap = registry().snapshot("proc.rss.")
        assert snap["proc.rss.peak_bytes"]["value"] >= first

    def test_throttled_sample_skips_within_window(self):
        import repro.obs.metrics as m

        assert m.sample_rss() is not None  # prime the sample clock
        # Within the throttle window: no procfs read, no return value,
        # so traced callers skip their per-sample work too — what keeps
        # traced simulate inside the tracing-overhead budget.
        assert m.sample_rss(throttle_s=3600) is None
        assert m.sample_rss(throttle_s=0.0) is not None

    def test_proc_metrics_excluded_from_task_capture(self):
        """proc.* is process-level: the pool's per-task pruning drops it."""
        from repro.exec.pool import _prune_untouched
        from repro.obs.metrics import sample_rss

        sample_rss()
        pruned = _prune_untouched(registry().snapshot())
        assert not any(name.startswith("proc.") for name in pruned)
