"""Unit tests for :class:`repro.service.state.ServiceState`.

Covers request coalescing (leader/follower sharing one computation),
the route-cache TTL governor with an injected clock, warm-start
preloading, and the endpoint computations themselves.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.errors import ConfigurationError
from repro.exec.placementcache import placement_cache_stats
from repro.exec.plancache import plan_cache_stats
from repro.obs.metrics import registry
from repro.service.schemas import (
    RecommendRequest,
    SimulateRequest,
    VerifyRequest,
    dump_bytes,
)
from repro.service.state import ServiceState


class _FakeClock:
    """A hand-cranked monotonic clock for TTL tests."""

    def __init__(self) -> None:
        self.now = 100.0

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> None:
        self.now += dt


@pytest.fixture
def state(fresh_caches):
    st = ServiceState()
    yield st
    st.close()


_REQ = RecommendRequest(config="table2", max_ranks=256)


def _spin_until(predicate, timeout_s: float = 30.0) -> None:
    deadline = time.monotonic() + timeout_s
    while not predicate():
        if time.monotonic() > deadline:
            raise AssertionError("condition not reached in time")
        time.sleep(0.001)


class TestCoalescing:
    def test_followers_share_the_leaders_response_object(self, state, monkeypatch):
        leader_entered = threading.Event()
        release = threading.Event()
        real_compute = state._compute_recommend

        def slow_compute(req):
            leader_entered.set()
            assert release.wait(timeout=30)
            return real_compute(req)

        monkeypatch.setattr(state, "_compute_recommend", slow_compute)

        results = []
        lock = threading.Lock()

        def call():
            resp, coalesced = state.recommend(_REQ)
            with lock:
                results.append((resp, coalesced))

        baseline = state._coalesce_hits.value
        leader = threading.Thread(target=call)
        leader.start()
        assert leader_entered.wait(timeout=30)
        followers = [threading.Thread(target=call) for _ in range(4)]
        for t in followers:
            t.start()
        # Followers must be parked on the in-flight entry before release.
        _spin_until(lambda: state._coalesce_hits.value >= baseline + 4)
        release.set()
        leader.join(timeout=30)
        for t in followers:
            t.join(timeout=30)

        assert len(results) == 5
        coalesced_flags = sorted(flag for _, flag in results)
        assert coalesced_flags == [False, True, True, True, True]
        leader_resp = next(r for r, flag in results if not flag)
        for resp, flag in results:
            if flag:
                assert resp is leader_resp  # the same object, not a copy

    def test_leader_error_propagates_to_followers(self, state, monkeypatch):
        entered = threading.Event()
        release = threading.Event()

        def exploding(req):
            entered.set()
            assert release.wait(timeout=30)
            raise RuntimeError("boom")

        monkeypatch.setattr(state, "_compute_recommend", exploding)
        errors = []

        def call():
            try:
                state.recommend(_REQ)
            except RuntimeError as exc:
                errors.append(str(exc))

        baseline = state._coalesce_hits.value
        leader = threading.Thread(target=call)
        leader.start()
        assert entered.wait(timeout=30)
        follower = threading.Thread(target=call)
        follower.start()
        _spin_until(lambda: state._coalesce_hits.value >= baseline + 1)
        release.set()
        leader.join(timeout=30)
        follower.join(timeout=30)
        assert errors == ["boom", "boom"]
        # The failed entry was removed: the next request gets a fresh leader.
        assert state._inflight == {}

    def test_sequential_requests_do_not_coalesce(self, state):
        _, first = state.recommend(_REQ)
        _, second = state.recommend(_REQ)
        assert first is False and second is False

    def test_distinct_requests_use_distinct_keys(self):
        a = dump_bytes(RecommendRequest(config="fig2"))
        b = dump_bytes(RecommendRequest(config="table2"))
        assert a != b


class TestEndpoints:
    def test_recommend_is_deterministic(self, state):
        first, _ = state.recommend(_REQ)
        second, _ = state.recommend(_REQ)
        assert dump_bytes(first) == dump_bytes(second)
        assert first.fastest in first.options
        assert first.recommended.efficiency >= _REQ.efficiency_floor

    def test_simulate_reports_both_strategies(self, state):
        resp = state.simulate(SimulateRequest(ranks=128))
        assert resp.sequential.total_time > 0
        assert resp.parallel.total_time > 0
        expected = 100.0 * (
            1.0 - resp.parallel.total_time / resp.sequential.total_time
        )
        assert resp.improvement_percent == pytest.approx(expected)

    def test_verify_runs_the_oracles(self, state):
        resp = state.verify(VerifyRequest(budget=3, seed=11))
        assert resp.ok is True
        assert resp.scenarios_run == 3
        assert resp.seed == 11
        assert resp.oracles

    def test_verify_rejects_unknown_oracle(self, state):
        with pytest.raises(ConfigurationError, match="unknown oracle"):
            state.verify(VerifyRequest(budget=1, oracles=("nonsense",)))

    def test_health_counts_and_uptime(self, fresh_caches):
        clock = _FakeClock()
        st = ServiceState(clock=clock)
        try:
            clock.advance(5.0)
            health = st.health()
            assert health.status == "ok"
            assert health.uptime_s == pytest.approx(5.0)
            assert health.warmed is False
        finally:
            st.close()

    def test_metrics_payload_shape(self, state):
        state.simulate(SimulateRequest(ranks=64))
        payload = state.metrics_payload()
        assert set(payload["caches"]) == {"plan", "placement", "route"}
        for stats in payload["caches"].values():
            assert "hits" in stats and "misses" in stats
        assert isinstance(payload["metrics"], dict)


class TestWarmStart:
    def test_warm_start_populates_all_three_caches(self, state):
        summary = state.warm_start(("table2",), max_ranks=128)
        assert state.warmed is True
        assert summary["configs"] == ["table2"]
        assert summary["plan_cache_entries"] > 0
        assert summary["placement_cache_entries"] > 0
        assert summary["route_cache_entries"] > 0
        assert plan_cache_stats().entries == summary["plan_cache_entries"]
        assert (
            placement_cache_stats().entries
            == summary["placement_cache_entries"]
        )

    def test_warm_start_makes_matching_recommends_cache_hits(self, state):
        state.warm_start(("table2",), max_ranks=128)
        before = plan_cache_stats().hits
        state.recommend(
            RecommendRequest(config="table2", min_ranks=64, max_ranks=128)
        )
        assert plan_cache_stats().hits > before
