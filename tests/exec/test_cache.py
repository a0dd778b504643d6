"""The one cache primitive, run against all three production caches.

Every case runs once per cache — plans, placements and routed exchanges —
through that cache's real entry point: reset and ``stats()`` hammered
against concurrent lookups, LRU order under the byte budget, oversize
entries, and the registry mirror. Key-specific behaviour stays with each
cache's own tests.
"""

from __future__ import annotations

import sys
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np
import pytest

from repro.core.mapping.base import SlotSpace
from repro.core.mapping.oblivious import ObliviousMapping
from repro.core.scheduler.strategies import SequentialStrategy
from repro.exec.cache import BoundedCache, clear_caches
from repro.exec.placementcache import _PLACEMENT_CACHE, cached_placement
from repro.exec.plancache import _PLAN_CACHE, sequential_plan
from repro.netsim.engine import _ROUTE_CACHE, VECTOR, PlacementVector, route_batch
from repro.obs.metrics import registry
from repro.runtime.halo import HaloSpec, halo_batch
from repro.runtime.process_grid import GridRect, ProcessGrid
from repro.topology.machines import BLUE_GENE_L
from repro.topology.torus import Torus3D
from repro.wrf.grid import DomainSpec

_PARENT = DomainSpec(name="d01", nx=286, ny=307, dx_km=24.0)
_SIBLINGS = (
    DomainSpec("d02", 120, 96, 8.0, parent="d01", parent_start=(10, 10),
               refinement=3, level=1),
    DomainSpec("d03", 90, 120, 8.0, parent="d01", parent_start=(150, 150),
               refinement=3, level=1),
)
_PLAN_GRID = ProcessGrid(16, 16)
_PLACE_GRID = ProcessGrid(8, 4)
_SPACE = SlotSpace(Torus3D((4, 4, 2)), 1)
_TORUS = Torus3D((4, 4, 4))
_NODES = PlacementVector(_TORUS, np.array([(0, 0, 0), (2, 2, 2)], dtype=np.int64))
_ROUTE_GRID = ProcessGrid(2, 1)
_RECT = GridRect(0, 0, 2, 1)


def _route_entry():
    """An uncached route-cache entry: routed exchange, loads, estimates."""
    routed, loads = route_batch(
        _TORUS, _NODES, halo_batch(_ROUTE_GRID, _RECT, 20, 10, HaloSpec())
    )
    return routed, loads, (VECTOR.round_estimate(routed, loads, BLUE_GENE_L),)


_FIELDS = ("hits", "misses", "evictions", "resident_bytes")


@dataclass(frozen=True)
class Case:
    cache: BoundedCache
    #: One lookup through the cache's entry point (always the same key).
    lookup: Callable[[], Any]
    #: A freshly computed, uncached value of the kind the cache holds.
    value: Callable[[], Any]


CASES = {
    "plan": Case(
        _PLAN_CACHE,
        lambda: sequential_plan(_PLAN_GRID, _PARENT, _SIBLINGS),
        lambda: SequentialStrategy().plan(_PLAN_GRID, _PARENT, list(_SIBLINGS)),
    ),
    "placement": Case(
        _PLACEMENT_CACHE,
        lambda: cached_placement(ObliviousMapping(), _PLACE_GRID, _SPACE),
        lambda: ObliviousMapping().place(_PLACE_GRID, _SPACE),
    ),
    "route": Case(
        _ROUTE_CACHE,
        lambda: VECTOR.route_exchange(
            _TORUS, _NODES, _ROUTE_GRID, ((_RECT, 20, 10),), HaloSpec(), BLUE_GENE_L
        ),
        _route_entry,
    ),
}


@pytest.fixture(params=sorted(CASES))
def case(request) -> Case:
    return CASES[request.param]


@pytest.fixture(autouse=True)
def _fresh_caches():
    clear_caches()
    yield
    clear_caches()


def _mirror(cache: BoundedCache) -> dict:
    snap = registry().snapshot(cache.name + ".")
    return {f: snap[f"{cache.name}.{f}"]["value"] for f in _FIELDS}


def _counts(cache: BoundedCache) -> dict:
    stats = cache.stats()
    return {f: getattr(stats, f) for f in _FIELDS}


def _sized(cache: BoundedCache, monkeypatch) -> None:
    """Give the plan cache (no sizeof of its own) a fixed entry size."""
    if cache.sizeof is None:
        monkeypatch.setattr(cache, "sizeof", lambda value: 1000)


# ----------------------------------------------------------------------
# Bounds
# ----------------------------------------------------------------------
class TestBounds:
    def test_entry_bound_evicts_oldest(self, case, monkeypatch):
        monkeypatch.setattr(case.cache, "maxsize", 2)
        for k in "abc":
            case.cache.put(k, case.value())
        stats = case.cache.stats()
        assert (stats.entries, stats.evictions) == (2, 1)
        assert case.cache.get("a") is None
        assert case.cache.get("c") is not None

    def test_byte_budget_evicts_lru_first(self, case, monkeypatch):
        _sized(case.cache, monkeypatch)
        a, b, c = (case.value() for _ in range(3))
        one = case.cache.sizeof(a)
        monkeypatch.setattr(case.cache, "budget_bytes", lambda: int(2.5 * one))
        case.cache.put("a", a)
        case.cache.put("b", b)
        stats = case.cache.stats()
        assert (stats.entries, stats.evictions) == (2, 0)
        assert stats.resident_bytes == 2 * one
        assert case.cache.get("a") is a  # "a" becomes most recently used
        case.cache.put("c", c)
        stats = case.cache.stats()
        assert (stats.entries, stats.evictions) == (2, 1)
        assert stats.resident_bytes == 2 * one
        # LRU-first: "b" went, the freshly touched "a" stayed.
        assert case.cache.get("b") is None
        assert case.cache.get("a") is a
        assert case.cache.get("c") is c
        assert _mirror(case.cache) == _counts(case.cache)

    def test_oversize_entry_never_kept(self, case, monkeypatch):
        _sized(case.cache, monkeypatch)
        one = case.cache.sizeof(case.value())
        monkeypatch.setattr(case.cache, "budget_bytes", lambda: one - 1)
        a = case.lookup()
        b = case.lookup()
        # Both calls produce a value; neither is cached.
        assert a is not b
        stats = case.cache.stats()
        assert (stats.entries, stats.resident_bytes) == (0, 0)
        assert (stats.hits, stats.misses, stats.evictions) == (0, 2, 2)


# ----------------------------------------------------------------------
# Registry mirror
# ----------------------------------------------------------------------
class TestRegistryMirror:
    def test_mirror_equals_stats_through_every_counter(self, case, monkeypatch):
        registry().reset()
        case.cache.clear()
        monkeypatch.setattr(case.cache, "maxsize", 1)
        steps = [
            case.lookup,  # miss
            case.lookup,  # hit
            lambda: case.cache.put("other", case.value()),  # evicts the key
            case.lookup,  # miss, evicts "other"
        ]
        for step in steps:
            step()
            assert _mirror(case.cache) == _counts(case.cache)
        stats = case.cache.stats()
        assert (stats.hits, stats.misses, stats.evictions) == (1, 2, 2)
        case.cache.clear()
        assert _mirror(case.cache) == _counts(case.cache) == dict.fromkeys(_FIELDS, 0)
        stats = case.cache.stats()
        assert (stats.entries, stats.hit_rate) == (0, 0.0)


# ----------------------------------------------------------------------
# The reset-during-lookup hammer
# ----------------------------------------------------------------------
def _hammer(lookup, reset, stats, seconds=1.0, workers=4):
    """Run *lookup* loops on threads while the main thread spams *reset*."""
    stop = threading.Event()
    failures = []

    def worker():
        while not stop.is_set():
            try:
                assert lookup() is not None
            except BaseException as exc:  # noqa: BLE001 - recording, not hiding
                failures.append(exc)
                return

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)  # more interleavings per second
    threads = [threading.Thread(target=worker) for _ in range(workers)]
    try:
        for t in threads:
            t.start()
        deadline = time.monotonic() + seconds
        resets = 0
        while time.monotonic() < deadline:
            reset()
            stats()  # stats reads must interleave safely too
            resets += 1
    finally:
        stop.set()
        for t in threads:
            t.join(timeout=30)
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not failures, failures[0]
    assert resets > 0


class TestResetHammer:
    def test_reset_and_stats_race_lookups(self, case):
        _hammer(case.lookup, case.cache.clear, case.cache.stats)
        # No update was lost on either side of the mirror.
        assert _mirror(case.cache) == _counts(case.cache)
        # Counters are coherent afterwards: a fresh pair of lookups
        # lands exactly one miss then one hit, mirrored exactly.
        case.cache.clear()
        case.lookup()
        case.lookup()
        stats = case.cache.stats()
        assert (stats.hits, stats.misses, stats.entries) == (1, 1, 1)
        assert _mirror(case.cache) == _counts(case.cache)

    def test_reset_races_a_full_recommend_sweep(self):
        """The service-shaped regression: cache resets mid-recommend
        never corrupt the sweep or change its answer."""
        from repro.analysis.planner import recommend
        from repro.topology.machines import BLUE_GENE_L
        from repro.workloads.paper_configs import table2_domains

        config = table2_domains()
        baseline = recommend(config, BLUE_GENE_L, max_ranks=128, jobs=1)

        result = {}
        done = threading.Event()

        def sweep():
            result["rec"] = recommend(config, BLUE_GENE_L, max_ranks=128, jobs=1)
            done.set()

        t = threading.Thread(target=sweep)
        t.start()
        while not done.is_set():
            clear_caches()
        t.join(timeout=60)
        assert not t.is_alive()
        assert result["rec"].fastest == baseline.fastest
        assert result["rec"].recommended == baseline.recommended
        assert [o.time_per_iteration for o in result["rec"].options] == [
            o.time_per_iteration for o in baseline.options
        ]
