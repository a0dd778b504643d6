"""Unit tests for the vectorized network engine."""

import pytest

from repro.errors import ConfigurationError
from repro.netsim.engine import (
    LINKS_PER_NODE,
    SCALAR,
    VECTOR,
    LinkLoadVector,
    PlacementVector,
    active_backend,
    as_placement,
    link_id_of,
    link_of_id,
    reset_route_cache,
    route_cache_stats,
)
from repro.runtime.halo import HaloMessage
from repro.topology.torus import Link, Torus3D


@pytest.fixture(autouse=True)
def fresh_cache():
    reset_route_cache()
    yield
    reset_route_cache()


class TestLinkIds:
    def test_round_trip_every_link(self):
        torus = Torus3D((2, 3, 4))
        seen = set()
        for coord in torus.coords():
            for dim in range(3):
                for direction in (1, -1):
                    link = Link(src=coord, dim=dim, direction=direction)
                    lid = link_id_of(torus, link)
                    assert 0 <= lid < torus.num_nodes * LINKS_PER_NODE
                    assert link_of_id(torus, lid) == link
                    seen.add(lid)
        assert len(seen) == torus.num_nodes * LINKS_PER_NODE

    def test_encoding_formula(self):
        torus = Torus3D((4, 4, 4))
        link = Link(src=(1, 2, 3), dim=1, direction=-1)
        node = torus.rank_of((1, 2, 3))
        assert link_id_of(torus, link) == (node * 3 + 1) * 2 + 1


class TestPlacementVector:
    def test_wraps_once(self):
        torus = Torus3D((2, 2, 2))
        pv = as_placement(torus, [(0, 0, 0), (1, 1, 1)])
        assert as_placement(torus, pv) is pv
        assert len(pv) == 2
        assert pv.node_ranks.tolist() == [0, 7]

    def test_digest_distinguishes_placements(self):
        torus = Torus3D((2, 2, 2))
        a = PlacementVector(torus, [(0, 0, 0), (1, 0, 0)])
        b = PlacementVector(torus, [(1, 0, 0), (0, 0, 0)])
        assert a.digest != b.digest


class TestLinkLoadVector:
    def test_mirrors_scalar_api(self):
        torus = Torus3D((4, 1, 1))
        nodes = [(0, 0, 0), (2, 0, 0)]
        _, loads = VECTOR.route_exchange(torus, nodes, [HaloMessage(0, 1, 7)])
        assert loads.load(Link((0, 0, 0), 0, 1)) == 7
        assert loads.load(Link((3, 0, 0), 0, 1)) == 0
        assert loads.max_load() == 7
        assert loads.total_bytes() == 14
        assert loads.num_loaded_links() == 2
        assert len(loads) == 2

    def test_merge_accumulates(self):
        torus = Torus3D((4, 1, 1))
        nodes = [(0, 0, 0), (1, 0, 0)]
        _, loads = VECTOR.route_exchange(torus, nodes, [HaloMessage(0, 1, 5)])
        shared = VECTOR.empty_loads(torus)
        shared.merge(loads)
        shared.merge(loads)
        assert shared.max_load() == 10
        # Cached loads stay untouched by merges.
        assert loads.max_load() == 5


class TestRouteCache:
    def test_hit_on_identical_exchange(self):
        torus = Torus3D((4, 4, 4))
        nodes = [(0, 0, 0), (2, 2, 2)]
        msgs = [HaloMessage(0, 1, 100)]
        first = VECTOR.route_exchange(torus, nodes, msgs)
        second = VECTOR.route_exchange(torus, nodes, list(msgs))
        assert second[0] is first[0]
        assert second[1] is first[1]
        stats = route_cache_stats()
        assert (stats.hits, stats.misses, stats.entries) == (1, 1, 1)
        assert stats.hit_rate == 0.5

    def test_miss_on_different_placement(self):
        torus = Torus3D((4, 4, 4))
        msgs = [HaloMessage(0, 1, 100)]
        VECTOR.route_exchange(torus, [(0, 0, 0), (2, 2, 2)], msgs)
        VECTOR.route_exchange(torus, [(0, 0, 0), (2, 2, 1)], msgs)
        stats = route_cache_stats()
        assert (stats.hits, stats.misses) == (0, 2)

    def test_miss_on_different_bytes(self):
        torus = Torus3D((4, 4, 4))
        nodes = [(0, 0, 0), (2, 2, 2)]
        VECTOR.route_exchange(torus, nodes, [HaloMessage(0, 1, 100)])
        VECTOR.route_exchange(torus, nodes, [HaloMessage(0, 1, 101)])
        assert route_cache_stats().misses == 2

    def test_reset_clears_counters(self):
        torus = Torus3D((2, 2, 2))
        VECTOR.route_exchange(torus, [(0, 0, 0)], [])
        reset_route_cache()
        stats = route_cache_stats()
        assert (stats.hits, stats.misses, stats.entries) == (0, 0, 0)


class TestBackendSelection:
    def test_default_is_vector(self, monkeypatch):
        monkeypatch.delenv("REPRO_NETSIM", raising=False)
        assert active_backend() is VECTOR

    def test_scalar_oracle_selectable(self, monkeypatch):
        monkeypatch.setenv("REPRO_NETSIM", "scalar")
        assert active_backend() is SCALAR

    def test_unknown_engine_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_NETSIM", "fortran")
        with pytest.raises(ConfigurationError):
            active_backend()
