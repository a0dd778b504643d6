"""Unit tests for the vectorized network engine."""

import numpy as np
import pytest

from repro.netsim.engine import (
    LINKS_PER_NODE,
    VECTOR,
    PlacementVector,
    link_id_of,
    link_of_id,
    reset_route_cache,
    route_batch,
    route_cache_stats,
)
from repro.runtime.halo import HaloBatch, HaloSpec
from repro.runtime.process_grid import GridRect, ProcessGrid
from repro.topology.machines import BLUE_GENE_L
from repro.topology.torus import Link, Torus3D


def batch(*messages):
    """A HaloBatch of ``(src, dst, nbytes)`` triples."""
    cols = np.asarray(messages, dtype=np.int64).reshape(len(messages), 3).T.copy()
    return HaloBatch(src=cols[0], dst=cols[1], nbytes=cols[2])


def vector(torus, *coords):
    """The engine's placement form of per-rank node coordinates."""
    return PlacementVector(
        torus, np.asarray(coords, dtype=np.int64).reshape(len(coords), 3)
    )


#: A two-rank grid: rank 0 and rank 1 swap one east/west halo strip each.
GRID = ProcessGrid(2, 1)
PAIR = ((GridRect(0, 0, 2, 1), 20, 10),)


def lookup(torus, placed, exchanges=PAIR, spec=HaloSpec()):
    """The structural route-cache lookup of *exchanges* on *GRID*."""
    return VECTOR.route_exchange(torus, placed, GRID, exchanges, spec, BLUE_GENE_L)


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
    def test_node_ranks(self):
        torus = Torus3D((2, 2, 2))
        pv = vector(torus, (0, 0, 0), (1, 1, 1))
        assert len(pv) == 2
        assert pv.node_ranks.tolist() == [0, 7]

    def test_digest_distinguishes_placements(self):
        torus = Torus3D((2, 2, 2))
        a = vector(torus, (0, 0, 0), (1, 0, 0))
        b = vector(torus, (1, 0, 0), (0, 0, 0))
        assert a.digest != b.digest


class TestLinkLoadVector:
    def test_mirrors_scalar_api(self):
        torus = Torus3D((4, 1, 1))
        placed = vector(torus, (0, 0, 0), (2, 0, 0))
        _, loads = route_batch(torus, placed, batch((0, 1, 7)))
        assert loads.load(Link((0, 0, 0), 0, 1)) == 7
        assert loads.load(Link((3, 0, 0), 0, 1)) == 0
        assert loads.max_load() == 7
        assert loads.total_bytes() == 14
        assert loads.num_loaded_links() == 2
        assert len(loads) == 2


class TestRouteCache:
    def test_hit_on_identical_exchange(self):
        torus = Torus3D((4, 4, 4))
        first = lookup(torus, vector(torus, (0, 0, 0), (2, 2, 2)))
        # An equal placement and structure built separately hit: the key
        # is the placement digest and the exchange's structure.
        second = lookup(
            torus,
            vector(torus, (0, 0, 0), (2, 2, 2)),
            ((GridRect(0, 0, 2, 1), 20, 10),),
        )
        assert second is first
        stats = route_cache_stats()
        assert (stats.hits, stats.misses, stats.entries) == (1, 1, 1)
        assert stats.hit_rate == 0.5

    def test_miss_on_different_placement(self):
        torus = Torus3D((4, 4, 4))
        lookup(torus, vector(torus, (0, 0, 0), (2, 2, 2)))
        lookup(torus, vector(torus, (0, 0, 0), (2, 2, 1)))
        stats = route_cache_stats()
        assert (stats.hits, stats.misses) == (0, 2)

    def test_miss_on_different_bytes(self):
        torus = Torus3D((4, 4, 4))
        placed = vector(torus, (0, 0, 0), (2, 2, 2))
        first = lookup(torus, placed)
        second = lookup(torus, placed, spec=HaloSpec(levels=36))
        assert route_cache_stats().misses == 2
        assert second[0].nbytes.tolist() != first[0].nbytes.tolist()

    def test_reset_clears_counters(self):
        torus = Torus3D((2, 2, 2))
        lookup(torus, vector(torus, (0, 0, 0), (1, 0, 0)))
        reset_route_cache()
        stats = route_cache_stats()
        assert (stats.hits, stats.misses, stats.entries) == (0, 0, 0)

