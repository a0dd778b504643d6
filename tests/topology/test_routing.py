"""Tests for dimension-ordered torus routing (the reference routes)."""

import pytest

from repro.topology.torus import Torus3D
from repro.verify.reference.netsim import path_links, route_dimension_ordered


class TestRouteDimensionOrdered:
    def test_self_route(self):
        t = Torus3D((4, 4, 4))
        assert route_dimension_ordered(t, (1, 2, 3), (1, 2, 3)) == [(1, 2, 3)]

    def test_path_length_equals_distance(self):
        t = Torus3D((5, 4, 3))
        for src in [(0, 0, 0), (2, 3, 1)]:
            for dst in [(4, 2, 2), (1, 0, 1), (2, 3, 1)]:
                path = route_dimension_ordered(t, src, dst)
                assert len(path) - 1 == t.distance(src, dst)

    def test_x_then_y_then_z(self):
        t = Torus3D((4, 4, 4))
        path = route_dimension_ordered(t, (0, 0, 0), (1, 1, 1))
        assert path == [(0, 0, 0), (1, 0, 0), (1, 1, 0), (1, 1, 1)]

    def test_wraparound_route(self):
        t = Torus3D((8, 4, 4))
        path = route_dimension_ordered(t, (7, 0, 0), (0, 0, 0))
        assert path == [(7, 0, 0), (0, 0, 0)]

    def test_consecutive_nodes_adjacent(self):
        t = Torus3D((6, 5, 4))
        path = route_dimension_ordered(t, (0, 0, 0), (3, 4, 2))
        for a, b in zip(path, path[1:]):
            assert t.distance(a, b) == 1


class TestPathLinks:
    def test_empty_for_self(self):
        t = Torus3D((4, 4, 4))
        assert path_links(t, (2, 2, 2), (2, 2, 2)) == []

    def test_link_count_equals_distance(self):
        t = Torus3D((4, 6, 8))
        src, dst = (0, 1, 2), (3, 4, 5)
        assert len(path_links(t, src, dst)) == t.distance(src, dst)

    def test_links_chain_to_destination(self):
        t = Torus3D((4, 4, 4))
        src, dst = (0, 0, 0), (2, 3, 1)
        cur = src
        for link in path_links(t, src, dst):
            assert link.src == cur
            cur = t.link_dest(link)
        assert cur == dst

    def test_tie_breaks_positive(self):
        # Exactly half way around an even ring routes forward.
        t = Torus3D((4, 1, 1))
        links = path_links(t, (0, 0, 0), (2, 0, 0))
        assert all(l.direction == 1 for l in links)

    def test_shorter_way_negative(self):
        t = Torus3D((8, 1, 1))
        links = path_links(t, (1, 0, 0), (7, 0, 0))
        assert len(links) == 2
        assert all(l.direction == -1 for l in links)
