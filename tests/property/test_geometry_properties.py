"""Property-based tests (hypothesis) for the geometric core.

These pin the invariants the paper's algorithms rely on: barycentric
coordinates, the Delaunay empty-circumcircle property (with scipy as an
independent oracle), exact partition tilings, and fold adjacency.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.allocation.huffman import HuffmanTree
from repro.core.allocation.splittree import split_tree_partition
from repro.core.prediction.barycentric import barycentric_coordinates, interpolate
from repro.core.prediction.delaunay import (
    _circumcircle_contains,
    delaunay_triangulation,
)
from repro.runtime.process_grid import GridRect
from repro.verify.reference.folding import fold_coord, snake_order_rect


coords = st.floats(min_value=-100, max_value=100, allow_nan=False)
points = st.tuples(coords, coords)


def tri_area(a, b, c):
    return abs((b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])) / 2


class TestBarycentricProperties:
    @given(p=points, a=points, b=points, c=points)
    def test_coordinates_sum_to_one(self, p, a, b, c):
        assume(tri_area(a, b, c) > 1e-6)
        l1, l2, l3 = barycentric_coordinates(p, a, b, c)
        assert l1 + l2 + l3 == pytest.approx(1.0, abs=1e-6)

    @given(
        a=points, b=points, c=points,
        cx=st.floats(0.1e0, 0.8, allow_nan=False),
        cy=st.floats(0.1, 0.8, allow_nan=False),
        fx=st.floats(-5, 5), fy=st.floats(-5, 5), f0=st.floats(-5, 5),
    )
    def test_linear_reproduction(self, a, b, c, cx, cy, fx, fy, f0):
        """Interpolation is exact for affine functions — the property that
        makes Eq (4) a sound estimator."""
        assume(tri_area(a, b, c) > 1e-3)
        f = lambda x, y: fx * x + fy * y + f0
        # Query point as a convex combination (inside the triangle).
        cz = max(0.0, 1.0 - cx - cy)
        s = cx + cy + cz
        cx, cy, cz = cx / s, cy / s, cz / s
        p = (
            cx * a[0] + cy * b[0] + cz * c[0],
            cx * a[1] + cy * b[1] + cz * c[1],
        )
        got = interpolate(p, (a, b, c), [f(*a), f(*b), f(*c)])
        assert got == pytest.approx(f(*p), abs=1e-5 * (1 + abs(f(*p))))


class TestDelaunayProperties:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(4, 24))
    def test_empty_circumcircle(self, seed, n):
        rng = np.random.default_rng(seed)
        pts = [tuple(p) for p in rng.random((n, 2))]
        assume(len(set(pts)) == n)
        tri = delaunay_triangulation(pts)
        for t in tri.triangles:
            for i, p in enumerate(pts):
                if i in t.vertices():
                    continue
                assert not _circumcircle_contains(tri.points, t, p)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(4, 20))
    def test_matches_scipy_oracle(self, seed, n):
        from scipy.spatial import Delaunay as SciPyDelaunay

        rng = np.random.default_rng(seed)
        pts = [tuple(p) for p in rng.random((n, 2))]
        assume(len(set(pts)) == n)
        ours = delaunay_triangulation(pts)
        theirs = SciPyDelaunay(np.array(pts))
        their_edges = set()
        for simplex in theirs.simplices:
            a, b, c = sorted(simplex)
            their_edges.update({(a, b), (a, c), (b, c)})
        assert ours.edge_set() == their_edges


class TestPartitionProperties:
    @settings(max_examples=60, deadline=None)
    @given(
        weights=st.lists(st.floats(0.01, 10.0), min_size=1, max_size=10),
        px=st.integers(4, 40),
        py=st.integers(4, 40),
    )
    def test_exact_tiling(self, weights, px, py):
        assume(len(weights) <= px * py)
        tree = HuffmanTree(weights)
        rects = split_tree_partition(tree, GridRect(0, 0, px, py))
        assert set(rects) == set(range(len(weights)))
        assert sum(r.area for r in rects.values()) == px * py
        items = list(rects.values())
        for i, a in enumerate(items):
            for b in items[i + 1:]:
                assert not a.overlaps(b)
            assert a.x1 <= px and a.y1 <= py

    @settings(max_examples=40, deadline=None)
    @given(
        weights=st.lists(st.floats(0.05, 1.0), min_size=2, max_size=6),
        scale=st.integers(4, 8),
    )
    def test_areas_track_weights(self, weights, scale):
        px = py = 2 ** scale // (2 ** (scale - 5) if scale > 5 else 1)
        px = py = 32
        tree = HuffmanTree(weights)
        rects = split_tree_partition(tree, GridRect(0, 0, px, py))
        total = sum(weights)
        for i, w in enumerate(weights):
            share = rects[i].area / (px * py)
            # Integer rounding bounds the deviation by roughly one
            # row/column of the enclosing rectangle at each split.
            assert abs(share - w / total) < 0.20


class TestFoldProperties:
    @given(i=st.integers(0, 500), a=st.integers(1, 50),
           orientation=st.integers(0, 1))
    def test_fold_bijective_positions(self, i, a, orientation):
        pos, layer = fold_coord(i, a, orientation=orientation)
        assert 0 <= pos < a
        assert layer == i // a

    @given(a=st.integers(1, 20), n_layers=st.integers(1, 6),
           orientation=st.integers(0, 1))
    def test_fold_adjacency_everywhere(self, a, n_layers, orientation):
        n = a * n_layers
        for i in range(n - 1):
            p1, l1 = fold_coord(i, a, orientation=orientation)
            p2, l2 = fold_coord(i + 1, a, orientation=orientation)
            assert abs(p1 - p2) + abs(l1 - l2) == 1

    @given(w=st.integers(1, 30), h=st.integers(1, 30))
    def test_snake_visits_every_cell_once(self, w, h):
        seq = list(snake_order_rect(w, h))
        assert len(seq) == w * h
        assert len(set(seq)) == w * h
