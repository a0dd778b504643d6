"""Property-based tests for the runtime, topology, and solver layers."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.mapping.base import SlotSpace
from repro.core.mapping.multilevel import MultiLevelMapping
from repro.core.mapping.oblivious import ObliviousMapping
from repro.core.mapping.partition_map import PartitionMapping
from repro.core.allocation.partition import partition_grid
from repro.runtime.decomposition import decompose, split_counts
from repro.runtime.process_grid import ProcessGrid
from repro.topology.routing import path_links
from repro.topology.torus import Torus3D
from repro.wrf.fields import ModelState
from repro.wrf.solver import ShallowWaterSolver, SolverParams


class TestTorusProperties:
    @settings(max_examples=40, deadline=None)
    @given(
        dims=st.tuples(st.integers(1, 6), st.integers(1, 6), st.integers(1, 6)),
        seed=st.integers(0, 1000),
    )
    def test_route_length_equals_distance(self, dims, seed):
        torus = Torus3D(dims)
        rng = np.random.default_rng(seed)
        for _ in range(5):
            a = tuple(int(rng.integers(0, d)) for d in dims)
            b = tuple(int(rng.integers(0, d)) for d in dims)
            assert len(path_links(torus, a, b)) == torus.distance(a, b)

    @settings(max_examples=40, deadline=None)
    @given(
        dims=st.tuples(st.integers(2, 6), st.integers(2, 6), st.integers(2, 6)),
        seed=st.integers(0, 1000),
    )
    def test_distance_is_metric(self, dims, seed):
        torus = Torus3D(dims)
        rng = np.random.default_rng(seed)
        pts = [tuple(int(rng.integers(0, d)) for d in dims) for _ in range(4)]
        for a in pts:
            assert torus.distance(a, a) == 0
            for b in pts:
                assert torus.distance(a, b) == torus.distance(b, a)
                for c in pts:
                    assert torus.distance(a, c) <= (
                        torus.distance(a, b) + torus.distance(b, c)
                    )


class TestDecompositionProperties:
    @given(n=st.integers(1, 2000), parts=st.integers(1, 64))
    def test_split_counts_partition_n(self, n, parts):
        assume(parts <= n)
        counts = split_counts(n, parts)
        assert sum(counts) == n
        assert max(counts) - min(counts) <= 1
        assert min(counts) >= 1

    @given(
        nx=st.integers(8, 500), ny=st.integers(8, 500),
        px=st.integers(1, 8), py=st.integers(1, 8),
    )
    def test_decompose_tiles_domain(self, nx, ny, px, py):
        dec = decompose(nx, ny, px, py)
        assert sum(dec.col_widths) == nx
        assert sum(dec.row_heights) == ny
        assert dec.load_imbalance() >= 0.0


class TestMappingProperties:
    @settings(max_examples=20, deadline=None)
    @given(
        weights=st.lists(st.floats(0.05, 1.0), min_size=1, max_size=5),
        seed=st.integers(0, 100),
    )
    def test_partition_mappings_bijective(self, weights, seed):
        grid = ProcessGrid(16, 16)
        space = SlotSpace(Torus3D((4, 4, 8)), 2)
        alloc = partition_grid(grid, weights)
        for M in (ObliviousMapping, PartitionMapping, MultiLevelMapping):
            placement = M().place(grid, space, list(alloc.rects))
            assert len(set(placement.slots)) == grid.size
            # Every slot maps to a valid node.
            for rank in range(grid.size):
                node = placement.node_of(rank)
                assert space.torus.contains(node)

    @settings(max_examples=10, deadline=None)
    @given(weights=st.lists(st.floats(0.1, 1.0), min_size=2, max_size=4))
    def test_topology_aware_never_much_worse_internally(self, weights):
        """Partition mapping's rect-internal hops never exceed the
        oblivious mapping's by more than a small factor."""
        from repro.core.mapping.metrics import average_hops
        from repro.runtime.halo import HaloSpec, halo_batch

        grid = ProcessGrid(16, 16)
        space = SlotSpace(Torus3D((4, 4, 8)), 2)
        alloc = partition_grid(grid, weights)
        spec = HaloSpec(width=1, levels=1)
        obl = ObliviousMapping().place(grid, space, list(alloc.rects))
        par = PartitionMapping().place(grid, space, list(alloc.rects))
        for rect in alloc.rects:
            if rect.area < 2:
                continue
            msgs = halo_batch(grid, rect, 160, 160, spec)
            if not msgs:
                continue
            assert average_hops(par, msgs) <= average_hops(obl, msgs) * 1.5 + 0.5


class TestTiledSolverProperties:
    @settings(max_examples=10, deadline=None)
    @given(
        seed=st.integers(0, 500),
        px=st.integers(1, 5),
        py=st.integers(1, 5),
        steps=st.integers(1, 5),
    )
    def test_tiled_equals_global(self, seed, px, py, steps):
        """Any decomposition reproduces the global solve bit for bit."""
        from repro.wrf.parallel import TiledSolver

        params = SolverParams(dx_m=24_000.0)
        state = ModelState.with_disturbances(20, 18, seed=seed, amplitude=0.5)
        solver = ShallowWaterSolver(params)
        dt = solver.stable_dt(state)
        reference = solver.run(state, steps, dt=dt)
        tiled = TiledSolver(ProcessGrid(px, py), params).run(state, steps, dt)
        for f in ("h", "u", "v", "q"):
            assert np.array_equal(getattr(reference, f), getattr(tiled, f))


class TestSolverProperties:
    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(0, 1000),
        nx=st.integers(12, 48),
        ny=st.integers(12, 48),
        steps=st.integers(1, 15),
    )
    def test_mass_conservation(self, seed, nx, ny, steps):
        solver = ShallowWaterSolver(SolverParams(dx_m=24_000.0))
        state = ModelState.with_disturbances(nx, ny, seed=seed, amplitude=0.5)
        m0 = state.total_mass()
        out = solver.run(state, steps)
        assert out.total_mass() == pytest.approx(m0, rel=1e-10)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 1000))
    def test_determinism(self, seed):
        solver = ShallowWaterSolver(SolverParams(dx_m=24_000.0))
        a = solver.run(ModelState.with_disturbances(24, 24, seed=seed), 5, dt=30.0)
        b = solver.run(ModelState.with_disturbances(24, 24, seed=seed), 5, dt=30.0)
        assert a.allclose(b)
