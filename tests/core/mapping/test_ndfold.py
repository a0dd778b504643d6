"""Tests for the prototype 5-D (Blue Gene/Q) folded mapping."""

import pytest

from repro.core.mapping.ndfold import (
    CORE_DIM,
    default_nd_placement,
    fold_mixed_radix,
    folded_nd_placement,
    nd_average_hops,
    split_dims_for_grid,
)
from repro.errors import MappingError
from repro.runtime.halo import HaloSpec, halo_batch
from repro.runtime.process_grid import ProcessGrid
from repro.topology.torusnd import TorusND


class TestFoldMixedRadix:
    def test_bijective(self):
        dims = (3, 2, 4)
        seen = set()
        for i in range(24):
            seen.add(fold_mixed_radix(i, dims))
        assert len(seen) == 24

    def test_adjacent_indices_one_step(self):
        """The defining property: consecutive indices differ by one step
        in exactly one digit."""
        for dims in ((4,), (2, 3), (3, 2, 4), (2, 2, 2, 2)):
            total = 1
            for d in dims:
                total *= d
            prev = fold_mixed_radix(0, dims)
            for i in range(1, total):
                cur = fold_mixed_radix(i, dims)
                diff = [abs(a - b) for a, b in zip(prev, cur)]
                assert sum(diff) == 1, (dims, i, prev, cur)
                prev = cur

    def test_matches_1d_fold(self):
        from repro.verify.reference.folding import fold_coord

        for i in range(12):
            pos, layer = fold_coord(i, 4)
            assert fold_mixed_radix(i, (4, 3)) == (pos, layer)

    def test_out_of_range(self):
        with pytest.raises(MappingError):
            fold_mixed_radix(24, (3, 2, 4))


class TestSplitDims:
    def test_exact_split_found(self):
        torus = TorusND((4, 4, 4, 4, 2))
        split = split_dims_for_grid(torus, 16, 64, 128)
        assert split is not None
        x_group, y_group = split
        def product(group):
            p = 1
            for d in group:
                p *= 16 if d == CORE_DIM else torus.dims[d]
            return p
        assert product(x_group) == 64
        assert product(y_group) == 128

    def test_core_prefers_x_group(self):
        torus = TorusND((4, 4, 4, 4, 2))
        x_group, _ = split_dims_for_grid(torus, 16, 64, 128)
        assert CORE_DIM in x_group

    def test_unfactorable_returns_none(self):
        torus = TorusND((4, 4))
        assert split_dims_for_grid(torus, 1, 2, 8) is None

    def test_grid_volume_checked(self):
        torus = TorusND((4, 4, 2))
        with pytest.raises(MappingError):
            split_dims_for_grid(torus, 1, 8, 8)  # 64 != 32


class TestPlacements:
    @pytest.fixture
    def setup(self):
        torus = TorusND((4, 4, 4, 4, 2))  # 512-node BG/Q midplane
        grid = ProcessGrid(64, 128)       # 8192 ranks at 16/node
        return torus, grid

    def test_default_valid(self, setup):
        torus, grid = setup
        p = default_nd_placement(grid, torus, 16)
        assert len(p.nodes) == 8192

    def test_folded_valid(self, setup):
        torus, grid = setup
        p = folded_nd_placement(grid, torus, 16)
        assert len(p.nodes) == 8192

    def test_folded_all_neighbours_at_most_one_hop(self, setup):
        """The scheme's guarantee for foldable grids."""
        torus, grid = setup
        p = folded_nd_placement(grid, torus, 16)
        import random

        rng = random.Random(1)
        for _ in range(300):
            rank = rng.randrange(grid.size)
            for nbr in grid.neighbors_of(rank):
                assert p.hops_between(rank, nbr) <= 1

    def test_folded_beats_default(self, setup):
        torus, grid = setup
        spec = HaloSpec()
        msgs = halo_batch(grid, grid.full_rect(), 415, 445, spec)
        default = nd_average_hops(default_nd_placement(grid, torus, 16), msgs)
        folded = nd_average_hops(folded_nd_placement(grid, torus, 16), msgs)
        assert folded < default * 0.75

    def test_small_foldable_grid(self):
        torus = TorusND((3, 5))
        p = folded_nd_placement(ProcessGrid(5, 3), torus, 1)
        assert len(p.nodes) == 15

    def test_unfoldable_grid_raises(self):
        # 2x8 on a (4,4) torus: no dimension subset has product 2.
        torus = TorusND((4, 4))
        with pytest.raises(MappingError):
            folded_nd_placement(ProcessGrid(2, 8), torus, 1)

    def test_node_capacity_enforced(self, setup):
        torus, grid = setup
        from repro.core.mapping.ndfold import NdPlacement

        with pytest.raises(MappingError):
            NdPlacement(
                torus=torus, grid=ProcessGrid(2, 1),
                nodes=((0, 0, 0, 0, 0), (0, 0, 0, 0, 0)),
                ranks_per_node=1, name="bad",
            )
