"""Microbenchmarks of the library's core kernels.

Not tied to a specific paper figure; these keep the building blocks
honest (and show where the simulator spends its time).
"""

import pytest

from repro.core.mapping.base import SlotSpace
from repro.core.mapping.oblivious import ObliviousMapping
from repro.core.prediction.delaunay import delaunay_triangulation
from repro.runtime.halo import HaloSpec, halo_batch
from repro.runtime.process_grid import ProcessGrid
from repro.topology.torus import Torus3D
from repro.verify.reference.halo import halo_messages
from repro.verify.reference.mapping import node_tuples
from repro.verify.reference.netsim import path_links, route_messages
from repro.wrf.fields import ModelState
from repro.wrf.solver import ShallowWaterSolver, SolverParams


def test_torus_routing(benchmark):
    """Dimension-ordered route on a BG/P-sized torus."""
    torus = Torus3D((8, 16, 16))
    links = benchmark(path_links, torus, (0, 0, 0), (4, 8, 8))
    assert len(links) == 20


def test_halo_message_generation(benchmark):
    """Build one round of halo messages for a 4096-rank grid."""
    grid = ProcessGrid(64, 64)
    batch = benchmark(halo_batch, grid, grid.full_rect(), 415, 445, HaloSpec())
    assert len(batch) > 10_000


def test_route_full_exchange(benchmark):
    """Route a full 1024-rank halo exchange with the reference simulator."""
    grid = ProcessGrid(32, 32)
    space = SlotSpace(Torus3D((8, 8, 8)), 2)
    nodes = node_tuples(ObliviousMapping().place(grid, space))
    torus = space.torus
    msgs = halo_messages(grid, grid.full_rect(), 415, 445, HaloSpec())

    routed, loads = benchmark(route_messages, torus, nodes, msgs)
    assert loads.total_bytes() > 0


def test_route_full_exchange_vector(benchmark):
    """The same 1024-rank exchange through the vectorized engine."""
    from repro.netsim.engine import route_batch

    grid = ProcessGrid(32, 32)
    space = SlotSpace(Torus3D((8, 8, 8)), 2)
    torus = space.torus
    placement = ObliviousMapping().place(grid, space).vector
    batch = halo_batch(grid, grid.full_rect(), 415, 445, HaloSpec())

    routed, loads = benchmark(route_batch, torus, placement, batch)
    assert loads.total_bytes() > 0


def test_solver_step(benchmark):
    """One shallow-water step on a 286x307 grid (the Pacific parent)."""
    solver = ShallowWaterSolver(SolverParams(dx_m=24_000.0))
    state = ModelState.with_disturbances(286, 307, seed=1)
    dt = solver.stable_dt(state)
    out = benchmark(solver.step, state, dt)
    assert out.h.shape == (307, 286)


def test_delaunay_100_points(benchmark):
    """Triangulate 100 points (larger than any basis set)."""
    import numpy as np

    rng = np.random.default_rng(0)
    pts = [tuple(p) for p in rng.random((100, 2))]
    tri = benchmark(delaunay_triangulation, pts)
    assert len(tri.triangles) > 150
