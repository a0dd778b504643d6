"""Extension bench — 5-D torus mapping on Blue Gene/Q (paper future work).

The paper's conclusion plans "novel schemes for the 5D torus topology of
Blue Gene/Q". This bench evaluates the mixed-radix folded placement
against the machine-default ABCDE-order placement on a BG/Q midplane:
average halo hops for the Fig 2 nest, plus the foldability ablation.
"""

import pytest

from conftest import record
from repro.analysis.tables import Table
from repro.core.mapping.ndfold import (
    default_nd_placement,
    folded_nd_placement,
    nd_average_hops,
)
from repro.runtime.halo import HaloSpec, halo_batch
from repro.runtime.process_grid import ProcessGrid
from repro.topology.bgq import BLUE_GENE_Q


@pytest.fixture(scope="module")
def result():
    rows = []
    for nodes, (px, py) in ((128, (32, 64)), (512, (64, 128)), (1024, (128, 128))):
        torus = BLUE_GENE_Q.torus_for_nodes(nodes)
        grid = ProcessGrid(px, py)
        msgs = halo_batch(grid, grid.full_rect(), 415, 445, HaloSpec())
        default = nd_average_hops(default_nd_placement(grid, torus, 16), msgs)
        folded = nd_average_hops(folded_nd_placement(grid, torus, 16), msgs)
        rows.append((nodes, torus.dims, px * py, default, folded))
    return rows


def test_bgq_regenerate(result, benchmark):
    """Emit the 5-D mapping comparison; folding must cut hops everywhere."""
    def render():
        t = Table(
            ["BG/Q nodes", "torus", "ranks", "default avg hops",
             "folded avg hops", "reduction %"],
            title="Extension — 5-D folded mapping on Blue Gene/Q (paper future work)",
        )
        for nodes, dims, ranks, default, folded in result:
            t.add_row([
                nodes, "x".join(map(str, dims)), ranks, default, folded,
                100 * (1 - folded / default),
            ])
        return t.render()

    record("bgq_5d_mapping", benchmark(render))
    for _, _, _, default, folded in result:
        assert folded < default


def test_folded_guarantee(result, benchmark):
    """Every 2-D neighbour pair is at most one hop under the folded map."""
    torus = BLUE_GENE_Q.torus_for_nodes(128)
    grid = ProcessGrid(32, 64)
    placement = folded_nd_placement(grid, torus, 16)

    def worst_neighbour_hops():
        worst = 0
        for rank in range(0, grid.size, 7):
            for nbr in grid.neighbors_of(rank):
                worst = max(worst, placement.hops_between(rank, nbr))
        return worst

    assert benchmark(worst_neighbour_hops) <= 1


def test_bgq_kernel_benchmark(benchmark):
    """Time a folded placement of 8192 ranks on a BG/Q midplane."""
    torus = BLUE_GENE_Q.torus_for_nodes(512)
    grid = ProcessGrid(64, 128)
    placement = benchmark(folded_nd_placement, grid, torus, 16)
    assert len(placement.nodes) == 8192
