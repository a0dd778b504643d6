"""Cross-engine regressions on the perfsim comm-cost layer.

Production :func:`~repro.perfsim.commcost.comm_costs` (``vector``) and
the same pricing composed from the reference simulator (``scalar``) must
produce identical ``CommCost`` values for the same exchange set
(field-exact, floats included), from a lone domain to concurrent
siblings.
"""

import pytest

from repro.core.mapping.base import SlotSpace
from repro.core.mapping.oblivious import ObliviousMapping
from repro.netsim.engine import reset_route_cache
from repro.perfsim.commcost import CommCost, comm_costs
from repro.perfsim.params import WorkloadParams
from repro.runtime.process_grid import GridRect, ProcessGrid
from repro.topology.machines import BLUE_GENE_L
from repro.topology.torus import Torus3D
from repro.verify.reference import netsim as ref
from repro.verify.reference.halo import halo_messages

WL = WorkloadParams()

ENGINES = ["vector", "scalar"]


@pytest.fixture(autouse=True)
def fresh_cache():
    reset_route_cache()
    yield
    reset_route_cache()


def _cost(est, rounds):
    return CommCost(
        time=est.time * rounds,
        ideal_time=est.ideal_time * rounds,
        average_hops=est.average_hops,
        contention_wait=est.contention_excess * rounds,
        max_link_bytes=est.max_link_bytes,
    )


def reference_comm_costs(grid, rects, domains, torus, nodes, machine, workload):
    """``comm_costs`` composed from the reference simulator."""
    coords = [tuple(row) for row in nodes.coords.tolist()]
    per_sibling = []
    shared = ref.LinkLoads()
    for rect, (nx, ny) in zip(rects, domains):
        msgs = halo_messages(grid, rect, nx, ny, workload.halo)
        routed, local = ref.route_messages(torus, coords, msgs)
        per_sibling.append(routed)
        shared.merge(local)
    rounds = workload.halo.rounds_per_step
    return [
        _cost(ref.round_time(routed, shared, machine), rounds) if routed
        else CommCost.zero()
        for routed in per_sibling
    ]


COSTS = {"vector": comm_costs, "scalar": reference_comm_costs}


def setup(grid_shape=(8, 8), torus_dims=(4, 4, 4), rpn=1):
    grid = ProcessGrid(*grid_shape)
    torus = Torus3D(torus_dims)
    placement = ObliviousMapping().place(grid, SlotSpace(torus, rpn))
    return grid, torus, placement.vector


@pytest.mark.parametrize("engine", ENGINES)
def test_single_rank_zero_either_engine(engine):
    grid, torus, nodes = setup()
    costs = COSTS[engine](
        grid, [GridRect(0, 0, 1, 1)], [(100, 100)], torus, nodes, BLUE_GENE_L, WL
    )
    assert costs == [CommCost.zero()]


def test_engines_agree_on_halo_cost():
    grid, torus, nodes = setup(rpn=1)
    costs = {
        engine: costs_of(
            grid, [grid.full_rect()], [(415, 445)], torus, nodes, BLUE_GENE_L, WL
        )
        for engine, costs_of in COSTS.items()
    }
    assert costs["vector"] == costs["scalar"]


def test_engines_agree_on_concurrent_costs():
    grid, torus, nodes = setup()
    rects = [GridRect(0, 0, 4, 8), GridRect(4, 0, 4, 8)]
    domains = [(200, 200), (300, 250)]
    results = {
        engine: costs_of(grid, rects, domains, torus, nodes, BLUE_GENE_L, WL)
        for engine, costs_of in COSTS.items()
    }
    assert results["vector"] == results["scalar"]
