"""The route cache keys an exchange set by its structure and caches its prices.

:meth:`~repro.netsim.engine.VectorBackend.route_exchange` looks a set of
concurrent halo exchanges up by ``(torus dims, placement digest, grid
width, ((rect, nx, ny), ...), HaloSpec, pricing constants)``. Changing
any one key field alone must miss, and the miss must price every member
exactly as a cold recomputation (each member routed on its own, loads
summed in ``int64``, each member priced against the sum) and as the
reference simulator do. A hit must build, route and price nothing.
"""

import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.mapping.base import SlotSpace
from repro.core.mapping.oblivious import ObliviousMapping
from repro.netsim import engine
from repro.netsim.engine import (
    VECTOR,
    LinkLoadVector,
    PlacementVector,
    VectorBackend,
    reset_route_cache,
    route_batch,
    route_cache_stats,
)
from repro.perfsim.commcost import CommCost, comm_costs
from repro.perfsim.params import WorkloadParams
from repro.runtime.halo import HaloSpec, halo_batch
from repro.runtime.process_grid import GridRect, ProcessGrid
from repro.topology.machines import BLUE_GENE_L
from repro.topology.torus import Torus3D
from tests.perfsim.test_engine_regression import _cost, reference_comm_costs

GRID = ProcessGrid(8, 8)
TORUS = Torus3D((4, 4, 4))
RECTS = (GridRect(0, 0, 4, 4), GridRect(4, 0, 4, 4))
DOMAINS = ((200, 200), (300, 250))
SPEC = HaloSpec()
MACHINE = BLUE_GENE_L


def oblivious(grid, torus, rpn=1):
    return ObliviousMapping().place(grid, SlotSpace(torus, rpn)).vector


#: Ranks scattered over the torus, so that routes wrap around the rings.
PLACEMENT = PlacementVector(
    TORUS, oblivious(GRID, TORUS).coords[np.random.default_rng(0).permutation(64)]
)


@pytest.fixture(autouse=True)
def fresh_cache():
    reset_route_cache()
    yield
    reset_route_cache()


def cold_costs(grid, rects, domains, torus, placement, machine, spec):
    """Each member routed alone, loads summed in int64, each priced on the sum."""
    routed = [
        route_batch(torus, placement, halo_batch(grid, rect, nx, ny, spec))
        for rect, (nx, ny) in zip(rects, domains)
    ]
    total = LinkLoadVector(torus, sum(loads.array for _, loads in routed))
    return [
        _cost(VECTOR.round_estimate(exchange, total, machine), spec.rounds_per_step)
        for exchange, _ in routed
    ]


def priced(grid=GRID, rects=RECTS, domains=DOMAINS, torus=TORUS,
           placement=PLACEMENT, machine=MACHINE, spec=SPEC):
    """``comm_costs`` of one set, checked against both recomputations."""
    workload = WorkloadParams(halo=spec)
    costs = comm_costs(grid, rects, domains, torus, placement, machine, workload)
    assert costs == cold_costs(grid, rects, domains, torus, placement, machine, spec)
    assert costs == reference_comm_costs(
        grid, rects, domains, torus, placement, machine, workload
    )
    return costs


def _moved(rect, **change):
    return (dataclasses.replace(rect, **change), RECTS[1])


VARIANTS = {
    "px": dict(grid=ProcessGrid(16, 4)),
    # Origin-only moves: x0=1 overlaps the second member by one column,
    # which pricing does not mind.
    "rect.x0": dict(rects=_moved(RECTS[0], x0=1)),
    "rect.y0": dict(rects=_moved(RECTS[0], y0=1)),
    "rect.width": dict(rects=_moved(RECTS[0], width=3)),
    "rect.height": dict(rects=_moved(RECTS[0], height=3)),
    "nx": dict(domains=((201, 200), DOMAINS[1])),
    "ny": dict(domains=((200, 201), DOMAINS[1])),
    "spec.width": dict(spec=HaloSpec(width=2)),
    "spec.levels": dict(spec=HaloSpec(levels=40)),
    "spec.bytes_per_value": dict(spec=HaloSpec(bytes_per_value=4)),
    "spec.rounds_per_step": dict(spec=HaloSpec(rounds_per_step=72)),
    "machine.software_latency": dict(
        machine=dataclasses.replace(MACHINE, software_latency=2e-5)
    ),
    "machine.per_hop_latency": dict(
        machine=dataclasses.replace(MACHINE, per_hop_latency=1e-6)
    ),
    "machine.link_bandwidth": dict(
        machine=dataclasses.replace(MACHINE, link_bandwidth=3.0e8)
    ),
    "placement": dict(placement=oblivious(GRID, TORUS)),
    # The same coordinates on a longer x ring, where a message from x=3
    # to x=0 takes 3 hops instead of 1 wrapped hop. The placement digest
    # is the same: only the torus dims tell the two apart.
    "torus": dict(
        torus=Torus3D((8, 4, 4)),
        placement=PlacementVector(Torus3D((8, 4, 4)), PLACEMENT.coords),
    ),
}


@pytest.mark.parametrize("field", sorted(VARIANTS))
def test_each_key_field_alone_misses(field):
    base = priced()
    assert (route_cache_stats().hits, route_cache_stats().misses) == (0, 1)
    assert priced() == base
    assert (route_cache_stats().hits, route_cache_stats().misses) == (1, 1)

    changed = priced(**VARIANTS[field])
    stats = route_cache_stats()
    assert (stats.hits, stats.misses) == (1, 2)
    assert changed != base
    # The changed set is an entry of its own; the base one still hits.
    assert priced(**VARIANTS[field]) == changed
    assert priced() == base
    assert route_cache_stats().hits == 3


def test_hit_builds_routes_and_prices_nothing(monkeypatch):
    """After warm-up, a concurrent set is served from its entry alone."""
    warm = priced()

    def boom(*args, **kwargs):
        raise AssertionError("a route-cache hit must not reach this layer")

    monkeypatch.setattr(engine, "halo_batch", boom)
    monkeypatch.setattr(VectorBackend, "_route_uncached", boom)
    monkeypatch.setattr(VectorBackend, "round_estimate", boom)
    workload = WorkloadParams(halo=SPEC)
    again = comm_costs(GRID, RECTS, DOMAINS, TORUS, PLACEMENT, MACHINE, workload)
    assert again == warm
    assert route_cache_stats().hits == 1


def test_miss_builds_routes_and_prices_each_member_once(monkeypatch):
    """A miss goes through every layer once per member; a lookup is one get."""
    calls = {"halo": 0, "route": 0, "price": 0}
    real_halo = engine.halo_batch
    real_route = VectorBackend._route_uncached
    real_price = VectorBackend.round_estimate

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(engine, "halo_batch", counting("halo", real_halo))
    monkeypatch.setattr(VectorBackend, "_route_uncached", counting("route", real_route))
    monkeypatch.setattr(VectorBackend, "round_estimate", counting("price", real_price))

    def lookup():
        before = route_cache_stats()
        entry = VECTOR.route_exchange(
            TORUS, PLACEMENT, GRID,
            tuple((r, *d) for r, d in zip(RECTS, DOMAINS)), SPEC, MACHINE,
        )
        after = route_cache_stats()
        assert (after.hits + after.misses) - (before.hits + before.misses) == 1
        return entry

    first = lookup()
    assert calls == {"halo": 2, "route": 1, "price": 2}
    assert lookup() is first
    assert calls == {"halo": 2, "route": 1, "price": 2}
    routed, loads, estimates = first
    assert len(estimates) == 2
    assert routed.num_chunks == 1
    assert routed.member_bounds[-1] == routed.num_messages
    assert not loads.array.flags.writeable


def test_shared_nodes_price_like_members_alone():
    """Siblings whose ranks share nodes price as the cold recomputation."""
    grid = ProcessGrid(8, 4)
    torus = Torus3D((2, 2, 4))
    placement = oblivious(grid, torus, rpn=2)
    rects = (GridRect(0, 0, 3, 4), GridRect(3, 0, 2, 4), GridRect(5, 0, 3, 4))
    domains = ((90, 80), (60, 80), (70, 80))
    priced(grid=grid, rects=rects, domains=domains, torus=torus, placement=placement)


def test_streamed_set_prices_like_one_shot(monkeypatch):
    """Chunks that straddle members price each member exactly."""
    grid = ProcessGrid(32, 16)
    torus = Torus3D((8, 8, 8))
    placement = oblivious(grid, torus)
    rects = (GridRect(0, 0, 16, 16), GridRect(16, 0, 10, 16), GridRect(26, 0, 6, 16))
    domains = ((400, 300), (250, 300), (150, 300))
    exchanges = tuple((r, *d) for r, d in zip(rects, domains))
    one_shot = VECTOR.route_exchange(torus, placement, grid, exchanges, SPEC, MACHINE)
    assert not one_shot[0].streamed

    reset_route_cache()
    monkeypatch.setenv("REPRO_NETSIM_MEM_MB", "0.001")  # the 1024-hop floor
    routed, loads, estimates = VECTOR.route_exchange(
        torus, placement, grid, exchanges, SPEC, MACHINE
    )
    assert routed.streamed and routed.num_chunks > len(rects)
    np.testing.assert_array_equal(loads.array, one_shot[1].array)
    assert estimates == one_shot[2]
    assert [_cost(e, SPEC.rounds_per_step) for e in estimates] == cold_costs(
        grid, rects, domains, torus, placement, MACHINE, SPEC
    )


@st.composite
def exchange_set(draw):
    """A grid, a placement with shared nodes, and 2-4 concurrent members."""
    torus = Torus3D(tuple(draw(st.integers(1, 3)) for _ in range(3)))
    grid = ProcessGrid(draw(st.integers(2, 6)), draw(st.integers(2, 6)))
    # More ranks than nodes on most draws: ranks share nodes, so pairs
    # repeat within a member and across members.
    nodes = draw(
        st.lists(
            st.integers(0, torus.num_nodes - 1),
            min_size=grid.size,
            max_size=grid.size,
        )
    )
    placement = PlacementVector(
        torus, np.array([torus.coord_of(n) for n in nodes], dtype=np.int64)
    )
    members = []
    for _ in range(draw(st.integers(2, 4))):
        # comm_costs passes only members with a neighbour (area > 1).
        w, h = draw(
            st.tuples(st.integers(1, grid.px), st.integers(1, grid.py)).filter(
                lambda wh: wh[0] * wh[1] > 1
            )
        )
        x0 = draw(st.integers(0, grid.px - w))
        y0 = draw(st.integers(0, grid.py - h))
        nx = draw(st.integers(w, 40 * w))
        ny = draw(st.integers(h, 40 * h))
        members.append((GridRect(x0, y0, w, h), nx, ny))
    spec = HaloSpec(width=draw(st.integers(1, 3)), levels=draw(st.integers(1, 40)))
    return torus, grid, placement, tuple(members), spec


@given(exchange_set(), st.integers(1, 24))
@settings(max_examples=150, deadline=None)
def test_set_prices_like_members_routed_alone(case, hop_limit):
    """Any set, streamed at any hop limit, prices like its members alone."""
    torus, grid, placement, exchanges, spec = case
    alone = [
        route_batch(
            torus, placement, halo_batch(grid, rect, nx, ny, spec),
            max_expand_hops=10**9,
        )
        for rect, nx, ny in exchanges
    ]
    total = LinkLoadVector(
        torus, np.sum([loads.array for _, loads in alone], axis=0, dtype=np.int64)
    )
    expected = tuple(
        VECTOR.round_estimate(routed, total, MACHINE) for routed, _ in alone
    )

    reset_route_cache()
    with mock.patch.object(engine, "expansion_hop_limit", lambda: hop_limit):
        routed, loads, estimates = VECTOR.route_exchange(
            torus, placement, grid, exchanges, spec, MACHINE
        )
    assert route_cache_stats().misses == 1
    assert estimates == expected
    np.testing.assert_array_equal(loads.array, total.array)
    assert routed.member_bounds == tuple(
        np.cumsum([0] + [len(r) for r, _ in alone]).tolist()
    )
    # Pairs are deduplicated within a member, so the set expands exactly
    # its members' pair hops.
    set_hops = sum(int(r.pair_hops.sum()) for r, _ in alone)
    assert routed.streamed == (set_hops > hop_limit)


def test_one_rank_member_is_free_and_unkeyed():
    """A one-rank sub-grid costs zero and does not join the set's key."""
    workload = WorkloadParams(halo=SPEC)
    lone = comm_costs(GRID, RECTS[:1], DOMAINS[:1], TORUS, PLACEMENT, MACHINE, workload)
    with_idle = comm_costs(
        GRID, (RECTS[0], GridRect(7, 7, 1, 1)), (DOMAINS[0], (10, 10)),
        TORUS, PLACEMENT, MACHINE, workload,
    )
    assert with_idle == [lone[0], CommCost.zero()]
    assert (route_cache_stats().hits, route_cache_stats().misses) == (1, 1)


def test_torus_variant_keeps_the_placement_digest():
    """The torus variant's miss comes from the dims, not the digest."""
    assert VARIANTS["torus"]["placement"].digest == PLACEMENT.digest
