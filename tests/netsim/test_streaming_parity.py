"""Hypothesis parity: routes built in passes vs one pass vs reference.

The memory budget splits route expansion into passes of at most
``max_expand_hops`` hops, and its whole claim is *bit-identicality*: at
any limit the engine must store the same routes and produce the same
per-link loads and round estimate as one pass, and the budget must never
change a route-cache key. These suites drive all of that against random
exchanges, plus the overflow guards at the dtype boundaries (>2^31
widens, never wraps; >=2^53 raises).

Cases are drawn as coordinate tuples and :class:`HaloMessage` lists (the
reference simulator's form); the engine gets the same exchange as a
``PlacementVector`` and a ``HaloBatch``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netsim.engine import (
    EXACT_BYTES_LIMIT,
    VECTOR,
    PlacementVector,
    reset_route_cache,
    route_batch,
    route_cache_stats,
)
from repro.runtime.halo import HaloSpec
from repro.runtime.process_grid import GridRect, ProcessGrid
from repro.topology.machines import BLUE_GENE_L
from repro.topology.torus import Torus3D
from repro.verify.reference import netsim as ref_netsim
from repro.verify.reference.halo import HaloMessage, from_messages


def placed(torus, nodes):
    """The engine's placement form of per-rank node coordinates."""
    return PlacementVector(
        torus, np.asarray(nodes, dtype=np.int64).reshape(len(nodes), 3)
    )


def streamed(torus, nodes, msgs, **kwargs):
    """:func:`route_batch` on the production form of a case."""
    return route_batch(torus, placed(torus, nodes), from_messages(msgs), **kwargs)


@st.composite
def exchange_case(draw):
    """A random (torus, placement, message set) triple."""
    dims = (
        draw(st.integers(1, 5)),
        draw(st.integers(1, 5)),
        draw(st.integers(1, 6)),
    )
    torus = Torus3D(dims)
    n_ranks = draw(st.integers(1, 16))
    nodes = [
        torus.coord_of(r)
        for r in draw(
            st.lists(
                st.integers(0, torus.num_nodes - 1),
                min_size=n_ranks,
                max_size=n_ranks,
            )
        )
    ]
    rank = st.integers(0, n_ranks - 1)
    msgs = draw(
        st.lists(
            st.builds(HaloMessage, rank, rank, st.integers(1, 10**6)),
            min_size=0,
            max_size=24,
        )
    )
    return torus, nodes, msgs


def one_shot(torus, nodes, msgs):
    """The one-pass result (hop limit beyond any case)."""
    return streamed(torus, nodes, msgs, max_expand_hops=10**9)


@given(exchange_case(), st.integers(1, 40))
@settings(max_examples=200, deadline=None)
def test_streamed_loads_bit_identical(case, max_hops):
    torus, nodes, msgs = case
    _, ref_loads = one_shot(torus, nodes, msgs)
    routed, loads = streamed(torus, nodes, msgs, max_expand_hops=max_hops)
    assert np.array_equal(loads.array, ref_loads.array)
    assert loads.max_load() == ref_loads.max_load()
    assert loads.total_bytes() == ref_loads.total_bytes()
    assert loads.num_loaded_links() == ref_loads.num_loaded_links()
    assert loads.as_dict() == ref_loads.as_dict()


@given(exchange_case(), st.integers(1, 40))
@settings(max_examples=150, deadline=None)
def test_streamed_round_estimate_bit_identical(case, max_hops):
    torus, nodes, msgs = case
    ref_routed, ref_loads = one_shot(torus, nodes, msgs)
    ref = VECTOR.round_estimate(ref_routed, ref_loads, BLUE_GENE_L)
    routed, loads = streamed(torus, nodes, msgs, max_expand_hops=max_hops)
    assert VECTOR.round_estimate(routed, loads, BLUE_GENE_L) == ref


@given(exchange_case(), st.integers(1, 40))
@settings(max_examples=100, deadline=None)
def test_streamed_matches_scalar_oracle(case, max_hops):
    torus, nodes, msgs = case
    routed_s, loads_s = ref_netsim.route_messages(torus, nodes, msgs)
    routed, loads = streamed(torus, nodes, msgs, max_expand_hops=max_hops)
    assert loads.as_dict() == dict(loads_s.items())
    est_s = ref_netsim.round_time(routed_s, loads_s, BLUE_GENE_L)
    assert est_s == VECTOR.round_estimate(routed, loads, BLUE_GENE_L)
    for i, scalar_msg in enumerate(routed_s):
        assert routed.message_links(i) == list(scalar_msg.links)


def greedy_passes(pair_hops, limit):
    """Passes of a greedy packing: a pair opens a new pass when it would
    take a non-empty pass past *limit* hops."""
    passes, pairs, used = 1, 0, 0
    for h in pair_hops.tolist():
        if pairs and used + h > limit:
            passes, pairs, used = passes + 1, 0, 0
        pairs, used = pairs + 1, used + h
    return passes


@given(exchange_case(), st.data())
@settings(max_examples=100, deadline=None)
def test_passes_store_the_one_pass_routes(case, data):
    """At any limit from 1 hop up to one pass, the stored routes equal
    the one-pass arrays, built in the greedy number of passes."""
    torus, nodes, msgs = case
    ref, _ = one_shot(torus, nodes, msgs)
    total = int(ref.pair_hops.sum())
    max_hops = data.draw(st.integers(1, max(1, total)), label="max_hops")
    routed, _ = streamed(torus, nodes, msgs, max_expand_hops=max_hops)
    assert ref.num_chunks == 1
    assert np.array_equal(routed.pair_starts, ref.pair_starts)
    assert np.array_equal(routed.pair_link_ids, ref.pair_link_ids)
    assert routed.pair_link_ids.dtype == ref.pair_link_ids.dtype
    assert routed.num_chunks == greedy_passes(routed.pair_hops, max_hops)


@pytest.mark.parametrize("backend", ["vector", "scalar"])
def test_round_time_identical_under_either_backend(backend):
    """The engine's routed loads price like the reference's under either
    pricing backend: the array ``round_estimate`` ("vector") or the
    reference message loop over the engine's ``LinkLoadVector``
    ("scalar")."""
    torus = Torus3D((3, 3, 2))
    nodes = [torus.coord_of(i % torus.num_nodes) for i in range(12)]
    msgs = [HaloMessage(i, (i * 5 + 1) % 12, 1000 + i) for i in range(12)]
    routed_v, loads_v = streamed(torus, nodes, msgs)
    ref_r, ref_l = ref_netsim.route_messages(torus, nodes, msgs)
    if backend == "vector":
        est = VECTOR.round_estimate(routed_v, loads_v, BLUE_GENE_L)
    else:
        est = ref_netsim.round_time(ref_r, loads_v, BLUE_GENE_L)
    assert est == ref_netsim.round_time(ref_r, ref_l, BLUE_GENE_L)


# ----------------------------------------------------------------------
# Route-cache keys
# ----------------------------------------------------------------------
def test_budget_env_does_not_change_cache_digest(monkeypatch):
    """The memory budget changes how routes expand, never cache identity."""
    torus = Torus3D((4, 4, 2))
    nodes = placed(torus, [torus.coord_of(i % torus.num_nodes) for i in range(16)])
    exchanges = ((GridRect(0, 0, 4, 4), 64, 48),)

    def lookup():
        return VECTOR.route_exchange(
            torus, nodes, ProcessGrid(4, 4), exchanges, HaloSpec(), BLUE_GENE_L
        )

    reset_route_cache()
    first = lookup()
    monkeypatch.setenv("REPRO_NETSIM_MEM_MB", "1")
    assert lookup() is first
    stats = route_cache_stats()
    assert (stats.hits, stats.misses) == (1, 1)
    reset_route_cache()


# ----------------------------------------------------------------------
# Dtype boundaries and overflow guards
# ----------------------------------------------------------------------
def test_loads_above_int32_widen_never_wrap():
    torus = Torus3D((2, 1, 1))
    nodes = [torus.coord_of(0), torus.coord_of(1)]
    big = 2**32 + 17  # far past int32, exact in int64 and float64
    msgs = [HaloMessage(0, 1, big)]
    _, loads = streamed(torus, nodes, msgs, max_expand_hops=1)
    assert loads.max_load() == big
    assert loads.total_bytes() == big
    assert loads.array.dtype == np.int64


def test_loads_at_exact_limit_raise():
    torus = Torus3D((2, 1, 1))
    nodes = [torus.coord_of(0), torus.coord_of(1)]
    msgs = [HaloMessage(0, 1, EXACT_BYTES_LIMIT)]
    with pytest.raises(OverflowError, match="2\\*\\*53"):
        streamed(torus, nodes, msgs)
    with pytest.raises(OverflowError):
        streamed(torus, nodes, msgs, max_expand_hops=1)


def test_loads_just_below_exact_limit_pass():
    torus = Torus3D((2, 1, 1))
    nodes = [torus.coord_of(0), torus.coord_of(1)]
    msgs = [HaloMessage(0, 1, EXACT_BYTES_LIMIT - 1)]
    _, loads = streamed(torus, nodes, msgs)
    assert loads.max_load() == EXACT_BYTES_LIMIT - 1


def test_index_columns_are_narrow():
    """Dtype audit: retained index columns are int32 on small tori."""
    torus = Torus3D((3, 3, 3))
    nodes = [torus.coord_of(i % torus.num_nodes) for i in range(9)]
    msgs = [HaloMessage(i, (i + 2) % 9, 100) for i in range(9)]
    exchange, _ = streamed(torus, nodes, msgs)
    assert exchange.hops.dtype == np.int32
    assert exchange.pair_inverse.dtype == np.int32
    assert exchange.pair_hops.dtype == np.int32
    assert exchange.pair_link_ids.dtype == np.int32
    # Byte columns stay int64.
    assert exchange.nbytes.dtype == np.int64
