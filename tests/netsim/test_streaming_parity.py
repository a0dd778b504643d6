"""Hypothesis parity: streaming/sparse routing vs one-shot dense vs reference.

The streaming engine's whole claim is *bit-identicality*: chunked
expansion under any ``max_expand_hops``, sparse accumulation, and the
one-shot dense path must produce the same per-link loads, the same
round estimate, and the same route-cache digests. These suites drive all
of that against random exchanges, plus the overflow guards at the dtype
boundaries (>2^31 widens, never wraps; >=2^53 raises).

Cases are drawn as coordinate tuples and :class:`HaloMessage` lists (the
reference simulator's form); the engine gets the same exchange as an
``(N, 3)`` node array and a ``HaloBatch``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netsim.engine import (
    EXACT_BYTES_LIMIT,
    VECTOR,
    LinkLoadVector,
    reset_route_cache,
    route_cache_stats,
    route_exchange_streamed,
)
from repro.topology.machines import BLUE_GENE_L
from repro.topology.torus import Torus3D
from repro.verify.reference import netsim as ref_netsim
from repro.verify.reference.halo import HaloMessage, from_messages


def streamed(torus, nodes, msgs, **kwargs):
    """:func:`route_exchange_streamed` on the production form of a case."""
    placed = np.asarray(nodes, dtype=np.int64).reshape(len(nodes), 3)
    return route_exchange_streamed(torus, placed, from_messages(msgs), **kwargs)


def cached_route(torus, nodes, msgs):
    """The cached production route of a case."""
    placed = np.asarray(nodes, dtype=np.int64).reshape(len(nodes), 3)
    return VECTOR.route_exchange(torus, placed, from_messages(msgs))


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
    """The dense one-shot result (hop limit beyond any case)."""
    return streamed(torus, nodes, msgs, max_expand_hops=10**9, sparse=False)


@given(exchange_case(), st.integers(1, 40), st.booleans())
@settings(max_examples=200, deadline=None)
def test_streamed_loads_bit_identical(case, max_hops, sparse):
    torus, nodes, msgs = case
    _, ref_loads = one_shot(torus, nodes, msgs)
    routed, loads = streamed(
        torus, nodes, msgs, max_expand_hops=max_hops, sparse=sparse
    )
    assert loads.is_sparse == sparse
    assert np.array_equal(loads.array, ref_loads.array)
    assert loads.max_load() == ref_loads.max_load()
    assert loads.total_bytes() == ref_loads.total_bytes()
    assert loads.num_loaded_links() == ref_loads.num_loaded_links()
    assert loads.as_dict() == ref_loads.as_dict()


@given(exchange_case(), st.integers(1, 40), st.booleans())
@settings(max_examples=150, deadline=None)
def test_streamed_round_estimate_bit_identical(case, max_hops, sparse):
    torus, nodes, msgs = case
    ref_routed, ref_loads = one_shot(torus, nodes, msgs)
    ref = VECTOR.round_estimate(ref_routed, ref_loads, BLUE_GENE_L)
    routed, loads = streamed(
        torus, nodes, msgs, max_expand_hops=max_hops, sparse=sparse
    )
    assert VECTOR.round_estimate(routed, loads, BLUE_GENE_L) == ref


@given(exchange_case(), st.integers(1, 40), st.booleans())
@settings(max_examples=100, deadline=None)
def test_streamed_matches_scalar_oracle(case, max_hops, sparse):
    torus, nodes, msgs = case
    routed_s, loads_s = ref_netsim.route_messages(torus, nodes, msgs)
    routed, loads = streamed(
        torus, nodes, msgs, max_expand_hops=max_hops, sparse=sparse
    )
    assert loads.as_dict() == dict(loads_s.items())
    est_s = ref_netsim.round_time(routed_s, loads_s, BLUE_GENE_L)
    assert est_s == VECTOR.round_estimate(routed, loads, BLUE_GENE_L)
    for i, scalar_msg in enumerate(routed_s):
        assert routed.message_links(i) == list(scalar_msg.links)


@given(exchange_case(), st.integers(1, 20))
@settings(max_examples=100, deadline=None)
def test_streamed_chunk_iteration_consistent(case, max_hops):
    """iter_link_chunks re-expansion equals the stored one-shot arrays."""
    torus, nodes, msgs = case
    ref, _ = one_shot(torus, nodes, msgs)
    routed, _ = streamed(torus, nodes, msgs, max_expand_hops=max_hops, sparse=False)
    chunks = list(routed.iter_link_chunks())
    ids = np.concatenate([c[3] for c in chunks]) if chunks else np.zeros(0)
    assert np.array_equal(ids, ref.pair_link_ids)
    # Chunk boundaries tile the pair range exactly.
    assert chunks[0][0] == 0
    assert chunks[-1][1] == len(routed.pair_hops)
    for (_, hi_a, _, _), (lo_b, _, _, _) in zip(chunks, chunks[1:]):
        assert hi_a == lo_b


@pytest.mark.parametrize("backend", ["vector", "scalar"])
def test_round_time_identical_under_either_backend(backend):
    """The engine's routed loads price like the reference's under either
    pricing backend: the array ``round_estimate`` ("vector") or the
    reference message loop over the engine's ``LinkLoadVector``
    ("scalar")."""
    torus = Torus3D((3, 3, 2))
    nodes = [torus.coord_of(i % torus.num_nodes) for i in range(12)]
    msgs = [HaloMessage(i, (i * 5 + 1) % 12, 1000 + i) for i in range(12)]
    reset_route_cache()
    routed_v, loads_v = cached_route(torus, nodes, msgs)
    ref_r, ref_l = ref_netsim.route_messages(torus, nodes, msgs)
    if backend == "vector":
        est = VECTOR.round_estimate(routed_v, loads_v, BLUE_GENE_L)
    else:
        est = ref_netsim.round_time(ref_r, loads_v, BLUE_GENE_L)
    assert est == ref_netsim.round_time(ref_r, ref_l, BLUE_GENE_L)


# ----------------------------------------------------------------------
# Route-cache digests
# ----------------------------------------------------------------------
def test_budget_env_does_not_change_cache_digest(monkeypatch):
    """Streaming knobs change representation, never cache identity."""
    torus = Torus3D((4, 4, 2))
    nodes = [torus.coord_of(i % torus.num_nodes) for i in range(16)]
    msgs = [HaloMessage(i, (i + 5) % 16, 4096) for i in range(16)]
    reset_route_cache()
    cached_route(torus, nodes, msgs)
    monkeypatch.setenv("REPRO_NETSIM_MEM_MB", "1")
    monkeypatch.setenv("REPRO_NETSIM_SPARSE", "always")
    cached_route(torus, nodes, msgs)
    stats = route_cache_stats()
    assert (stats.hits, stats.misses) == (1, 1)


# ----------------------------------------------------------------------
# Dtype boundaries and overflow guards
# ----------------------------------------------------------------------
def test_loads_above_int32_widen_never_wrap():
    torus = Torus3D((2, 1, 1))
    nodes = [torus.coord_of(0), torus.coord_of(1)]
    big = 2**32 + 17  # far past int32, exact in int64 and float64
    msgs = [HaloMessage(0, 1, big)]
    for sparse in (False, True):
        _, loads = streamed(torus, nodes, msgs, max_expand_hops=1, sparse=sparse)
        assert loads.max_load() == big
        assert loads.total_bytes() == big
        assert loads.array.dtype == np.int64


def test_loads_at_exact_limit_raise():
    torus = Torus3D((2, 1, 1))
    nodes = [torus.coord_of(0), torus.coord_of(1)]
    msgs = [HaloMessage(0, 1, EXACT_BYTES_LIMIT)]
    with pytest.raises(OverflowError, match="2\\*\\*53"):
        cached_route(torus, nodes, msgs)
    with pytest.raises(OverflowError):
        streamed(torus, nodes, msgs, max_expand_hops=1, sparse=True)


def test_loads_just_below_exact_limit_pass():
    torus = Torus3D((2, 1, 1))
    nodes = [torus.coord_of(0), torus.coord_of(1)]
    msgs = [HaloMessage(0, 1, EXACT_BYTES_LIMIT - 1)]
    reset_route_cache()
    _, loads = cached_route(torus, nodes, msgs)
    assert loads.max_load() == EXACT_BYTES_LIMIT - 1


def test_index_columns_are_narrow():
    """Dtype audit: retained index columns are int32 on small tori."""
    torus = Torus3D((3, 3, 3))
    nodes = [torus.coord_of(i % torus.num_nodes) for i in range(9)]
    msgs = [HaloMessage(i, (i + 2) % 9, 100) for i in range(9)]
    reset_route_cache()
    exchange, _ = cached_route(torus, nodes, msgs)
    assert exchange.hops.dtype == np.int32
    assert exchange.pair_inverse.dtype == np.int32
    assert exchange.pair_hops.dtype == np.int32
    assert exchange.pair_link_ids.dtype == np.int32
    # Byte columns stay int64.
    assert exchange.nbytes.dtype == np.int64


# ----------------------------------------------------------------------
# Sparse representation behaviour
# ----------------------------------------------------------------------
def test_sparse_dense_merge_mixed():
    torus = Torus3D((2, 2, 2))
    nodes = [torus.coord_of(i) for i in range(8)]
    msgs_a = [HaloMessage(0, 3, 100)]
    msgs_b = [HaloMessage(1, 6, 250)]
    _, dense_a = streamed(torus, nodes, msgs_a, sparse=False)
    _, sparse_b = streamed(torus, nodes, msgs_b, sparse=True)
    _, dense_b = streamed(torus, nodes, msgs_b, sparse=False)

    merged_dense = LinkLoadVector(torus)
    merged_dense.merge(dense_a)
    merged_dense.merge(dense_b)

    merged_mixed = LinkLoadVector.empty(torus, sparse=True)
    merged_mixed.merge(sparse_b)
    merged_mixed.merge(dense_a)  # representation flip: densify

    assert np.array_equal(merged_mixed.array, merged_dense.array)
    assert merged_mixed.total_bytes() == merged_dense.total_bytes()


def test_sparse_lookup_missing_links_are_zero():
    torus = Torus3D((4, 1, 1))
    loads = LinkLoadVector.from_link_totals(
        torus, np.asarray([2, 7], dtype=np.int64), np.asarray([10, 20], dtype=np.int64)
    )
    out = loads.lookup(np.asarray([0, 2, 5, 7, 23], dtype=np.int64))
    assert out.tolist() == [0, 10, 0, 20, 0]
    empty = LinkLoadVector.empty(torus, sparse=True)
    assert empty.lookup(np.asarray([3, 4], dtype=np.int64)).tolist() == [0, 0]
    assert empty.max_load() == 0 and empty.total_bytes() == 0
