"""Vectorized torus network engine.

The reference simulator (:mod:`repro.verify.reference.netsim`) routes
every halo message hop-by-hop in Python and accumulates loads in a
per-link dict — O(messages x hops) interpreter work repeated identically
every round, timestep, and sweep configuration. This module is the
production engine: NumPy array kernels, bit-identical to the reference:

* **Dense link ids.** Each directed link is an integer
  ``(node_index * 3 + dim) * 2 + direction_bit`` (``direction_bit`` 0 for
  the positive ring direction, 1 for the negative), so per-link state is a
  flat integer vector of length ``num_nodes * 6`` instead of a dict of
  :class:`~repro.topology.torus.Link` keys.
* **Closed-form routing.** Dimension-ordered routes are computed for the
  whole message set at once: per-dimension direction/hop-count via modular
  ring arithmetic (:func:`repro.topology.routing.ring_steps_array`), then
  expanded to a flat ``(message, link_id)`` array with ``repeat``/
  ``cumsum`` index algebra — no per-hop Python loop.
* **Memory-bounded streaming.** The per-hop expansion is the engine's
  peak working set; it grows with *total hops*, which at 131k+ ranks
  reaches hundreds of megabytes. Exchanges whose expansion would exceed
  the ``REPRO_NETSIM_MEM_MB`` budget (:mod:`repro.netsim.budget`) are
  expanded in bounded pair chunks instead, accumulating link loads
  incrementally — bit-identical to the one-shot path for **any** chunk
  size, because all byte totals are exact integers below ``2**53`` (a
  guard raises :class:`OverflowError` rather than ever letting the
  float64 accumulators round).
* **Sparse link loads.** At high rank counts the dense ``num_nodes * 6``
  load vector itself becomes a liability when only a fraction of links
  carry traffic. :class:`LinkLoadVector` therefore has two
  representations behind one interface: the dense vector, and a sparse
  (sorted unique link ids + totals) form selected by
  ``REPRO_NETSIM_SPARSE`` — identical values either way.
* **Dtype-width audit.** Retained route columns (link ids, hop counts,
  pair indices) are stored as ``int32`` whenever the torus and message
  count allow (guarded, falling back to ``int64`` — never wrapping);
  byte counts stay ``int64`` throughout.
* **Array pricing.** Round link loads come from ``np.bincount``; each
  message's worst-link bytes from a sorted-segment
  ``np.maximum.reduceat``; the round's ``CommEstimate`` from array
  reductions, with the exact floating-point operation order of the
  reference model so results match bit for bit.
* **Route cache.** The identical exchange repeats every round, timestep,
  and sweep config, so routed exchanges are memoised under
  ``(torus dims, placement digest, message-set digest)`` in one
  :class:`~repro.exec.cache.BoundedCache`; eviction is **byte-budgeted**
  (LRU above :func:`repro.netsim.budget.route_cache_budget_bytes`), so
  cache residency scales with the configured memory, not the rank
  count. Counters are exposed via :func:`route_cache_stats`.

The hypothesis suites in ``tests/netsim/test_engine_parity.py`` and
``tests/netsim/test_streaming_parity.py`` compare every path against the
reference simulator and require exact agreement.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple, Union

import numpy as np

from repro.exec.cache import BoundedCache
from repro.netsim.budget import (
    expansion_hop_limit,
    route_cache_budget_bytes,
    sparse_mode,
)
from repro.netsim.contention import CommEstimate
from repro.obs.metrics import counter as _obs_counter
from repro.obs.metrics import gauge as _obs_gauge
from repro.obs.metrics import histogram as _obs_histogram
from repro.runtime.halo import HaloBatch
from repro.topology.routing import ring_steps_array
from repro.topology.torus import Link, Torus3D

__all__ = [
    "LINKS_PER_NODE",
    "EXACT_BYTES_LIMIT",
    "link_id_of",
    "link_of_id",
    "PlacementVector",
    "as_placement",
    "RoutedExchange",
    "LinkLoadVector",
    "VectorBackend",
    "VECTOR",
    "route_exchange_streamed",
    "route_cache_stats",
    "reset_route_cache",
]

#: Directed links encoded per node: 3 dimensions x 2 directions.
LINKS_PER_NODE = 6

#: Largest per-link byte total the engine accumulates exactly: loads run
#: through float64 ``bincount`` accumulators, which represent every
#: integer below ``2**53`` exactly. Totals at or above this raise
#: :class:`OverflowError` instead of silently rounding (the int64
#: representation itself widens far beyond ``2**31`` without wrapping).
EXACT_BYTES_LIMIT = 2**53

# Metrics published into the observability registry. Bound once at import
# (registry resets zero in place, so these references never go stale) and
# updated unconditionally. The route cache mirrors its own counters
# (``netsim.route_cache.*``, see :mod:`repro.exec.cache`).
_MAX_LINK_BYTES = _obs_gauge("netsim.link_load.max_bytes")
#: Streaming fan-out: exchanges that exceeded the one-shot expansion
#: budget, and the bounded chunks they were expanded in.
_STREAMED = _obs_counter("netsim.route_expand.streamed")
_CHUNKS = _obs_counter("netsim.route_expand.chunks")
#: Per routed (cache-miss) exchange: worst-link bytes, power-of-4 buckets.
_LINK_EXTREMES = _obs_histogram(
    "netsim.exchange.max_link_bytes",
    [4 ** k for k in range(2, 16)],
)


# ----------------------------------------------------------------------
# Link id encoding
# ----------------------------------------------------------------------
def link_id_of(torus: Torus3D, link: Link) -> int:
    """Dense integer id of a directed link."""
    node = torus.rank_of(link.src)
    direction_bit = 0 if link.direction == 1 else 1
    return (node * 3 + link.dim) * 2 + direction_bit


def link_of_id(torus: Torus3D, link_id: int) -> Link:
    """Inverse of :func:`link_id_of`."""
    direction_bit = link_id & 1
    dim = (link_id >> 1) % 3
    node = link_id // LINKS_PER_NODE
    return Link(
        src=torus.coord_of(int(node)),
        dim=int(dim),
        direction=1 if direction_bit == 0 else -1,
    )


# ----------------------------------------------------------------------
# Placement vector
# ----------------------------------------------------------------------
class PlacementVector:
    """A rank placement prepared for array routing.

    Holds the per-rank node coordinates as an ``(N, 3)`` ``int64`` array
    (:meth:`~repro.core.mapping.base.Placement.nodes_array`), plus a
    digest of the coordinate bytes that keys the route cache. Build one
    per placement (``simulate_iteration`` does) so the digest is shared by
    the parent and every sibling exchange.
    """

    __slots__ = ("torus", "coords", "node_ranks", "digest")

    def __init__(self, torus: Torus3D, nodes: np.ndarray):
        self.torus = torus
        self.coords = np.ascontiguousarray(nodes, dtype=np.int64).reshape(
            len(nodes), 3
        )
        x_dim, y_dim, _ = torus.dims
        self.node_ranks = self.coords[:, 0] + x_dim * (
            self.coords[:, 1] + y_dim * self.coords[:, 2]
        )
        self.digest = hashlib.blake2b(
            self.coords.tobytes(), digest_size=16
        ).digest()

    def __len__(self) -> int:
        return len(self.coords)


PlacementLike = Union[PlacementVector, np.ndarray]


def as_placement(torus: Torus3D, nodes: PlacementLike) -> PlacementVector:
    """Wrap *nodes* for the engine (pass-through if already wrapped)."""
    if isinstance(nodes, PlacementVector):
        return nodes
    return PlacementVector(torus, nodes)


# ----------------------------------------------------------------------
# Link loads: one interface, dense or sparse representation
# ----------------------------------------------------------------------
def _merge_sparse(
    a_ids: np.ndarray, a_vals: np.ndarray, b_ids: np.ndarray, b_vals: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Add two (sorted unique ids, int64 totals) load sets exactly."""
    ids = np.concatenate([a_ids, b_ids])
    vals = np.concatenate([a_vals, b_vals])
    uniq, inverse = np.unique(ids, return_inverse=True)
    out = np.zeros(len(uniq), dtype=np.int64)
    # int64 scatter-add: exact at any magnitude the guard admits.
    np.add.at(out, inverse, vals)
    return uniq, out


class LinkLoadVector:
    """Accumulated bytes per directed link.

    Mirrors the reference :class:`~repro.verify.reference.netsim.LinkLoads`
    API so parity tests can compare the two directly. Two representations
    live behind the one interface:

    * **dense** — a flat ``int64`` vector indexed by the dense link id
      (the original form, default);
    * **sparse** — sorted unique link ids plus their ``int64`` totals,
      selected by ``REPRO_NETSIM_SPARSE`` (see
      :func:`repro.netsim.budget.sparse_mode`) when most of the
      ``num_nodes * 6`` links carry no traffic.

    Every query (``max_load``/``total_bytes``/``merge``/pricing lookups)
    returns identical values on either representation.
    """

    __slots__ = ("torus", "_loads", "_ids")

    def __init__(
        self,
        torus: Torus3D,
        loads: np.ndarray | None = None,
        *,
        link_ids: np.ndarray | None = None,
    ):
        self.torus = torus
        if loads is None:
            loads = np.zeros(torus.num_nodes * LINKS_PER_NODE, dtype=np.int64)
        self._loads = loads
        self._ids = link_ids

    @classmethod
    def empty(cls, torus: Torus3D, *, sparse: bool = False) -> "LinkLoadVector":
        """A zeroed accumulator in the requested representation."""
        if sparse:
            return cls(
                torus,
                np.zeros(0, dtype=np.int64),
                link_ids=np.zeros(0, dtype=np.int64),
            )
        return cls(torus)

    @classmethod
    def from_link_totals(
        cls, torus: Torus3D, link_ids: np.ndarray, totals: np.ndarray
    ) -> "LinkLoadVector":
        """Sparse loads from sorted unique *link_ids* and their totals."""
        return cls(
            torus,
            np.ascontiguousarray(totals, dtype=np.int64),
            link_ids=np.ascontiguousarray(link_ids, dtype=np.int64),
        )

    @property
    def is_sparse(self) -> bool:
        """Whether this accumulator uses the sparse representation."""
        return self._ids is not None

    @property
    def array(self) -> np.ndarray:
        """The dense per-link byte vector (index = dense link id).

        Sparse accumulators materialise it on demand — O(num_links)
        memory, meant for parity tests and small tori, not the 131k-rank
        hot path (pricing goes through :meth:`lookup` instead).
        """
        if self._ids is None:
            return self._loads
        dense = np.zeros(self.torus.num_nodes * LINKS_PER_NODE, dtype=np.int64)
        dense[self._ids] = self._loads
        return dense

    def lookup(self, link_ids: np.ndarray) -> np.ndarray:
        """Per-link byte totals of *link_ids* (0 for untouched links)."""
        if self._ids is None:
            return self._loads[link_ids]
        if not len(self._ids):
            return np.zeros(len(link_ids), dtype=np.int64)
        pos = np.searchsorted(self._ids, link_ids)
        pos = np.minimum(pos, len(self._ids) - 1)
        found = self._ids[pos] == link_ids
        return np.where(found, self._loads[pos], 0)

    def load(self, link: Link) -> int:
        """Bytes accumulated on *link*."""
        lid = link_id_of(self.torus, link)
        if self._ids is None:
            return int(self._loads[lid])
        return int(self.lookup(np.asarray([lid], dtype=np.int64))[0])

    def max_load(self) -> int:
        """The heaviest link's byte count (0 when no traffic)."""
        return int(self._loads.max(initial=0))

    def total_bytes(self) -> int:
        """Total link-byte volume (equals hop-bytes of the message set)."""
        return int(self._loads.sum())

    def num_loaded_links(self) -> int:
        """Number of links that carried any traffic."""
        return int(np.count_nonzero(self._loads))

    def items(self):
        """Iterate ``(link, bytes)`` pairs over loaded links."""
        if self._ids is None:
            for lid in np.flatnonzero(self._loads):
                yield link_of_id(self.torus, int(lid)), int(self._loads[lid])
            return
        for lid, val in zip(self._ids.tolist(), self._loads.tolist()):
            if val:
                yield link_of_id(self.torus, lid), val

    def as_dict(self) -> dict[Link, int]:
        """Loaded links as a dict (parity-test convenience)."""
        return dict(self.items())

    def merge(self, other: "LinkLoadVector") -> None:
        """Accumulate another load set into this one (concurrent traffic)."""
        if self._ids is None and other._ids is None:
            self._loads = self._loads + other._loads
        elif self._ids is not None and other._ids is not None:
            self._ids, self._loads = _merge_sparse(
                self._ids, self._loads, other._ids, other._loads
            )
        else:
            # Mixed representations (the sparse switch changed between
            # exchanges): fall back to the dense sum.
            dense = self.array + other.array
            self._ids = None
            self._loads = dense

    @property
    def resident_nbytes(self) -> int:
        """Bytes this accumulator keeps resident (cache accounting)."""
        total = self._loads.nbytes
        if self._ids is not None:
            total += self._ids.nbytes
        return total

    def __len__(self) -> int:
        return self.num_loaded_links()


# ----------------------------------------------------------------------
# The array routing kernel
# ----------------------------------------------------------------------
def _coords_of_ranks(dims: tuple[int, int, int], ranks: np.ndarray) -> np.ndarray:
    """Decode linear node ranks to ``(N, 3)`` coordinates (x fastest)."""
    x_dim, y_dim, _ = dims
    out = np.empty((len(ranks), 3), dtype=np.int64)
    out[:, 0] = ranks % x_dim
    out[:, 1] = (ranks // x_dim) % y_dim
    out[:, 2] = ranks // (x_dim * y_dim)
    return out


def _expand_links(
    dims: tuple[int, int, int],
    src_c: np.ndarray,
    dst_c: np.ndarray,
    step: np.ndarray,
    count: np.ndarray,
    hops: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Fully expand the routes of one pair slice.

    Returns ``(starts, link_ids)`` where ``starts`` is the exclusive
    prefix sum of *hops* (length ``len(src_c) + 1``) and ``link_ids`` the
    concatenated dense link ids (dimension order, hop order preserved).
    The geometry (``step``/``count`` from
    :func:`~repro.topology.routing.ring_steps_array`) is passed in so
    streaming callers compute it once per exchange, not once per chunk.
    """
    m = len(src_c)
    starts = np.zeros(m + 1, dtype=np.int64)
    np.cumsum(hops, out=starts[1:])
    total = int(starts[-1])
    if total == 0:
        return starts, np.zeros(0, dtype=np.int64)

    # Flat hop index algebra: msg[f] is the pair of flat hop f and t[f]
    # its position within that pair's route.
    msg = np.repeat(np.arange(m, dtype=np.int64), hops)
    t = np.arange(total, dtype=np.int64) - np.repeat(starts[:-1], hops)

    # Which dimension is being traversed at hop t (routes go x, y, z).
    c0 = count[msg, 0]
    c01 = c0 + count[msg, 1]
    dim_sel = (t >= c0).astype(np.int64) + (t >= c01)
    # Hop index within the selected dimension's run.
    j = t - np.where(dim_sel >= 1, c0, 0) - np.where(dim_sel == 2, count[msg, 1], 0)

    # Source node of each hop: dimensions before the selected one are
    # already at the destination, later ones still at the source.
    x_dim, y_dim, z_dim = (int(d) for d in dims)
    x = np.where(
        dim_sel == 0, (src_c[msg, 0] + j * step[msg, 0]) % x_dim, dst_c[msg, 0]
    )
    y = np.where(
        dim_sel == 0,
        src_c[msg, 1],
        np.where(
            dim_sel == 1, (src_c[msg, 1] + j * step[msg, 1]) % y_dim, dst_c[msg, 1]
        ),
    )
    z = np.where(dim_sel == 2, (src_c[msg, 2] + j * step[msg, 2]) % z_dim, src_c[msg, 2])

    node = x + x_dim * (y + y_dim * z)
    direction_bit = (step[msg, dim_sel] < 0).astype(np.int64)
    link_ids = (node * 3 + dim_sel) * 2 + direction_bit
    return starts, link_ids


def _route_arrays(
    dims: tuple[int, int, int], src_c: np.ndarray, dst_c: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Dimension-ordered routes of a pair set, fully expanded.

    Returns ``(hops, starts, link_ids)``; used for one-shot expansion and
    for decoding single routes of streamed exchanges.
    """
    dims_a = np.asarray(dims, dtype=np.int64)
    step, count = ring_steps_array(src_c, dst_c, dims_a)  # (M, 3) each
    hops = count.sum(axis=1)
    starts, link_ids = _expand_links(dims, src_c, dst_c, step, count, hops)
    return hops, starts, link_ids


def _chunk_bounds(pair_hops: np.ndarray, hop_limit: int) -> np.ndarray:
    """Pair-index boundaries of chunks of at most *hop_limit* total hops.

    Greedy and deterministic: every chunk holds at least one pair (a
    single pair's route is never split), so the plan is a pure function
    of ``(pair_hops, hop_limit)`` and link-load accumulation over the
    chunks is bit-identical to the one-shot expansion for any limit.
    """
    cum = np.cumsum(pair_hops, dtype=np.int64)
    n = len(pair_hops)
    bounds = [0]
    start = 0
    base = 0
    while start < n:
        end = int(np.searchsorted(cum, base + hop_limit, side="right"))
        if end <= start:
            end = start + 1
        bounds.append(end)
        base = int(cum[end - 1])
        start = end
    return np.asarray(bounds, dtype=np.int64)


def _freeze(*arrays: Optional[np.ndarray]) -> None:
    for a in arrays:
        if a is not None:
            a.flags.writeable = False


# ----------------------------------------------------------------------
# Routed exchange (array form, one-shot or streamed)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RoutedExchange:
    """One exchange round routed in array form.

    Routes are stored per *unique* ``(src node, dst node)`` pair — with
    several ranks per node, many messages share a pair, so routing work
    and storage shrink accordingly. Message *i* uses the route of pair
    ``pair_inverse[i]``.

    Two storage forms share this type:

    * **one-shot** — ``pair_link_ids`` holds every route's dense link
      ids; pair *p*'s route is the slice
      ``pair_link_ids[pair_starts[p]:pair_starts[p + 1]]``.
    * **streamed** — the expansion exceeded the memory budget, so
      ``pair_link_ids``/``pair_starts`` are ``None`` and routes are
      re-expanded in bounded chunks (``chunk_bounds`` pair boundaries)
      from the stored pair coordinates whenever pricing needs them
      (:meth:`iter_link_chunks`).

    All arrays are read-only: routed exchanges live in the route cache
    and are shared between callers.
    """

    torus: Torus3D
    src_ranks: np.ndarray
    dst_ranks: np.ndarray
    nbytes: np.ndarray
    #: Per-message route length (== torus distance of its node pair).
    hops: np.ndarray
    #: Per-message index into the unique-pair arrays.
    pair_inverse: np.ndarray
    pair_hops: np.ndarray
    #: Unique-pair endpoint coordinates, ``(U, 3)`` each.
    pair_src: np.ndarray
    pair_dst: np.ndarray
    #: One-shot form only (``None`` when streamed).
    pair_starts: Optional[np.ndarray]
    pair_link_ids: Optional[np.ndarray]
    #: Streamed form only: pair-index chunk boundaries (``None`` one-shot).
    chunk_bounds: Optional[np.ndarray]

    def __len__(self) -> int:
        return len(self.nbytes)

    @property
    def num_messages(self) -> int:
        return len(self.nbytes)

    @property
    def streamed(self) -> bool:
        """Whether routes are re-expanded in chunks instead of stored."""
        return self.pair_link_ids is None

    @property
    def num_chunks(self) -> int:
        """Expansion chunks pricing iterates over (1 when one-shot)."""
        if self.chunk_bounds is None:
            return 1
        return len(self.chunk_bounds) - 1

    @property
    def resident_nbytes(self) -> int:
        """Bytes this exchange keeps resident (cache accounting)."""
        total = 0
        for arr in (
            self.src_ranks,
            self.dst_ranks,
            self.nbytes,
            self.hops,
            self.pair_inverse,
            self.pair_hops,
            self.pair_src,
            self.pair_dst,
            self.pair_starts,
            self.pair_link_ids,
            self.chunk_bounds,
        ):
            if arr is not None:
                total += arr.nbytes
        return total

    def iter_link_chunks(
        self,
    ) -> Iterator[Tuple[int, int, np.ndarray, np.ndarray]]:
        """Yield ``(pair_lo, pair_hi, starts, link_ids)`` per chunk.

        One-shot exchanges yield their stored arrays once; streamed
        exchanges re-expand each bounded chunk from the pair coordinates
        (same index algebra, so the ids are identical to what a one-shot
        expansion would have produced for that slice).
        """
        if self.pair_link_ids is not None:
            yield 0, len(self.pair_hops), self.pair_starts, self.pair_link_ids
            return
        dims_a = np.asarray(self.torus.dims, dtype=np.int64)
        step, count = ring_steps_array(self.pair_src, self.pair_dst, dims_a)
        bounds = self.chunk_bounds
        for i in range(len(bounds) - 1):
            lo, hi = int(bounds[i]), int(bounds[i + 1])
            starts, link_ids = _expand_links(
                self.torus.dims,
                self.pair_src[lo:hi],
                self.pair_dst[lo:hi],
                step[lo:hi],
                count[lo:hi],
                self.pair_hops[lo:hi],
            )
            yield lo, hi, starts, link_ids

    def message_links(self, i: int) -> List[Link]:
        """Decode message *i*'s route back to :class:`Link` objects."""
        p = int(self.pair_inverse[i])
        if self.pair_link_ids is not None:
            lo, hi = int(self.pair_starts[p]), int(self.pair_starts[p + 1])
            ids = self.pair_link_ids[lo:hi]
        else:
            _, _, ids = _route_arrays(
                self.torus.dims,
                self.pair_src[p : p + 1],
                self.pair_dst[p : p + 1],
            )
        return [link_of_id(self.torus, int(lid)) for lid in ids]


# ----------------------------------------------------------------------
# Route cache
# ----------------------------------------------------------------------
def _exchange_nbytes(entry: tuple[RoutedExchange, LinkLoadVector]) -> int:
    routed, loads = entry
    return routed.resident_nbytes + loads.resident_nbytes


#: Routed exchanges keyed by ``(torus dims, placement digest, message-set
#: digest)`` — the exact identity of an exchange round. Values are
#: immutable (read-only arrays), so hits are shared, not copied.
_ROUTE_CACHE = BoundedCache(
    "netsim.route_cache",
    maxsize=256,
    budget_bytes=route_cache_budget_bytes,
    sizeof=_exchange_nbytes,
)

#: Current route-cache counters.
route_cache_stats = _ROUTE_CACHE.stats
#: Drop all cached routes and zero the counters (tests, benchmarks).
reset_route_cache = _ROUTE_CACHE.clear


# ----------------------------------------------------------------------
# The engine
# ----------------------------------------------------------------------
class VectorBackend:
    """The NumPy array engine."""

    def route_exchange(
        self,
        torus: Torus3D,
        placement_nodes: PlacementLike,
        messages: HaloBatch,
    ) -> tuple[RoutedExchange, LinkLoadVector]:
        """Route one exchange round; loads are read-only (cache-shared)."""
        placement = as_placement(torus, placement_nodes)
        # Batches memoise their digest; shared-memory batches arrive with
        # it pre-seeded by the publisher, so workers never rehash the
        # columns (see repro.exec.shm).
        key = (torus.dims, placement.digest, messages.digest())
        cached = _ROUTE_CACHE.get(key)
        if cached is not None:
            return cached

        num_links = torus.num_nodes * LINKS_PER_NODE
        exchange = self._route_uncached(
            torus,
            placement,
            messages,
            hop_limit=expansion_hop_limit(),
            sparse=sparse_mode(num_links),
        )
        _ROUTE_CACHE.put(key, exchange)
        return exchange

    def _route_uncached(
        self,
        torus: Torus3D,
        placement: PlacementVector,
        messages: HaloBatch,
        *,
        hop_limit: int,
        sparse: bool,
    ) -> tuple[RoutedExchange, LinkLoadVector]:
        """The routing pipeline with explicit streaming parameters."""
        src, dst, nbytes = messages.src, messages.dst, messages.nbytes
        # Dedup to unique (src node, dst node) pairs: co-located ranks and
        # symmetric halo patterns make pairs far fewer than messages.
        n_nodes = torus.num_nodes
        num_links = n_nodes * LINKS_PER_NODE
        pair_key = placement.node_ranks[src] * n_nodes + placement.node_ranks[dst]
        uniq, inverse = np.unique(pair_key, return_inverse=True)
        pair_src = _coords_of_ranks(torus.dims, uniq // n_nodes)
        pair_dst = _coords_of_ranks(torus.dims, uniq % n_nodes)
        dims_a = np.asarray(torus.dims, dtype=np.int64)
        step, count = ring_steps_array(pair_src, pair_dst, dims_a)
        pair_hops64 = count.sum(axis=1)
        total = int(pair_hops64.sum())

        # Dtype-width audit: link ids, hop counts, and pair indices fit
        # int32 on any torus below 2**31 directed links (~357M nodes);
        # the guard falls back to int64 instead of ever wrapping. Byte
        # columns stay int64 throughout.
        narrow = num_links < 2**31 and len(src) < 2**31
        idx_t = np.int32 if narrow else np.int64
        pair_hops = pair_hops64.astype(idx_t)
        inverse = inverse.astype(idx_t)
        hops = pair_hops[inverse]

        # Per-pair byte totals. Integer counts stay exact through the
        # float64 bincount accumulators below EXACT_BYTES_LIMIT (guarded
        # after accumulation).
        if len(uniq):
            pair_bytes = np.bincount(inverse, weights=nbytes, minlength=len(uniq))
        else:
            pair_bytes = np.zeros(0)

        if total <= hop_limit:
            # One-shot expansion: the original dense path.
            starts, link_ids64 = _expand_links(
                torus.dims, pair_src, pair_dst, step, count, pair_hops64
            )
            chunk_bounds = None
            if sparse:
                if link_ids64.size:
                    u, inv = np.unique(link_ids64, return_inverse=True)
                    vals = np.bincount(
                        inv,
                        weights=np.repeat(pair_bytes, pair_hops64),
                        minlength=len(u),
                    ).astype(np.int64)
                else:
                    u = np.zeros(0, dtype=np.int64)
                    vals = np.zeros(0, dtype=np.int64)
                loads = LinkLoadVector.from_link_totals(torus, u, vals)
            else:
                if link_ids64.size:
                    load_arr = np.bincount(
                        link_ids64,
                        weights=np.repeat(pair_bytes, pair_hops64),
                        minlength=num_links,
                    ).astype(np.int64)
                else:
                    load_arr = np.zeros(num_links, dtype=np.int64)
                loads = LinkLoadVector(torus, load_arr)
            link_ids = link_ids64.astype(idx_t)
        else:
            # Streaming expansion: bounded chunks, incremental loads.
            chunk_bounds = _chunk_bounds(pair_hops64, hop_limit)
            starts = link_ids = None
            if sparse:
                acc_ids = np.zeros(0, dtype=np.int64)
                acc_vals = np.zeros(0, dtype=np.int64)
            else:
                load_arr = np.zeros(num_links, dtype=np.int64)
            n_chunks = len(chunk_bounds) - 1
            for i in range(n_chunks):
                lo, hi = int(chunk_bounds[i]), int(chunk_bounds[i + 1])
                _, c_ids = _expand_links(
                    torus.dims,
                    pair_src[lo:hi],
                    pair_dst[lo:hi],
                    step[lo:hi],
                    count[lo:hi],
                    pair_hops64[lo:hi],
                )
                if not c_ids.size:
                    continue
                weights = np.repeat(pair_bytes[lo:hi], pair_hops64[lo:hi])
                if sparse:
                    u, inv = np.unique(c_ids, return_inverse=True)
                    vals = np.bincount(inv, weights=weights, minlength=len(u)).astype(
                        np.int64
                    )
                    acc_ids, acc_vals = _merge_sparse(acc_ids, acc_vals, u, vals)
                else:
                    load_arr += np.bincount(
                        c_ids, weights=weights, minlength=num_links
                    ).astype(np.int64)
            if sparse:
                loads = LinkLoadVector.from_link_totals(torus, acc_ids, acc_vals)
            else:
                loads = LinkLoadVector(torus, load_arr)
            _STREAMED.inc()
            _CHUNKS.inc(n_chunks)

        max_link = loads.max_load()
        if max_link >= EXACT_BYTES_LIMIT:
            raise OverflowError(
                f"link load {max_link} bytes reaches 2**53, beyond the exact "
                "range of the engine's float64 accumulators; results would "
                "round instead of wrapping. Split the exchange."
            )
        _MAX_LINK_BYTES.set_max(max_link)
        _LINK_EXTREMES.observe(max_link)
        # The message columns arrive read-only (HaloBatch freezes them).
        _freeze(
            hops,
            inverse,
            pair_hops,
            pair_src,
            pair_dst,
            starts,
            link_ids,
            chunk_bounds,
            loads._loads,
            loads._ids,
        )
        routed = RoutedExchange(
            torus=torus,
            src_ranks=src,
            dst_ranks=dst,
            nbytes=nbytes,
            hops=hops,
            pair_inverse=inverse,
            pair_hops=pair_hops,
            pair_src=pair_src,
            pair_dst=pair_dst,
            pair_starts=starts,
            pair_link_ids=link_ids,
            chunk_bounds=chunk_bounds,
        )
        return routed, loads

    def empty_loads(self, torus: Torus3D) -> LinkLoadVector:
        """A zeroed accumulator for concurrent (multi-sibling) traffic."""
        return LinkLoadVector.empty(
            torus, sparse=sparse_mode(torus.num_nodes * LINKS_PER_NODE)
        )

    def round_estimate(
        self, routed: RoutedExchange, loads: LinkLoadVector, machine
    ) -> CommEstimate:
        """Price one routed round with the :mod:`repro.netsim.contention` model.

        Bit-identical to the reference
        :func:`~repro.verify.reference.netsim.round_time`: every
        elementwise expression reproduces its operation order. Streamed
        exchanges re-expand their routes chunk by chunk; the per-pair
        worst-link maximum is order-independent, so the result is
        identical to the one-shot form.
        """
        m = routed.num_messages
        if m == 0:
            return CommEstimate(
                time=0.0, ideal_time=0.0, average_hops=0.0, max_link_bytes=0
            )
        worst_pair = np.zeros(len(routed.pair_hops), dtype=np.int64)
        for lo, hi, starts, link_ids in routed.iter_link_chunks():
            if not link_ids.size:
                continue
            nonzero = routed.pair_hops[lo:hi] > 0
            per_hop = loads.lookup(link_ids)
            # Segments are contiguous and zero-hop segments are empty, so
            # the starts of the non-empty segments partition the flat
            # array exactly.
            view = worst_pair[lo:hi]
            view[nonzero] = np.maximum.reduceat(per_hop, starts[:-1][nonzero])
        worst = worst_pair[routed.pair_inverse]
        t = machine.software_latency + routed.hops * machine.per_hop_latency
        t = t + worst / machine.link_bandwidth
        ideal = machine.software_latency + routed.nbytes / machine.link_bandwidth
        return CommEstimate(
            time=float(t.max()),
            ideal_time=float(ideal.max()),
            average_hops=int(routed.hops.sum()) / m,
            max_link_bytes=loads.max_load(),
        )


VECTOR = VectorBackend()


def route_exchange_streamed(
    torus: Torus3D,
    placement_nodes: PlacementLike,
    messages: HaloBatch,
    *,
    max_expand_hops: Optional[int] = None,
    sparse: bool = False,
) -> tuple[RoutedExchange, LinkLoadVector]:
    """Route one exchange with forced streaming parameters, uncached.

    The parity surface of the streaming engine: tests and the
    ``netsim-streaming-parity`` verify oracle call this with arbitrary
    chunk limits and representations and assert the result is
    bit-identical to :meth:`VectorBackend.route_exchange` (and to the
    reference simulator). Bypasses the route cache so a cached one-shot
    entry can never mask the streamed code path.
    """
    placement = as_placement(torus, placement_nodes)
    if max_expand_hops is None:
        hop_limit = expansion_hop_limit()
    else:
        hop_limit = max(1, int(max_expand_hops))
    return VECTOR._route_uncached(
        torus, placement, messages, hop_limit=hop_limit, sparse=sparse
    )

