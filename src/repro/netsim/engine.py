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
* **Dtype-width audit.** Retained route columns (link ids, hop counts,
  pair indices) are stored as ``int32`` whenever the torus and message
  count allow (guarded, falling back to ``int64`` — never wrapping);
  byte counts stay ``int64`` throughout.
* **Array pricing.** Round link loads come from ``np.bincount``; each
  message's worst-link bytes from a sorted-segment
  ``np.maximum.reduceat``; the round's ``CommEstimate`` from array
  reductions, with the exact floating-point operation order of the
  reference model so results match bit for bit.
* **Route cache.** The same exchange set repeats every round, timestep,
  and sweep config, so :meth:`VectorBackend.route_exchange` memoises a
  set of concurrent halo exchanges under its *structure* — ``(torus
  dims, placement digest, grid width, ((rect, nx, ny), ...), HaloSpec,
  pricing constants)`` — of which the messages are a pure function. An
  entry holds the routed set, its summed link loads and each member's
  priced :class:`~repro.netsim.contention.CommEstimate`, so a hit builds
  no batch, hashes no message bytes and prices nothing. The entries live
  in one :class:`~repro.exec.cache.BoundedCache`; eviction is
  **byte-budgeted** (LRU above
  :func:`repro.netsim.budget.route_cache_budget_bytes`), so cache
  residency scales with the configured memory, not the rank count.
  Counters are exposed via :func:`route_cache_stats`.

:func:`route_batch` routes an arbitrary
:class:`~repro.runtime.halo.HaloBatch` uncached (any
expansion hop limit): the parity surface the hypothesis suites in
``tests/netsim/test_engine_parity.py`` and
``tests/netsim/test_streaming_parity.py`` compare against the reference
simulator, requiring exact agreement.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.exec.cache import BoundedCache
from repro.netsim.budget import expansion_hop_limit, route_cache_budget_bytes
from repro.netsim.contention import CommEstimate
from repro.obs.metrics import counter as _obs_counter
from repro.obs.metrics import gauge as _obs_gauge
from repro.obs.metrics import histogram as _obs_histogram
from repro.runtime.halo import HaloBatch, HaloSpec, halo_batch
from repro.runtime.process_grid import GridRect, ProcessGrid
from repro.topology.routing import ring_steps_array
from repro.topology.torus import Link, Torus3D

__all__ = [
    "LINKS_PER_NODE",
    "EXACT_BYTES_LIMIT",
    "link_id_of",
    "link_of_id",
    "PlacementVector",
    "RoutedExchange",
    "LinkLoadVector",
    "VectorBackend",
    "VECTOR",
    "route_batch",
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
#: Per routed set (one per cache miss): worst-link bytes of its summed
#: loads, power-of-4 buckets.
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

    Holds the per-rank node coordinates as an ``(N, 3)`` ``int64`` array,
    their linear node ranks (what the router indexes), and a digest of the
    coordinate bytes that keys the route cache. Every
    :class:`~repro.core.mapping.base.Placement` builds its own once
    (:attr:`~repro.core.mapping.base.Placement.vector`), so a placement-cache
    hit reuses the digest and the parent and every sibling exchange share
    it. The engine accepts only this form: a raw node array is never
    hashed again behind a caller's back.
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
        self.node_ranks.flags.writeable = False
        self.digest = hashlib.blake2b(self.coords, digest_size=16).digest()

    def __len__(self) -> int:
        return len(self.coords)


# ----------------------------------------------------------------------
# Link loads
# ----------------------------------------------------------------------
class LinkLoadVector:
    """Accumulated bytes per directed link: one ``int64`` vector.

    Indexed by the dense link id, ``num_nodes * 6`` long (1.5 MiB at
    131,072 BG/P ranks). Mirrors the reference
    :class:`~repro.verify.reference.netsim.LinkLoads` API so parity tests
    can compare the two directly.
    """

    __slots__ = ("torus", "array")

    def __init__(self, torus: Torus3D, loads: np.ndarray):
        self.torus = torus
        #: The per-link byte vector (index = dense link id).
        self.array = loads

    def load(self, link: Link) -> int:
        """Bytes accumulated on *link*."""
        return int(self.array[link_id_of(self.torus, link)])

    def max_load(self) -> int:
        """The heaviest link's byte count (0 when no traffic)."""
        return int(self.array.max(initial=0))

    def total_bytes(self) -> int:
        """Total link-byte volume (equals hop-bytes of the message set)."""
        return int(self.array.sum())

    def num_loaded_links(self) -> int:
        """Number of links that carried any traffic."""
        return int(np.count_nonzero(self.array))

    def items(self):
        """Iterate ``(link, bytes)`` pairs over loaded links."""
        for lid in np.flatnonzero(self.array):
            yield link_of_id(self.torus, int(lid)), int(self.array[lid])

    def as_dict(self) -> dict[Link, int]:
        """Loaded links as a dict (parity-test convenience)."""
        return dict(self.items())

    @property
    def resident_nbytes(self) -> int:
        """Bytes this accumulator keeps resident (cache accounting)."""
        return self.array.nbytes

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

    A routed *set* of concurrent exchanges is one exchange whose
    messages are the members' columns concatenated in member order.
    Pairs are deduplicated within a member, never across, so member *k*
    owns the message range ``member_bounds[k]:member_bounds[k + 1]`` and
    the pair range ``member_pair_bounds[k]:member_pair_bounds[k + 1]``,
    and :meth:`VectorBackend.round_estimate` prices it on its own.

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
    #: Message offsets of the members, ``(0, len)`` for a lone exchange.
    member_bounds: Tuple[int, ...]
    #: Unique-pair offsets of the members.
    member_pair_bounds: Tuple[int, ...]

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
        self, lo: int = 0, hi: Optional[int] = None
    ) -> Iterator[Tuple[int, int, np.ndarray, np.ndarray]]:
        """Yield ``(pair_lo, pair_hi, starts, link_ids)`` per chunk of pairs.

        Covers the pair range ``lo:hi`` (every pair by default); each
        chunk's ``starts`` index its own ``link_ids``. One-shot exchanges
        yield a view of their stored arrays once; streamed exchanges
        re-expand each bounded chunk from the pair coordinates (same
        index algebra, so the ids are identical to what a one-shot
        expansion would have produced for that slice).
        """
        if hi is None:
            hi = len(self.pair_hops)
        if self.pair_link_ids is not None:
            s_lo, s_hi = int(self.pair_starts[lo]), int(self.pair_starts[hi])
            starts = self.pair_starts[lo : hi + 1] - s_lo
            yield lo, hi, starts, self.pair_link_ids[s_lo:s_hi]
            return
        dims_a = np.asarray(self.torus.dims, dtype=np.int64)
        bounds = self.chunk_bounds
        for i in range(len(bounds) - 1):
            c_lo, c_hi = max(int(bounds[i]), lo), min(int(bounds[i + 1]), hi)
            if c_lo >= c_hi:
                continue
            src_c, dst_c = self.pair_src[c_lo:c_hi], self.pair_dst[c_lo:c_hi]
            step, count = ring_steps_array(src_c, dst_c, dims_a)
            starts, link_ids = _expand_links(
                self.torus.dims, src_c, dst_c, step, count, self.pair_hops[c_lo:c_hi]
            )
            yield c_lo, c_hi, starts, link_ids

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
#: A routed exchange set with its summed loads and per-member estimates.
RouteEntry = Tuple[RoutedExchange, LinkLoadVector, Tuple[CommEstimate, ...]]


def _concat(batches: Sequence[HaloBatch]) -> Tuple[HaloBatch, Tuple[int, ...]]:
    """The members' messages as one batch, with each member's offsets."""
    bounds = (0, *np.cumsum([len(b) for b in batches]).tolist())
    batch = HaloBatch(
        np.concatenate([b.src for b in batches]),
        np.concatenate([b.dst for b in batches]),
        np.concatenate([b.nbytes for b in batches]),
    )
    return batch, bounds


def _entry_nbytes(entry: RouteEntry) -> int:
    routed, loads, _ = entry
    return routed.resident_nbytes + loads.resident_nbytes


#: Priced exchange sets keyed by their structure (see
#: :meth:`VectorBackend.route_exchange`). Values are immutable
#: (read-only arrays, frozen estimates), so hits are shared, not copied.
_ROUTE_CACHE = BoundedCache(
    "netsim.route_cache",
    maxsize=256,
    budget_bytes=route_cache_budget_bytes,
    sizeof=_entry_nbytes,
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
        placement: PlacementVector,
        grid: ProcessGrid,
        exchanges: Tuple[Tuple[GridRect, int, int], ...],
        spec: HaloSpec,
        machine,
    ) -> RouteEntry:
        """Route and price a set of concurrent halo exchanges, memoised.

        Member *k*, ``exchanges[k] == (rect, nx, ny)``, is one halo round
        of an ``nx x ny`` domain decomposed over *rect* of *grid*. The
        members exchange at the same time, so link loads sum over the
        set and each member is priced against the sum. The key is the
        set's structure, of which :func:`~repro.runtime.halo.halo_batch`
        makes the messages, plus the three machine constants pricing
        reads: a hit builds no batch, routes nothing and prices nothing.
        A miss routes the members as one exchange and prices each once.

        Returns the routed set, its summed loads and one estimate per
        member, all read-only (cache-shared).
        """
        key = (
            torus.dims,
            placement.digest,
            grid.px,
            exchanges,
            spec,
            (machine.software_latency, machine.per_hop_latency, machine.link_bandwidth),
        )
        entry = _ROUTE_CACHE.get(key)
        if entry is None:
            # The members' own columns are dropped once concatenated, so
            # routing holds one copy of the set's messages (holding both
            # raised reprice-131k's peak RSS by ~14 MB).
            batch, bounds = _concat(
                [halo_batch(grid, rect, nx, ny, spec) for rect, nx, ny in exchanges]
            )
            routed, loads = self._route_uncached(
                torus, placement, batch, bounds, hop_limit=expansion_hop_limit()
            )
            estimates = tuple(
                self.round_estimate(routed, loads, machine, k)
                for k in range(len(exchanges))
            )
            entry = (routed, loads, estimates)
            _ROUTE_CACHE.put(key, entry)
        return entry

    def _route_uncached(
        self,
        torus: Torus3D,
        placement: PlacementVector,
        batch: HaloBatch,
        bounds: Tuple[int, ...],
        *,
        hop_limit: int,
    ) -> tuple[RoutedExchange, LinkLoadVector]:
        """Route concurrent exchanges as one; their loads sum exactly.

        *batch* holds the members' messages in member order, member *k*
        at ``bounds[k]:bounds[k + 1]``.
        """
        src, dst, nbytes = batch.src, batch.dst, batch.nbytes
        members = len(bounds) - 1
        # Dedup to unique (src node, dst node) pairs: co-located ranks and
        # symmetric halo patterns make pairs far fewer than messages. The
        # member index leads the key, so each member's pairs sort into
        # one contiguous range.
        n_nodes = torus.num_nodes
        num_links = n_nodes * LINKS_PER_NODE
        pair_key = placement.node_ranks[src] * n_nodes + placement.node_ranks[dst]
        member_stride = n_nodes * n_nodes
        for k in range(1, members):
            pair_key[bounds[k] : bounds[k + 1]] += k * member_stride
        uniq, inverse = np.unique(pair_key, return_inverse=True)
        member_pairs = np.searchsorted(
            uniq, np.arange(members + 1, dtype=np.int64) * member_stride
        )
        pair_src = _coords_of_ranks(torus.dims, (uniq // n_nodes) % n_nodes)
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
            starts, link_ids64 = _expand_links(
                torus.dims, pair_src, pair_dst, step, count, pair_hops64
            )
            chunk_bounds = None
            if link_ids64.size:
                load_arr = np.bincount(
                    link_ids64,
                    weights=np.repeat(pair_bytes, pair_hops64),
                    minlength=num_links,
                ).astype(np.int64)
            else:
                load_arr = np.zeros(num_links, dtype=np.int64)
            link_ids = link_ids64.astype(idx_t)
        else:
            # Streaming expansion: bounded chunks, incremental loads.
            chunk_bounds = _chunk_bounds(pair_hops64, hop_limit)
            starts = link_ids = None
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
                load_arr += np.bincount(
                    c_ids, weights=weights, minlength=num_links
                ).astype(np.int64)
            _STREAMED.inc()
            _CHUNKS.inc(n_chunks)

        loads = LinkLoadVector(torus, load_arr)
        max_link = loads.max_load()
        if max_link >= EXACT_BYTES_LIMIT:
            raise OverflowError(
                f"link load {max_link} bytes reaches 2**53, beyond the exact "
                "range of the engine's float64 accumulators; results would "
                "round instead of wrapping. Split the exchange."
            )
        _MAX_LINK_BYTES.set_max(max_link)
        _LINK_EXTREMES.observe(max_link)
        # Everything the routed exchange keeps is read-only (the message
        # columns already are: HaloBatch freezes them).
        _freeze(
            hops,
            inverse,
            pair_hops,
            pair_src,
            pair_dst,
            starts,
            link_ids,
            chunk_bounds,
            load_arr,
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
            member_bounds=bounds,
            member_pair_bounds=tuple(member_pairs.tolist()),
        )
        return routed, loads

    def round_estimate(
        self,
        routed: RoutedExchange,
        loads: LinkLoadVector,
        machine,
        member: int = 0,
    ) -> CommEstimate:
        """Price one member's round with the :mod:`repro.netsim.contention` model.

        Member *member* of the routed set (the only one of a lone
        exchange) is priced against *loads*. Bit-identical to the
        reference :func:`~repro.verify.reference.netsim.round_time`:
        every elementwise expression reproduces its operation order.
        Streamed exchanges re-expand their routes chunk by chunk; the
        per-pair worst-link maximum is order-independent, so the result
        is identical to the one-shot form.
        """
        m_lo, m_hi = routed.member_bounds[member : member + 2]
        if m_hi == m_lo:
            return CommEstimate(
                time=0.0, ideal_time=0.0, average_hops=0.0, max_link_bytes=0
            )
        p_lo, p_hi = routed.member_pair_bounds[member : member + 2]
        worst_pair = np.zeros(p_hi - p_lo, dtype=np.int64)
        for lo, hi, starts, link_ids in routed.iter_link_chunks(p_lo, p_hi):
            if not link_ids.size:
                continue
            nonzero = routed.pair_hops[lo:hi] > 0
            per_hop = loads.array[link_ids]
            # Segments are contiguous and zero-hop segments are empty, so
            # the starts of the non-empty segments partition the flat
            # array exactly.
            view = worst_pair[lo - p_lo : hi - p_lo]
            view[nonzero] = np.maximum.reduceat(per_hop, starts[:-1][nonzero])
        worst = worst_pair[routed.pair_inverse[m_lo:m_hi] - p_lo]
        hops = routed.hops[m_lo:m_hi]
        t = machine.software_latency + hops * machine.per_hop_latency
        t = t + worst / machine.link_bandwidth
        nbytes = routed.nbytes[m_lo:m_hi]
        ideal = machine.software_latency + nbytes / machine.link_bandwidth
        return CommEstimate(
            time=float(t.max()),
            ideal_time=float(ideal.max()),
            # hops is int32: the sum is taken in int64.
            average_hops=int(hops.sum(dtype=np.int64)) / (m_hi - m_lo),
            max_link_bytes=loads.max_load(),
        )


VECTOR = VectorBackend()


def route_batch(
    torus: Torus3D,
    placement: PlacementVector,
    batch: HaloBatch,
    *,
    max_expand_hops: Optional[int] = None,
) -> tuple[RoutedExchange, LinkLoadVector]:
    """Route one arbitrary exchange round, uncached.

    The parity surface of the engine: the hypothesis suites, the
    ``netsim-parity`` and ``netsim-streaming-parity`` verify oracles and
    the kernel benchmarks build their own messages and route them here,
    then price with :meth:`VectorBackend.round_estimate`. Nothing is
    cached, so a cached entry can never mask the path under test;
    *max_expand_hops* forces the streamed expansion at any chunk limit
    (default: the budget's :func:`~repro.netsim.budget.expansion_hop_limit`).
    """
    if max_expand_hops is None:
        hop_limit = expansion_hop_limit()
    else:
        hop_limit = max(1, int(max_expand_hops))
    return VECTOR._route_uncached(
        torus, placement, batch, (0, len(batch)), hop_limit=hop_limit
    )
