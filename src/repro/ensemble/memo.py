"""Cross-member memo: price each distinct nest state once per ensemble.

An ensemble clusters: members share initial seeds (scenario families),
branches start bit-identical to their parent, and trackers chasing the
same depressions converge onto the same nest footprints. Whenever two
members reach the same scheduling state, their pricing work — sequential
+ parallel plans, placement, routing, the whole
:func:`~repro.perfsim.simulate.simulate_iteration` pass — is *the same
pure function of the same inputs*. This module memoizes that function
across members and across pool workers:

* the **key** is a 16-byte blake2b digest of the full scheduling state:
  pricing policy (machine, mode, I/O model, mapping, process-grid dims)
  plus the parent spec and every sibling nest spec (footprint positions
  included). Keying by the complete state is deliberately conservative:
  a memo hit can never return a price the member could not have computed
  itself.
* the **value** is the fixed-width float64 vector of
  :class:`PricedState` — both strategies' phase totals. Float64 survives
  the shared table bit-exactly, so a member that *reads* a price folds
  the identical bits a member that *computed* it would have folded; the
  deterministic snapshot cannot tell the difference (that is the whole
  point).

Each worker holds a plain-dict local memo; when the ensemble runs with
``jobs > 1`` a :class:`SharedMemoTable` — an open-addressed digest→
vector table in one ``multiprocessing.shared_memory`` segment, guarded
by a single ``multiprocessing.Lock`` — lets worker A reuse what worker B
priced. Hit/miss counters are wall-side diagnostics (they depend on
which worker got there first), so they are reported next to, never
inside, the deterministic snapshot.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, fields
from multiprocessing import shared_memory
from typing import Any, Dict, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.wrf.grid import DomainSpec

__all__ = [
    "PricedState",
    "MemoStats",
    "SharedMemoHandle",
    "SharedMemoTable",
    "CrossMemberMemo",
    "state_digest",
]


@dataclass(frozen=True)
class PricedState:
    """Both strategies' phase totals for one scheduling state (model s)."""

    seq_total: float
    seq_integration: float
    seq_io: float
    seq_wait: float
    par_total: float
    par_parent: float
    par_nest_phase: float
    par_integration: float
    par_io: float
    par_wait: float
    par_hops: float

    @property
    def improvement(self) -> float:
        """Fractional speedup of parallel over sequential (paper Sec 5)."""
        if self.seq_total <= 0.0:
            return 0.0
        return (self.seq_total - self.par_total) / self.seq_total

    def to_vector(self) -> np.ndarray:
        return np.array(
            [getattr(self, f.name) for f in fields(self)], dtype=np.float64
        )

    @classmethod
    def from_vector(cls, vec: np.ndarray) -> "PricedState":
        return cls(*(float(v) for v in vec))

    @classmethod
    def from_reports(cls, seq: Any, par: Any) -> "PricedState":
        """Pack a sequential + parallel ``IterationReport`` pair."""
        return cls(
            seq_total=seq.total_time,
            seq_integration=seq.integration_time,
            seq_io=seq.io_time,
            seq_wait=seq.mpi_wait,
            par_total=par.total_time,
            par_parent=par.parent.total,
            par_nest_phase=par.nest_phase_time,
            par_integration=par.integration_time,
            par_io=par.io_time,
            par_wait=par.mpi_wait,
            par_hops=par.average_hops,
        )


VECTOR_LEN = len(fields(PricedState))
DIGEST_SIZE = 16

#: Give up after this many probe steps; the caller re-prices instead.
_PROBE_LIMIT = 128


def _spec_tuple(spec: DomainSpec) -> Tuple[Any, ...]:
    return (
        spec.name, spec.nx, spec.ny, spec.dx_km, spec.parent,
        spec.parent_start, spec.refinement, spec.level,
    )


def state_digest(
    policy_sig: Tuple[Any, ...],
    parent: DomainSpec,
    siblings: Sequence[DomainSpec],
) -> bytes:
    """16-byte digest of one member's complete scheduling state."""
    payload = repr(
        (policy_sig, _spec_tuple(parent), tuple(_spec_tuple(s) for s in siblings))
    ).encode()
    return hashlib.blake2b(payload, digest_size=DIGEST_SIZE).digest()


@dataclass
class MemoStats:
    """Memo traffic counters (diagnostics — not part of the snapshot)."""

    local_hits: int = 0
    shared_hits: int = 0
    misses: int = 0
    stores: int = 0
    #: Inserts dropped because the shared table's probe window was full.
    shared_drops: int = 0

    @property
    def hits(self) -> int:
        return self.local_hits + self.shared_hits

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def add(self, other: "MemoStats") -> None:
        self.local_hits += other.local_hits
        self.shared_hits += other.shared_hits
        self.misses += other.misses
        self.stores += other.stores
        self.shared_drops += other.shared_drops

    def to_json(self) -> Dict[str, Any]:
        return {
            "local_hits": self.local_hits,
            "shared_hits": self.shared_hits,
            "misses": self.misses,
            "stores": self.stores,
            "shared_drops": self.shared_drops,
            "hit_rate": self.hit_rate,
        }


def _attach_segment(name: str) -> shared_memory.SharedMemory:
    """Open an existing segment without claiming ownership of it."""
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # Python < 3.13: no track parameter
        # Attaching registers the segment with the resource tracker on
        # these versions; suppress the registration rather than undo it,
        # because unregistering drops the *owner's* entry too (the
        # tracker cache is one set shared over the inherited pipe) and
        # the owner's later unlink would then log a KeyError.
        from multiprocessing import resource_tracker

        original_register = resource_tracker.register
        resource_tracker.register = lambda *args, **kwargs: None
        try:
            return shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = original_register


@dataclass(frozen=True)
class SharedMemoHandle:
    """Picklable pointer to a shared memo segment (name + slot count)."""

    segment: str
    slots: int


class SharedMemoTable:
    """Open-addressed digest→vector table in shared memory.

    Layout: three parallel arrays over one segment — ``used`` flags
    (uint8), digests ``(slots, 16)`` uint8, values ``(slots, VECTOR_LEN)``
    float64. One ``multiprocessing.Lock`` serialises every get/put;
    entries are tiny and lookups rare (once per *distinct* state per
    worker), so a single lock is far from contended. Slots are never
    evicted — the table is sized for the run (a slot is ~110 bytes;
    the default 8192 slots cost under a megabyte).
    """

    def __init__(
        self,
        shm: shared_memory.SharedMemory,
        slots: int,
        lock: Any,
        *,
        owner: bool,
    ):
        self._shm = shm
        self.slots = slots
        self.lock = lock
        self._owner = owner
        self._used = np.ndarray((slots,), dtype=np.uint8, buffer=shm.buf)
        self._digests = np.ndarray(
            (slots, DIGEST_SIZE), dtype=np.uint8, buffer=shm.buf,
            offset=slots,
        )
        self._values = np.ndarray(
            (slots, VECTOR_LEN), dtype=np.float64, buffer=shm.buf,
            offset=self._values_offset(slots),
        )

    @staticmethod
    def _values_offset(slots: int) -> int:
        offset = slots + slots * DIGEST_SIZE
        return (offset + 7) // 8 * 8  # align float64 view

    @classmethod
    def _size_bytes(cls, slots: int) -> int:
        return cls._values_offset(slots) + slots * VECTOR_LEN * 8

    @classmethod
    def create(cls, slots: int = 8192) -> "SharedMemoTable":
        """Create (and own) a zero-initialised table; parent side."""
        if slots < 1:
            raise ConfigurationError(f"memo slots must be >= 1, got {slots}")
        import multiprocessing as mp

        shm = shared_memory.SharedMemory(
            create=True, size=cls._size_bytes(slots)
        )
        return cls(shm, slots, mp.Lock(), owner=True)

    @classmethod
    def attach(cls, handle: SharedMemoHandle, lock: Any) -> "SharedMemoTable":
        """Map an existing table; worker side (never unlinks)."""
        return cls(_attach_segment(handle.segment), handle.slots, lock, owner=False)

    @property
    def handle(self) -> SharedMemoHandle:
        return SharedMemoHandle(segment=self._shm.name, slots=self.slots)

    # ------------------------------------------------------------------
    def _probe(self, digest: bytes) -> Tuple[Optional[int], Optional[int]]:
        """(matching slot, first free slot) within the probe window."""
        key = np.frombuffer(digest, dtype=np.uint8)
        start = int.from_bytes(digest[:8], "little") % self.slots
        for step in range(min(self.slots, _PROBE_LIMIT)):
            idx = (start + step) % self.slots
            if not self._used[idx]:
                return None, idx
            if np.array_equal(self._digests[idx], key):
                return idx, None
        return None, None

    def get(self, digest: bytes) -> Optional[np.ndarray]:
        with self.lock:
            idx, _ = self._probe(digest)
            if idx is None:
                return None
            return self._values[idx].copy()

    def put(self, digest: bytes, vector: np.ndarray) -> bool:
        """Insert; returns False when the probe window is exhausted."""
        with self.lock:
            idx, free = self._probe(digest)
            if idx is not None:
                return True  # someone else priced it first — same bits
            if free is None:
                return False
            self._digests[free] = np.frombuffer(digest, dtype=np.uint8)
            self._values[free] = vector
            self._used[free] = 1
            return True

    def entries(self) -> int:
        with self.lock:
            return int(self._used.sum())

    # ------------------------------------------------------------------
    def close(self) -> None:
        # Drop the views before closing the mapping, else BufferError.
        self._used = self._digests = self._values = None  # type: ignore
        try:
            self._shm.close()
        except Exception:
            pass

    def unlink(self) -> None:
        """Destroy the segment; owner side only, after workers exit."""
        if not self._owner:
            return
        try:
            self._shm.unlink()
        except Exception:
            pass

    def release(self) -> None:
        self.close()
        self.unlink()


class CrossMemberMemo:
    """Two-level memo: per-worker dict in front of the shared table."""

    def __init__(self, shared: Optional[SharedMemoTable] = None):
        self.shared = shared
        self._local: Dict[bytes, PricedState] = {}
        self.stats = MemoStats()

    def lookup(self, digest: bytes) -> Optional[Tuple[PricedState, str]]:
        """The memoized price and where it came from, or ``None``."""
        priced = self._local.get(digest)
        if priced is not None:
            self.stats.local_hits += 1
            return priced, "local"
        if self.shared is not None:
            vec = self.shared.get(digest)
            if vec is not None:
                priced = PricedState.from_vector(vec)
                self._local[digest] = priced
                self.stats.shared_hits += 1
                return priced, "shared"
        self.stats.misses += 1
        return None

    def store(self, digest: bytes, priced: PricedState) -> None:
        self._local[digest] = priced
        self.stats.stores += 1
        if self.shared is not None:
            if not self.shared.put(digest, priced.to_vector()):
                self.stats.shared_drops += 1

    def entries(self) -> int:
        return len(self._local)
