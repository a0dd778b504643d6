"""One bounded LRU cache behind every memoized pipeline stage.

The pipeline memoizes three pure stages, each behind one
:class:`BoundedCache` instance: execution plans
(:mod:`repro.exec.plancache`), torus placements
(:mod:`repro.exec.placementcache`) and routed halo exchanges
(:mod:`repro.netsim.engine`). Every instance behaves the same way:

* **Bounds.** A put inserts first, then evicts least-recently-used
  entries while the cache holds more than ``maxsize`` entries or more
  than ``budget_bytes()`` resident bytes (as estimated by ``sizeof``).
  The budget is re-read on every insert, so tests and long-lived
  services can retune it. An entry larger than the whole budget counts
  as one eviction and is never kept: the caller still gets its value.
* **No expiry.** Every cached value is a pure function of its key, so
  an entry never goes stale; only the bounds above drop entries.
* **Counters.** The authoritative counters live on the cache; they are
  mirrored into the metrics registry as ``<name>.hits`` / ``.misses`` /
  ``.evictions`` counters and a ``<name>.resident_bytes`` gauge.
  Per-task metric capture in :mod:`repro.exec.pool` zeroes the
  registry and calls :func:`clear_caches` together, so every captured
  delta reconciles with :meth:`BoundedCache.stats`.
* **Locking.** One lock covers every operation, ``clear`` and ``stats``
  included: the planning service looks entries up from many request
  threads and may reset a cache mid-flight.

Caches are per process: every pool worker warms its own copies. Cached
values are shared, not copied, so they must be immutable, and ``None``
cannot be cached (it is the miss sentinel).
"""

from __future__ import annotations

import math
import threading
import weakref
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Hashable, Optional, Tuple

from repro.obs.metrics import counter, gauge

__all__ = ["BoundedCache", "CacheStats", "clear_caches"]


@dataclass(frozen=True)
class CacheStats:
    """One cache's counters, for reports, benchmarks and ``/metrics``."""

    hits: int
    misses: int
    entries: int
    evictions: int = 0
    resident_bytes: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


_CACHES: "weakref.WeakSet[BoundedCache]" = weakref.WeakSet()


def clear_caches() -> None:
    """Clear every cache and zero its counters (per-task capture, tests)."""
    for cache in list(_CACHES):
        cache.clear()


class BoundedCache:
    """A locked LRU, bounded by entry count and optionally by bytes.

    ``maxsize`` is a plain attribute so tests and benchmarks can read or
    retune it. ``budget_bytes`` is a zero-argument callable returning the
    byte budget and ``sizeof`` estimates one value's resident bytes; with
    no budget only ``maxsize`` bounds the cache.
    """

    def __init__(
        self,
        name: str,
        *,
        maxsize: int,
        budget_bytes: Optional[Callable[[], int]] = None,
        sizeof: Optional[Callable[[Any], int]] = None,
    ) -> None:
        self.name = name
        self.maxsize = maxsize
        self.budget_bytes = budget_bytes
        self.sizeof = sizeof
        # key -> (value, resident bytes)
        self._data: "OrderedDict[Hashable, Tuple[Any, int]]" = OrderedDict()
        self.hits = self.misses = self.evictions = 0
        self.resident_bytes = 0
        self._lock = threading.Lock()
        # Registry resets zero these in place, so the references never
        # go stale.
        self._m_hits = counter(f"{name}.hits")
        self._m_misses = counter(f"{name}.misses")
        self._m_evictions = counter(f"{name}.evictions")
        self._m_bytes = gauge(f"{name}.resident_bytes")
        _CACHES.add(self)

    def get(self, key: Hashable) -> Any:
        """The cached value for *key*, or ``None`` on a miss."""
        with self._lock:
            entry = self._data.get(key)
            if entry is None:
                self.misses += 1
                self._m_misses.inc()
                return None
            self._data.move_to_end(key)
            self.hits += 1
            self._m_hits.inc()
            return entry[0]

    def put(self, key: Hashable, value: Any) -> None:
        """Insert *value*, then evict LRU-first until within bounds."""
        nbytes = self.sizeof(value) if self.sizeof is not None else 0
        budget = self.budget_bytes() if self.budget_bytes is not None else math.inf
        with self._lock:
            if nbytes > budget:
                self.evictions += 1
                self._m_evictions.inc()
                return
            old = self._data.pop(key, None)
            if old is not None:
                self.resident_bytes -= old[1]
            self._data[key] = (value, nbytes)
            self.resident_bytes += nbytes
            evicted = 0
            while self._data and (
                len(self._data) > self.maxsize or self.resident_bytes > budget
            ):
                _, (_, dropped) = self._data.popitem(last=False)
                self.resident_bytes -= dropped
                evicted += 1
            if evicted:
                self.evictions += evicted
                self._m_evictions.inc(evicted)
            self._m_bytes.set(self.resident_bytes)

    def stats(self) -> CacheStats:
        with self._lock:
            return CacheStats(
                hits=self.hits,
                misses=self.misses,
                entries=len(self._data),
                evictions=self.evictions,
                resident_bytes=self.resident_bytes,
            )

    def clear(self) -> None:
        """Drop every entry and zero the counters and their mirror."""
        with self._lock:
            self._data.clear()
            self.hits = self.misses = self.evictions = 0
            self.resident_bytes = 0
            for metric in (
                self._m_hits,
                self._m_misses,
                self._m_evictions,
                self._m_bytes,
            ):
                metric.reset()
