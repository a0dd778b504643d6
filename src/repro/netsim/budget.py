"""Memory budgeting for the streaming network engine.

The vectorized engine's peak working set is the per-hop route expansion
(:mod:`repro.netsim.engine`): a handful of flat ``int64`` arrays whose
length is the *total hop count* of an exchange. At 4k ranks that is a
few megabytes; at 131k+ ranks it grows into the hundreds of megabytes —
so the engine bounds it against one configurable budget:

    REPRO_NETSIM_MEM_MB=512        # total netsim working-set budget

From that single knob the engine derives

* the **expansion hop limit** — the largest per-hop expansion built in
  one shot; exchanges whose total hops exceed it are processed in
  bounded chunks (bit-identical to the one-shot path, see
  ``docs/cost_model.md``),
* the **route-cache byte budget** (override:
  ``REPRO_NETSIM_ROUTE_CACHE_MB``) — cached routed exchanges are evicted
  LRU-first once their resident bytes exceed it,
* the **placement-cache byte budget** (an eighth of the budget) used
  by :mod:`repro.exec.placementcache`.

All parsing errors raise :class:`~repro.errors.ConfigurationError`.
This module sits below the engine (imports only stdlib + errors) so the
exec-layer caches can share the budget without import cycles.
"""

from __future__ import annotations

import math
import os

from repro.errors import ConfigurationError

__all__ = [
    "DEFAULT_MEM_MB",
    "EXPANSION_BYTES_PER_HOP",
    "mem_budget_bytes",
    "expansion_hop_limit",
    "route_cache_budget_bytes",
    "placement_cache_budget_bytes",
]

#: Default overall working-set budget when ``REPRO_NETSIM_MEM_MB`` is
#: unset: a one-shot limit of 2,796,202 hops. Every paper-sized (<=8k
#: rank) exchange takes the one-shot path, and so does a 131,072-rank
#: BG/P halo exchange (at most 607,744 pair hops on the 32x32x32 torus).
#: Those stream only under a smaller budget: 64 MB allows 349,525 hops.
DEFAULT_MEM_MB = 512.0

#: Transient bytes per flat hop of the one-shot route expansion: the
#: index-algebra kernel materialises ~12 ``int64``-wide intermediates
#: (message ids, in-route positions, per-dimension selectors, node
#: coordinates, link ids). Used to convert the byte budget into a hop
#: count.
EXPANSION_BYTES_PER_HOP = 96

#: Fraction of the budget the route expansion may occupy (the rest is
#: headroom for message columns, accumulators, and cached results).
_EXPANSION_SHARE = 0.5

#: Never chunk below this many hops: tiny chunks would turn the array
#: kernel back into a Python loop.
_MIN_CHUNK_HOPS = 1024

#: Cache shares of the budget (the route cache's is overridable).
_ROUTE_CACHE_SHARE = 0.25
_PLACEMENT_CACHE_SHARE = 0.125


def _mb_env(name: str, default_mb: float) -> float:
    raw = os.environ.get(name)
    if raw is None or not raw.strip():
        return default_mb
    try:
        value = float(raw)
    except ValueError:
        raise ConfigurationError(
            f"{name}={raw!r}: expected a megabyte count"
        ) from None
    if not math.isfinite(value) or value <= 0:
        raise ConfigurationError(f"{name}={raw!r}: budget must be positive")
    return value


def mem_budget_bytes() -> int:
    """The netsim working-set budget (``REPRO_NETSIM_MEM_MB``), in bytes."""
    return int(_mb_env("REPRO_NETSIM_MEM_MB", DEFAULT_MEM_MB) * 2**20)


def expansion_hop_limit(budget_bytes: int | None = None) -> int:
    """Largest one-shot per-hop expansion the budget allows, in hops.

    Exchanges whose total hop count exceeds this are expanded in chunks
    of at most this many hops (one pair minimum per chunk).
    """
    if budget_bytes is None:
        budget_bytes = mem_budget_bytes()
    limit = int(budget_bytes * _EXPANSION_SHARE) // EXPANSION_BYTES_PER_HOP
    return max(_MIN_CHUNK_HOPS, limit)


def route_cache_budget_bytes() -> int:
    """Byte budget of the netsim route cache.

    ``REPRO_NETSIM_ROUTE_CACHE_MB`` when set, else a quarter of the
    overall budget.
    """
    raw = os.environ.get("REPRO_NETSIM_ROUTE_CACHE_MB")
    if raw is not None and raw.strip():
        return int(_mb_env("REPRO_NETSIM_ROUTE_CACHE_MB", 0.0) * 2**20)
    return int(mem_budget_bytes() * _ROUTE_CACHE_SHARE)


def placement_cache_budget_bytes() -> int:
    """Byte budget of the placement cache: an eighth of the overall budget."""
    return int(mem_budget_bytes() * _PLACEMENT_CACHE_SHARE)
