"""Memory budgeting for the network engine.

The vectorized engine's peak working set is the per-hop route expansion
(:mod:`repro.netsim.engine`): a handful of flat ``int64`` temporaries
whose length is the hop count being expanded. At 4k ranks that is a few
megabytes; at 131k+ ranks it grows into the hundreds of megabytes — so
the engine bounds it against one configurable budget:

    REPRO_NETSIM_MEM_MB=512        # total netsim working-set budget

From that single knob the engine derives

* the **expansion hop limit** — the most hops one expansion pass
  builds; an exchange whose total hops exceed it is built in several
  passes into the same stored routes (bit-identical to one pass, see
  ``docs/cost_model.md``),
* the **route-cache byte budget** (a quarter of the budget) — cached
  routed exchanges are evicted LRU-first once their resident bytes
  exceed it,
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
#: unset: a pass limit of 2,796,202 hops. Every paper-sized (<=8k rank)
#: exchange is built in one pass, and so is a 131,072-rank BG/P halo
#: exchange (at most 607,744 pair hops on the 32x32x32 torus). Those
#: take several passes only under a smaller budget: 64 MB allows
#: 349,525 hops a pass.
DEFAULT_MEM_MB = 512.0

#: Transient bytes per flat hop of a route expansion pass: the
#: index-algebra kernel materialises ~12 ``int64``-wide intermediates
#: (message ids, in-route positions, per-dimension selectors, node
#: coordinates, link ids). Used to convert the byte budget into a hop
#: count.
EXPANSION_BYTES_PER_HOP = 96

#: Fraction of the budget the route expansion may occupy (the rest is
#: headroom for message columns, accumulators, and cached results).
_EXPANSION_SHARE = 0.5

#: Never pass below this many hops: tiny passes would turn the array
#: kernel back into a Python loop.
_MIN_CHUNK_HOPS = 1024

#: Cache shares of the budget.
_ROUTE_CACHE_SHARE = 0.25
_PLACEMENT_CACHE_SHARE = 0.125


def mem_budget_bytes() -> int:
    """The netsim working-set budget (``REPRO_NETSIM_MEM_MB``), in bytes."""
    raw = os.environ.get("REPRO_NETSIM_MEM_MB")
    if raw is None or not raw.strip():
        return int(DEFAULT_MEM_MB * 2**20)
    try:
        value = float(raw)
    except ValueError:
        raise ConfigurationError(
            f"REPRO_NETSIM_MEM_MB={raw!r}: expected a megabyte count"
        ) from None
    if not math.isfinite(value) or value <= 0:
        raise ConfigurationError(
            f"REPRO_NETSIM_MEM_MB={raw!r}: budget must be positive"
        )
    return int(value * 2**20)


def expansion_hop_limit(budget_bytes: int | None = None) -> int:
    """Largest expansion pass the budget allows, in hops.

    Exchanges whose total hop count exceeds this are expanded in passes
    of at most this many hops (one pair minimum per pass).
    """
    if budget_bytes is None:
        budget_bytes = mem_budget_bytes()
    limit = int(budget_bytes * _EXPANSION_SHARE) // EXPANSION_BYTES_PER_HOP
    return max(_MIN_CHUNK_HOPS, limit)


def route_cache_budget_bytes() -> int:
    """Byte budget of the netsim route cache: a quarter of the overall budget."""
    return int(mem_budget_bytes() * _ROUTE_CACHE_SHARE)


def placement_cache_budget_bytes() -> int:
    """Byte budget of the placement cache: an eighth of the overall budget."""
    return int(mem_budget_bytes() * _PLACEMENT_CACHE_SHARE)
