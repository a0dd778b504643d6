"""Network simulation: routing, per-link traffic, contention.

Every halo message of a simulated step is routed over the torus with
dimension-ordered routing; bytes accumulate on each traversed link. The
cost of a message is its serialisation time on the *most loaded* link of
its route (bandwidth is shared), plus software and per-hop latencies —
the standard max-link-contention estimate. A communication *round* (one
of WRF's 36 per step) completes when its slowest message completes.

The vectorized NumPy engine (:mod:`repro.netsim.engine`) implements this
model. The pure-Python simulator it replaced is the oracle in
:mod:`repro.verify.reference.netsim`; the two are bit-identical on every
shared metric.
"""

from repro.netsim.contention import CommEstimate
from repro.netsim.metrics import traffic_metrics, TrafficMetrics
from repro.netsim.budget import (
    expansion_hop_limit,
    mem_budget_bytes,
    placement_cache_budget_bytes,
    route_cache_budget_bytes,
    sparse_mode,
)
from repro.netsim.engine import (
    LinkLoadVector,
    PlacementVector,
    RoutedExchange,
    as_placement,
    link_id_of,
    link_of_id,
    reset_route_cache,
    route_cache_stats,
    route_exchange_streamed,
)

__all__ = [
    "expansion_hop_limit",
    "mem_budget_bytes",
    "placement_cache_budget_bytes",
    "route_cache_budget_bytes",
    "route_exchange_streamed",
    "sparse_mode",
    "CommEstimate",
    "traffic_metrics",
    "TrafficMetrics",
    "LinkLoadVector",
    "PlacementVector",
    "RoutedExchange",
    "as_placement",
    "link_id_of",
    "link_of_id",
    "reset_route_cache",
    "route_cache_stats",
]
