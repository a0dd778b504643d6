"""Aggregate traffic metrics for reports (Fig 12-style numbers).

Reduces a routed :class:`~repro.netsim.engine.RoutedExchange` and its
:class:`~repro.netsim.engine.LinkLoadVector` to one
:class:`TrafficMetrics`. The reference engine's summary of the same
exchange (:func:`repro.verify.reference.netsim.traffic_metrics`) is
equal field for field.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.netsim.engine import LinkLoadVector, RoutedExchange

__all__ = ["TrafficMetrics", "traffic_metrics"]


@dataclass(frozen=True)
class TrafficMetrics:
    """Summary of a routed message set."""

    num_messages: int
    total_bytes: int
    average_hops: float
    max_hops: int
    hop_bytes: int
    max_link_bytes: int
    loaded_links: int

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"msgs={self.num_messages} avg_hops={self.average_hops:.3f} "
            f"max_link={self.max_link_bytes}B links={self.loaded_links}"
        )


def traffic_metrics(routed: RoutedExchange, loads: LinkLoadVector) -> TrafficMetrics:
    """Summarise a routed exchange and its link *loads*."""
    if not len(routed):
        return TrafficMetrics(0, 0, 0.0, 0, 0, 0, 0)
    return TrafficMetrics(
        num_messages=routed.num_messages,
        total_bytes=int(routed.nbytes.sum()),
        average_hops=int(routed.hops.sum()) / routed.num_messages,
        max_hops=int(routed.hops.max()),
        hop_bytes=int((routed.hops * routed.nbytes).sum()),
        max_link_bytes=loads.max_load(),
        loaded_links=loads.num_loaded_links(),
    )
