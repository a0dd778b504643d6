"""Reference network simulator: hop-by-hop routing over a per-link dict.

The original pure-Python engine, kept as the oracle for
:class:`repro.netsim.engine.VectorBackend`. Messages are routed one at a
time with :func:`~repro.topology.routing.path_links`, bytes accumulate
in a :class:`LinkLoads` counter keyed by :class:`~repro.topology.torus.Link`,
and a round is priced message by message with the max-link contention
model documented in :mod:`repro.netsim.contention`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence

from repro.netsim.contention import CommEstimate
from repro.netsim.metrics import TrafficMetrics
from repro.topology.machines import Machine
from repro.topology.routing import path_links
from repro.topology.torus import Link, Torus3D, TorusCoord
from repro.verify.reference.halo import HaloMessage

__all__ = [
    "RoutedMessage",
    "LinkLoads",
    "route_messages",
    "message_time",
    "round_time",
    "traffic_metrics",
]


@dataclass(frozen=True)
class RoutedMessage:
    """A halo message with its torus route resolved."""

    src_rank: int
    dst_rank: int
    nbytes: int
    links: tuple[Link, ...]

    @property
    def hops(self) -> int:
        """Number of torus links traversed (0 = intra-node)."""
        return len(self.links)


class LinkLoads:
    """Accumulated bytes per directed torus link."""

    __slots__ = ("_loads",)

    def __init__(self) -> None:
        self._loads: Counter[Link] = Counter()

    def add(self, link: Link, nbytes: int) -> None:
        """Charge *nbytes* against *link*."""
        self._loads[link] = self._loads.get(link, 0) + nbytes

    def load(self, link: Link) -> int:
        """Bytes accumulated on *link*."""
        return self._loads.get(link, 0)

    def max_load(self) -> int:
        """The heaviest link's byte count (0 when no traffic)."""
        return max(self._loads.values(), default=0)

    def total_bytes(self) -> int:
        """Total link-byte volume (equals hop-bytes of the message set)."""
        return sum(self._loads.values())

    def num_loaded_links(self) -> int:
        """Number of links that carried any traffic."""
        return len(self._loads)

    def items(self):
        """Iterate ``(link, bytes)`` pairs."""
        return self._loads.items()

    def merge(self, other: "LinkLoads") -> None:
        """Accumulate another load set into this one (concurrent traffic).

        Bulk ``Counter.update`` — this runs once per sibling when
        concurrent siblings are priced, so a per-key Python loop is hot.
        """
        self._loads.update(other._loads)

    def __len__(self) -> int:
        return len(self._loads)


def route_messages(
    torus: Torus3D,
    placement_nodes: Sequence[TorusCoord],
    messages: Iterable[HaloMessage],
) -> tuple[List[RoutedMessage], LinkLoads]:
    """Route *messages* between ranks placed at *placement_nodes*.

    Returns the routed messages and the per-link loads they induce.
    Messages between co-located ranks produce no link traffic.
    """
    loads = LinkLoads()
    routed: List[RoutedMessage] = []
    # Route cache: many ranks share node pairs (co-located ranks), and the
    # same exchange repeats every round — avoid recomputing paths. The
    # second level reuses whole RoutedMessage objects (they are frozen)
    # when an identical message recurs, instead of allocating a fresh
    # tuple-of-links wrapper per occurrence.
    cache: Dict[tuple[TorusCoord, TorusCoord], tuple[Link, ...]] = {}
    msg_cache: Dict[tuple[int, int, int], RoutedMessage] = {}
    for msg in messages:
        mkey = (msg.src, msg.dst, msg.nbytes)
        rm = msg_cache.get(mkey)
        if rm is None:
            src = placement_nodes[msg.src]
            dst = placement_nodes[msg.dst]
            key = (src, dst)
            links = cache.get(key)
            if links is None:
                links = tuple(path_links(torus, src, dst))
                cache[key] = links
            rm = RoutedMessage(
                src_rank=msg.src, dst_rank=msg.dst, nbytes=msg.nbytes, links=links
            )
            msg_cache[mkey] = rm
        for link in rm.links:
            loads.add(link, msg.nbytes)
        routed.append(rm)
    return routed, loads


def message_time(msg: RoutedMessage, loads: LinkLoads, machine: Machine) -> float:
    """Completion time of one routed message under *loads*."""
    t = machine.software_latency + msg.hops * machine.per_hop_latency
    if msg.links:
        worst = max(loads.load(link) for link in msg.links)
        t += worst / machine.link_bandwidth
    return t


def round_time(
    routed: Sequence[RoutedMessage], loads: LinkLoads, machine: Machine
) -> CommEstimate:
    """Cost of one exchange round (all messages concurrent)."""
    if not routed:
        return CommEstimate(time=0.0, ideal_time=0.0, average_hops=0.0, max_link_bytes=0)
    worst = 0.0
    ideal = 0.0
    hops_total = 0
    for msg in routed:
        worst = max(worst, message_time(msg, loads, machine))
        ideal = max(
            ideal,
            machine.software_latency + msg.nbytes / machine.link_bandwidth,
        )
        hops_total += msg.hops
    return CommEstimate(
        time=worst,
        ideal_time=ideal,
        average_hops=hops_total / len(routed),
        max_link_bytes=loads.max_load(),
    )


def traffic_metrics(
    routed: Sequence[RoutedMessage], loads: LinkLoads
) -> TrafficMetrics:
    """Summarise *routed* messages and their *loads*."""
    if not len(routed):
        return TrafficMetrics(0, 0, 0.0, 0, 0, 0, 0)
    hops = [m.hops for m in routed]
    return TrafficMetrics(
        num_messages=len(routed),
        total_bytes=sum(m.nbytes for m in routed),
        average_hops=sum(hops) / len(hops),
        max_hops=max(hops),
        hop_bytes=sum(m.hops * m.nbytes for m in routed),
        max_link_bytes=loads.max_load(),
        loaded_links=loads.num_loaded_links(),
    )
