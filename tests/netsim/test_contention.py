"""Tests for the contention-aware message/round cost model."""

import pytest

from repro.topology.machines import BLUE_GENE_L
from repro.topology.torus import Torus3D
from repro.verify.reference.halo import HaloMessage
from repro.verify.reference.netsim import message_time, round_time, route_messages


@pytest.fixture
def ring():
    return Torus3D((8, 1, 1))


def route(ring, placement, msgs):
    return route_messages(ring, placement, msgs)


class TestMessageTime:
    def test_latency_only_for_intra_node(self, ring):
        routed, loads = route(ring, [(0, 0, 0), (0, 0, 0)], [HaloMessage(0, 1, 1000)])
        t = message_time(routed[0], loads, BLUE_GENE_L)
        assert t == pytest.approx(BLUE_GENE_L.software_latency)

    def test_uncontended_bandwidth(self, ring):
        routed, loads = route(ring, [(0, 0, 0), (1, 0, 0)], [HaloMessage(0, 1, 154_000)])
        t = message_time(routed[0], loads, BLUE_GENE_L)
        expected = (
            BLUE_GENE_L.software_latency
            + BLUE_GENE_L.per_hop_latency
            + 154_000 / BLUE_GENE_L.link_bandwidth
        )
        assert t == pytest.approx(expected)

    def test_contention_slows_message(self, ring):
        placement = [(0, 0, 0), (1, 0, 0), (2, 0, 0)]
        msgs = [HaloMessage(0, 2, 10_000), HaloMessage(1, 2, 10_000)]
        routed, loads = route(ring, placement, msgs)
        # Message 0 shares the 1->2 link with message 1.
        t_shared = message_time(routed[0], loads, BLUE_GENE_L)
        routed_alone, loads_alone = route(
            ring, placement, [HaloMessage(0, 2, 10_000)]
        )
        t_alone = message_time(routed_alone[0], loads_alone, BLUE_GENE_L)
        assert t_shared > t_alone

    def test_hop_latency_scales(self, ring):
        far, loads_far = route(ring, [(0, 0, 0), (3, 0, 0)], [HaloMessage(0, 1, 8)])
        near, loads_near = route(ring, [(0, 0, 0), (1, 0, 0)], [HaloMessage(0, 1, 8)])
        assert message_time(far[0], loads_far, BLUE_GENE_L) > message_time(
            near[0], loads_near, BLUE_GENE_L
        )


class TestRoundTime:
    def test_empty_round(self):
        est = round_time([], None, BLUE_GENE_L)  # loads unused when empty
        assert est.time == 0.0
        assert est.average_hops == 0.0

    def test_round_is_max_message(self, ring):
        placement = [(0, 0, 0), (1, 0, 0), (4, 0, 0)]
        msgs = [HaloMessage(0, 1, 1000), HaloMessage(0, 2, 100_000)]
        routed, loads = route(ring, placement, msgs)
        est = round_time(routed, loads, BLUE_GENE_L)
        slowest = max(message_time(m, loads, BLUE_GENE_L) for m in routed)
        assert est.time == pytest.approx(slowest)

    def test_ideal_bounded_by_actual(self, ring):
        placement = [(0, 0, 0), (2, 0, 0), (4, 0, 0)]
        msgs = [HaloMessage(0, 1, 5000), HaloMessage(1, 2, 5000)]
        routed, loads = route(ring, placement, msgs)
        est = round_time(routed, loads, BLUE_GENE_L)
        assert est.ideal_time <= est.time
        assert est.contention_excess >= 0.0

    def test_average_hops(self, ring):
        placement = [(0, 0, 0), (1, 0, 0), (3, 0, 0)]
        msgs = [HaloMessage(0, 1, 10), HaloMessage(0, 2, 10)]
        routed, loads = route(ring, placement, msgs)
        est = round_time(routed, loads, BLUE_GENE_L)
        assert est.average_hops == 2.0

    def test_max_link_bytes(self, ring):
        placement = [(0, 0, 0), (1, 0, 0), (2, 0, 0)]
        msgs = [HaloMessage(0, 2, 100), HaloMessage(1, 2, 300)]
        routed, loads = route(ring, placement, msgs)
        est = round_time(routed, loads, BLUE_GENE_L)
        assert est.max_link_bytes == 400
