"""Tests for the reference simulator's message routing and link loads."""

import pytest

from repro.topology.torus import Link, Torus3D
from repro.verify.reference.halo import HaloMessage
from repro.verify.reference.netsim import LinkLoads, route_messages


@pytest.fixture
def ring():
    return Torus3D((4, 1, 1))


class TestLinkLoads:
    def test_accumulate(self):
        loads = LinkLoads()
        link = Link((0, 0, 0), 0, 1)
        loads.add(link, 100)
        loads.add(link, 50)
        assert loads.load(link) == 150
        assert loads.max_load() == 150
        assert loads.total_bytes() == 150
        assert loads.num_loaded_links() == 1

    def test_unloaded_link_zero(self):
        loads = LinkLoads()
        assert loads.load(Link((0, 0, 0), 0, 1)) == 0
        assert loads.max_load() == 0

    def test_merge(self):
        a, b = LinkLoads(), LinkLoads()
        link = Link((0, 0, 0), 0, 1)
        a.add(link, 10)
        b.add(link, 20)
        b.add(Link((1, 0, 0), 0, 1), 5)
        a.merge(b)
        assert a.load(link) == 30
        assert a.total_bytes() == 35


class TestRouteMessages:
    def test_neighbour_message_single_link(self, ring):
        placement = [(0, 0, 0), (1, 0, 0), (2, 0, 0), (3, 0, 0)]
        routed, loads = route_messages(ring, placement, [HaloMessage(0, 1, 100)])
        assert routed[0].hops == 1
        assert loads.total_bytes() == 100

    def test_intra_node_message_no_traffic(self, ring):
        placement = [(0, 0, 0), (0, 0, 0)]
        routed, loads = route_messages(ring, placement, [HaloMessage(0, 1, 100)])
        assert routed[0].hops == 0
        assert loads.total_bytes() == 0

    def test_multi_hop_loads_every_link(self, ring):
        placement = [(0, 0, 0), (2, 0, 0)]
        routed, loads = route_messages(ring, placement, [HaloMessage(0, 1, 10)])
        assert routed[0].hops == 2
        assert loads.num_loaded_links() == 2
        assert loads.max_load() == 10

    def test_shared_link_accumulates(self, ring):
        placement = [(0, 0, 0), (1, 0, 0), (2, 0, 0)]
        msgs = [HaloMessage(0, 2, 10), HaloMessage(1, 2, 20)]
        routed, loads = route_messages(ring, placement, msgs)
        # The link 1->2 carries both messages.
        shared = Link((1, 0, 0), 0, 1)
        assert loads.load(shared) == 30

    def test_hop_bytes_identity(self, ring):
        placement = [(0, 0, 0), (2, 0, 0), (3, 0, 0)]
        msgs = [HaloMessage(0, 1, 10), HaloMessage(1, 2, 7)]
        routed, loads = route_messages(ring, placement, msgs)
        hop_bytes = sum(m.hops * m.nbytes for m in routed)
        assert loads.total_bytes() == hop_bytes
