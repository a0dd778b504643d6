"""Tests for aggregate traffic metrics."""

import numpy as np

from repro.netsim.engine import PlacementVector, route_batch
from repro.netsim.metrics import traffic_metrics
from repro.topology.torus import Torus3D
from repro.verify.reference.halo import HaloMessage, from_messages


def _route(torus, placement, msgs):
    placed = PlacementVector(torus, np.asarray(placement))
    return route_batch(torus, placed, from_messages(msgs))


class TestTrafficMetrics:
    def test_empty(self):
        routed, loads = _route(Torus3D((2, 2, 1)), [(0, 0, 0)], [])
        m = traffic_metrics(routed, loads)
        assert m.num_messages == 0
        assert m.average_hops == 0.0

    def test_counts(self):
        torus = Torus3D((4, 4, 1))
        placement = [(0, 0, 0), (1, 0, 0), (3, 0, 0)]
        msgs = [HaloMessage(0, 1, 100), HaloMessage(0, 2, 200), HaloMessage(1, 2, 50)]
        routed, loads = _route(torus, placement, msgs)
        m = traffic_metrics(routed, loads)
        assert m.num_messages == 3
        assert m.total_bytes == 350
        assert m.max_hops == 2
        assert m.hop_bytes == 100 * 1 + 200 * 1 + 50 * 2
        assert m.average_hops == (1 + 1 + 2) / 3
        assert m.loaded_links >= 2
