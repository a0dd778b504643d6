"""Hypothesis parity: the vectorized engine vs the reference simulator.

Every shared metric must agree *exactly* — routes link by link, per-link
loads, ``max_link_bytes``, ``average_hops``, and ``round_time`` — across
random tori (including size-1 and even rings), random placements
(including co-located ranks), and random message sets (including
``src == dst`` intra-node messages). The engine gets the production
inputs (a ``HaloBatch`` and a ``PlacementVector``), the reference the
equivalent message list and coordinate tuples.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netsim.engine import VECTOR, PlacementVector, route_batch
from repro.netsim.metrics import traffic_metrics
from repro.topology.machines import BLUE_GENE_L, BLUE_GENE_P
from repro.topology.torus import Torus3D
from repro.verify.reference import netsim as ref
from repro.verify.reference.halo import HaloMessage, from_messages


@st.composite
def exchange_case(draw):
    """A random (torus, placement, message set) triple."""
    dims = (
        draw(st.integers(1, 5)),
        draw(st.integers(1, 5)),
        draw(st.integers(1, 6)),
    )
    torus = Torus3D(dims)
    n_ranks = draw(st.integers(1, 16))
    # Ranks land on arbitrary nodes, collisions allowed (co-located ranks).
    nodes = [
        torus.coord_of(r)
        for r in draw(
            st.lists(
                st.integers(0, torus.num_nodes - 1),
                min_size=n_ranks,
                max_size=n_ranks,
            )
        )
    ]
    rank = st.integers(0, n_ranks - 1)
    msgs = draw(
        st.lists(
            st.builds(HaloMessage, rank, rank, st.integers(1, 10**6)),
            min_size=0,
            max_size=24,
        )
    )
    return torus, nodes, msgs


def vector_route(torus, nodes, msgs):
    """The production engine on the production form of the exchange."""
    placed = PlacementVector(
        torus, np.asarray(nodes, dtype=np.int64).reshape(len(nodes), 3)
    )
    return route_batch(torus, placed, from_messages(msgs))


def both_engines(torus, nodes, msgs):
    routed_s, loads_s = ref.route_messages(torus, nodes, msgs)
    routed_v, loads_v = vector_route(torus, nodes, msgs)
    return routed_s, loads_s, routed_v, loads_v


@given(exchange_case())
@settings(max_examples=200, deadline=None)
def test_routes_identical_link_by_link(case):
    torus, nodes, msgs = case
    routed_s, _, routed_v, _ = both_engines(torus, nodes, msgs)
    assert routed_v.num_messages == len(routed_s) == len(msgs)
    for i, scalar_msg in enumerate(routed_s):
        links_v = routed_v.message_links(i)
        assert links_v == list(scalar_msg.links)
        # Route length is the minimal torus distance (dimension-ordered
        # routing never detours).
        distance = torus.distance(nodes[msgs[i].src], nodes[msgs[i].dst])
        assert int(routed_v.hops[i]) == scalar_msg.hops == distance


@given(exchange_case())
@settings(max_examples=200, deadline=None)
def test_link_loads_identical(case):
    torus, nodes, msgs = case
    _, loads_s, _, loads_v = both_engines(torus, nodes, msgs)
    assert loads_v.as_dict() == dict(loads_s.items())
    assert loads_v.max_load() == loads_s.max_load()
    assert loads_v.total_bytes() == loads_s.total_bytes()
    assert loads_v.num_loaded_links() == loads_s.num_loaded_links()


@given(exchange_case(), st.sampled_from([BLUE_GENE_L, BLUE_GENE_P]))
@settings(max_examples=200, deadline=None)
def test_round_time_bit_identical(case, machine):
    torus, nodes, msgs = case
    routed_s, loads_s, routed_v, loads_v = both_engines(torus, nodes, msgs)
    est_s = ref.round_time(routed_s, loads_s, machine)
    est_v = VECTOR.round_estimate(routed_v, loads_v, machine)
    # Exact float equality: the vector kernel reproduces the reference
    # operation order.
    assert est_v == est_s


@given(exchange_case())
@settings(max_examples=200, deadline=None)
def test_traffic_metrics_identical(case):
    torus, nodes, msgs = case
    routed_s, loads_s, routed_v, loads_v = both_engines(torus, nodes, msgs)
    assert traffic_metrics(routed_v, loads_v) == ref.traffic_metrics(routed_s, loads_s)


class TestFuzzedScenarioParity:
    """Parity on exchanges drawn from the verification scenario generator.

    The hypothesis cases above explore tiny hand-bounded tori; these pull
    whole-system scenarios (real machines, mapped placements, plan-shaped
    halo exchanges) from ``repro.verify``, so parity coverage grows with
    the scenario space instead of staying at the hand-picked cases.
    """

    @pytest.mark.parametrize("seed", range(8))
    def test_generated_scenario_parity(self, seed):
        import dataclasses

        from repro.verify import random_scenario
        from repro.verify.oracles import check_netsim_parity

        scenario = random_scenario(seed)
        # Cap the rank count so the reference stays cheap; shapes,
        # machines, mappings, and placements still come from the generator.
        scenario = dataclasses.replace(scenario, ranks=min(scenario.ranks, 256))
        run = scenario.build()
        check_netsim_parity(run)  # raises OracleViolation on divergence

    def test_generated_exchange_metrics_identical(self):
        from repro.runtime.halo import HaloSpec, halo_batch
        from repro.verify import Scenario
        from repro.verify.reference.halo import halo_messages
        from repro.verify.reference.mapping import node_tuples

        run = Scenario(
            machine="bgp", ranks=64, num_siblings=2, parent_nx=250,
            parent_ny=240, sibling_seed=12, mapping="multilevel",
        ).build()
        torus = run.placement.space.torus
        a = run.par_plan.assignments[0]
        shape = (run.grid, a.rect, a.domain.nx, a.domain.ny, HaloSpec())
        routed_s, loads_s = ref.route_messages(
            torus, node_tuples(run.placement), halo_messages(*shape)
        )
        routed_v, loads_v = route_batch(
            torus, run.placement.vector, halo_batch(*shape)
        )
        assert ref.traffic_metrics(routed_s, loads_s) == traffic_metrics(
            routed_v, loads_v
        )


class TestKnownCases:
    def test_even_ring_tie_breaks_positive(self):
        """Half way around an even ring routes in the + direction."""
        torus = Torus3D((4, 1, 1))
        nodes = [(0, 0, 0), (2, 0, 0)]
        msgs = [HaloMessage(0, 1, 10)]
        routed_v, _ = vector_route(torus, nodes, msgs)
        links = routed_v.message_links(0)
        assert [(l.src, l.dim, l.direction) for l in links] == [
            ((0, 0, 0), 0, 1),
            ((1, 0, 0), 0, 1),
        ]
        routed_s, _ = ref.route_messages(torus, nodes, msgs)
        assert links == list(routed_s[0].links)

    def test_intra_node_message_no_links(self):
        torus = Torus3D((3, 3, 3))
        nodes = [(1, 1, 1), (1, 1, 1)]
        routed_v, loads_v = vector_route(torus, nodes, [HaloMessage(0, 1, 99)])
        assert int(routed_v.hops[0]) == 0
        assert loads_v.total_bytes() == 0

    def test_shared_pair_routes_deduplicated(self):
        """Messages between the same node pair share one stored route."""
        torus = Torus3D((4, 4, 4))
        nodes = [(0, 0, 0), (0, 0, 0), (2, 1, 0), (2, 1, 0)]
        msgs = [HaloMessage(0, 2, 10), HaloMessage(1, 3, 20)]
        routed_v, loads_v = vector_route(torus, nodes, msgs)
        assert len(routed_v.pair_hops) == 1
        assert routed_v.message_links(0) == routed_v.message_links(1)
        # Both messages' bytes accumulate on the shared route.
        assert loads_v.max_load() == 30
