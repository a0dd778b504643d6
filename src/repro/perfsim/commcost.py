"""Per-step halo-communication cost of a set of concurrent exchanges.

One exchange round's messages are built from the domain decomposition
(:func:`repro.runtime.halo.halo_batch`), routed over the torus, and
priced with the max-link contention model; the step performs
``rounds_per_step`` identical rounds. :func:`comm_costs` prices a *set*
of exchanges that run at the same time: link loads accumulate over every
exchange of the set before any message is priced, so a bad placement of
one sibling slows its neighbours — exactly the congestion effect the
paper's mappings relieve. A domain that exchanges alone (the parent
step, a sequential sibling, a profiling run) is the set of one, priced
against its own loads.

The whole set is one lookup in the vectorized network engine
(:meth:`repro.netsim.engine.VectorBackend.route_exchange`), keyed by the
set's structure: the grid width, each member's ``(rect, nx, ny)``, the
halo spec, the placement's digest and the machine's pricing constants.
An entry holds every member's priced round, so a repeated set — every
iteration and request that reuses a plan and placement — builds, routes
and prices nothing. Callers pass the placement's
:attr:`~repro.core.mapping.base.Placement.vector`, built once per
placement, so one digest serves every exchange that reuses it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.netsim.contention import CommEstimate
from repro.netsim.engine import VECTOR, PlacementVector
from repro.obs.trace import tracer
from repro.perfsim.params import WorkloadParams
from repro.runtime.process_grid import GridRect, ProcessGrid
from repro.topology.machines import Machine
from repro.topology.torus import Torus3D

__all__ = ["CommCost", "comm_costs"]


@dataclass(frozen=True)
class CommCost:
    """Communication breakdown of one integration step of one domain."""

    #: Wall time of all exchange rounds of the step.
    time: float
    #: Per-step communication floor (no contention, no hops, own bytes).
    ideal_time: float
    #: Mean hops of the domain's halo messages.
    average_hops: float
    #: Per-step MPI_Wait attributable to contention + hop latency.
    contention_wait: float
    #: Max bytes on any link during one round (diagnostic).
    max_link_bytes: int

    @staticmethod
    def zero() -> "CommCost":
        """No communication (single-rank sub-grid)."""
        return CommCost(0.0, 0.0, 0.0, 0.0, 0)


def _cost_from_estimate(est: CommEstimate, rounds: int) -> CommCost:
    return CommCost(
        time=est.time * rounds,
        ideal_time=est.ideal_time * rounds,
        average_hops=est.average_hops,
        contention_wait=est.contention_excess * rounds,
        max_link_bytes=est.max_link_bytes,
    )


def comm_costs(
    grid: ProcessGrid,
    rects: Sequence[GridRect],
    domains: Sequence[tuple[int, int]],
    torus: Torus3D,
    placement: PlacementVector,
    machine: Machine,
    workload: WorkloadParams,
) -> List[CommCost]:
    """Per-step halo costs of exchanges that run at the same time.

    Domain *i* (``domains[i]`` points over ``rects[i]``) exchanges its
    halo while all the others do. Link loads accumulate over every
    exchange of the set; each domain's round time is then the max over
    *its own* messages under those shared loads. A one-rank sub-grid has
    no neighbour: its exchange costs :meth:`CommCost.zero` and takes no
    part in the set.
    """
    costs = [CommCost.zero()] * len(rects)
    live = [i for i, rect in enumerate(rects) if rect.area > 1]
    if not live:
        return costs
    exchanges = tuple((rects[i], *domains[i]) for i in live)
    tr = tracer()
    attrs = {"exchanges": len(live)} if tr.enabled else None
    with tr.span("netsim.exchange", attrs):
        routed, _, estimates = VECTOR.route_exchange(
            torus, placement, grid, exchanges, workload.halo, machine
        )
        if attrs is not None:
            attrs["messages"] = routed.num_messages
    rounds = workload.halo.rounds_per_step
    for i, est in zip(live, estimates):
        costs[i] = _cost_from_estimate(est, rounds)
    return costs
