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

Routing and pricing go through the vectorized network engine
(:data:`repro.netsim.engine.VECTOR`). Callers pass the placement's
:attr:`~repro.core.mapping.base.Placement.vector`, built once per
placement, so one digest serves every exchange of an iteration and every
iteration that reuses the placement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.netsim.contention import CommEstimate
from repro.netsim.engine import VECTOR, LinkLoadVector, PlacementVector
from repro.obs.trace import tracer
from repro.perfsim.params import WorkloadParams
from repro.runtime.halo import halo_batch
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
    *its own* messages under those shared loads. An exchange with no
    messages costs :meth:`CommCost.zero` and is neither routed nor priced.
    """
    batches = [
        halo_batch(grid, rect, nx, ny, workload.halo)
        for rect, (nx, ny) in zip(rects, domains)
    ]
    costs = [CommCost.zero()] * len(batches)
    live = [i for i, msgs in enumerate(batches) if msgs]
    if not live:
        return costs
    tr = tracer()
    with tr.span(
        "netsim.exchange",
        {"exchanges": len(live), "messages": sum(len(batches[i]) for i in live)}
        if tr.enabled else None,
    ):
        routed = [VECTOR.route_exchange(torus, placement, batches[i]) for i in live]
        # Cached load vectors are shared and read-only: the sum is a new
        # array, and a lone exchange is priced against its own vector.
        loads = routed[0][1]
        if len(routed) > 1:
            loads = LinkLoadVector(
                torus, sum((lv.array for _, lv in routed[1:]), loads.array)
            )
        rounds = workload.halo.rounds_per_step
        for i, (exchange, _) in zip(live, routed):
            est = VECTOR.round_estimate(exchange, loads, machine)
            costs[i] = _cost_from_estimate(est, rounds)
    return costs
