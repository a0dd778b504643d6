"""Per-step halo-communication cost under a placement.

One exchange round's messages are built from the domain decomposition
(:func:`repro.runtime.halo.halo_batch`), routed over the torus, and
priced with the max-link contention model; the step performs
``rounds_per_step`` identical rounds. When several siblings exchange
*concurrently* (the parallel strategy), all their messages share the
network: link loads accumulate across siblings before any message is
priced, so a bad placement of one sibling slows its neighbours — exactly
the congestion effect the paper's mappings relieve.

Routing and pricing go through the vectorized network engine
(:data:`repro.netsim.engine.VECTOR`). Callers may pass
``placement_nodes`` either as the ``(N, 3)`` node array of
:meth:`~repro.core.mapping.base.Placement.nodes_array` or pre-wrapped in
a :class:`~repro.netsim.engine.PlacementVector` (as
``simulate_iteration`` does) so one placement digest serves every
exchange of an iteration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.netsim.contention import CommEstimate
from repro.netsim.engine import VECTOR, PlacementLike
from repro.obs.trace import tracer
from repro.perfsim.params import WorkloadParams
from repro.runtime.halo import halo_batch
from repro.runtime.process_grid import GridRect, ProcessGrid
from repro.topology.machines import Machine
from repro.topology.torus import Torus3D

__all__ = ["CommCost", "halo_comm_cost", "concurrent_comm_costs"]


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


def halo_comm_cost(
    grid: ProcessGrid,
    rect: GridRect,
    nx: int,
    ny: int,
    torus: Torus3D,
    placement_nodes: PlacementLike,
    machine: Machine,
    workload: WorkloadParams,
) -> CommCost:
    """Per-step halo cost of one domain exchanging alone on the network."""
    msgs = halo_batch(grid, rect, nx, ny, workload.halo)
    if not msgs:
        return CommCost.zero()
    tr = tracer()
    if tr.enabled:
        # Attrs are built only on the enabled path: halo_exchange is on
        # the sweep hot path and must stay allocation-free when off.
        with tr.span(
            "netsim.halo_exchange", {"nx": nx, "ny": ny, "messages": len(msgs)}
        ):
            routed, loads = VECTOR.route_exchange(torus, placement_nodes, msgs)
            est = VECTOR.round_estimate(routed, loads, machine)
    else:
        routed, loads = VECTOR.route_exchange(torus, placement_nodes, msgs)
        est = VECTOR.round_estimate(routed, loads, machine)
    return _cost_from_estimate(est, workload.halo.rounds_per_step)


def concurrent_comm_costs(
    grid: ProcessGrid,
    rects: Sequence[GridRect],
    domains: Sequence[tuple[int, int]],
    torus: Torus3D,
    placement_nodes: PlacementLike,
    machine: Machine,
    workload: WorkloadParams,
) -> List[CommCost]:
    """Per-sibling halo costs when all siblings exchange simultaneously.

    Link loads accumulate over the union of all siblings' messages; each
    sibling's round time is then the max over *its own* messages under
    those shared loads.
    """
    tr = tracer()
    per_sibling = []
    shared = VECTOR.empty_loads(torus)
    with tr.span("netsim.concurrent_exchange"):
        for rect, (nx, ny) in zip(rects, domains):
            msgs = halo_batch(grid, rect, nx, ny, workload.halo)
            routed, local = VECTOR.route_exchange(torus, placement_nodes, msgs)
            per_sibling.append(routed)
            shared.merge(local)
    out: List[CommCost] = []
    for routed in per_sibling:
        if not len(routed):
            out.append(CommCost.zero())
            continue
        est = VECTOR.round_estimate(routed, shared, machine)
        out.append(_cost_from_estimate(est, workload.halo.rounds_per_step))
    return out
