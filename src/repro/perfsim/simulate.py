"""The full iteration simulator.

``simulate_iteration`` prices one outer iteration of a nested run —
parent step, then every sibling's ``r`` fine steps, then the feedback
synchronisation, plus amortised history I/O — under a scheduling plan, a
machine, and a topology mapping. This is the function every experiment
in the paper reduces to.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.core.mapping.base import Mapping, Placement, SlotSpace
from repro.core.mapping.oblivious import ObliviousMapping
from repro.core.scheduler.plan import ExecutionPlan
from repro.errors import SimulationError
from repro.exec.placementcache import cached_placement
from repro.iosim.model import IoModel
from repro.obs.metrics import sample_rss
from repro.obs.trace import tracer
from repro.perfsim.commcost import comm_costs
from repro.perfsim.compute import compute_time
from repro.perfsim.iteration import StepCost, step_cost
from repro.perfsim.params import WorkloadParams
from repro.perfsim.waits import WaitBreakdown
from repro.runtime.process_grid import GridRect
from repro.topology.machines import Machine

__all__ = ["SiblingReport", "IterationReport", "simulate_iteration", "effective_rect"]


def effective_rect(rect, nx: int, ny: int):
    """Clamp a processor rectangle to what an ``nx x ny`` domain can use.

    WRF cannot decompose a domain over more rank rows/columns than it has
    grid rows/columns; beyond that point extra ranks idle. Clamping keeps
    the largest feasible sub-grid anchored at the rectangle's origin —
    generous to the sequential baseline, which is the strategy that runs
    small nests on the full machine.
    """
    w = min(rect.width, nx)
    h = min(rect.height, ny)
    if w == rect.width and h == rect.height:
        return rect
    return GridRect(rect.x0, rect.y0, w, h)


@dataclass(frozen=True)
class SiblingReport:
    """Cost of one sibling's nest phase within an iteration."""

    name: str
    ranks: int
    steps_per_iteration: int
    step: StepCost
    #: Wall time of this sibling's whole nest phase (r fine steps).
    phase_time: float
    #: Wait at the feedback sync (parallel strategy; 0 when sequential).
    sync_wait: float


@dataclass(frozen=True)
class IterationReport:
    """Everything the experiments read off one simulated iteration."""

    strategy: str
    mapping: str
    machine: str
    ranks: int
    parent: StepCost
    siblings: Tuple[SiblingReport, ...]
    #: Wall time of the sibling phase (sum under sequential, max under
    #: parallel).
    nest_phase_time: float
    #: Parent step + nest phase (the paper's "integration time").
    integration_time: float
    #: Amortised per-iteration history-output time (0 if disabled).
    io_time: float
    #: Average per-rank MPI_Wait per iteration, by source.
    waits: WaitBreakdown
    #: Message-weighted mean torus hops over all exchanges this iteration.
    average_hops: float

    @property
    def total_time(self) -> float:
        """Integration + I/O per iteration."""
        return self.integration_time + self.io_time

    @property
    def mpi_wait(self) -> float:
        """Average per-rank MPI_Wait per iteration."""
        return self.waits.total


def simulate_iteration(
    plan: ExecutionPlan,
    machine: Machine,
    *,
    mapping: Optional[Mapping] = None,
    mode: Optional[str] = None,
    workload: Optional[WorkloadParams] = None,
    io_model: Optional[IoModel] = None,
    placement: Optional[Placement] = None,
) -> IterationReport:
    """Price one outer iteration of *plan* on *machine*.

    Parameters
    ----------
    mapping:
        Topology mapping heuristic; defaults to the Blue Gene XYZT
        default (topology-oblivious). Ignored when *placement* is given.
    mode:
        Machine execution mode name (default: the machine's default,
        VN on both Blue Genes as in the paper).
    io_model:
        ``None`` disables history output entirely; pass
        ``IoModel("pnetcdf")`` or ``IoModel("split")`` to include it.
    placement:
        Pre-computed placement (lets callers share one across repeated
        simulations of the same configuration).
    """
    tr = tracer()
    if not tr.enabled:
        return _simulate(plan, machine, mapping, mode, workload, io_model, placement)
    with tr.span(
        "perfsim.simulate_iteration",
        {"strategy": plan.strategy, "machine": machine.name,
         "ranks": plan.grid.size},
    ):
        report = _simulate(
            plan, machine, mapping, mode, workload, io_model, placement
        )
        _emit_phases(tr, plan.concurrent, report)
        # Memory high-water observability: one RSS sample per traced
        # iteration keeps proc.rss.peak_bytes tracking the simulation's
        # working set (routing expansion, caches) with no measurable
        # overhead on the untraced fast path.
        # Throttled: procfs reads on every traced simulate would blow
        # the tracing-overhead budget (bench_obs_overhead.py).
        rss = sample_rss(throttle_s=0.05)
        if rss is not None:
            tr.event(
                "perfsim.rss", {"current": rss["current"], "peak": rss["peak"]}
            )
    return report


def _emit_phases(tr, concurrent: bool, report: IterationReport) -> None:
    """Publish the iteration's model-time phase samples to the tracer.

    Per-sibling wait contributions repeat the exact expressions of the
    wait accounting below, so the profile report can re-aggregate
    ``mpi_wait`` from the trace and reconcile with the report to 1e-9.
    """
    common = {
        "strategy": report.strategy,
        "machine": report.machine,
        "ranks": report.ranks,
        "concurrent": concurrent,
    }
    ranks = report.ranks
    tr.phase("parent", report.parent.total, {**common, "wait": report.parent.wait})
    for s in report.siblings:
        share = s.ranks / ranks if concurrent else 1.0
        tr.phase(
            "nest",
            s.phase_time,
            {
                **common,
                "sibling": s.name,
                "sibling_ranks": s.ranks,
                "steps": s.steps_per_iteration,
                "wait_contrib": share * s.steps_per_iteration * s.step.wait,
                "sync_contrib": share * s.sync_wait if concurrent else 0.0,
            },
        )
    tr.phase("io", report.io_time, common)
    tr.event(
        "perfsim.waits",
        {**common, "parent": report.waits.parent, "nests": report.waits.nests,
         "sync": report.waits.sync, "total": report.waits.total},
    )


def _simulate(
    plan: ExecutionPlan,
    machine: Machine,
    mapping: Optional[Mapping],
    mode: Optional[str],
    workload: Optional[WorkloadParams],
    io_model: Optional[IoModel],
    placement: Optional[Placement],
) -> IterationReport:
    """The untraced pricing body of :func:`simulate_iteration`."""
    tr = tracer()
    workload = workload or WorkloadParams()
    grid = plan.grid
    ranks = grid.size

    if placement is None:
        rpn = machine.mode(mode).ranks_per_node
        torus = machine.torus_for_ranks(ranks, mode)
        space = SlotSpace(torus, rpn)
        mapping = mapping or ObliviousMapping()
        placement = cached_placement(
            mapping, grid, space, plan.rects if plan.concurrent else None
        )
    torus = placement.space.torus
    # The placement built its PlacementVector once; the parent and every
    # sibling exchange share its route-cache digest.
    vector = placement.vector

    # ------------------------------------------------------------ parent
    with tr.span("perfsim.parent_step"):
        parent = plan.parent
        parent_rect = effective_rect(grid.full_rect(), parent.nx, parent.ny)
        p_comp = compute_time(
            parent.nx, parent.ny, parent_rect.width, parent_rect.height,
            machine, workload
        )
        (p_comm,) = comm_costs(
            grid, [parent_rect], [(parent.nx, parent.ny)], torus, vector,
            machine, workload
        )
        parent_cost = step_cost(p_comp, p_comm, machine, workload, parent_rect.area)

    # ---------------------------------------------------------- siblings
    with tr.span("perfsim.sibling_steps"):
        sib_rects = [
            effective_rect(a.rect, a.domain.nx, a.domain.ny)
            for a in plan.assignments
        ]
        sib_domains = [(a.domain.nx, a.domain.ny) for a in plan.assignments]
        if plan.concurrent:
            comms = comm_costs(
                grid, sib_rects, sib_domains, torus, vector, machine, workload
            )
        else:
            comms = [
                comm_costs(
                    grid, [rect], [domain], torus, vector, machine, workload
                )[0]
                for rect, domain in zip(sib_rects, sib_domains)
            ]

        sib_steps: List[StepCost] = []
        phase_times: List[float] = []
        for a, rect, comm in zip(plan.assignments, sib_rects, comms):
            comp = compute_time(
                a.domain.nx, a.domain.ny, rect.width, rect.height, machine, workload
            )
            sc = step_cost(comp, comm, machine, workload, rect.area)
            sib_steps.append(sc)
            phase_times.append(a.domain.steps_per_parent_step * sc.total)

    if plan.concurrent:
        nest_phase = max(phase_times, default=0.0)
        sync_waits = [nest_phase - t for t in phase_times]
    else:
        nest_phase = sum(phase_times)
        sync_waits = [0.0] * len(phase_times)

    siblings = tuple(
        SiblingReport(
            name=a.domain.name,
            ranks=rect.area,
            steps_per_iteration=a.domain.steps_per_parent_step,
            step=sc,
            phase_time=pt,
            sync_wait=sw,
        )
        for a, rect, sc, pt, sw in zip(
            plan.assignments, sib_rects, sib_steps, phase_times, sync_waits
        )
    )

    # ------------------------------------------------------------- waits
    if plan.concurrent:
        # A rank belongs to exactly one sibling: weight by rank share.
        nest_wait = sum(
            (s.ranks / ranks) * s.steps_per_iteration * s.step.wait for s in siblings
        )
        sync_wait = sum((s.ranks / ranks) * s.sync_wait for s in siblings)
    else:
        nest_wait = sum(s.steps_per_iteration * s.step.wait for s in siblings)
        sync_wait = 0.0
    waits = WaitBreakdown(parent=parent_cost.wait, nests=nest_wait, sync=sync_wait)

    # --------------------------------------------------------------- I/O
    io_time = 0.0
    if io_model is not None and workload.output.enabled:
        with tr.span("perfsim.history_io"):
            file_bytes = [
                a.domain.points * workload.output.bytes_per_point
                for a in plan.assignments
            ]
            writers = [
                rect.area if plan.concurrent else ranks for rect in sib_rects
            ]
            if workload.output.include_parent:
                file_bytes.insert(0, parent.points * workload.output.bytes_per_point)
                writers.insert(0, ranks)
            elif plan.concurrent:
                # event_cost treats the first file as the all-ranks parent
                # write; without one, siblings simply overlap.
                file_bytes.insert(0, 0.0)
                writers.insert(0, 1)
            event = io_model.event_cost(
                file_bytes, writers, concurrent=plan.concurrent, machine=machine
            )
            io_time = event.time / workload.output.interval_steps

    # --------------------------------------------------------- avg hops
    weights = [1.0] + [float(s.steps_per_iteration) for s in siblings]
    hop_values = [p_comm.average_hops] + [c.average_hops for c in comms]
    wsum = sum(weights)
    avg_hops = sum(w * h for w, h in zip(weights, hop_values)) / wsum if wsum else 0.0

    return IterationReport(
        strategy=plan.strategy,
        mapping=placement.name,
        machine=machine.name,
        ranks=ranks,
        parent=parent_cost,
        siblings=siblings,
        nest_phase_time=nest_phase,
        integration_time=parent_cost.total + nest_phase,
        io_time=io_time,
        waits=waits,
        average_hops=avg_hops,
    )
