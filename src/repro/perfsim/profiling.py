"""Profiling runs: the step time of a single domain on a fixed grid.

The paper's performance model is fitted from 13 profiling runs "on a
fixed number of processors" (Sec 3.1). This helper is that profiling
harness: it prices one integration step of one domain over a given
process grid, including its halo exchange under a placement.
"""

from __future__ import annotations

from typing import Optional

from repro.core.mapping.base import Mapping, SlotSpace
from repro.core.mapping.oblivious import ObliviousMapping
from repro.exec.placementcache import cached_placement
from repro.perfsim.commcost import comm_costs
from repro.perfsim.compute import compute_time
from repro.perfsim.iteration import StepCost, step_cost
from repro.perfsim.params import WorkloadParams
from repro.runtime.decomposition import choose_process_grid
from repro.runtime.process_grid import ProcessGrid
from repro.topology.machines import Machine
from repro.wrf.grid import DomainSpec

__all__ = ["profile_step", "profile_step_time"]


def profile_step(
    spec: DomainSpec,
    grid: ProcessGrid,
    machine: Machine,
    *,
    workload: Optional[WorkloadParams] = None,
    mapping: Optional[Mapping] = None,
    mode: Optional[str] = None,
) -> StepCost:
    """Full cost breakdown of one step of *spec* on *grid*."""
    workload = workload or WorkloadParams()
    rpn = machine.mode(mode).ranks_per_node
    torus = machine.torus_for_ranks(grid.size, mode)
    space = SlotSpace(torus, rpn)
    placement = cached_placement(mapping or ObliviousMapping(), grid, space)
    comp = compute_time(spec.nx, spec.ny, grid.px, grid.py, machine, workload)
    (comm,) = comm_costs(
        grid,
        [grid.full_rect()],
        [(spec.nx, spec.ny)],
        torus,
        placement.vector,
        machine,
        workload,
    )
    return step_cost(comp, comm, machine, workload, grid.size)


def profile_step_time(
    spec: DomainSpec,
    num_ranks: int,
    machine: Machine,
    *,
    workload: Optional[WorkloadParams] = None,
    mode: Optional[str] = None,
) -> float:
    """Step time of *spec* on *num_ranks* ranks (grid chosen WRF-style)."""
    px, py = choose_process_grid(num_ranks, domain_aspect=spec.aspect_ratio)
    return profile_step(
        spec, ProcessGrid(px, py), machine, workload=workload, mode=mode
    ).total
