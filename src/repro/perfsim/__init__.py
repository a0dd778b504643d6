"""Performance simulation of nested WRF-like runs on torus machines.

Prices an :class:`~repro.core.scheduler.plan.ExecutionPlan` on a
:class:`~repro.topology.machines.Machine`:

* per-rank compute from the block decomposition (max tile paces the step),
* halo communication routed over the torus with link contention
  (:mod:`repro.netsim`), concurrent siblings contending realistically,
* per-step runtime overhead, per-round synchronisation skew, and a
  logarithmic collective term — together these form the P-independent
  per-step cost whose elimination is the paper's core win,
* MPI_Wait accounting (skew + contention excess + imbalance + the
  sibling synchronisation wait of the parallel strategy),
* optional parallel I/O events (:mod:`repro.iosim`).

Calibration anchors (see DESIGN.md Sec 5) are asserted by
``tests/perfsim/test_calibration.py``.
"""

from repro.perfsim.params import WorkloadParams, OutputParams
from repro.perfsim.compute import ComputeCost, compute_time
from repro.perfsim.commcost import CommCost, comm_costs
from repro.perfsim.iteration import StepCost, step_cost
from repro.perfsim.simulate import IterationReport, SiblingReport, simulate_iteration
from repro.perfsim.waits import WaitBreakdown
from repro.perfsim.timeline import build_timeline, render_gantt, IterationTimeline

__all__ = [
    "WorkloadParams",
    "OutputParams",
    "ComputeCost",
    "compute_time",
    "CommCost",
    "comm_costs",
    "StepCost",
    "step_cost",
    "IterationReport",
    "SiblingReport",
    "simulate_iteration",
    "WaitBreakdown",
    "build_timeline",
    "render_gantt",
    "IterationTimeline",
]
