"""Shared machinery for the experiment drivers."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.mapping.base import Mapping, Placement, SlotSpace
from repro.core.mapping.oblivious import ObliviousMapping
from repro.core.prediction.basis import generate_candidates, select_basis
from repro.core.prediction.model import PerformanceModel
from repro.core.scheduler.plan import ExecutionPlan
from repro.exec.placementcache import cached_placement
from repro.exec.plancache import parallel_plan, sequential_plan
from repro.exec.pool import SweepRunner
from repro.iosim.model import IoModel
from repro.perfsim.params import WorkloadParams
from repro.perfsim.profiling import profile_step_time
from repro.perfsim.simulate import IterationReport, simulate_iteration
from repro.runtime.decomposition import grid_for
from repro.topology.machines import BLUE_GENE_L, BLUE_GENE_P, Machine
from repro.util.stats import percent_improvement
from repro.workloads.regions import Configuration

__all__ = [
    "fitted_model",
    "grid_for",
    "oblivious_placement",
    "compare_strategies",
    "compare_strategies_sweep",
    "warm_worker",
    "StrategyComparison",
]

#: Profiling runs use a fixed processor count, as in the paper (Sec 3.1).
PROFILE_RANKS = 512


def _machine_by_name(name: str) -> Machine:
    if name == BLUE_GENE_L.name:
        return BLUE_GENE_L
    if name == BLUE_GENE_P.name:
        return BLUE_GENE_P
    raise ValueError(f"unknown machine {name!r} for cached model")


@lru_cache(maxsize=8)
def _fitted_model_cached(machine_name: str, seed: int) -> PerformanceModel:
    machine = _machine_by_name(machine_name)
    candidates = generate_candidates(400, seed=seed)
    basis = select_basis(candidates)
    times = [profile_step_time(b, PROFILE_RANKS, machine) for b in basis]
    return PerformanceModel.from_measurements(basis, times)


def fitted_model(machine: Machine, *, seed: int = 7) -> PerformanceModel:
    """The Delaunay performance model fitted from 13 profiling runs.

    Cached per machine: fitting needs 13 cost-model evaluations, and every
    experiment shares the same model, as the paper's pipeline does.
    """
    return _fitted_model_cached(machine.name, seed)


def oblivious_placement(
    machine: Machine, num_ranks: int, mode: Optional[str] = None
) -> Placement:
    """Shared default placement (it ignores partition rectangles).

    Memoized in the process-wide placement cache
    (:mod:`repro.exec.placementcache`), so sweeps that revisit a rank
    count share one placement with ``simulate_iteration``.
    """
    grid = grid_for(num_ranks)
    rpn = machine.mode(mode).ranks_per_node
    space = SlotSpace(machine.torus_for_ranks(num_ranks, mode), rpn)
    return cached_placement(ObliviousMapping(), grid, space)


@dataclass(frozen=True)
class StrategyComparison:
    """Default-vs-parallel comparison of one configuration at one scale."""

    config: Configuration
    ranks: int
    sequential: IterationReport
    parallel: IterationReport

    @property
    def improvement(self) -> float:
        """% improvement in integration time (the paper's headline metric)."""
        return percent_improvement(
            self.sequential.integration_time, self.parallel.integration_time
        )

    @property
    def improvement_with_io(self) -> float:
        """% improvement including history I/O."""
        return percent_improvement(
            self.sequential.total_time, self.parallel.total_time
        )

    @property
    def wait_improvement(self) -> float:
        """% improvement in average per-rank MPI_Wait."""
        if self.sequential.mpi_wait <= 0:
            return 0.0
        return percent_improvement(self.sequential.mpi_wait, self.parallel.mpi_wait)


def compare_strategies(
    config: Configuration,
    num_ranks: int,
    machine: Machine,
    *,
    mapping: Optional[Mapping] = None,
    workload: Optional[WorkloadParams] = None,
    io_model: Optional[IoModel] = None,
    mode: Optional[str] = None,
) -> StrategyComparison:
    """Run the default and the parallel strategy on one configuration.

    The parallel plan's ratios come from the fitted Delaunay model —
    the complete paper pipeline (predict -> allocate -> map -> run).
    Plans are memoized (:mod:`repro.exec.plancache`): rank sweeps and
    fuzz shrink loops revisit the same (grid, siblings) pairs heavily.
    """
    grid = grid_for(num_ranks)
    model = fitted_model(machine)
    siblings = list(config.siblings)

    seq_plan = sequential_plan(grid, config.parent, siblings)
    ratios = model.predict_ratios(siblings)
    par_plan = parallel_plan(grid, config.parent, siblings, ratios)

    seq_placement = None
    if mapping is None:
        # The sequential baseline always uses the machine default mapping;
        # share the cached placement across configurations.
        seq_placement = oblivious_placement(machine, num_ranks, mode)

    seq = simulate_iteration(
        seq_plan,
        machine,
        mapping=mapping,
        mode=mode,
        workload=workload,
        io_model=io_model,
        placement=seq_placement,
    )
    par = simulate_iteration(
        par_plan,
        machine,
        mapping=mapping,
        mode=mode,
        workload=workload,
        io_model=io_model,
        placement=seq_placement if mapping is None else None,
    )
    return StrategyComparison(
        config=config, ranks=num_ranks, sequential=seq, parallel=par
    )


def warm_worker(machine_name: str, seed: int = 7) -> None:
    """Pool-worker initializer: fit the shared model once per worker.

    Fitting costs 13 cost-model profiling runs; doing it in the
    initializer keeps it off every task's critical path. Safe (and a
    no-op beyond cache warming) in the parent process too.
    """
    fitted_model(_machine_by_name(machine_name), seed=seed)


def _compare_task(item) -> StrategyComparison:
    """Picklable per-(config, ranks) sweep task for the pool."""
    (config, num_ranks, machine, mapping, workload, io_model, mode) = item
    return compare_strategies(
        config,
        num_ranks,
        machine,
        mapping=mapping,
        workload=workload,
        io_model=io_model,
        mode=mode,
    )


def compare_strategies_sweep(
    pairs: Sequence[Tuple[Configuration, int]],
    machine: Machine,
    *,
    mapping: Optional[Mapping] = None,
    workload: Optional[WorkloadParams] = None,
    io_model: Optional[IoModel] = None,
    mode: Optional[str] = None,
    jobs: int = 1,
) -> List[StrategyComparison]:
    """Run :func:`compare_strategies` over many (config, ranks) pairs.

    With ``jobs > 1`` the pairs fan out over a process pool whose
    workers pre-fit the performance model in their initializer. Results
    come back in input order and are byte-identical to ``jobs=1`` — the
    comparison is a pure function of the pair, and per-worker caches
    (model fit, placements, plans) only change *when* work happens, not
    its value.
    """
    items = [
        (config, ranks, machine, mapping, workload, io_model, mode)
        for config, ranks in pairs
    ]
    runner = SweepRunner(
        jobs, initializer=warm_worker, initargs=(machine.name,)
    )
    return list(runner.map(_compare_task, items).results)
