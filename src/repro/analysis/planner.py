"""Capacity planning: which scale, strategy, and mapping to use.

A downstream user's first question is operational: *given this nest
configuration and a machine, how many cores should I ask for, and with
which strategy/mapping?* This module sweeps the candidate space with the
cost simulator and returns ranked recommendations, including the
efficiency cliff — the scale beyond which extra cores are mostly wasted.
:func:`simulate_strategies` answers the one-scale question behind
``repro simulate`` and ``POST /simulate``: both strategies, one iteration.

The sweep is embarrassingly parallel over rank counts: pass ``jobs=N``
to fan the per-scale evaluation out over a process pool
(:class:`~repro.exec.pool.SweepRunner`). Results are byte-identical for
every worker count — each rank count is priced by a pure function of
the picklable task spec.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple

from repro.analysis.tables import Table
from repro.core.mapping.base import Mapping
from repro.core.mapping.multilevel import MultiLevelMapping
from repro.errors import ConfigurationError
from repro.exec.plancache import parallel_plan, sequential_plan
from repro.exec.pool import SweepRunner
from repro.iosim.model import IoModel
from repro.perfsim.params import WorkloadParams
from repro.perfsim.simulate import IterationReport, simulate_iteration
from repro.runtime.decomposition import grid_for
from repro.runtime.process_grid import ProcessGrid
from repro.topology.machines import Machine
from repro.workloads.regions import Configuration
from repro.wrf.grid import DomainSpec

__all__ = ["PlanOption", "PlanRecommendation", "recommend", "simulate_strategies"]


@dataclass(frozen=True)
class PlanOption:
    """One evaluated (ranks, strategy, mapping) combination."""

    ranks: int
    strategy: str
    mapping: str
    time_per_iteration: float
    #: Core-seconds spent per iteration (cost of the option).
    core_seconds: float
    #: Parallel efficiency relative to the cheapest evaluated run.
    efficiency: float


@dataclass(frozen=True)
class PlanRecommendation:
    """The ranked sweep results."""

    config_name: str
    machine: str
    options: Tuple[PlanOption, ...]
    #: Fastest option overall.
    fastest: PlanOption
    #: Fastest option whose efficiency is still >= the efficiency floor.
    recommended: PlanOption
    efficiency_floor: float

    def render(self) -> str:
        """Human-readable sweep table plus the recommendation."""
        t = Table(
            ["ranks", "strategy", "mapping", "s/iteration", "core-s/iter",
             "efficiency"],
            title=f"Capacity plan for {self.config_name} on {self.machine}",
        )
        for o in self.options:
            t.add_row([o.ranks, o.strategy, o.mapping, o.time_per_iteration,
                       o.core_seconds, o.efficiency])
        return (
            f"{t.render()}\n"
            f"fastest     : {self.fastest.ranks} ranks, "
            f"{self.fastest.strategy}/{self.fastest.mapping} "
            f"({self.fastest.time_per_iteration:.3f} s/iter)\n"
            f"recommended : {self.recommended.ranks} ranks, "
            f"{self.recommended.strategy}/{self.recommended.mapping} "
            f"({self.recommended.time_per_iteration:.3f} s/iter at "
            f"{self.recommended.efficiency:.0%} efficiency)"
        )


def _rank_candidates(max_ranks: int, min_ranks: int) -> List[int]:
    out = []
    r = min_ranks
    while r <= max_ranks:
        out.append(r)
        r *= 2
    if not out:
        raise ConfigurationError(
            f"no power-of-two rank counts in [{min_ranks}, {max_ranks}]"
        )
    return out


def _evaluate_scale(item) -> List[PlanOption]:
    """Price one rank count under all three strategy/mapping combos.

    Module-level and driven by a picklable tuple so the planner sweep
    can dispatch it to pool workers. Efficiency is filled by the caller
    once the cheapest option across the whole sweep is known.
    """
    (config, machine, mapping, workload, io_model, ratios, ranks) = item
    grid = grid_for(ranks)
    siblings = list(config.siblings)
    seq_plan = sequential_plan(grid, config.parent, siblings)
    par_plan = parallel_plan(grid, config.parent, siblings, ratios)
    candidates = [
        ("sequential", "oblivious", simulate_iteration(
            seq_plan, machine, workload=workload, io_model=io_model)),
        ("parallel", "oblivious", simulate_iteration(
            par_plan, machine, workload=workload, io_model=io_model)),
        ("parallel", mapping.name, simulate_iteration(
            par_plan, machine, mapping=mapping, workload=workload,
            io_model=io_model)),
    ]
    return [
        PlanOption(
            ranks=ranks,
            strategy=strategy,
            mapping=map_name,
            time_per_iteration=rep.total_time,
            core_seconds=rep.total_time * ranks,
            efficiency=0.0,  # filled by recommend() once the sweep is in
        )
        for strategy, map_name, rep in candidates
    ]


def recommend(
    config: Configuration,
    machine: Machine,
    *,
    max_ranks: int = 4096,
    min_ranks: int = 64,
    efficiency_floor: float = 0.5,
    mapping: Optional[Mapping] = None,
    workload: Optional[WorkloadParams] = None,
    io_model: Optional[IoModel] = None,
    jobs: int = 1,
) -> PlanRecommendation:
    """Sweep scales and strategies; recommend the efficient sweet spot.

    Efficiency of an option is ``(best core-seconds) / (its
    core-seconds)`` — 1.0 for the most work-efficient run. The
    *recommended* option is the fastest one whose efficiency stays at or
    above *efficiency_floor* (default: don't waste more than half the
    machine); the *fastest* option ignores efficiency. *jobs* fans the
    per-scale evaluations out over a process pool; the recommendation is
    identical for every worker count.
    """
    if not (0.0 < efficiency_floor <= 1.0):
        raise ConfigurationError("efficiency_floor must be in (0, 1]")
    mapping = mapping or MultiLevelMapping()
    siblings = list(config.siblings)
    ratios = tuple(
        float(s.points * s.steps_per_parent_step) for s in siblings
    )

    items = [
        (config, machine, mapping, workload, io_model, ratios, ranks)
        for ranks in _rank_candidates(max_ranks, min_ranks)
    ]
    sweep = SweepRunner(jobs).map(_evaluate_scale, items)
    options: List[PlanOption] = [o for group in sweep.results for o in group]

    best_core_seconds = min(o.core_seconds for o in options)
    options = [
        replace(o, efficiency=best_core_seconds / o.core_seconds)
        for o in options
    ]
    options.sort(key=lambda o: o.time_per_iteration)

    fastest = options[0]
    efficient = [o for o in options if o.efficiency >= efficiency_floor]
    recommended = efficient[0] if efficient else fastest
    return PlanRecommendation(
        config_name=config.name,
        machine=machine.name,
        options=tuple(options),
        fastest=fastest,
        recommended=recommended,
        efficiency_floor=efficiency_floor,
    )


def simulate_strategies(
    grid: ProcessGrid,
    parent: DomainSpec,
    siblings: Sequence[DomainSpec],
    machine: Machine,
    *,
    mapping: Optional[Mapping] = None,
    io_model: Optional[IoModel] = None,
) -> Tuple[IterationReport, IterationReport]:
    """One iteration on *grid* under the sequential and the parallel strategy.

    The parallel plan splits the grid by sibling point counts, and
    *mapping* places the parallel run only: the sequential baseline keeps
    the machine's default mapping. Returns ``(sequential, parallel)``.
    """
    siblings = list(siblings)
    seq_plan = sequential_plan(grid, parent, siblings)
    par_plan = parallel_plan(grid, parent, siblings, [s.points for s in siblings])
    seq = simulate_iteration(seq_plan, machine, io_model=io_model)
    par = simulate_iteration(par_plan, machine, mapping=mapping, io_model=io_model)
    return seq, par
