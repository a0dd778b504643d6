"""Seeded scenario generation for the differential verification subsystem.

A :class:`Scenario` is a *small, serialisable* description of one end-to-end
simulation setup: machine, rank count, parent domain, sibling-generation
seed, topology mapping, and I/O model. ``Scenario.build()`` expands it into
a :class:`ScenarioRun` — both strategies planned, both iterations simulated,
the parallel placement materialised — which is the object every invariant
oracle inspects.

Keeping the description tiny is what makes failure *minimization* work: the
fuzzer shrinks a failing scenario by editing this dict (fewer siblings,
fewer ranks, smaller parent, plainer mapping) and re-running the oracles,
so a failure report ends in a repro dict a human can paste into
``Scenario.from_params(...)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.mapping import MAPPINGS
from repro.core.mapping.base import Mapping, Placement, SlotSpace
from repro.core.scheduler.plan import ExecutionPlan
from repro.errors import ConfigurationError
from repro.exec.placementcache import cached_placement
from repro.exec.plancache import parallel_plan, sequential_plan
from repro.iosim.model import IO_NAMES, IoModel, io_model
from repro.perfsim.simulate import IterationReport, simulate_iteration
from repro.runtime.decomposition import grid_for
from repro.runtime.process_grid import ProcessGrid
from repro.topology.machines import MACHINES, Machine
from repro.util.rng import SeedLike, make_rng
from repro.workloads.generator import NestSizeRange, random_parent, random_siblings
from repro.wrf.grid import DomainSpec

__all__ = ["Scenario", "ScenarioRun", "random_scenario"]

#: Rank counts the fuzzer draws from. Powers of two fill whole nodes in
#: every Blue Gene execution mode; the weight toward small counts keeps a
#: 200-scenario budget inside seconds while still exercising large tori.
RANK_CHOICES: Tuple[int, ...] = (64, 128, 128, 256, 256, 512, 512, 1024, 2048)

IO_CHOICES: Tuple[str, ...] = ("none", "none", "pnetcdf", "split")


@dataclass(frozen=True)
class Scenario:
    """One fuzzable simulation setup, fully determined by its fields."""

    machine: str = "bgl"
    ranks: int = 256
    num_siblings: int = 2
    parent_nx: int = 286
    parent_ny: int = 307
    sibling_seed: int = 0
    mapping: str = "oblivious"
    io: str = "none"

    def __post_init__(self) -> None:
        if self.machine not in MACHINES:
            raise ConfigurationError(f"unknown machine {self.machine!r}")
        if self.mapping not in MAPPINGS:
            raise ConfigurationError(f"unknown mapping {self.mapping!r}")
        if self.io not in IO_NAMES:
            raise ConfigurationError(f"unknown io model {self.io!r}")

    # ------------------------------------------------------------------
    def params(self) -> Dict[str, object]:
        """The serialisable repro dict (inverse of :meth:`from_params`)."""
        return {
            "machine": self.machine,
            "ranks": self.ranks,
            "num_siblings": self.num_siblings,
            "parent_nx": self.parent_nx,
            "parent_ny": self.parent_ny,
            "sibling_seed": self.sibling_seed,
            "mapping": self.mapping,
            "io": self.io,
        }

    @classmethod
    def from_params(cls, params: Dict[str, object]) -> "Scenario":
        """Rebuild a scenario from a repro dict."""
        return cls(**params)  # type: ignore[arg-type]

    # ------------------------------------------------------------------
    def domains(self) -> Tuple[DomainSpec, List[DomainSpec]]:
        """The parent and sibling nests this scenario simulates.

        Sibling sizes are scaled to the parent so that the requested
        number of disjoint footprints is always geometrically feasible;
        raises :class:`ConfigurationError` when rejection sampling still
        cannot place them (the fuzzer treats that as "resample", not as
        a failure).
        """
        parent = DomainSpec(
            name="d01", nx=self.parent_nx, ny=self.parent_ny, dx_km=24.0
        )
        refinement = 3
        area_cells = self.parent_nx * self.parent_ny
        # Cap total footprint near half the parent; floor keeps nests
        # meaningfully larger than the 8-point minimum.
        max_fp = max(120, area_cells // (3 * self.num_siblings))
        min_fp = max(100, max_fp // 6)
        size_range = NestSizeRange(
            min_points=min_fp * refinement**2,
            max_points=max_fp * refinement**2,
        )
        siblings = random_siblings(
            parent,
            self.num_siblings,
            seed=self.sibling_seed,
            size_range=size_range,
            refinement=refinement,
        )
        return parent, siblings

    def build(self) -> "ScenarioRun":
        """Expand into plans, placements, and simulated reports."""
        machine = MACHINES[self.machine]
        parent, siblings = self.domains()
        grid = grid_for(self.ranks)

        # Memoized planning: shrink loops rebuild near-identical variants
        # and hit the cache for everything but the first build of a key.
        seq_plan = sequential_plan(grid, parent, siblings)
        par_plan = parallel_plan(
            grid, parent, siblings, [s.points for s in siblings]
        )

        mapping: Mapping = MAPPINGS[self.mapping]()
        rpn = machine.mode(None).ranks_per_node
        torus = machine.torus_for_ranks(self.ranks, None)
        space = SlotSpace(torus, rpn)
        # Memoized placement: the shrink loop revisits the same
        # (mapping, grid, space, rects) key for everything but the
        # dimension being shrunk.
        placement = cached_placement(mapping, grid, space, par_plan.rects)

        io = io_model(self.io)
        seq_report = simulate_iteration(seq_plan, machine, io_model=io)
        par_report = simulate_iteration(
            par_plan, machine, io_model=io, placement=placement
        )
        return ScenarioRun(
            scenario=self,
            machine=machine,
            grid=grid,
            parent=parent,
            siblings=tuple(siblings),
            seq_plan=seq_plan,
            par_plan=par_plan,
            placement=placement,
            io_model=io,
            seq_report=seq_report,
            par_report=par_report,
        )


@dataclass(frozen=True)
class ScenarioRun:
    """A fully-expanded scenario: what the invariant oracles inspect."""

    scenario: Scenario
    machine: Machine
    grid: ProcessGrid
    parent: DomainSpec
    siblings: Tuple[DomainSpec, ...]
    seq_plan: ExecutionPlan
    par_plan: ExecutionPlan
    placement: Placement
    io_model: Optional[IoModel]
    seq_report: IterationReport
    par_report: IterationReport

    @property
    def reports(self) -> Tuple[IterationReport, ...]:
        """Both strategy reports, sequential first."""
        return (self.seq_report, self.par_report)


def random_scenario(seed: SeedLike = None) -> Scenario:
    """Draw one random scenario from *seed* (int or shared generator)."""
    rng = make_rng(seed)
    parent = random_parent(rng)
    return Scenario(
        machine=str(rng.choice(("bgl", "bgp"))),
        ranks=int(rng.choice(RANK_CHOICES)),
        num_siblings=int(rng.integers(1, 5)),
        parent_nx=parent.nx,
        parent_ny=parent.ny,
        sibling_seed=int(rng.integers(0, 2**31 - 1)),
        mapping=str(rng.choice(tuple(MAPPINGS))),
        io=str(rng.choice(IO_CHOICES)),
    )
