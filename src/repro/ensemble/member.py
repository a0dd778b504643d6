"""One ensemble member: a seeded steered run plus its pricing loop.

A member wraps a :class:`~repro.steering.driver.SteeredRun` with

* a **seed** and an RNG stream (``make_rng(seed)``) — branching forks
  the stream deterministically via :func:`branch_seed`, so a branched
  child's stream equals a fresh member seeded with the branch key;
* a **pricing loop**: after every tick that replanned (and on the first
  tick), the member prices its current scheduling state under *both*
  strategies through the cross-member memo — a hit returns the exact
  float64 vector a miss would have computed;
* **checkpoint/branch** support built on
  :meth:`~repro.steering.driver.SteeredRun.checkpoint`, so a member can
  be forked onto any worker and continue bit-exactly.

Everything a member reports per tick is split in two: the
:meth:`MemberTick.deterministic` payload (model state, modeled times,
priced vector — identical at any worker count) and wall-side
diagnostics (wall ns, memo source) that depend on scheduling and are
excluded from the determinism contract.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, replace
from typing import Any, Dict, Optional, Tuple

from repro.core.mapping.oblivious import ObliviousMapping
from repro.core.mapping.txyz import TxyzMapping
from repro.errors import ConfigurationError
from repro.exec.plancache import sequential_plan
from repro.iosim.model import IoModel
from repro.obs.trace import tracer
from repro.perfsim.simulate import simulate_iteration
from repro.runtime.decomposition import choose_process_grid
from repro.runtime.process_grid import ProcessGrid
from repro.steering.driver import SteeredRun
from repro.topology.machines import MACHINES
from repro.util.rng import make_rng
from repro.wrf.fields import ModelState
from repro.wrf.grid import DomainSpec
from repro.wrf.model import NestedModel

from repro.ensemble.memo import CrossMemberMemo, PricedState, state_digest

__all__ = [
    "EnsemblePolicy",
    "PricingContext",
    "MemberSpec",
    "default_member_spec",
    "branch_seed",
    "MemberTick",
    "MemberSummary",
    "EnsembleCheckpoint",
    "EnsembleMember",
]

_MAPPINGS = {"oblivious": ObliviousMapping, "txyz": TxyzMapping}


@dataclass(frozen=True)
class EnsemblePolicy:
    """How every member of an ensemble is priced (pure data, picklable)."""

    machine: str = "bgp"
    ranks: int = 4096
    mode: Optional[str] = None
    io: Optional[str] = "pnetcdf"
    mapping: str = "oblivious"
    #: Cross-member memoization of pricing work. Off prices every member
    #: individually — the benchmark's no-dedup baseline.
    memo: bool = True
    memo_slots: int = 8192

    def validate(self) -> None:
        if self.machine not in MACHINES:
            raise ConfigurationError(
                f"unknown machine {self.machine!r} "
                f"(choose from {sorted(MACHINES)})"
            )
        if self.mapping not in _MAPPINGS:
            raise ConfigurationError(
                f"unknown mapping {self.mapping!r} "
                f"(choose from {sorted(_MAPPINGS)})"
            )
        if self.ranks < 1:
            raise ConfigurationError(f"ranks must be >= 1, got {self.ranks}")
        if self.memo_slots < 1:
            raise ConfigurationError(
                f"memo_slots must be >= 1, got {self.memo_slots}"
            )


class PricingContext:
    """Resolved (non-picklable) pricing objects for one worker."""

    def __init__(self, policy: EnsemblePolicy):
        policy.validate()
        self.policy = policy
        self.machine = MACHINES[policy.machine]
        self.grid = ProcessGrid(*choose_process_grid(policy.ranks))
        self.mapping = _MAPPINGS[policy.mapping]()
        self.mode = policy.mode
        self.io_model = IoModel(policy.io) if policy.io else None
        #: Everything pricing depends on besides the domain specs — the
        #: policy half of the memo key.
        self.sig: Tuple[Any, ...] = (
            policy.machine,
            policy.mode or "",
            policy.io or "",
            policy.mapping,
            self.grid.px,
            self.grid.py,
        )


@dataclass(frozen=True)
class MemberSpec:
    """Deterministic recipe for one member (pure data, picklable)."""

    seed: int
    parent: DomainSpec
    nests: Tuple[DomainSpec, ...]
    num_depressions: int = 2
    amplitude: float = 1.2
    retrack_interval: int = 1
    min_move_cells: int = 1
    respawn_cost_s_per_point: float = 0.0
    #: Std-dev of the height perturbation a branched child applies from
    #: its own RNG stream; 0 keeps branches bit-identical to the parent
    #: until steering diverges them.
    branch_perturb: float = 0.0

    def with_seed(self, seed: int) -> "MemberSpec":
        return replace(self, seed=seed)


def default_member_spec(
    seed: int,
    *,
    parent_nx: int = 40,
    parent_ny: int = 32,
    dx_km: float = 24.0,
    nests: int = 2,
    nest_px: int = 10,
    refinement: int = 2,
    retrack_interval: int = 1,
    min_move_cells: int = 1,
    num_depressions: int = 2,
    amplitude: float = 1.2,
    respawn_cost_s_per_point: float = 0.0,
    branch_perturb: float = 0.0,
) -> MemberSpec:
    """The standard member shape used by the CLI, tests, and benchmark.

    Nests start spread along the parent's diagonal; the tracker pulls
    them onto the seeded depressions within the first few ticks.
    """
    if nests < 1:
        raise ConfigurationError(f"need at least one nest, got {nests}")
    parent = DomainSpec("d01", parent_nx, parent_ny, dx_km=dx_km)
    extent = -(-nest_px // refinement)  # ceil: footprint in parent cells
    max_x = parent_nx - extent - 1
    max_y = parent_ny - extent - 1
    if max_x < 1 or max_y < 1:
        raise ConfigurationError(
            f"nest {nest_px}px/r{refinement} does not fit a "
            f"{parent_nx}x{parent_ny} parent"
        )
    specs = []
    for i in range(nests):
        frac = i / max(1, nests - 1) if nests > 1 else 0.0
        start = (
            max(1, min(max_x, round(1 + frac * (max_x - 1)))),
            max(1, min(max_y, round(1 + frac * (max_y - 1)))),
        )
        specs.append(
            DomainSpec(
                f"d{i + 2:02d}", nest_px, nest_px, dx_km / refinement,
                parent="d01", parent_start=start,
                refinement=refinement, level=1,
            )
        )
    return MemberSpec(
        seed=seed,
        parent=parent,
        nests=tuple(specs),
        num_depressions=num_depressions,
        amplitude=amplitude,
        retrack_interval=retrack_interval,
        min_move_cells=min_move_cells,
        respawn_cost_s_per_point=respawn_cost_s_per_point,
        branch_perturb=branch_perturb,
    )


def branch_seed(parent_seed: int, branch_index: int) -> int:
    """Deterministic RNG seed for the *branch_index*-th fork of a member.

    A keyed hash, not an offset: forks of forks can never collide with
    sibling streams, and the child's stream is exactly the stream of a
    fresh member seeded with this value.
    """
    payload = f"repro.ensemble.branch:{parent_seed}:{branch_index}".encode()
    digest = hashlib.blake2b(payload, digest_size=8).digest()
    return int.from_bytes(digest, "little") >> 1  # keep it positive


@dataclass(frozen=True)
class MemberTick:
    """One member-tick. Deterministic core plus wall-side diagnostics."""

    member_id: int
    tick: int
    iteration: int
    sim_time_s: float
    features: int
    moved: int
    replanned: bool
    steer_model_s: float
    priced: PricedState
    #: Diagnostics — depend on worker scheduling, excluded from the
    #: deterministic payload.
    memo_source: str = "member"
    wall_ns: int = 0

    def deterministic(self) -> Dict[str, Any]:
        """The fields the jobs=1/N byte-identity contract covers."""
        return {
            "member": self.member_id,
            "tick": self.tick,
            "iteration": self.iteration,
            "sim_time_s": self.sim_time_s,
            "features": self.features,
            "moved": self.moved,
            "replanned": self.replanned,
            "steer_model_s": self.steer_model_s,
            "priced": list(self.priced.to_vector()),
        }

    @property
    def steer_time(self) -> float:
        """Alias so :func:`repro.obs.report.reconcile` can pair us."""
        return self.steer_model_s


@dataclass(frozen=True)
class MemberSummary:
    """Final deterministic account of one member."""

    member_id: int
    seed: int
    ticks: int
    sim_time_s: float
    alive: bool
    branches: int

    def to_json(self) -> Dict[str, Any]:
        return {
            "member": self.member_id,
            "seed": self.seed,
            "ticks": self.ticks,
            "sim_time_s": self.sim_time_s,
            "alive": self.alive,
            "branches": self.branches,
        }


@dataclass(frozen=True)
class EnsembleCheckpoint:
    """A member frozen for branching/migration (picklable)."""

    member_id: int
    spec: MemberSpec
    seed: int
    branch_count: int
    ticks: int
    sim_time_s: float
    steered: Any  # SteeredCheckpoint


class EnsembleMember:
    """A resident, tickable, checkpointable steered scenario."""

    def __init__(
        self,
        member_id: int,
        spec: MemberSpec,
        context: PricingContext,
        *,
        seed: Optional[int] = None,
        checkpoint: Optional[EnsembleCheckpoint] = None,
    ):
        self.member_id = member_id
        self.spec = spec
        self.context = context
        self.seed = seed if seed is not None else spec.seed
        self.rng = make_rng(self.seed)
        self.branch_count = 0
        self._priced: Optional[PricedState] = None
        if checkpoint is None:
            self.ticks = 0
            self.sim_time_s = 0.0
            state = ModelState.with_disturbances(
                spec.parent.nx,
                spec.parent.ny,
                num_depressions=spec.num_depressions,
                amplitude=spec.amplitude,
                seed=spec.seed,
            )
            model = NestedModel(
                spec.parent, list(spec.nests), initial_state=state
            )
            self.run = SteeredRun(
                model,
                context.grid,
                retrack_interval=spec.retrack_interval,
                min_move_cells=spec.min_move_cells,
                machine=context.machine,
                mapping=context.mapping,
                mode=context.mode,
                respawn_cost_s_per_point=spec.respawn_cost_s_per_point,
            )
        else:
            self.ticks = checkpoint.ticks
            self.sim_time_s = checkpoint.sim_time_s
            self.run = SteeredRun.restore(
                checkpoint.steered,
                context.grid,
                retrack_interval=spec.retrack_interval,
                min_move_cells=spec.min_move_cells,
                machine=context.machine,
                mapping=context.mapping,
                mode=context.mode,
                respawn_cost_s_per_point=spec.respawn_cost_s_per_point,
            )
            if spec.branch_perturb > 0.0:
                # Divergence seeded from the child's own stream — fully
                # determined by the branch key.
                h = self.run.model.state.h
                h += self.rng.normal(0.0, spec.branch_perturb, h.shape)

    # ------------------------------------------------------------------
    def state_digest(self) -> bytes:
        model = self.run.model
        specs = tuple(model.nests[n].spec for n in model.sibling_names)
        return state_digest(self.context.sig, model.parent_spec, specs)

    def _price(self) -> PricedState:
        ctx = self.context
        model = self.run.model
        specs = [model.nests[n].spec for n in model.sibling_names]
        seq = simulate_iteration(
            sequential_plan(ctx.grid, model.parent_spec, specs),
            ctx.machine,
            mapping=ctx.mapping,
            mode=ctx.mode,
            io_model=ctx.io_model,
        )
        par = simulate_iteration(
            self.run.plan,
            ctx.machine,
            mapping=ctx.mapping,
            mode=ctx.mode,
            io_model=ctx.io_model,
            placement=self.run.placement,
        )
        return PricedState.from_reports(seq, par)

    def tick(self, tick_index: int, memo: CrossMemberMemo) -> MemberTick:
        """Advance one outer iteration, steer, and (re)price on change."""
        t0 = time.perf_counter_ns()
        tr = tracer()
        run = self.run
        with tr.span(
            "ensemble.member_tick",
            {"member": self.member_id, "tick": tick_index}
            if tr.enabled
            else None,
        ):
            run.model.advance(None)
            event = None
            if run.model.iteration % run.retrack_interval == 0:
                event = run.steer()
            replanned = bool(event is not None and event.replanned)
            source = "member"
            if self._priced is None or replanned:
                found = memo.lookup(self.state_digest())
                if found is None:
                    self._priced = self._price()
                    memo.store(self.state_digest(), self._priced)
                    source = "computed"
                else:
                    self._priced, source = found
            priced = self._priced
            steer_model_s = event.steer_model_s if event is not None else 0.0
            self.sim_time_s += priced.par_total + steer_model_s
            self.ticks += 1
            if tr.enabled:
                # Per-member phase attribution under this tick's span
                # (the SteeredRun's own steer phase lives in its span).
                tr.phase("parent", priced.par_parent, {"member": self.member_id})
                tr.phase(
                    "nest", priced.par_nest_phase,
                    {"member": self.member_id, "sibling": "all"},
                )
                tr.phase("io", priced.par_io, {"member": self.member_id})
                tr.phase("steer", steer_model_s, {"member": self.member_id})
        return MemberTick(
            member_id=self.member_id,
            tick=tick_index,
            iteration=run.model.iteration,
            sim_time_s=self.sim_time_s,
            features=len(event.features) if event is not None else 0,
            moved=event.num_moved if event is not None else 0,
            replanned=replanned,
            steer_model_s=steer_model_s,
            priced=priced,
            memo_source=source,
            wall_ns=time.perf_counter_ns() - t0,
        )

    # ------------------------------------------------------------------
    def checkpoint(self) -> EnsembleCheckpoint:
        return EnsembleCheckpoint(
            member_id=self.member_id,
            spec=self.spec,
            seed=self.seed,
            branch_count=self.branch_count,
            ticks=self.ticks,
            sim_time_s=self.sim_time_s,
            steered=self.run.checkpoint(),
        )

    def next_branch_seed(self) -> int:
        """The seed the next branch of this member will run under."""
        return branch_seed(self.seed, self.branch_count)

    def summary(self, *, alive: bool) -> MemberSummary:
        return MemberSummary(
            member_id=self.member_id,
            seed=self.seed,
            ticks=self.ticks,
            sim_time_s=self.sim_time_s,
            alive=alive,
            branches=self.branch_count,
        )
