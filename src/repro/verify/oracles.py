"""The invariant-oracle registry.

An *oracle* is a named checker of one system invariant over a fully-built
:class:`~repro.verify.scenarios.ScenarioRun`. Oracles raise
:class:`OracleViolation` with a human-readable message when the invariant
breaks; :func:`run_oracles` converts violations (and unexpected crashes)
into :class:`OracleFailure` records carrying the scenario's repro dict.

Registered invariants
---------------------
``rank-conservation``
    Concurrent plans assign every grid position to at most one sibling and
    never exceed the grid; sequential plans give every sibling the full
    grid; reported sibling ranks match the clamped rectangles.
``timeline-consistency``
    ``phase_time == r * step`` per sibling, ``sync_wait`` closes the gap to
    the nest phase, ``integration == parent + nest phase``,
    ``total == integration + io``, and the wait breakdown sums.
``monotone-scaling``
    On a fixed workload, per-domain *compute* time never increases as the
    rank count grows, and total iteration time never regresses beyond the
    machine's fixed per-step costs (total time is *not* strictly monotone
    — Fig 2's saturation — so the total gets a bounded-slack check).
``mapping-bijectivity``
    The placement is a bijection of ranks onto distinct slots of real
    torus nodes, re-derived from raw coordinates.
``strategy-bounds``
    Sec 3.2 structure: sequential nest phase is the *sum* of sibling
    phases with zero sync waits; parallel is the *max* with non-negative
    sync waits, at least one of them zero; a single sibling makes the two
    strategies exactly equal (the one-sibling regression guard).
``netsim-parity``
    The production path (``halo_batch`` -> vectorized engine -> round
    estimate) and the reference path (``halo_messages`` ->
    ``route_messages`` -> ``round_time``) agree exactly on a halo
    exchange drawn from the scenario's own placement.
``netsim-streaming-parity``
    Chunked expansion under a deliberately tiny hop limit reproduces the
    one-shot result — loads, summaries, and round estimate — bit-for-bit.
``report-sanity``
    All reported times/waits/hops are finite and non-negative and the
    report's identity fields match the plan and machine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from repro.core.scheduler.strategies import SequentialStrategy
from repro.netsim.engine import VECTOR, route_batch
from repro.netsim.metrics import traffic_metrics
from repro.perfsim.simulate import IterationReport, effective_rect, simulate_iteration
from repro.runtime.decomposition import grid_for
from repro.runtime.halo import HaloSpec, halo_batch
from repro.runtime.process_grid import GridRect
from repro.verify.reference import netsim as ref_netsim
from repro.verify.reference.halo import halo_messages
from repro.verify.reference.mapping import node_tuples
from repro.verify.scenarios import ScenarioRun

__all__ = [
    "OracleViolation",
    "OracleFailure",
    "oracle",
    "all_oracles",
    "get_oracle",
    "run_oracles",
]

#: Relative tolerance for float identities that are algebraic rearrangements.
REL_TOL = 1e-9
#: Bounded-slack allowance for the non-monotone tail of total iteration
#: time (saturation: fixed per-step costs grow with log2 of the ranks).
SCALING_REL_SLACK = 0.10
SCALING_ABS_SLACK = 0.02  # seconds


class OracleViolation(AssertionError):
    """An invariant oracle found a violated system invariant."""


@dataclass(frozen=True)
class OracleFailure:
    """One oracle failure, tied to the scenario that triggered it."""

    oracle: str
    message: str
    scenario: Dict[str, object]

    def render(self) -> str:
        """One-failure summary block."""
        return f"[{self.oracle}] {self.message}\n  repro: {self.scenario}"


OracleFn = Callable[[ScenarioRun], None]

_REGISTRY: Dict[str, OracleFn] = {}


def oracle(name: str) -> Callable[[OracleFn], OracleFn]:
    """Register *fn* as the invariant oracle called *name*."""

    def register(fn: OracleFn) -> OracleFn:
        if name in _REGISTRY:
            raise ValueError(f"oracle {name!r} registered twice")
        _REGISTRY[name] = fn
        return fn

    return register


def all_oracles() -> Dict[str, OracleFn]:
    """Snapshot of the registry (name -> checker)."""
    return dict(_REGISTRY)


def get_oracle(name: str) -> OracleFn:
    """Look up one oracle by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown oracle {name!r}; registered: {sorted(_REGISTRY)}"
        ) from None


def run_oracles(
    run: ScenarioRun, names: Optional[Sequence[str]] = None
) -> List[OracleFailure]:
    """Run the selected (default: all) oracles against one scenario run.

    Oracle crashes are failures too — an invariant checker that cannot
    even evaluate is reporting a broken system, not a broken test.
    """
    failures: List[OracleFailure] = []
    selected = list(names) if names is not None else sorted(_REGISTRY)
    for name in selected:
        fn = get_oracle(name)
        try:
            fn(run)
        except OracleViolation as exc:
            failures.append(OracleFailure(name, str(exc), run.scenario.params()))
        except Exception as exc:  # noqa: BLE001 — crashes are findings
            failures.append(
                OracleFailure(
                    name,
                    f"oracle crashed: {type(exc).__name__}: {exc}",
                    run.scenario.params(),
                )
            )
    return failures


# ----------------------------------------------------------------- helpers
def _require(condition: bool, message: str) -> None:
    if not condition:
        raise OracleViolation(message)


def _close(a: float, b: float, *, rel: float = REL_TOL, abs_tol: float = 1e-12) -> bool:
    return math.isclose(a, b, rel_tol=rel, abs_tol=abs_tol)


# ----------------------------------------------------------------- oracles
@oracle("rank-conservation")
def check_rank_conservation(run: ScenarioRun) -> None:
    """No rank serves two siblings at once; no plan exceeds the grid."""
    grid = run.grid
    # Sequential: every sibling gets the full grid.
    full = grid.full_rect()
    for a in run.seq_plan.assignments:
        _require(
            a.rect == full,
            f"sequential assignment {a.domain.name} runs on {a.rect}, "
            f"not the full grid {full}",
        )
    # Concurrent: claimed positions are pairwise distinct and in-bounds.
    positions = run.par_plan.covered_positions()
    _require(
        len(set(positions)) == len(positions),
        "parallel plan assigns at least one rank to two siblings "
        "(duplicated rank in the partition)",
    )
    _require(
        len(positions) <= grid.size,
        f"parallel plan claims {len(positions)} positions on a "
        f"{grid.size}-rank grid",
    )
    for a in run.par_plan.assignments:
        _require(
            a.rect.x1 <= grid.px and a.rect.y1 <= grid.py and a.rect.x0 >= 0,
            f"assignment {a.domain.name} rect {a.rect} exceeds grid "
            f"{grid.px}x{grid.py}",
        )
    # Reports: sibling rank counts equal their clamped rectangles.
    for plan, report in ((run.seq_plan, run.seq_report), (run.par_plan, run.par_report)):
        for a, sib in zip(plan.assignments, report.siblings):
            expect = effective_rect(a.rect, a.domain.nx, a.domain.ny).area
            _require(
                sib.ranks == expect,
                f"{report.strategy} sibling {sib.name} reports {sib.ranks} "
                f"ranks; clamped rectangle has {expect}",
            )


@oracle("timeline-consistency")
def check_timeline_consistency(run: ScenarioRun) -> None:
    """Reported times decompose exactly as the timeline algebra says."""
    for report in run.reports:
        concurrent = report.strategy != "sequential"
        for sib in report.siblings:
            expect = sib.steps_per_iteration * sib.step.total
            _require(
                _close(sib.phase_time, expect),
                f"{report.strategy} sibling {sib.name}: phase_time "
                f"{sib.phase_time!r} != r*step = {expect!r}",
            )
            gap = report.nest_phase_time - sib.phase_time
            expect_sync = gap if concurrent else 0.0
            _require(
                _close(sib.sync_wait, expect_sync, abs_tol=1e-9),
                f"{report.strategy} sibling {sib.name}: sync_wait "
                f"{sib.sync_wait!r} != {expect_sync!r}",
            )
        _require(
            _close(
                report.integration_time,
                report.parent.total + report.nest_phase_time,
            ),
            f"{report.strategy}: integration_time {report.integration_time!r} "
            f"!= parent + nest phase "
            f"{report.parent.total + report.nest_phase_time!r}",
        )
        _require(
            _close(report.total_time, report.integration_time + report.io_time),
            f"{report.strategy}: total_time != integration + io",
        )
        w = report.waits
        _require(
            _close(w.total, w.parent + w.nests + w.sync),
            f"{report.strategy}: wait breakdown does not sum",
        )


@oracle("monotone-scaling")
def check_monotone_scaling(run: ScenarioRun) -> None:
    """More ranks never hurt compute; total time regresses only by fixed costs."""
    base = run.scenario.ranks
    ladder = sorted({max(64, base // 4), max(64, base // 2), base})
    if len(ladder) < 2:
        return
    reports: List[IterationReport] = []
    for ranks in ladder:
        plan = SequentialStrategy().plan(
            grid_for(ranks), run.parent, list(run.siblings)
        )
        reports.append(simulate_iteration(plan, run.machine))
    for prev_ranks, prev, ranks, rep in zip(
        ladder, reports, ladder[1:], reports[1:]
    ):
        pairs = [("parent", prev.parent, rep.parent)] + [
            (s_prev.name, s_prev.step, s_now.step)
            for s_prev, s_now in zip(prev.siblings, rep.siblings)
        ]
        for name, step_prev, step_now in pairs:
            _require(
                step_now.compute.time <= step_prev.compute.time * (1 + REL_TOL),
                f"{name}: compute time grew from {step_prev.compute.time!r} "
                f"({prev_ranks} ranks) to {step_now.compute.time!r} "
                f"({ranks} ranks)",
            )
        bound = prev.integration_time * (1 + SCALING_REL_SLACK) + SCALING_ABS_SLACK
        _require(
            rep.integration_time <= bound,
            f"iteration time regressed beyond fixed-cost slack: "
            f"{prev.integration_time!r} at {prev_ranks} ranks -> "
            f"{rep.integration_time!r} at {ranks} ranks",
        )


@oracle("mapping-bijectivity")
def check_mapping_bijectivity(run: ScenarioRun) -> None:
    """Every rank sits on its own slot of a real torus node.

    Bounding the slots is enough: ``slot_indices`` rejects any slot
    outside the ``(X, Y, Z * rpn)`` slot box, and slot ``(x, y, s)``
    lies on node ``(x, y, s // rpn)``, which is inside the torus.
    """
    placement = run.placement
    _require(
        len(placement.slots) == run.grid.size,
        f"placement covers {len(placement.slots)} ranks, grid has "
        f"{run.grid.size}",
    )
    try:
        indices = placement.slot_indices()
    except Exception as exc:
        raise OracleViolation(f"placement has out-of-box slots: {exc}") from None
    _require(
        len(set(indices.tolist())) == len(indices),
        "placement is not injective: two ranks share a slot",
    )


@oracle("strategy-bounds")
def check_strategy_bounds(run: ScenarioRun) -> None:
    """Sequential sums, parallel maxes, and one sibling means no difference."""
    seq, par = run.seq_report, run.par_report
    _require(
        _close(seq.nest_phase_time, sum(s.phase_time for s in seq.siblings)),
        "sequential nest phase is not the sum of sibling phases",
    )
    _require(
        all(s.sync_wait == 0.0 for s in seq.siblings),
        "sequential siblings report non-zero sync waits",
    )
    par_phases = [s.phase_time for s in par.siblings]
    _require(
        _close(par.nest_phase_time, max(par_phases)),
        "parallel nest phase is not the max of sibling phases",
    )
    _require(
        all(s.sync_wait >= -1e-12 for s in par.siblings),
        "parallel sibling has negative sync wait",
    )
    _require(
        min(s.sync_wait for s in par.siblings) <= 1e-9,
        "no parallel sibling is the critical path (all sync waits > 0)",
    )
    if len(run.siblings) == 1:
        # Degenerate case: one sibling on the full grid under the default
        # mapping must price identically under both strategies (the
        # regression PR 1 guarded against).
        alone = simulate_iteration(run.par_plan, run.machine, io_model=run.io_model)
        _require(
            _close(alone.integration_time, seq.integration_time),
            f"one-sibling parallel plan prices {alone.integration_time!r}, "
            f"sequential {seq.integration_time!r} — strategies must agree",
        )


def _parity_exchange(run: ScenarioRun):
    """The smallest sibling's exchange, capped so the reference stays cheap.

    Returns ``(grid, rect, nx, ny)``.
    """
    rect = min(run.par_plan.rects, key=lambda r: r.area)
    a = next(x for x in run.par_plan.assignments if x.rect == rect)
    rect = effective_rect(rect, a.domain.nx, a.domain.ny)
    rect = GridRect(rect.x0, rect.y0, min(rect.width, 16), min(rect.height, 16))
    return run.grid, rect, a.domain.nx, a.domain.ny


@oracle("netsim-parity")
def check_netsim_parity(run: ScenarioRun) -> None:
    """Production and reference paths agree on a scenario-drawn exchange.

    Each path builds its own messages from the same rectangle and routes
    them over the same placement: a divergence in halo construction,
    routing, link loads, or pricing fails the check. The estimate the
    route cache holds for that exchange must match too.
    """
    grid, rect, nx, ny = _parity_exchange(run)
    batch = halo_batch(grid, rect, nx, ny, HaloSpec())
    msgs = halo_messages(grid, rect, nx, ny, HaloSpec())
    if not batch and not msgs:  # single-rank rectangle: nothing to route
        return
    torus = run.placement.space.torus
    placement = run.placement

    routed_v, loads_v = route_batch(torus, placement.vector, batch)
    routed_r, loads_r = ref_netsim.route_messages(torus, node_tuples(placement), msgs)
    m_v = traffic_metrics(routed_v, loads_v)
    m_r = ref_netsim.traffic_metrics(routed_r, loads_r)
    _require(
        m_v == m_r,
        f"production and reference disagree on traffic metrics: "
        f"production {m_v}, reference {m_r}",
    )
    _require(
        loads_v.as_dict() == dict(loads_r.items()),
        "production and reference disagree on per-link loads",
    )
    est_v = VECTOR.round_estimate(routed_v, loads_v, run.machine)
    est_r = ref_netsim.round_time(routed_r, loads_r, run.machine)
    _require(
        est_v == est_r,
        f"production and reference disagree on round estimate: "
        f"production {est_v}, reference {est_r}",
    )
    # The route cache's entry for the same exchange, keyed by structure.
    _, _, (est_c,) = VECTOR.route_exchange(
        torus, placement.vector, grid, ((rect, nx, ny),), HaloSpec(), run.machine
    )
    _require(
        est_c == est_r,
        f"route cache and reference disagree on round estimate: "
        f"cached {est_c}, reference {est_r}",
    )


@oracle("netsim-streaming-parity")
def check_netsim_streaming_parity(run: ScenarioRun) -> None:
    """Streamed routing is bit-identical to the one-shot path.

    Routes a scenario-drawn exchange twice through
    :func:`~repro.netsim.engine.route_batch`: once one-shot, once with a
    hop limit small enough to force chunking. The per-link load vectors
    and the round estimate must match exactly — the memory budget may change
    *how* the answer is computed, never the answer (see
    ``docs/cost_model.md``).
    """
    grid, rect, nx, ny = _parity_exchange(run)
    batch = halo_batch(grid, rect, nx, ny, HaloSpec())
    if not batch:  # single-rank rectangle: nothing to route
        return
    torus = run.placement.space.torus
    vector = run.placement.vector

    routed_o, loads_o = route_batch(torus, vector, batch)
    routed_c, loads_c = route_batch(torus, vector, batch, max_expand_hops=7)
    _require(
        bool((loads_c.array == loads_o.array).all()),
        "streamed link loads differ from the one-shot loads",
    )
    _require(
        loads_c.max_load() == loads_o.max_load()
        and loads_c.total_bytes() == loads_o.total_bytes(),
        f"streamed load summary ({loads_c.max_load()}, {loads_c.total_bytes()})"
        f" != one-shot ({loads_o.max_load()}, {loads_o.total_bytes()})",
    )
    est_o = VECTOR.round_estimate(routed_o, loads_o, run.machine)
    est_c = VECTOR.round_estimate(routed_c, loads_c, run.machine)
    _require(
        est_c == est_o,
        f"streamed round estimate {est_c!r} != one-shot {est_o!r}",
    )


@oracle("report-sanity")
def check_report_sanity(run: ScenarioRun) -> None:
    """Everything reported is finite, non-negative, and self-identifying."""
    for report in run.reports:
        values = {
            "integration_time": report.integration_time,
            "nest_phase_time": report.nest_phase_time,
            "io_time": report.io_time,
            "total_time": report.total_time,
            "mpi_wait": report.mpi_wait,
            "average_hops": report.average_hops,
            "parent.total": report.parent.total,
        }
        for key, value in values.items():
            _require(
                math.isfinite(value) and value >= 0.0,
                f"{report.strategy}: {key} = {value!r} is not a finite "
                "non-negative time",
            )
        _require(
            report.ranks == run.grid.size,
            f"{report.strategy}: report covers {report.ranks} ranks, "
            f"grid has {run.grid.size}",
        )
        _require(
            report.machine == run.machine.name,
            f"{report.strategy}: report machine {report.machine!r} != "
            f"{run.machine.name!r}",
        )
        _require(
            len(report.siblings) == len(run.siblings),
            f"{report.strategy}: {len(report.siblings)} sibling reports for "
            f"{len(run.siblings)} nests",
        )
    _require(
        run.par_report.mapping == run.placement.name,
        f"parallel report mapping {run.par_report.mapping!r} != placement "
        f"{run.placement.name!r}",
    )
