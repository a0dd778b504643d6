"""Seeded scenario fuzzing with greedy failure minimization.

:func:`fuzz` draws *budget* random scenarios from one seed, builds each,
and runs every registered invariant oracle against it. Failures are then
*shrunk*: the fuzzer repeatedly edits the scenario's repro dict toward a
canonical small form (fewer siblings, fewer ranks, smaller parent, the
oblivious mapping, no I/O) and keeps any edit that still reproduces a
failure of the same oracle. The result is a minimal repro dict —
``Scenario.from_params(...)`` away from a debugger.

Scenario *generation* infeasibility (rejection sampling cannot place the
requested disjoint nests) is not a failure: the draw is skipped and
replaced, and the skip is counted in the report.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.exec.pool import SweepRunner
from repro.obs.metrics import counter as _obs_counter
from repro.obs.metrics import merge_snapshots
from repro.obs.trace import tracer
from repro.util.rng import make_rng
from repro.verify.oracles import OracleFailure, all_oracles, run_oracles
from repro.verify.scenarios import Scenario, ScenarioRun, random_scenario

__all__ = ["FuzzFailure", "FuzzReport", "fuzz", "shrink", "failures_for"]

#: Pseudo-oracle name for scenarios whose *build* raises unexpectedly.
BUILD_CRASH = "no-crash"

#: Upper bound on shrink candidate evaluations per failure.
MAX_SHRINK_STEPS = 60

# Observability: fuzzing throughput and outcomes. Bound once at import;
# registry resets zero them in place.
_FUZZ_SCENARIOS = _obs_counter("verify.fuzz.scenarios_run")
_FUZZ_SKIPS = _obs_counter("verify.fuzz.infeasible_skips")
_FUZZ_FAILURES = _obs_counter("verify.fuzz.failures")


@dataclass(frozen=True)
class FuzzFailure:
    """One minimized oracle failure found during a fuzz run."""

    oracle: str
    message: str
    scenario: Dict[str, object]
    minimized: Dict[str, object]

    def render(self) -> str:
        """Failure block with the original and minimized repro dicts."""
        return (
            f"[{self.oracle}] {self.message}\n"
            f"  found with: {self.scenario}\n"
            f"  minimized : {self.minimized}"
        )


@dataclass(frozen=True)
class FuzzReport:
    """Outcome of one fuzz run."""

    budget: int
    seed: int
    scenarios_run: int
    infeasible_skips: int
    oracle_names: Tuple[str, ...]
    failures: Tuple[FuzzFailure, ...]
    #: Worker processes used to evaluate scenarios.
    jobs: int = 1
    #: Merged per-scenario metrics snapshot (``collect_metrics`` only).
    #: Deliberately absent from :meth:`render` — the rendered report is
    #: part of the determinism contract across worker counts.
    metrics: Optional[Dict[str, Dict[str, Any]]] = None

    @property
    def ok(self) -> bool:
        """Whether every scenario passed every oracle."""
        return not self.failures

    def render(self) -> str:
        """Human-readable run summary."""
        lines = [
            f"verify: {self.scenarios_run} scenarios (seed {self.seed}, "
            f"budget {self.budget}, {self.infeasible_skips} infeasible skips) "
            f"x {len(self.oracle_names)} oracles "
            f"[{', '.join(self.oracle_names)}]"
        ]
        if self.ok:
            lines.append("all invariants held")
        else:
            lines.append(f"{len(self.failures)} FAILURES")
            for f in self.failures:
                lines.append(f.render())
        return "\n".join(lines)


def failures_for(
    scenario: Scenario, oracle_names: Optional[Sequence[str]] = None
) -> List[OracleFailure]:
    """Build *scenario* and run the oracles, folding build crashes in.

    Returns an empty list when the scenario is infeasible to generate
    (:class:`ConfigurationError` from rejection sampling) — infeasible
    is not a verdict about the system under test.
    """
    try:
        run = scenario.build()
    except ConfigurationError:
        return []
    except Exception as exc:  # noqa: BLE001 — build crashes are findings
        return [
            OracleFailure(
                BUILD_CRASH,
                f"scenario build crashed: {type(exc).__name__}: {exc}",
                scenario.params(),
            )
        ]
    return run_oracles(run, oracle_names)


def _is_feasible(scenario: Scenario) -> bool:
    try:
        scenario.domains()
    except ConfigurationError:
        return False
    return True


# ------------------------------------------------------------- shrinking
def _shrink_moves(s: Scenario) -> List[Scenario]:
    """Candidate one-step simplifications of *s*, most aggressive first."""
    moves: List[Scenario] = []
    if s.num_siblings > 1:
        moves.append(replace(s, num_siblings=1))
        moves.append(replace(s, num_siblings=s.num_siblings - 1))
    if s.ranks > 64:
        moves.append(replace(s, ranks=64))
        moves.append(replace(s, ranks=max(64, s.ranks // 2)))
    if s.parent_nx > 80 or s.parent_ny > 80:
        moves.append(
            replace(s, parent_nx=max(80, s.parent_nx // 2),
                    parent_ny=max(80, s.parent_ny // 2))
        )
        moves.append(
            replace(s, parent_nx=max(80, (s.parent_nx * 3) // 4),
                    parent_ny=max(80, (s.parent_ny * 3) // 4))
        )
    if s.mapping != "oblivious":
        moves.append(replace(s, mapping="oblivious"))
    if s.io != "none":
        moves.append(replace(s, io="none"))
    if s.sibling_seed != 0:
        moves.append(replace(s, sibling_seed=0))
    return moves


def shrink(
    scenario: Scenario,
    oracle_name: str,
    *,
    max_steps: int = MAX_SHRINK_STEPS,
) -> Scenario:
    """Greedily minimize *scenario* while *oracle_name* still fails.

    Each accepted move restarts the move list (a smaller scenario may
    unlock further shrinks); the loop stops at a fixpoint or after
    *max_steps* candidate evaluations. Only the failing oracle is
    re-evaluated on candidates — shrinking must not be derailed by an
    unrelated oracle tripping on the smaller scenario.
    """
    names = None if oracle_name == BUILD_CRASH else [oracle_name]

    def still_fails(candidate: Scenario) -> bool:
        return any(f.oracle == oracle_name for f in failures_for(candidate, names))

    current = scenario
    steps = 0
    progress = True
    while progress and steps < max_steps:
        progress = False
        for candidate in _shrink_moves(current):
            steps += 1
            if steps > max_steps:
                break
            if still_fails(candidate):
                current = candidate
                progress = True
                break
    return current


# ----------------------------------------------------------------- fuzz
def _fuzz_task(item: Tuple[Scenario, Tuple[str, ...]]) -> Tuple[OracleFailure, ...]:
    """Evaluate one drawn scenario — the pool task for parallel fuzzing.

    Counter increments live *inside* the task so that per-task metric
    capture (:class:`~repro.exec.pool.SweepRunner` with
    ``capture_metrics``) attributes them to the scenario's delta.
    """
    scenario, selected = item
    tr = tracer()
    with tr.span(
        "verify.scenario", scenario.params() if tr.enabled else None
    ):
        found = failures_for(scenario, selected)
    _FUZZ_SCENARIOS.inc()
    _FUZZ_FAILURES.inc(len(found))
    return tuple(found)


def _draw_scenarios(
    rng, budget: int
) -> Tuple[List[Scenario], List[int], int]:
    """Draw *budget* feasible scenarios plus per-draw skip bookkeeping.

    Returns ``(scenarios, skips_before, total_skips)`` where
    ``skips_before[i]`` is the number of infeasible draws that preceded
    scenario *i* — what the interleaved draw/evaluate loop would have
    counted at the moment scenario *i* ran, needed to keep early-stop
    reports identical to the historical (and ``jobs=1``) behavior.
    """
    scenarios: List[Scenario] = []
    skips_before: List[int] = []
    skipped = 0
    attempts = 0
    max_attempts = budget * 3
    while len(scenarios) < budget and attempts < max_attempts:
        attempts += 1
        scenario = random_scenario(rng)
        if not _is_feasible(scenario):
            skipped += 1
            _FUZZ_SKIPS.inc()
            continue
        skips_before.append(skipped)
        scenarios.append(scenario)
    return scenarios, skips_before, skipped


def fuzz(
    budget: int = 200,
    *,
    seed: int = 7,
    oracle_names: Optional[Sequence[str]] = None,
    shrink_failures: bool = True,
    max_failures: int = 10,
    jobs: int = 1,
    collect_metrics: bool = False,
) -> FuzzReport:
    """Run every registered oracle over *budget* random scenarios.

    Parameters
    ----------
    budget:
        Number of scenarios to build and check (infeasible draws are
        replaced and counted separately).
    seed:
        Master seed; the whole run is a pure function of it.
    oracle_names:
        Restrict to a subset of registered oracles (default: all).
    shrink_failures:
        Minimize each failure's scenario before reporting.
    max_failures:
        Stop early after this many failures (keeps a badly broken tree
        from burning the whole budget on shrinking).
    jobs:
        Worker processes for scenario evaluation. Scenarios are always
        drawn in the parent from one RNG stream, so the failure list,
        the report's :meth:`~FuzzReport.render`, and (with
        *collect_metrics*) the merged metrics snapshot are identical
        for every worker count. Shrinking always runs in the parent.
    collect_metrics:
        Capture a per-scenario metrics delta and fold them, in scenario
        order, into :attr:`FuzzReport.metrics`. Each scenario then runs
        against a zeroed registry and route cache; with ``jobs=1`` that
        zeroing happens in the calling process.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    rng = make_rng(seed)
    selected = tuple(oracle_names) if oracle_names is not None else tuple(
        sorted(all_oracles())
    )
    tr = tracer()
    failures: List[FuzzFailure] = []
    ran = 0
    metrics: Optional[Dict[str, Dict[str, Any]]] = None

    def note_failures(scenario: Scenario, found: Sequence[OracleFailure]) -> None:
        for failure in found:
            if tr.enabled:
                tr.event(
                    "verify.failure",
                    {"oracle": failure.oracle, "message": failure.message,
                     **scenario.params()},
                )
            minimized = scenario
            if shrink_failures:
                minimized = shrink(scenario, failure.oracle)
            failures.append(
                FuzzFailure(
                    oracle=failure.oracle,
                    message=failure.message,
                    scenario=scenario.params(),
                    minimized=minimized.params(),
                )
            )

    with tr.span(
        "verify.fuzz",
        {"budget": budget, "seed": seed, "jobs": jobs}
        if tr.enabled
        else None,
    ):
        scenarios, skips_before, skipped = _draw_scenarios(rng, budget)

        if jobs == 1 and not collect_metrics:
            # Inline path: evaluate lazily so max_failures stops early
            # without paying for the rest of the budget.
            for idx, scenario in enumerate(scenarios):
                found = _fuzz_task((scenario, selected))
                ran = idx + 1
                note_failures(scenario, found)
                if len(failures) >= max_failures:
                    skipped = skips_before[idx]
                    break
        else:
            # Pool path: evaluate the whole budget (results arrive in
            # draw order), then consume until max_failures.
            runner = SweepRunner(jobs, capture_metrics=True)
            sweep = runner.map(
                _fuzz_task, [(s, selected) for s in scenarios]
            )
            merged: Dict[str, Dict[str, Any]] = {}
            for idx, found in enumerate(sweep.results):
                scenario = scenarios[idx]
                merged = merge_snapshots(merged, sweep.task_metrics[idx])
                ran = idx + 1
                note_failures(scenario, found)
                if len(failures) >= max_failures:
                    skipped = skips_before[idx]
                    break
            if collect_metrics:
                metrics = merged

    return FuzzReport(
        budget=budget,
        seed=seed,
        scenarios_run=ran,
        infeasible_skips=skipped,
        oracle_names=selected,
        failures=tuple(failures),
        jobs=jobs,
        metrics=metrics,
    )
