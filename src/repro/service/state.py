"""Resident cross-request state for the planning service.

One :class:`ServiceState` lives for the whole life of a server process
and owns everything requests share:

* the **plan / placement / route caches** as cross-request state,
  bounded by entry count and byte budget
  (:class:`repro.exec.cache.BoundedCache`);
* **request coalescing**: identical in-flight ``recommend`` requests
  (keyed by their canonical JSON bytes) share one computation — the
  leader computes, followers block on an event and receive the *same*
  response object;
* **warm-start preloading**: :meth:`ServiceState.warm_start` runs the
  planner over the built-in paper configurations once so the first
  real request hits warm caches.

Every computation is a pure function of the request, and the caches
return bit-identical objects whether warm or cold, so response bodies
are byte-identical at any concurrency level — the contract the
concurrency-determinism suite (``tests/service/test_determinism.py``)
asserts at 1, 8, and 32 clients.
"""

from __future__ import annotations

import threading
import time
from dataclasses import asdict
from typing import Any, Callable, Dict, Optional, Tuple

from repro.core.mapping import MAPPINGS
from repro.errors import ConfigurationError
from repro.exec.placementcache import placement_cache_stats
from repro.exec.plancache import parallel_plan, plan_cache_stats, sequential_plan
from repro.iosim.model import IoModel
from repro.netsim.engine import route_cache_stats
from repro.obs.metrics import counter, registry
from repro.obs.trace import tracer
from repro.perfsim.simulate import IterationReport, simulate_iteration
from repro.runtime.decomposition import choose_process_grid
from repro.runtime.process_grid import ProcessGrid
from repro.service.schemas import (
    SCHEMA_VERSION,
    HealthResponse,
    IterationPayload,
    PlanAssignmentPayload,
    PlanOptionPayload,
    PlanRequest,
    PlanResponse,
    RecommendRequest,
    RecommendResponse,
    SimulateRequest,
    SimulateResponse,
    VerifyFailurePayload,
    VerifyRequest,
    VerifyResponse,
    dump_bytes,
)
from repro.topology.machines import MACHINES
from repro.workloads.regions import Configuration

__all__ = [
    "ServiceState",
    "LATENCY_BOUNDS",
]

#: Latency histogram boundaries (seconds) for every endpoint.
LATENCY_BOUNDS: Tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5,
    5.0, 10.0,
)


def _builtin_config(name: str) -> Configuration:
    from repro.workloads.paper_configs import (
        fig2_domains,
        fig10_domains,
        fig15_domains,
        table2_domains,
    )

    builders = {
        "fig2": fig2_domains,
        "fig10": fig10_domains,
        "fig15": fig15_domains,
        "table2": table2_domains,
    }
    try:
        return builders[name]()
    except KeyError:
        raise ConfigurationError(f"unknown configuration {name!r}") from None


class _InFlight:
    """One leader-computed recommend shared with coalesced followers."""

    __slots__ = ("event", "response", "error")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.response: Optional[RecommendResponse] = None
        self.error: Optional[BaseException] = None


class ServiceState:
    """Everything the planning service shares across requests."""

    def __init__(self, *, clock: Callable[[], float] = time.monotonic) -> None:
        self._clock = clock
        self._started = clock()
        self._lock = threading.Lock()
        self._inflight: Dict[bytes, _InFlight] = {}
        self.warmed = False
        self._requests = counter("service.requests")
        self._coalesce_hits = counter("service.coalesce.hits")
        self._coalesce_misses = counter("service.coalesce.misses")

    def close(self) -> None:
        """Shut the state down. Nothing to release: the caches are
        process-wide and outlive any one state."""

    # --------------------------------------------------------- endpoints
    def recommend(self, req: RecommendRequest) -> Tuple[RecommendResponse, bool]:
        """Plan *req*, coalescing identical in-flight requests.

        Returns ``(response, coalesced)`` — ``coalesced`` is True when
        this call shared another caller's in-flight computation (the
        response object is *the same object* the leader produced).
        """
        key = dump_bytes(req)
        with self._lock:
            entry = self._inflight.get(key)
            leader = entry is None
            if leader:
                entry = _InFlight()
                self._inflight[key] = entry
        if not leader:
            self._coalesce_hits.inc()
            entry.event.wait()
            if entry.error is not None:
                raise entry.error
            assert entry.response is not None
            return entry.response, True
        self._coalesce_misses.inc()
        try:
            entry.response = self._compute_recommend(req)
        except BaseException as exc:
            entry.error = exc
            raise
        finally:
            with self._lock:
                del self._inflight[key]
            entry.event.set()
        return entry.response, False

    def _compute_recommend(self, req: RecommendRequest) -> RecommendResponse:
        from repro.analysis.planner import recommend

        tr = tracer()
        with tr.span(
            "service.recommend.compute",
            {"config": req.config, "machine": req.machine}
            if tr.enabled else None,
        ):
            rec = recommend(
                _builtin_config(req.config),
                MACHINES[req.machine],
                max_ranks=req.max_ranks,
                min_ranks=req.min_ranks,
                efficiency_floor=req.efficiency_floor,
                mapping=MAPPINGS[req.mapping](),
                io_model=None if req.io == "none" else IoModel(req.io),
                jobs=1,
            )
        def payload(o) -> PlanOptionPayload:
            return PlanOptionPayload(
                ranks=o.ranks,
                strategy=o.strategy,
                mapping=o.mapping,
                time_per_iteration=o.time_per_iteration,
                core_seconds=o.core_seconds,
                efficiency=o.efficiency,
            )

        return RecommendResponse(
            config=req.config,
            machine=req.machine,
            efficiency_floor=req.efficiency_floor,
            options=tuple(payload(o) for o in rec.options),
            fastest=payload(rec.fastest),
            recommended=payload(rec.recommended),
        )

    def simulate(self, req: SimulateRequest) -> SimulateResponse:
        """Price one iteration of *req* under both strategies."""
        config = _builtin_config(req.config)
        machine = MACHINES[req.machine]
        px, py = choose_process_grid(req.ranks)
        grid = ProcessGrid(px, py)
        siblings = list(config.siblings)
        seq_plan = sequential_plan(grid, config.parent, siblings)
        par_plan = parallel_plan(
            grid, config.parent, siblings, [s.points for s in siblings]
        )
        mapping = (
            None if req.mapping == "oblivious" else MAPPINGS[req.mapping]()
        )
        io_model = None if req.io == "none" else IoModel(req.io)
        seq = simulate_iteration(seq_plan, machine, io_model=io_model)
        par = simulate_iteration(
            par_plan, machine, mapping=mapping, io_model=io_model
        )

        def payload(rep: IterationReport) -> IterationPayload:
            return IterationPayload(
                total_time=rep.total_time,
                integration_time=rep.integration_time,
                io_time=rep.io_time,
                mpi_wait=rep.mpi_wait,
                average_hops=rep.average_hops,
            )

        return SimulateResponse(
            config=req.config,
            machine=req.machine,
            ranks=req.ranks,
            mapping=req.mapping,
            io=req.io,
            sequential=payload(seq),
            parallel=payload(par),
            improvement_percent=100.0 * (1.0 - par.total_time / seq.total_time),
        )

    def plan(self, req: PlanRequest) -> PlanResponse:
        """The raw execution plan for one configuration and rank count.

        One memoized plan-cache lookup — the cheapest cacheable request
        the service answers, and the router's affinity probe.
        """
        config = _builtin_config(req.config)
        px, py = choose_process_grid(req.ranks)
        grid = ProcessGrid(px, py)
        siblings = list(config.siblings)
        if req.strategy == "sequential":
            plan = sequential_plan(grid, config.parent, siblings)
        else:
            plan = parallel_plan(
                grid, config.parent, siblings, [s.points for s in siblings]
            )
        return PlanResponse(
            config=req.config,
            machine=req.machine,
            ranks=req.ranks,
            strategy=req.strategy,
            grid_px=plan.grid.px,
            grid_py=plan.grid.py,
            concurrent=plan.concurrent,
            parent_nx=plan.parent.nx,
            parent_ny=plan.parent.ny,
            assignments=tuple(
                PlanAssignmentPayload(
                    domain=a.domain.name,
                    nx=a.domain.nx,
                    ny=a.domain.ny,
                    x0=a.rect.x0,
                    y0=a.rect.y0,
                    width=a.rect.width,
                    height=a.rect.height,
                    processors=a.processors,
                )
                for a in plan.assignments
            ),
            ratios=() if plan.ratios is None else tuple(plan.ratios),
        )

    def verify(self, req: VerifyRequest) -> VerifyResponse:
        """Run the invariant oracles over a fuzzed scenario budget."""
        from repro.verify import all_oracles, fuzz

        registered = all_oracles()
        for name in req.oracles:
            if name not in registered:
                raise ConfigurationError(
                    f"unknown oracle {name!r}; registered: "
                    f"{', '.join(sorted(registered))}"
                )
        report = fuzz(
            req.budget,
            seed=req.seed,
            oracle_names=list(req.oracles) or None,
            jobs=1,
        )
        return VerifyResponse(
            ok=report.ok,
            budget=report.budget,
            seed=report.seed,
            scenarios_run=report.scenarios_run,
            infeasible_skips=report.infeasible_skips,
            oracles=tuple(report.oracle_names),
            failures=tuple(
                VerifyFailurePayload(
                    oracle=f.oracle,
                    message=f.message,
                    scenario=dict(f.scenario),
                    minimized=dict(f.minimized),
                )
                for f in report.failures
            ),
        )

    # ------------------------------------------------------ introspection
    def health(self) -> HealthResponse:
        """Liveness payload for ``GET /healthz``."""
        return HealthResponse(
            status="ok",
            uptime_s=self._clock() - self._started,
            requests_served=int(self._requests.value),
            warmed=self.warmed,
        )

    def metrics_payload(self) -> Dict[str, Any]:
        """The ``GET /metrics`` body: registry snapshot + cache stats."""
        return {
            "schema_version": SCHEMA_VERSION,
            "uptime_s": self._clock() - self._started,
            "requests_served": int(self._requests.value),
            "caches": {
                "plan": asdict(plan_cache_stats()),
                "placement": asdict(placement_cache_stats()),
                "route": asdict(route_cache_stats()),
            },
            "metrics": registry().snapshot(),
        }

    # ---------------------------------------------------------- warm-up
    def warm_start(
        self,
        configs: Tuple[str, ...] = ("fig2", "fig10", "fig15", "table2"),
        *,
        machine: str = "bgl",
        max_ranks: int = 256,
    ) -> Dict[str, Any]:
        """Preload the shared caches from the built-in paper configs.

        Runs one small recommend sweep per configuration through the
        exact request path, so plans, placements, and routes for the
        popular configurations are resident before the first client
        arrives. Returns a summary of what got warmed.
        """
        tr = tracer()
        with tr.span("service.warm_start"):
            for name in configs:
                self._compute_recommend(
                    RecommendRequest(
                        config=name, machine=machine, min_ranks=64,
                        max_ranks=max_ranks,
                    )
                )
        self.warmed = True
        return {
            "configs": list(configs),
            "machine": machine,
            "max_ranks": max_ranks,
            "plan_cache_entries": plan_cache_stats().entries,
            "placement_cache_entries": placement_cache_stats().entries,
            "route_cache_entries": route_cache_stats().entries,
        }
