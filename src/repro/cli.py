"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``simulate``
    Price one iteration of a nested configuration (from a WRF-style
    namelist or a built-in paper configuration) under both strategies.
``plan``
    Print the parallel-siblings execution plan for a configuration.
``profile``
    Step-time breakdown of a single domain on a rank count.
``experiment``
    Run one of the paper's table/figure drivers and print its output.
``verify``
    Differential verification: run the invariant oracles over a fuzzed
    scenario budget and/or diff the golden table snapshots.
``trace``
    Trace one seeded scenario end to end: JSONL events, a Chrome
    trace-event file, and a per-phase profile report reconciled against
    the simulated iteration reports.
``serve``
    Run the resident HTTP planning service (``POST /recommend``,
    ``/simulate``, ``/verify``; ``GET /healthz``, ``/metrics``) with
    warm-started shared caches. See ``docs/service.md``.
``ensemble``
    Drive N concurrent steered scenarios (kill/spawn/branch mid-flight)
    with cross-member pricing dedup and a live ASCII/JSON dashboard.
    See ``docs/ensemble.md``.

Every command that runs the simulator also accepts ``--trace PATH`` to
stream structured trace events (JSONL + Chrome export) while it runs.
``--jobs`` is validated centrally: any value below 1 is a
:class:`~repro.errors.ConfigurationError` on every subcommand.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence

from repro.core.mapping import MAPPINGS
from repro.core.mapping.base import Mapping
from repro.core.scheduler.strategies import ParallelSiblingsStrategy, SequentialStrategy
from repro.errors import ConfigurationError, ReproError
from repro.iosim.model import IoModel
from repro.perfsim.profiling import profile_step
from repro.perfsim.simulate import simulate_iteration
from repro.perfsim.timeline import build_timeline, render_gantt
from repro.runtime.decomposition import choose_process_grid
from repro.runtime.process_grid import ProcessGrid
from repro.topology.machines import MACHINES
from repro.wrf.grid import DomainSpec
from repro.wrf.namelist import domains_from_namelist, parse_namelist

__all__ = ["main"]

_EXPERIMENTS = {
    "fig2": ("fig2_scaling", {}),
    "fig3a": ("fig3a_triangulation", {}),
    "fig3b": ("fig3b_partition", {}),
    "fig4": ("fig4_split_direction", {}),
    "fig5": ("fig5_fig6_mapping_example", {}),
    "fig8": ("fig8_improvement_with_io", {"num_configs": 6}),
    "fig10": ("fig10_large_siblings", {}),
    "fig13": ("fig13_fig14_io_scaling", {"num_configs": 3}),
    "fig15": ("fig15_speedup", {}),
    "table1": ("table1_wait_improvement", {"num_configs": 6}),
    "table2": ("table2_fig9_siblings", {}),
    "table3": ("table3_nest_size_effect", {}),
    "table4": ("table4_fig11_mappings_bgl", {}),
    "table5": ("table5_fig12_mappings_bgp", {}),
    "sec46": ("sec46_allocation_quality", {}),
    "prediction": ("prediction_error_study", {"num_tests": 30}),
    "siblings": ("sibling_count_effect", {"configs_per_count": 6}),
}


def _load_domains(args) -> tuple[DomainSpec, List[DomainSpec]]:
    if args.namelist:
        with open(args.namelist) as fh:
            specs = domains_from_namelist(parse_namelist(fh.read()))
    else:
        from repro.workloads.paper_configs import (
            fig2_domains,
            fig10_domains,
            fig15_domains,
            table2_domains,
        )

        builtins = {
            "fig2": fig2_domains,
            "fig10": fig10_domains,
            "fig15": fig15_domains,
            "table2": table2_domains,
        }
        config = builtins[args.config]()
        specs = [config.parent, *config.siblings]
    parent, *nests = specs
    if not nests:
        raise ReproError("configuration has no nests")
    return parent, nests


def _grid_for(ranks: int) -> ProcessGrid:
    px, py = choose_process_grid(ranks)
    return ProcessGrid(px, py)


def _add_jobs_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--jobs", "-j", type=int, default=1, metavar="N",
        help="worker processes for the sweep (default: 1 = inline; "
             "results are identical for every value)",
    )


def _validate_jobs(args) -> None:
    """Central ``--jobs`` check for every subcommand that accepts it.

    Zero or negative worker counts used to slip through to whichever
    layer consumed them (a raw ``ValueError`` traceback from the pool,
    or a silent inline fallback); now they fail uniformly with a clear
    :class:`ConfigurationError` before any work starts.
    """
    jobs = getattr(args, "jobs", None)
    if jobs is not None and jobs < 1:
        raise ConfigurationError(
            f"--jobs must be >= 1, got {jobs} (1 means inline execution)"
        )


def _add_trace_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--trace", metavar="PATH", dest="trace",
        help="stream trace events to PATH as JSONL (a Chrome trace-event "
             "export is written alongside)",
    )


def _add_domain_source(p: argparse.ArgumentParser) -> None:
    src = p.add_mutually_exclusive_group()
    src.add_argument("--namelist", help="WRF-style namelist.input file")
    src.add_argument(
        "--config", default="table2",
        choices=["fig2", "fig10", "fig15", "table2"],
        help="built-in paper configuration (default: table2)",
    )


def _cmd_simulate(args) -> int:
    parent, nests = _load_domains(args)
    machine = MACHINES[args.machine]
    grid = _grid_for(args.ranks)
    io = None if args.io == "none" else IoModel(args.io)
    mapping: Optional[Mapping] = (
        None if args.mapping == "oblivious" else MAPPINGS[args.mapping]()
    )

    seq_plan = SequentialStrategy().plan(grid, parent, nests)
    par_plan = ParallelSiblingsStrategy().plan(
        grid, parent, nests, ratios=[n.points for n in nests]
    )
    seq = simulate_iteration(seq_plan, machine, io_model=io)
    par = simulate_iteration(par_plan, machine, mapping=mapping, io_model=io)

    print(f"machine {machine.name}, {args.ranks} ranks "
          f"({grid.px}x{grid.py} grid), mapping {args.mapping}")
    print(f"  sequential : {seq.total_time:.3f} s/iteration "
          f"(integration {seq.integration_time:.3f}, I/O {seq.io_time:.3f})")
    print(f"  parallel   : {par.total_time:.3f} s/iteration "
          f"(integration {par.integration_time:.3f}, I/O {par.io_time:.3f})")
    gain = 100 * (1 - par.total_time / seq.total_time)
    print(f"  improvement: {gain:.1f}%   "
          f"MPI_Wait {seq.mpi_wait:.3f} -> {par.mpi_wait:.3f} s/rank "
          f"({100 * (1 - par.mpi_wait / seq.mpi_wait):.1f}% less)")
    if args.timeline:
        print()
        print("sequential iteration:")
        print(render_gantt(build_timeline(seq)))
        print()
        print("parallel iteration:")
        print(render_gantt(build_timeline(par)))
    return 0


def _cmd_plan(args) -> int:
    parent, nests = _load_domains(args)
    grid = _grid_for(args.ranks)
    plan = ParallelSiblingsStrategy().plan(
        grid, parent, nests, ratios=[n.points for n in nests]
    )
    print(plan.describe())
    return 0


def _cmd_profile(args) -> int:
    machine = MACHINES[args.machine]
    spec = DomainSpec("query", nx=args.nx, ny=args.ny, dx_km=8.0,
                      parent="cli", parent_start=(0, 0), level=1)
    grid = _grid_for(args.ranks)
    sc = profile_step(spec, grid, machine)
    print(f"{args.nx}x{args.ny} on {args.ranks} {machine.name} ranks "
          f"({grid.px}x{grid.py} grid):")
    print(f"  compute    : {sc.compute.time * 1e3:8.2f} ms "
          f"(max tile {sc.compute.max_tile[0]}x{sc.compute.max_tile[1]})")
    print(f"  comm       : {sc.comm.time * 1e3:8.2f} ms "
          f"(avg hops {sc.comm.average_hops:.2f})")
    print(f"  fixed      : {(sc.overhead + sc.skew + sc.collectives) * 1e3:8.2f} ms")
    print(f"  total step : {sc.total * 1e3:8.2f} ms   "
          f"MPI_Wait {sc.wait * 1e3:.2f} ms")
    return 0


def _cmd_experiment(args) -> int:
    import inspect

    import repro.analysis.experiments as exp

    func_name, kwargs = _EXPERIMENTS[args.name]
    func = getattr(exp, func_name)
    if args.jobs != 1:
        if "jobs" in inspect.signature(func).parameters:
            kwargs = {**kwargs, "jobs": args.jobs}
        else:
            print(f"note: {args.name} does not sweep; --jobs ignored",
                  file=sys.stderr)
    result = func(**kwargs)
    print(result.render())
    return 0


def _cmd_recommend(args) -> int:
    from repro.analysis.planner import recommend
    from repro.workloads.regions import Configuration

    parent, nests = _load_domains(args)
    config = Configuration(args.config or "namelist", parent, tuple(nests))
    io = None if args.io == "none" else IoModel(args.io)
    plan = recommend(
        config,
        MACHINES[args.machine],
        max_ranks=args.max_ranks,
        min_ranks=args.min_ranks,
        efficiency_floor=args.efficiency_floor,
        io_model=io,
        jobs=args.jobs,
    )
    print(plan.render())
    return 0


def _cmd_report(args) -> int:
    import repro.analysis.experiments as exp

    names = sorted(_EXPERIMENTS) if "all" in args.names else args.names
    sections: List[str] = []
    for name in names:
        func_name, kwargs = _EXPERIMENTS[name]
        result = getattr(exp, func_name)(**kwargs)
        sections.append(f"## {name}\n\n```\n{result.render()}\n```")
    text = "# Reproduction report\n\n" + "\n\n".join(sections) + "\n"
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
        print(f"wrote {args.output} ({len(names)} experiments)")
    else:
        print(text)
    return 0


def _cmd_verify(args) -> int:
    from pathlib import Path

    from repro.verify import all_oracles, check_goldens, fuzz, write_goldens

    registered = sorted(all_oracles())
    if args.list_oracles:
        for name in registered:
            doc = (all_oracles()[name].__doc__ or "").strip().splitlines()[0]
            print(f"{name:22s} {doc}")
        return 0

    golden_dir = Path(args.golden_dir) if args.golden_dir else None
    if args.update_goldens:
        for path in write_goldens(golden_dir):
            print(f"wrote {path}")
        return 0

    exit_code = 0
    if not args.skip_fuzz:
        for name in args.oracle or []:
            if name not in registered:
                print(f"error: unknown oracle {name!r}; registered: "
                      f"{', '.join(registered)}", file=sys.stderr)
                return 2
        report = fuzz(
            args.budget,
            seed=args.seed,
            oracle_names=args.oracle or None,
            jobs=args.jobs,
        )
        print(report.render())
        if not report.ok:
            exit_code = 1

    if args.goldens:
        problems = check_goldens(golden_dir)
        if problems:
            print(f"golden snapshots: {len(problems)} mismatches")
            for p in problems:
                print(f"  {p}")
            exit_code = 1
        else:
            print("golden snapshots: all within tolerance")
    return exit_code


def _cmd_trace(args) -> int:
    import json
    from pathlib import Path

    from repro.obs import TraceSession, build_report, reconcile, registry
    from repro.verify.scenarios import Scenario, random_scenario

    if args.params:
        with open(args.params) as fh:
            scenario = Scenario.from_params(json.load(fh))
    elif args.seed is not None:
        scenario = random_scenario(args.seed)
    else:
        scenario = Scenario()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    with TraceSession(out / "trace.jsonl") as session:
        run = scenario.build()

    report = build_report(session.records, registry().snapshot())
    profile_path = out / "profile.json"
    profile_path.write_text(
        json.dumps(report.to_json(), indent=2, sort_keys=True) + "\n"
    )
    print(f"scenario: {scenario.params()}")
    print(report.render())
    print(f"trace   : {session.path} ({len(session.records)} records)")
    print(f"chrome  : {session.chrome_path}")
    print(f"profile : {profile_path}")

    problems = reconcile(session.records, [run.seq_report, run.par_report])
    if problems:
        print(f"reconciliation FAILED ({len(problems)} problems):")
        for p in problems:
            print(f"  {p}")
        return 1
    print("per-phase totals reconcile with the iteration reports (<= 1e-9)")
    return 0


def _cmd_serve(args) -> int:
    from repro.service import PlanningServer, ServiceState

    if args.shards < 0:
        raise ConfigurationError(f"--shards must be >= 0, got {args.shards}")
    if args.pool_size < 1:
        raise ConfigurationError(
            f"--pool-size must be >= 1, got {args.pool_size}"
        )
    if args.shards > 0:
        return _serve_sharded(args)
    state = ServiceState()
    server = PlanningServer(state, host=args.host, port=args.port)
    if args.warm:
        summary = state.warm_start()
        print(
            f"warm start: {', '.join(summary['configs'])} on "
            f"{summary['machine']} — {summary['plan_cache_entries']} plans, "
            f"{summary['placement_cache_entries']} placements, "
            f"{summary['route_cache_entries']} routed exchanges resident",
            flush=True,
        )
    # The bench harness and the serve smoke test parse this line for the
    # bound (possibly ephemeral) port; keep its shape stable.
    print(f"listening on {server.url}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("shutting down", file=sys.stderr)
    finally:
        server.close()
    return 0


def _serve_sharded(args) -> int:
    from repro.service import ShardedPlanningService

    service = ShardedPlanningService(
        args.shards,
        host=args.host,
        port=args.port,
        warm=args.warm,
        pool_size=args.pool_size,
    )
    service.start()
    if args.warm:
        print(
            f"warm start: {args.shards} shards preloaded before first "
            f"request",
            flush=True,
        )
    print(
        f"shards: {args.shards} "
        f"({', '.join(service.supervisor.live_shards())})",
        flush=True,
    )
    # Same stable line as the single-process path: harnesses parse it
    # for the bound (possibly ephemeral) port.
    print(f"listening on {service.url}", flush=True)
    try:
        service.wait()
    except KeyboardInterrupt:
        print("shutting down", file=sys.stderr)
    finally:
        service.close()
    return 0


def _cmd_ensemble(args) -> int:
    from repro.ensemble import (
        EnsembleDriver,
        EnsemblePolicy,
        default_member_spec,
        parse_event,
        render_dashboard,
        render_json_line,
    )

    if args.members < 1:
        raise ConfigurationError(f"--members must be >= 1, got {args.members}")
    if args.families < 1:
        raise ConfigurationError(f"--families must be >= 1, got {args.families}")
    specs = [
        default_member_spec(
            args.seed + (i % args.families),
            parent_nx=args.parent_nx,
            parent_ny=args.parent_ny,
            nests=args.nests,
            nest_px=args.nest_px,
            refinement=args.refinement,
            retrack_interval=args.retrack_interval,
        )
        for i in range(args.members)
    ]
    policy = EnsemblePolicy(
        machine=args.machine,
        ranks=args.ranks,
        io=None if args.io == "none" else args.io,
        mapping=args.mapping,
        memo=args.memo,
    )
    events = [parse_event(text) for text in args.event]

    def progress(frame):
        if args.json:
            print(render_json_line(frame), flush=True)
        elif args.dashboard:
            print(render_dashboard(frame), flush=True)
            print(flush=True)

    driver = EnsembleDriver(
        specs,
        policy=policy,
        jobs=args.jobs,
        events=events,
        progress=progress if (args.json or args.dashboard) else None,
    )
    result = driver.run(args.ticks)
    if args.json:
        import json as _json

        print(
            _json.dumps(
                {
                    "final": True,
                    "jobs": result.jobs,
                    "member_ticks": result.member_ticks,
                    "members_per_s": result.members_per_s,
                    "dedup_hit_rate": result.dedup_hit_rate,
                    "memo": result.memo.to_json(),
                    "caches": result.caches,
                    "wall_s": result.wall_s,
                    "metrics": result.metrics,
                    "members": [m.to_json() for m in result.members],
                },
                sort_keys=True,
            )
        )
    else:
        metrics = result.metrics
        print(
            f"ensemble: {metrics['ensemble.members.initial']['value']} members "
            f"(+{metrics['ensemble.members.spawned']['value']} spawned, "
            f"+{metrics['ensemble.members.branched']['value']} branched, "
            f"-{metrics['ensemble.members.killed']['value']} killed), "
            f"{result.ticks} ticks, jobs={result.jobs}"
        )
        print(
            f"  {result.member_ticks} member-ticks in {result.wall_s:.2f}s "
            f"({result.members_per_s:,.1f} member-ticks/s)"
        )
        print(
            f"  dedup: {result.memo.hits} hits / {result.memo.misses} misses "
            f"({result.dedup_hit_rate:.1%} hit rate, "
            f"{result.memo.shared_hits} via shared table)"
        )
        print(
            f"  steering: {metrics['ensemble.steer.moves']['value']} moves, "
            f"{metrics['ensemble.steer.replans']['value']} replans, "
            f"sim time {metrics['ensemble.sim_time.total_s']['value']:.3f}s"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Divide-and-conquer scheduling of nested weather simulations "
                    "(Malakar et al., SC 2012 reproduction).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="price one iteration under both strategies")
    _add_domain_source(p)
    p.add_argument("--ranks", type=int, default=1024)
    p.add_argument("--machine", choices=sorted(MACHINES), default="bgl")
    p.add_argument("--mapping", choices=sorted(MAPPINGS), default="oblivious")
    p.add_argument("--io", choices=["none", "pnetcdf", "split"], default="none")
    p.add_argument("--timeline", action="store_true",
                   help="print per-group Gantt charts")
    _add_trace_flag(p)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("plan", help="print the parallel execution plan")
    _add_domain_source(p)
    p.add_argument("--ranks", type=int, default=1024)
    p.set_defaults(func=_cmd_plan)

    p = sub.add_parser("profile", help="step-time breakdown of one domain")
    p.add_argument("--nx", type=int, required=True)
    p.add_argument("--ny", type=int, required=True)
    p.add_argument("--ranks", type=int, default=512)
    p.add_argument("--machine", choices=sorted(MACHINES), default="bgl")
    p.set_defaults(func=_cmd_profile)

    p = sub.add_parser("experiment", help="run a paper table/figure driver")
    p.add_argument("name", choices=sorted(_EXPERIMENTS))
    _add_jobs_flag(p)
    _add_trace_flag(p)
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("recommend",
                       help="sweep scales/strategies and recommend a setup")
    _add_domain_source(p)
    p.add_argument("--machine", choices=sorted(MACHINES), default="bgl")
    p.add_argument("--min-ranks", type=int, default=64, dest="min_ranks")
    p.add_argument("--max-ranks", type=int, default=1024, dest="max_ranks")
    p.add_argument("--efficiency-floor", type=float, default=0.5,
                   dest="efficiency_floor")
    p.add_argument("--io", choices=["none", "pnetcdf", "split"], default="none")
    _add_jobs_flag(p)
    p.set_defaults(func=_cmd_recommend)

    p = sub.add_parser(
        "verify",
        help="run invariant oracles over fuzzed scenarios and check goldens")
    p.add_argument("--budget", type=int, default=200,
                   help="number of fuzzed scenarios (default: 200)")
    p.add_argument("--seed", type=int, default=7,
                   help="master fuzz seed (default: 7)")
    p.add_argument("--oracle", action="append",
                   help="restrict to one oracle (repeatable; default: all)")
    p.add_argument("--list-oracles", action="store_true",
                   help="list registered invariant oracles and exit")
    p.add_argument("--skip-fuzz", action="store_true",
                   help="skip the fuzz phase (e.g. goldens only)")
    p.add_argument("--goldens", action="store_true",
                   help="also diff the golden table snapshots")
    p.add_argument("--update-goldens", action="store_true",
                   help="regenerate golden snapshots and exit")
    p.add_argument("--golden-dir",
                   help="snapshot directory (default: tests/golden)")
    _add_jobs_flag(p)
    _add_trace_flag(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser(
        "trace",
        help="trace one seeded scenario and write JSONL + Chrome trace + "
             "per-phase profile")
    p.add_argument("--seed", type=int, default=None,
                   help="draw the scenario from this fuzz seed "
                        "(default: the canonical default scenario)")
    p.add_argument("--params", metavar="FILE",
                   help="JSON repro dict (as printed by `repro verify`) "
                        "to trace instead of a seeded draw")
    p.add_argument("--out", default="trace-out",
                   help="output directory (default: trace-out)")
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser(
        "serve",
        help="run the resident HTTP planning service (see docs/service.md)")
    p.add_argument("--host", default="127.0.0.1",
                   help="bind address (default: 127.0.0.1)")
    p.add_argument("--port", type=int, default=8023,
                   help="bind port; 0 picks an ephemeral port (default: 8023)")
    p.add_argument("--no-warm", dest="warm", action="store_false",
                   help="skip warm-start preloading of the paper configs")
    p.add_argument("--shards", type=int, default=0, metavar="N",
                   help="run N shard processes behind a consistent-hash "
                        "router (0 = single in-process server; default: 0)")
    p.add_argument("--pool-size", type=int, default=8, metavar="K",
                   dest="pool_size",
                   help="router-to-shard keep-alive connections per shard "
                        "(default: 8)")
    p.set_defaults(func=_cmd_serve, warm=True)

    p = sub.add_parser(
        "ensemble",
        help="drive N concurrent steered scenarios with cross-member "
             "work dedup (see docs/ensemble.md)")
    p.add_argument("--members", type=int, default=8, metavar="N",
                   help="initial ensemble size (default: 8)")
    p.add_argument("--families", type=int, default=2, metavar="K",
                   help="distinct seed families among the initial members; "
                        "members of one family share a trajectory until "
                        "events diverge them (default: 2)")
    p.add_argument("--ticks", type=int, default=4, metavar="T",
                   help="outer ticks to advance every member (default: 4)")
    p.add_argument("--seed", type=int, default=7,
                   help="base seed; family f runs under seed+f (default: 7)")
    p.add_argument("--machine", choices=["bgl", "bgp"], default="bgp")
    p.add_argument("--ranks", type=int, default=4096,
                   help="rank count every member is priced at (default: 4096)")
    p.add_argument("--io", choices=["none", "pnetcdf", "split"],
                   default="pnetcdf")
    p.add_argument("--mapping", choices=["oblivious", "txyz"],
                   default="oblivious")
    p.add_argument("--parent-nx", type=int, default=40, dest="parent_nx")
    p.add_argument("--parent-ny", type=int, default=32, dest="parent_ny")
    p.add_argument("--nests", type=int, default=2,
                   help="nests per member (default: 2)")
    p.add_argument("--nest-px", type=int, default=10, dest="nest_px",
                   help="nest size in fine points per side (default: 10)")
    p.add_argument("--refinement", type=int, default=2)
    p.add_argument("--retrack-interval", type=int, default=1,
                   dest="retrack_interval",
                   help="iterations between tracker passes (default: 1)")
    p.add_argument("--event", action="append", default=[],
                   metavar="ACTION:TICK[:ARG]",
                   help="schedule a runtime intervention (kill:T:MEMBER, "
                        "branch:T:MEMBER, spawn:T[:SEED]); repeatable")
    p.add_argument("--no-memo", dest="memo", action="store_false",
                   help="disable cross-member dedup (the benchmark baseline)")
    p.add_argument("--dashboard", action="store_true",
                   help="print a live ASCII dashboard frame per tick")
    p.add_argument("--json", action="store_true",
                   help="print one JSON progress line per tick plus a "
                        "final JSON summary")
    _add_jobs_flag(p)
    p.set_defaults(func=_cmd_ensemble, memo=True)

    p = sub.add_parser("report",
                       help="run experiment drivers and write a markdown report")
    p.add_argument("names", nargs="+",
                   choices=sorted(_EXPERIMENTS) + ["all"],
                   help="experiment names, or 'all'")
    p.add_argument("--output", "-o", help="output file (default: stdout)")
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _validate_jobs(args)
        trace_path = getattr(args, "trace", None)
        if trace_path:
            from repro.obs import TraceSession

            with TraceSession(trace_path) as session:
                code = args.func(args)
            print(
                f"trace: {session.path} ({len(session.records)} records), "
                f"chrome trace {session.chrome_path}",
                file=sys.stderr,
            )
            return code
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
