"""The four workloads of the repository benchmark.

Each workload runs one op kind in a closed loop (the next op starts when
the previous one returns) for a fixed op count. The count is calibrated
so the timed window lasts about ``--seconds`` on a 2-vCPU host; a fixed
count keeps the tail percentile, the request mix and the ensemble's
ticks identical from run to run. Inputs come from ``--seed`` only.

Every ``check_*`` function is pure: it takes the outputs (and the
reference) and returns the indices of the ops whose output is wrong, so
the self-test can feed it a corrupted output.
"""

from __future__ import annotations

import math
import os
import random
import signal
import subprocess
import sys
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Sequence, Tuple

from harness import Bench, peak_rss_kb, wait_for_children


@dataclass(frozen=True)
class Workload:
    name: str
    #: Timed ops per second of ``--seconds`` on the reference host.
    ops_per_s: float
    #: Floor on the op count, so the tail has 10 samples beyond it.
    min_ops: int
    run: Callable[[Bench, int], Dict[str, Any]]

    def ops_for(self, seconds: float) -> int:
        return max(self.min_ops, math.ceil(seconds * self.ops_per_s))


# ------------------------------------------------------------ serve-warm
SERVE_CONFIGS = ("fig2", "fig10", "fig15", "table2")
SERVE_IO = ("none", "pnetcdf", "split")


def serve_keys() -> List[Dict[str, Any]]:
    """The 12 distinct ``/recommend`` bodies: 4 configs x 3 I/O modes on BG/P."""
    return [
        {"config": c, "machine": "bgp", "min_ranks": 64, "max_ranks": 1024,
         "mapping": "multilevel", "io": io}
        for c in SERVE_CONFIGS
        for io in SERVE_IO
    ]


def serve_rounds(seed: int, ops: int) -> List[List[int]]:
    """One seeded permutation of the key indices per op."""
    rng = random.Random(seed)
    rounds = []
    for _ in range(ops):
        keys = list(range(len(serve_keys())))
        rng.shuffle(keys)
        rounds.append(keys)
    return rounds


def serve_expected() -> List[bytes]:
    """Response bytes of every key from an in-process ServiceState."""
    from repro.service.schemas import RecommendRequest, dump_bytes, parse_payload
    from repro.service.state import ServiceState

    state = ServiceState()
    try:
        return [
            dump_bytes(state.recommend(parse_payload(RecommendRequest, key))[0])
            for key in serve_keys()
        ]
    finally:
        state.close()


def check_serve(
    rounds: Sequence[Sequence[int]],
    replies: Sequence[Sequence[Tuple[int, bytes]]],
    expected: Sequence[bytes],
) -> List[int]:
    """Rounds with a missing reply, a non-200 status or a wrong body."""
    return [
        i for i, (keys, got) in enumerate(zip(rounds, replies))
        if len(got) != len(keys)
        or any(status != 200 or body != expected[k]
               for k, (status, body) in zip(keys, got))
    ]


def _start_server(bench: Bench, root: str) -> Tuple[subprocess.Popen, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    if bench.traced:
        cmd = [sys.executable, os.path.join(root, "perfbench", "serve_launcher.py"),
               bench.out_dir]
    else:
        cmd = [sys.executable, "-m", "repro", "serve", "--port", "0", "--no-warm"]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=root)
    for line in proc.stdout:
        if line.startswith("listening on "):
            return proc, line.split()[-1]
    proc.wait()
    raise RuntimeError(f"server exited with code {proc.returncode} before listening")


def _stop_server(proc: subprocess.Popen) -> None:
    proc.send_signal(signal.SIGINT)
    try:
        proc.wait(timeout=30)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
    proc.stdout.close()


def _cache_counts(caches: Dict[str, Dict[str, int]]) -> Dict[str, int]:
    out = {}
    for cache in ("plan", "placement", "route"):
        for field in ("hits", "misses", "evictions"):
            if field in caches[cache]:
                out[f"{cache}.{field}"] = caches[cache][field]
    return out


def run_serve_warm(bench: Bench, ops: int) -> Dict[str, Any]:
    from repro.service.client import ServiceClient

    root = os.environ["PERFBENCH_ROOT"]
    keys = serve_keys()
    rounds = serve_rounds(bench.seed, ops)
    server, url = _start_server(bench, root)
    client = ServiceClient(url, pool_size=1)
    try:
        for key in keys:  # warm-up: one pass over the key set
            reply = client.recommend(key)
            if reply.status != 200:
                raise RuntimeError(f"warm-up request failed: {reply.status}")
        before = client.metrics()["caches"]
        bench.ready()
        replies = []
        for i, rnd in enumerate(rounds):
            got = []
            bench.begin(i)
            try:
                for k in rnd:
                    with bench.span("service.http"):
                        reply = client.recommend(keys[k])
                    got.append((reply.status, reply.body))
            except Exception:  # an op that raises is a failed op
                pass
            bench.end()
            replies.append(got)
            if bench.over_time():
                break
        bench.window_done()
        after = client.metrics()["caches"]
        server_peak = peak_rss_kb(server.pid)
    finally:
        client.close()
        _stop_server(server)
    bench.failed.update(check_serve(rounds, replies, serve_expected()))
    b, a = _cache_counts(before), _cache_counts(after)
    bench.notes["counts"] = {k: a[k] - b[k] for k in a}
    return {"server_peak_kb": server_peak}


# ------------------------------------------------------------ sweep-cold
SWEEP_RANKS = (512, 1024, 2048, 4096, 8192)


def sweep_batches(seed: int, batches: int) -> List[List[Tuple[Any, int]]]:
    """Never-repeating Pacific-style configs, one per rank count per batch.

    Each batch prices five fresh configurations, one at each of 512 to
    8192 ranks in seeded order; no two scenarios of a batch share a rank
    count, so no cache entry one of them writes can serve another and
    the counts do not depend on which worker ran which scenario.
    """
    from repro.workloads.regions import pacific_configurations

    configs = pacific_configurations(batches * len(SWEEP_RANKS), seed=seed)
    rng = random.Random(seed)
    out = []
    for b in range(batches):
        ranks = list(SWEEP_RANKS)
        rng.shuffle(ranks)
        out.append([(configs[b * len(ranks) + j], r) for j, r in enumerate(ranks)])
    return out


def _sweep(batch, jobs: int):
    from repro.analysis.experiments.common import compare_strategies_sweep
    from repro.core.mapping.multilevel import MultiLevelMapping
    from repro.iosim.model import IoModel
    from repro.topology.machines import BLUE_GENE_P

    return compare_strategies_sweep(
        batch, BLUE_GENE_P, mapping=MultiLevelMapping(),
        io_model=IoModel("pnetcdf"), jobs=jobs,
    )


def check_sweep(batches, results, checked: int, reference) -> List[int]:
    """Ops whose batch came back malformed, plus the re-run one if it differs."""
    bad = []
    for i, (batch, res) in enumerate(zip(batches, results)):
        ok = (
            res is not None
            and len(res) == len(batch)
            and all(c.ranks == r and c.parallel.total_time > 0
                    for c, (_, r) in zip(res, batch))
        )
        if not ok or (i == checked and res != reference):
            bad.append(i)
    return bad


def run_sweep_cold(bench: Bench, ops: int) -> Dict[str, Any]:
    from repro.analysis.experiments.common import fitted_model
    from repro.topology.machines import BLUE_GENE_P

    batches = sweep_batches(bench.seed, ops + 1)
    warm, batches = batches[0], batches[1:]
    fitted_model(BLUE_GENE_P)
    _sweep(warm, jobs=2)
    bench.ready()
    results: List[Any] = []
    for i, batch in enumerate(batches):
        bench.begin(i)
        try:
            results.append(_sweep(batch, jobs=2))
        except Exception:
            results.append(None)
        bench.end()
        if bench.over_time():
            break
    bench.window_done()
    wait_for_children()
    checked = random.Random(bench.seed).randrange(len(results))
    reference = _sweep(batches[checked], jobs=1)
    bench.failed.update(check_sweep(batches, results, checked, reference))
    return {}


# ---------------------------------------------------------- reprice-131k
REPRICE_RANKS = 131072


def reprice_inputs():
    """Table 2 at 131072 BG/P ranks: plans, machine, mapping, I/O model."""
    from repro.core.mapping.multilevel import MultiLevelMapping
    from repro.iosim.model import IoModel
    from repro.runtime.decomposition import choose_process_grid
    from repro.runtime.process_grid import ProcessGrid
    from repro.topology.machines import BLUE_GENE_P
    from repro.workloads.paper_configs import table2_domains

    config = table2_domains()
    grid = ProcessGrid(*choose_process_grid(REPRICE_RANKS))
    siblings = list(config.siblings)
    return config, grid, siblings, BLUE_GENE_P, MultiLevelMapping(), IoModel("pnetcdf")


def reprice_once(inputs):
    """Sequential/oblivious and parallel/multilevel pricing of Table 2."""
    from repro.exec.plancache import parallel_plan, sequential_plan
    from repro.perfsim.simulate import simulate_iteration

    config, grid, siblings, machine, mapping, io = inputs
    seq = simulate_iteration(
        sequential_plan(grid, config.parent, siblings), machine, io_model=io
    )
    par = simulate_iteration(
        parallel_plan(grid, config.parent, siblings, [s.points for s in siblings]),
        machine, mapping=mapping, io_model=io,
    )
    return seq, par


def check_reprice(reports, reference) -> List[int]:
    return [i for i, r in enumerate(reports) if r != reference]


def run_reprice_131k(bench: Bench, ops: int) -> Dict[str, Any]:
    from repro.exec.placementcache import placement_cache_stats
    from repro.exec.plancache import plan_cache_stats
    from repro.netsim.engine import route_cache_stats

    # The workload is one fixed strong-scaling target: the seed selects
    # nothing. Reordering the two pricings between ops would let the
    # 9-entry route LRU serve hits, which the workload exists to avoid.
    inputs = reprice_inputs()
    reference = reprice_once(inputs)
    before = (route_cache_stats(), placement_cache_stats(), plan_cache_stats())
    bench.ready()
    reports: List[Any] = []
    for i in range(ops):
        bench.begin(i)
        try:
            reports.append(reprice_once(inputs))
        except Exception:
            reports.append(None)
        bench.end()
        if bench.over_time():
            break
    bench.window_done()
    after = (route_cache_stats(), placement_cache_stats(), plan_cache_stats())
    bench.failed.update(check_reprice(reports, reference))
    counts = {}
    for cache, b, a in zip(("route", "placement", "plan"), before, after):
        for field in ("hits", "misses", "evictions"):
            if hasattr(a, field):
                counts[f"{cache}.{field}"] = getattr(a, field) - getattr(b, field)
    bench.notes["counts"] = counts
    return {}


# -------------------------------------------------------- ensemble-steer
ENSEMBLE_MEMBERS = 128
#: Odd, so the two queue workers (member i -> worker i % 2) each hold
#: members of every family and the shared-memory memo tier serves hits.
ENSEMBLE_FAMILIES = 15
ENSEMBLE_JOBS = 2
#: Ticks between storyline events (branch, kill, spawn).
ENSEMBLE_EVENT_PERIOD = 10
#: Ticks the jobs=1 replay re-runs to check the jobs=2 records.
ENSEMBLE_REPLAY_TICKS = 3


def ensemble_inputs(seed: int, ticks: int):
    """Member specs and the recurring kill/spawn/branch storyline."""
    from repro.ensemble import EnsembleEvent, default_member_spec

    rng = random.Random(seed)
    families = rng.sample(range(1, 1_000_000), ENSEMBLE_FAMILIES)
    specs = [
        default_member_spec(
            families[i % ENSEMBLE_FAMILIES], parent_nx=20, parent_ny=16,
            nests=1, nest_px=6, refinement=3, amplitude=2.0,
        )
        for i in range(ENSEMBLE_MEMBERS)
    ]
    events = []
    for k, tick in enumerate(range(5, ticks, ENSEMBLE_EVENT_PERIOD)):
        events += [
            EnsembleEvent(tick=tick, action="branch", member=k),
            EnsembleEvent(tick=tick, action="kill", member=ENSEMBLE_MEMBERS // 2 + k),
            # Re-seeded spawn: a new member of an existing family.
            EnsembleEvent(tick=tick, action="spawn", seed=families[k % ENSEMBLE_FAMILIES]),
        ]
    return specs, events


def _ensemble_driver(specs, events, jobs, progress=None):
    from repro.ensemble import EnsembleDriver, EnsemblePolicy

    policy = EnsemblePolicy(machine="bgp", ranks=131072, io="pnetcdf", memo=True)
    return EnsembleDriver(specs, policy=policy, jobs=jobs, events=events,
                          progress=progress)


def check_ensemble(records, replay, alive_per_tick: Sequence[int], first: int) -> List[int]:
    """Timed ticks (op i = tick ``first + i``) whose records are wrong.

    A tick is wrong when its record count differs from the members alive
    in it. The jobs=1 replay covers the first ticks only; every later
    tick evolves from those, so if any replayed record differs, every
    timed tick is wrong.
    """
    by_tick: Dict[int, List[Any]] = {}
    for r in records:
        by_tick.setdefault(r.tick, []).append(r.deterministic())
    replayed: Dict[int, List[Any]] = {}
    for r in replay:
        replayed.setdefault(r.tick, []).append(r.deterministic())
    diverged = any(by_tick.get(t) != recs for t, recs in replayed.items())
    return [
        t - first for t in range(first, len(alive_per_tick))
        if diverged or len(by_tick.get(t, ())) != alive_per_tick[t]
    ]


def run_ensemble_steer(bench: Bench, ops: int) -> Dict[str, Any]:
    specs, events = ensemble_inputs(bench.seed, ops + 1)
    alive: List[int] = []

    def progress(frame) -> None:
        # Tick 0 (member creation and first pricing) is set-up; op i is
        # tick i + 1, timed from one progress callback to the next.
        alive.append(frame.alive)
        if frame.tick == 0:
            bench.ready()
        else:
            bench.end()
        if frame.tick < ops:
            bench.begin(frame.tick)

    result = _ensemble_driver(specs, events, ENSEMBLE_JOBS, progress).run(ops + 1)
    bench.window_done()
    wait_for_children()
    replay = _ensemble_driver(specs, events, 1).run(ENSEMBLE_REPLAY_TICKS)
    bench.failed.update(check_ensemble(result.records, replay.records, alive, 1))
    memo = result.memo
    bench.notes["counts"] = {
        "memo.local_hits": memo.local_hits,
        "memo.shared_hits": memo.shared_hits,
        "memo.misses": memo.misses,
        **{f"caches.{k}": v for k, v in result.caches.items()},
    }
    return {}


#: Why each workload exists: README.md and BENCHMARK.json.
WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("serve-warm", ops_per_s=5.0, min_ops=30, run=run_serve_warm),
        Workload("sweep-cold", ops_per_s=8.5, min_ops=30, run=run_sweep_cold),
        Workload("reprice-131k", ops_per_s=1.1, min_ops=25, run=run_reprice_131k),
        Workload("ensemble-steer", ops_per_s=6.5, min_ops=30, run=run_ensemble_steer),
    )
}
