"""Benchmark: the planning service under concurrent load.

Drives thousands of ``POST /recommend`` requests from a pool of client
threads — over **keep-alive pooled connections** — into the planning
service and records what a resident planning daemon actually delivers:

* **latency** — p50 / p99 per request (seconds);
* **throughput** — requests per second over the whole storm;
* **cache economics** — plan/placement cache hit rates after the storm
  (a warm resident process is the whole point of the service);
* **coalescing savings** — the fraction of recommend requests that
  shared another caller's in-flight computation instead of planning;
* **sharded scaling** — the same storm against
  :class:`ShardedPlanningService` at 4 and 8 shards, with the speedup
  over the single-process baseline from the same run;
* **the shard ring's floor** — alternating storms against a 1-shard and
  a 2-shard router deployment, whose median throughputs must differ by
  at least :data:`TWO_SHARD_FLOOR` on a host with 2 or more cores.

Every trajectory entry records ``shards`` / ``clients`` / ``pool_size``
so runs are comparable across deployment shapes. The trajectory appends
to ``BENCH_service.json`` at the repo root. Environment knobs:
``REPRO_SERVICE_REQUESTS`` (total requests, default 2000),
``REPRO_SERVICE_CLIENTS`` (concurrent client threads, default 16),
``REPRO_SERVICE_POOL`` (keep-alive connections per client, default 8),
``REPRO_SERVICE_SHARDS`` (comma-separated shard counts, default
``4,8``), ``REPRO_SERVICE_FLOOR`` (override the sharded speedup
floors). CI runs a bounded smoke (see ``.github/workflows/ci.yml``).

Floors are deliberately lenient — shared CI runners are noisy — and a
run on a starved machine skips with a recorded reason instead of
asserting noise: the numbers in the trajectory are the deliverable.
The sharded floors additionally require enough cores to host the
shards; a 1-core container records the entry and skips the assertion.
"""

from __future__ import annotations

import json
import os
import statistics
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from conftest import record

from repro.exec import (
    placement_cache_stats,
    plan_cache_stats,
    reset_placement_cache,
    reset_plan_cache,
)
from repro.netsim.engine import reset_route_cache
from repro.obs.metrics import registry
from repro.service import PlanningServer, ServiceClient, ShardedPlanningService

BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_service.json"

REQUESTS = int(os.environ.get("REPRO_SERVICE_REQUESTS", "2000"))
CLIENTS = int(os.environ.get("REPRO_SERVICE_CLIENTS", "16"))
POOL_SIZE = int(os.environ.get("REPRO_SERVICE_POOL", "8"))
SHARD_COUNTS = [
    int(s) for s in os.environ.get("REPRO_SERVICE_SHARDS", "4,8").split(",")
    if s.strip()
]

#: Lenient floors: a resident warm service must beat these on any
#: machine that can run the suite at all.
P99_CEILING_S = 2.0
THROUGHPUT_FLOOR_RPS = 20.0

#: Sharded speedup floors over the same-run single-process baseline,
#: asserted only when the host has at least `shards` cores.
#: ``REPRO_SERVICE_FLOOR`` overrides both (CI smoke uses 2.0).
_floor_env = os.environ.get("REPRO_SERVICE_FLOOR")
SPEEDUP_FLOORS = (
    {4: float(_floor_env), 8: float(_floor_env)} if _floor_env
    else {4: 3.0, 8: 5.0}
)

#: Two shards behind the router must beat one shard behind the same
#: router by this factor (median over alternating storm pairs), asserted
#: when the host has at least 2 cores.
TWO_SHARD_FLOOR = 1.25
#: Alternating 1-shard/2-shard storm pairs behind that floor.
SHARD_PAIRS = 3

#: Single-process baseline throughput, shared within one pytest run so
#: the sharded tests compute speedup against the same machine state.
_BASELINE: dict = {}

#: The request mix: mostly repeats of a handful of distinct plans (the
#: realistic shape — fleets ask the same capacity questions), so cache
#: hits and coalescing both get exercised.
_PAYLOADS = [
    {"config": "table2", "max_ranks": 256},
    {"config": "fig2", "max_ranks": 256},
    {"config": "fig10", "max_ranks": 128},
    {"config": "table2", "machine": "bgp", "max_ranks": 128},
    {"config": "fig15", "max_ranks": 128, "efficiency_floor": 0.4},
]


def _append(entry: dict) -> None:
    data = {"benchmark": "planning service load", "trajectory": []}
    if BENCH_JSON.exists():
        data = json.loads(BENCH_JSON.read_text())
    entry["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    data["trajectory"].append(entry)
    BENCH_JSON.write_text(json.dumps(data, indent=2) + "\n")


def _counter(snapshot: dict, name: str) -> float:
    entry = snapshot.get(name)
    return entry["value"] if entry else 0


def _percentile(samples, q: float) -> float:
    return statistics.quantiles(samples, n=100)[int(q) - 1]


def _storm(url: str, requests: int, clients: int):
    """Fire the payload mix at *url* from *clients* threads.

    One pooled keep-alive :class:`ServiceClient` per thread — each
    request reuses its thread's persistent connection instead of paying
    a TCP connect, which is both the realistic client shape and the
    thing being measured (connect overhead would swamp planning cost).
    Returns ``(latencies, wall_s, pool_totals)``.
    """
    latencies = []
    failures = []
    pools = []
    lock = threading.Lock()
    local = threading.local()

    def fire(i: int) -> None:
        client = getattr(local, "client", None)
        if client is None:
            client = ServiceClient(url, pool_size=POOL_SIZE)
            local.client = client
            with lock:
                pools.append(client)
        payload = _PAYLOADS[i % len(_PAYLOADS)]
        t0 = time.perf_counter()
        reply = client.recommend(payload)
        elapsed = time.perf_counter() - t0
        if reply.status != 200:
            failures.append(reply.status)
        latencies.append(elapsed)

    t_start = time.perf_counter()
    with ThreadPoolExecutor(max_workers=clients) as pool:
        list(pool.map(fire, range(requests)))
    wall_s = time.perf_counter() - t_start

    assert not failures, f"{len(failures)} non-200 replies: {failures[:5]}"
    assert len(latencies) == requests
    created = sum(c.pool_stats().created for c in pools)
    reused = sum(c.pool_stats().reused for c in pools)
    for c in pools:
        c.close()
    # Keep-alive must actually be doing the work: connections created
    # should be a sliver of requests served.
    assert created <= clients * (POOL_SIZE + 2), (
        f"{created} connections for {requests} requests — keep-alive broken"
    )
    return latencies, wall_s, {"created": created, "reused": reused}


def test_service_load():
    reset_plan_cache()
    reset_placement_cache()
    reset_route_cache()

    with PlanningServer() as server:
        server.state.warm_start(max_ranks=256)
        before = registry().snapshot()
        latencies, wall_s, pool_totals = _storm(server.url, REQUESTS, CLIENTS)
        after = registry().snapshot()

    p50 = _percentile(latencies, 50)
    p99 = _percentile(latencies, 99)
    throughput = REQUESTS / wall_s
    _BASELINE["throughput_rps"] = throughput
    _BASELINE["p99_s"] = p99

    plan = plan_cache_stats()
    placement = placement_cache_stats()
    hits = _counter(after, "service.coalesce.hits") - _counter(
        before, "service.coalesce.hits"
    )
    misses = _counter(after, "service.coalesce.misses") - _counter(
        before, "service.coalesce.misses"
    )
    assert hits + misses == REQUESTS
    coalesce_rate = hits / REQUESTS

    entry = {
        "requests": REQUESTS,
        "clients": CLIENTS,
        "shards": 1,
        "pool_size": POOL_SIZE,
        "wall_s": round(wall_s, 3),
        "throughput_rps": round(throughput, 1),
        "latency_p50_s": round(p50, 6),
        "latency_p99_s": round(p99, 6),
        "plan_cache_hit_rate": round(plan.hit_rate, 4),
        "placement_cache_hit_rate": round(placement.hit_rate, 4),
        "coalesce_rate": round(coalesce_rate, 4),
        "coalesced_requests": int(hits),
        "connections_created": pool_totals["created"],
        "connections_reused": pool_totals["reused"],
    }
    _append(entry)

    lines = [
        "planning service load "
        f"({REQUESTS} requests, {CLIENTS} clients, 1 shard)",
        f"  throughput            {throughput:10.1f} req/s",
        f"  latency p50           {p50 * 1e3:10.2f} ms",
        f"  latency p99           {p99 * 1e3:10.2f} ms",
        f"  plan cache hit rate   {plan.hit_rate:10.1%}",
        f"  placement hit rate    {placement.hit_rate:10.1%}",
        f"  coalesced             {coalesce_rate:10.1%} "
        f"({int(hits)} requests)",
        f"  connections           {pool_totals['created']} created, "
        f"{pool_totals['reused']} reused",
    ]
    record("service_load", "\n".join(lines))

    cores = os.cpu_count() or 1
    if cores < 2:
        pytest.skip(
            f"only {cores} core(s): latency/throughput floors would "
            "assert scheduler noise (numbers recorded above)"
        )
    assert p99 <= P99_CEILING_S, (
        f"p99 {p99:.3f}s exceeds {P99_CEILING_S}s on a warm cache"
    )
    assert throughput >= THROUGHPUT_FLOOR_RPS, (
        f"{throughput:.1f} req/s under the {THROUGHPUT_FLOOR_RPS} floor"
    )


@pytest.mark.parametrize("shards", SHARD_COUNTS)
def test_sharded_service_load(shards):
    """The same storm through the consistent-hash router at N shards.

    The shards start cold (``warm=False``) — cache affinity is the
    mechanism under test: the ring pins each request class to one
    shard, so traffic itself warms exactly one copy of each cache
    entry. Speedup floors against the same-run single-process baseline
    are asserted only on hosts with at least `shards` cores; the
    trajectory entry is recorded either way.
    """
    latencies = []
    with ShardedPlanningService(shards=shards, warm=False) as svc:
        latencies, wall_s, pool_totals = _storm(svc.url, REQUESTS, CLIENTS)
        merged = ServiceClient(svc.url).metrics()
        per_shard = {
            shard: info["requests_served"]
            for shard, info in merged["shards"].items()
        }

    p50 = _percentile(latencies, 50)
    p99 = _percentile(latencies, 99)
    throughput = REQUESTS / wall_s
    baseline = _BASELINE.get("throughput_rps")
    speedup = round(throughput / baseline, 2) if baseline else None

    entry = {
        "requests": REQUESTS,
        "clients": CLIENTS,
        "shards": shards,
        "pool_size": POOL_SIZE,
        "wall_s": round(wall_s, 3),
        "throughput_rps": round(throughput, 1),
        "latency_p50_s": round(p50, 6),
        "latency_p99_s": round(p99, 6),
        "baseline_throughput_rps": round(baseline, 1) if baseline else None,
        "speedup_vs_single": speedup,
        "per_shard_requests": per_shard,
        "connections_created": pool_totals["created"],
        "connections_reused": pool_totals["reused"],
        "cores": os.cpu_count() or 1,
    }
    _append(entry)

    lines = [
        f"sharded service load "
        f"({REQUESTS} requests, {CLIENTS} clients, {shards} shards)",
        f"  throughput            {throughput:10.1f} req/s",
        f"  latency p50           {p50 * 1e3:10.2f} ms",
        f"  latency p99           {p99 * 1e3:10.2f} ms",
        f"  speedup vs 1 shard    {speedup if speedup else 'n/a':>10}",
        f"  per-shard requests    {per_shard}",
    ]
    record(f"service_load_{shards}shards", "\n".join(lines))

    cores = os.cpu_count() or 1
    if cores < shards:
        pytest.skip(
            f"{cores} core(s) cannot host {shards} shard processes: "
            "speedup floor would assert contention, not scaling "
            "(numbers recorded above)"
        )
    if baseline is None:
        pytest.skip("no single-process baseline in this run")
    floor = SPEEDUP_FLOORS.get(shards, 2.0)
    assert throughput >= floor * baseline, (
        f"{shards} shards: {throughput:.1f} req/s is under "
        f"{floor}x the single-process baseline ({baseline:.1f} req/s)"
    )
    assert p99 <= max(P99_CEILING_S, 2 * _BASELINE.get("p99_s", p99)), (
        f"sharded p99 {p99:.3f}s regressed past the single-process run"
    )


def test_two_shards_beat_one():
    """The shard ring proven by a floor: 2 shards vs 1 behind the router.

    Both deployments run side by side and start cold (``warm=False``);
    each request class of the mix is sent to each once before any
    timing, so the storms measure warm serving. Storms alternate between
    the deployments, so host drift lands on both sides, and the floor
    applies to the ratio of the two median throughputs.
    """
    with (
        ShardedPlanningService(shards=1, warm=False) as one,
        ShardedPlanningService(shards=2, warm=False) as two,
    ):
        for svc in (one, two):
            with ServiceClient(svc.url) as client:
                for payload in _PAYLOADS:
                    assert client.recommend(payload).status == 200
        pairs = []
        for _ in range(SHARD_PAIRS):
            _, one_s, _ = _storm(one.url, REQUESTS, CLIENTS)
            _, two_s, _ = _storm(two.url, REQUESTS, CLIENTS)
            pairs.append((REQUESTS / one_s, REQUESTS / two_s))
        with ServiceClient(two.url) as client:
            per_shard = {
                shard: info["requests_served"]
                for shard, info in client.metrics()["shards"].items()
            }

    one_rps = statistics.median(p[0] for p in pairs)
    two_rps = statistics.median(p[1] for p in pairs)
    ratio = two_rps / one_rps
    cores = os.cpu_count() or 1
    _append({
        "phase": "2-vs-1-shards",
        "requests": REQUESTS,
        "clients": CLIENTS,
        "pool_size": POOL_SIZE,
        "pairs_rps": [[round(a, 1), round(b, 1)] for a, b in pairs],
        "one_shard_median_rps": round(one_rps, 1),
        "two_shard_median_rps": round(two_rps, 1),
        "ratio": round(ratio, 2),
        "floor": TWO_SHARD_FLOOR,
        "per_shard_requests": per_shard,
        "cores": cores,
    })
    record("service_load_2vs1shards", "\n".join([
        f"2 shards vs 1 behind the router "
        f"({SHARD_PAIRS} alternating pairs of {REQUESTS} requests, "
        f"{CLIENTS} clients)",
        "  pairs (req/s)         "
        + ", ".join(f"{a:.1f}/{b:.1f}" for a, b in pairs),
        f"  1 shard median        {one_rps:10.1f} req/s",
        f"  2 shards median       {two_rps:10.1f} req/s",
        f"  ratio                 {ratio:10.2f}x (floor {TWO_SHARD_FLOOR}x)",
        f"  per-shard requests    {per_shard}",
    ]))

    if cores < 2:
        pytest.skip(
            f"only {cores} core(s): 2 shard processes would share one "
            "core, so the floor would assert contention (numbers "
            "recorded above)"
        )
    assert ratio >= TWO_SHARD_FLOOR, (
        f"2 shards served {two_rps:.1f} req/s, under {TWO_SHARD_FLOOR}x "
        f"the 1-shard router's {one_rps:.1f} req/s"
    )


def test_warm_cache_beats_cold_start():
    """The resident-process pitch quantified: request latency on warm
    caches must beat the cold first-request latency."""
    reset_plan_cache()
    reset_placement_cache()
    reset_route_cache()

    payload = {"config": "table2", "max_ranks": 256}
    with PlanningServer() as server:
        client = ServiceClient(server.url)
        t0 = time.perf_counter()
        assert client.recommend(payload).status == 200
        cold_s = time.perf_counter() - t0

        warm_samples = []
        for _ in range(10):
            t0 = time.perf_counter()
            assert client.recommend(payload).status == 200
            warm_samples.append(time.perf_counter() - t0)
        warm_s = statistics.median(warm_samples)

    _append({
        "phase": "warm-vs-cold",
        "shards": 1,
        "clients": 1,
        "pool_size": POOL_SIZE,
        "cold_first_request_s": round(cold_s, 6),
        "warm_median_request_s": round(warm_s, 6),
        "speedup": round(cold_s / warm_s, 2) if warm_s else None,
    })
    assert warm_s < cold_s, (
        f"warm median {warm_s:.4f}s not below cold start {cold_s:.4f}s"
    )
