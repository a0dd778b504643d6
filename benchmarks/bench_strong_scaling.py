"""Benchmark: memory-bounded strong scaling of the netsim+placement pipeline.

Drives one end-to-end iteration — place the process grid on the torus,
build the halo exchange round, route it, price it — at 4k, 16k, 64k, and
131k BG/P ranks (and once more at 131k ranks on the BG/Q-class machine),
recording time-per-message and peak RSS at every scale into
``BENCH_scaling.json`` at the repo root. Each rung times the uncached
kernel a route-cache miss runs (cold) and the structural
route-cache hit every repeated exchange takes (warm).

The interesting axis is **memory**, not time: the engine must hold its
route expansion inside ``REPRO_NETSIM_MEM_MB`` no matter the rank count,
building an exchange in several expansion passes when one would exceed
it, so the run asserts the process's peak RSS against the
``REPRO_SCALING_RSS_MB`` ceiling (and a companion test exercises the
budget-exceeded failure mode so the assertion is known to bite).

Environment knobs:

* ``REPRO_SCALING_MAX_RANKS`` — cap the sweep (CI smoke runs 16384).
* ``REPRO_SCALING_RSS_MB`` — peak-RSS ceiling for the whole run
  (default 2048 MB; the ceiling covers interpreter + NumPy baseline
  plus every scale's working set).
* ``REPRO_NETSIM_MEM_MB`` — the engine budget under test. The bench
  defaults it to 64 MB — tight enough that the 64k+ rungs exceed the
  pass hop limit and are built in several passes. A quarter of that
  (16 MiB) would not hold the 131k rung's route-cache entry, so the
  warm leg sets the cache's own budget to ``WARM_CACHE_MB``.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

os.environ.setdefault("REPRO_NETSIM_MEM_MB", "64")

import pytest
from conftest import record

from repro.core.mapping.base import SlotSpace
from repro.core.mapping.oblivious import ObliviousMapping
from repro.netsim.budget import mem_budget_bytes
from repro.netsim.engine import (
    _ROUTE_CACHE,
    VECTOR,
    reset_route_cache,
    route_batch,
    route_cache_stats,
)
from repro.obs.metrics import peak_rss_bytes, sample_rss
from repro.runtime.decomposition import choose_process_grid
from repro.runtime.halo import HaloSpec, halo_batch
from repro.runtime.process_grid import ProcessGrid
from repro.topology.bgq import BLUE_GENE_Q_3D
from repro.topology.machines import BLUE_GENE_P

BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_scaling.json"

#: The strong-scaling ladder (BG/P VN mode: ranks/4 nodes per rung).
RANK_SCALES = (4096, 16384, 65536, 131072)

#: Synthetic global domain large enough that no rung's process grid is
#: clamped (every grid dimension stays below the domain extent).
DOMAIN = (4096, 4096)

#: Route-cache budget of the warm leg, so every rung's entry is kept.
WARM_CACHE_MB = 64

MAX_RANKS = int(os.environ.get("REPRO_SCALING_MAX_RANKS", RANK_SCALES[-1]))
RSS_CEILING_MB = float(os.environ.get("REPRO_SCALING_RSS_MB", 2048))


def assert_rss_within(ceiling_mb: float) -> int:
    """Fail with :class:`MemoryError` when peak RSS exceeds *ceiling_mb*.

    The budget-exceeded failure mode of the scaling gate: a loud error
    naming both numbers, never a silently-passing benchmark.
    """
    sample_rss()
    peak = peak_rss_bytes()
    if peak > ceiling_mb * 2**20:
        raise MemoryError(
            f"peak RSS {peak / 2**20:.1f} MiB exceeds the "
            f"{ceiling_mb:.0f} MiB scaling ceiling "
            "(REPRO_SCALING_RSS_MB); the memory budget was not held"
        )
    return peak


def _one_scale(machine, ranks: int) -> dict:
    """Place + route + price one exchange round at *ranks* ranks."""
    px, py = choose_process_grid(ranks)
    grid = ProcessGrid(px, py)
    rpn = machine.mode(None).ranks_per_node
    torus = machine.torus_for_ranks(ranks, None)

    t0 = time.perf_counter()
    placement = ObliviousMapping().place(grid, SlotSpace(torus, rpn))
    placement_s = time.perf_counter() - t0
    pvec = placement.vector

    spec = HaloSpec()
    batch = halo_batch(grid, grid.full_rect(), *DOMAIN, spec)

    # Cold: the uncached kernel a route-cache miss runs.
    t0 = time.perf_counter()
    routed, loads = route_batch(torus, pvec, batch)
    estimate = VECTOR.round_estimate(routed, loads, machine)
    cold_s = time.perf_counter() - t0
    messages, chunks = len(batch), routed.num_chunks
    del batch, routed, loads  # the priming miss below builds its own

    # Warm: the structural route-cache hit, after one priming miss that
    # must price the round exactly as the cold kernel did.
    exchanges = ((grid.full_rect(), *DOMAIN),)
    reset_route_cache()
    primed = VECTOR.route_exchange(torus, pvec, grid, exchanges, spec, machine)
    assert primed[2] == (estimate,)
    t0 = time.perf_counter()
    hit = VECTOR.route_exchange(torus, pvec, grid, exchanges, spec, machine)
    warm_s = time.perf_counter() - t0
    cache = route_cache_stats()
    assert hit is primed and cache.hits == 1, cache

    rss = sample_rss()
    return {
        "machine": machine.name,
        "ranks": ranks,
        "nodes": torus.num_nodes,
        "torus": list(torus.dims),
        "grid": [px, py],
        "messages": messages,
        "placement_s": placement_s,
        "route_cold_s": cold_s,
        "route_warm_s": warm_s,
        "time_per_message_us": cold_s / messages * 1e6,
        "chunks": chunks,
        "round_time_s": estimate.time,
        "max_link_bytes": estimate.max_link_bytes,
        "route_cache": {
            "hits": cache.hits,
            "evictions": cache.evictions,
            "resident_bytes": cache.resident_bytes,
        },
        "peak_rss_mb": rss["peak"] / 2**20,
    }


def test_strong_scaling(monkeypatch):
    monkeypatch.setattr(_ROUTE_CACHE, "budget_bytes", lambda: WARM_CACHE_MB * 2**20)
    budget_mb = mem_budget_bytes() / 2**20
    scales = [r for r in RANK_SCALES if r <= MAX_RANKS]
    assert scales, f"REPRO_SCALING_MAX_RANKS={MAX_RANKS} filters every rung"

    entries = [_one_scale(BLUE_GENE_P, r) for r in scales]
    if scales[-1] == RANK_SCALES[-1]:
        # The BG/Q-class machine packs 16 ranks/node: same 131072 ranks,
        # a quarter of the nodes — a second topology shape at top scale.
        entries.append(_one_scale(BLUE_GENE_Q_3D, RANK_SCALES[-1]))

    peak = assert_rss_within(RSS_CEILING_MB)

    payload = {
        "budget_mb": budget_mb,
        "rss_ceiling_mb": RSS_CEILING_MB,
        "max_ranks": scales[-1],
        "scales": entries,
        "peak_rss_mb": peak / 2**20,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    data = {"benchmark": "strong scaling, netsim+placement", "trajectory": []}
    if BENCH_JSON.exists():
        data = json.loads(BENCH_JSON.read_text())
    data["trajectory"].append(payload)
    BENCH_JSON.write_text(json.dumps(data, indent=2) + "\n")

    lines = [
        f"strong scaling, budget {budget_mb:.0f} MB "
        f"(ceiling {RSS_CEILING_MB:.0f} MB):",
        f"  {'machine':<14} {'ranks':>7} {'torus':>12} {'msgs':>7} "
        f"{'place':>8} {'cold':>8} {'us/msg':>7} {'passes':>6} {'rss MB':>8}",
    ]
    for e in entries:
        lines.append(
            f"  {e['machine']:<14} {e['ranks']:>7} "
            f"{'x'.join(map(str, e['torus'])):>12} {e['messages']:>7} "
            f"{e['placement_s'] * 1e3:>6.1f}ms {e['route_cold_s'] * 1e3:>6.1f}ms "
            f"{e['time_per_message_us']:>7.3f} "
            f"{e['chunks']:>6} {e['peak_rss_mb']:>8.1f}"
        )
    lines.append(f"  [appended to {BENCH_JSON.name}]")
    record("strong_scaling", "\n".join(lines))

    # The gate: the largest rung completed inside the stated ceiling.
    assert peak <= RSS_CEILING_MB * 2**20


def test_rss_ceiling_failure_mode():
    """The budget-exceeded path must fail loudly, not pass vacuously."""
    with pytest.raises(MemoryError, match="exceeds the 1 MiB"):
        assert_rss_within(1.0)
