"""Benchmark: vectorized network engine vs the reference simulator.

Times the routing + round-pricing kernel of one 4096-rank BG/P halo
exchange (the paper's largest per-domain message set) under three
regimes:

* ``scalar`` — the reference pure-Python hop-by-hop path
  (:mod:`repro.verify.reference.netsim`, the *before*) on its
  ``HaloMessage`` list and coordinate tuples,
* ``vector cold`` — the NumPy engine routing and pricing a prebuilt
  ``HaloBatch`` uncached (``route_batch`` + ``round_estimate``): the
  kernel a route-cache miss runs,
* ``vector warm`` — a route-cache hit of the same exchange through
  ``VECTOR.route_exchange``, keyed by its structure: the regime every
  repeated round/timestep/sweep config/request runs in. It builds no
  batch, routes nothing and prices nothing.

The engine gets what production hands it: the placement's own
``PlacementVector`` (``Placement.vector``).

The before/after trajectory is appended to ``BENCH_netsim.json`` at the
repo root; the test asserts the >=10x acceptance floor of both vector
rows over the reference, and the >=50x floor of the warm row over the
cold one.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict
from pathlib import Path

from conftest import record

from repro.core.mapping.base import SlotSpace
from repro.core.mapping.oblivious import ObliviousMapping
from repro.netsim.budget import route_cache_budget_bytes
from repro.netsim.engine import (
    VECTOR,
    reset_route_cache,
    route_batch,
    route_cache_stats,
)
from repro.runtime.halo import HaloSpec, halo_batch
from repro.runtime.process_grid import ProcessGrid
from repro.topology.machines import BLUE_GENE_P
from repro.verify.reference.halo import halo_messages
from repro.verify.reference.mapping import node_tuples
from repro.verify.reference.netsim import round_time, route_messages

BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_netsim.json"

#: Acceptance floor: the vectorized kernel must beat the reference path
#: by at least this factor even with a cold route cache.
SPEEDUP_FLOOR = 10.0

#: A route-cache hit must beat the cold kernel by at least this factor:
#: it is a dict lookup, where the kernel routes and prices every message.
WARM_FLOOR = 50.0

RANKS = 4096
DOMAIN = (415, 445)  # the Pacific 415x445 nest of the paper


def _best_of(fn, repeats: int = 5, calls: int = 1) -> float:
    """Best per-call time over *repeats* timed loops of *calls* calls."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        best = min(best, (time.perf_counter() - t0) / calls)
    return best


def test_netsim_engine_speedup():
    grid = ProcessGrid(64, 64)
    machine = BLUE_GENE_P
    torus = machine.torus_for_ranks(RANKS, None)
    rpn = machine.mode(None).ranks_per_node
    mapped = ObliviousMapping().place(grid, SlotSpace(torus, rpn))
    # The vector every placement builds once, as simulate_iteration uses it.
    placement = mapped.vector
    spec = HaloSpec()
    exchanges = ((grid.full_rect(), *DOMAIN),)
    batch = halo_batch(grid, grid.full_rect(), *DOMAIN, spec)
    nodes = node_tuples(mapped)
    msgs = halo_messages(grid, grid.full_rect(), *DOMAIN, spec)

    def scalar_kernel():
        routed, loads = route_messages(torus, nodes, msgs)
        return round_time(routed, loads, machine)

    def vector_cold():
        routed, loads = route_batch(torus, placement, batch)
        return VECTOR.round_estimate(routed, loads, machine)

    def vector_warm():
        _, _, (estimate,) = VECTOR.route_exchange(
            torus, placement, grid, exchanges, spec, machine
        )
        return estimate

    # Parity before timing: every path must price the round identically
    # (the first structural lookup is the miss that primes the cache).
    reset_route_cache()
    expected = scalar_kernel()
    assert vector_cold() == expected
    assert vector_warm() == expected

    scalar_s = _best_of(scalar_kernel, repeats=3)
    cold_s = _best_of(vector_cold)
    warm_s = _best_of(vector_warm, calls=100)
    cache = route_cache_stats()
    assert (cache.hits, cache.misses) == (500, 1), cache

    speedup_cold = scalar_s / cold_s
    speedup_warm = scalar_s / warm_s
    warm_over_cold = cold_s / warm_s
    entry = {
        "ranks": RANKS,
        "machine": machine.name,
        "torus": list(torus.dims),
        "messages": len(batch),
        "scalar_s": scalar_s,
        "vector_cold_s": cold_s,
        "vector_warm_s": warm_s,
        "speedup_cold": round(speedup_cold, 2),
        "speedup_warm": round(speedup_warm, 2),
        "warm_over_cold": round(warm_over_cold, 1),
        "route_cache": {
            **asdict(cache),
            "budget_bytes": route_cache_budget_bytes(),
        },
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }

    data = {"benchmark": "netsim routing + round pricing", "trajectory": []}
    if BENCH_JSON.exists():
        data = json.loads(BENCH_JSON.read_text())
    data["trajectory"].append(entry)
    BENCH_JSON.write_text(json.dumps(data, indent=2) + "\n")

    record(
        "netsim_engine",
        "\n".join(
            [
                f"netsim engine kernel, {RANKS} BG/P ranks, "
                f"{len(batch)} messages on {torus!r}:",
                f"  scalar oracle    {scalar_s * 1e3:9.2f} ms",
                f"  vector (cold)    {cold_s * 1e3:9.2f} ms   {speedup_cold:8.1f}x",
                f"  vector (warm)    {warm_s * 1e6:9.2f} us   {speedup_warm:8.1f}x"
                f"   ({warm_over_cold:.0f}x cold)",
                f"  [appended to {BENCH_JSON.name}]",
            ]
        ),
    )

    assert speedup_cold >= SPEEDUP_FLOOR, (
        f"vectorized engine only {speedup_cold:.1f}x over the reference "
        f"(floor {SPEEDUP_FLOOR}x)"
    )
    assert speedup_warm >= SPEEDUP_FLOOR
    assert warm_over_cold >= WARM_FLOOR, (
        f"route-cache hit only {warm_over_cold:.1f}x over the cold kernel "
        f"(floor {WARM_FLOOR}x)"
    )
