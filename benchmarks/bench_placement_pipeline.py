"""Benchmark: the array placement & halo pipeline vs the reference.

Two acceptance floors ride on this module:

* **Mapping-metrics sweep** — the Table 5 metric pipeline (halo build +
  hop metrics for every mapping's placement) at 4096 BG/P ranks must
  beat the per-message reference (:mod:`repro.verify.reference`) by
  >= 8x (floor 4x). Parity is enforced bit-for-bit by
  ``tests/core/mapping/test_placement_parity.py`` and asserted here
  before timing.
* **Warm ``simulate_iteration``** — with no pre-supplied placement, the
  array pipeline plus a warm placement cache must beat a cold reference
  heuristic run per call (the per-rank ``place`` flow, then pricing) by
  >= 3x (floor 1.5x).

Both trajectories append to ``BENCH_placement.json`` at the repo root.
Runners too slow to finish the scalar probe inside the time budget skip
with a recorded reason instead of asserting noise.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict
from pathlib import Path

import pytest

from conftest import record

from repro.analysis.experiments.common import fitted_model, grid_for
from repro.core.mapping.multilevel import MultiLevelMapping
from repro.core.mapping.oblivious import ObliviousMapping
from repro.core.mapping.partition_map import PartitionMapping
from repro.core.mapping.txyz import TxyzMapping
from repro.core.mapping.metrics import nest_and_parent_metrics
from repro.core.mapping.base import SlotSpace
from repro.core.scheduler.strategies import ParallelSiblingsStrategy
from repro.exec.placementcache import placement_cache_stats, reset_placement_cache
from repro.netsim.budget import placement_cache_budget_bytes
from repro.perfsim.simulate import simulate_iteration
from repro.runtime.halo import HaloSpec
from repro.topology.machines import BLUE_GENE_P
from repro.verify.reference import mapping as ref
from repro.verify.reference.halo import halo_messages
from repro.workloads.paper_configs import table5_configurations

BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_placement.json"

RANKS = 4096
METRICS_FLOOR = 4.0  # target >= 8x
SIMULATE_FLOOR = 1.5  # target >= 3x
#: A single scalar probe pass slower than this marks the runner too
#: small for a meaningful ratio; skip with the reason on record.
PROBE_BUDGET_S = 60.0


def _append(entry: dict) -> None:
    data = {"benchmark": "placement & halo pipeline", "trajectory": []}
    if BENCH_JSON.exists():
        data = json.loads(BENCH_JSON.read_text())
    entry["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    data["trajectory"].append(entry)
    BENCH_JSON.write_text(json.dumps(data, indent=2) + "\n")


def _best_of(fn, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _reference_metrics(placement, parent_domain, nest_domains, nest_rects, spec):
    """``nest_and_parent_metrics`` built from the reference halo lists
    and per-message metrics."""
    grid = placement.grid
    out = {
        "parent": ref.evaluate_mapping(
            placement, halo_messages(grid, grid.full_rect(), *parent_domain, spec)
        )
    }
    for i, (domain, rect) in enumerate(zip(nest_domains, nest_rects)):
        msgs = halo_messages(grid, rect, *domain, spec)
        out[f"nest{i}"] = ref.evaluate_mapping(placement, msgs)
    return out


def _skip(kind: str, reason: str) -> None:
    _append({"kind": f"{kind}_skip", "reason": reason})
    record(f"placement_{kind}", f"SKIPPED: {reason}")
    pytest.skip(reason)


# ------------------------------------------------- mapping-metrics sweep
def test_mapping_metrics_sweep_speedup():
    machine = BLUE_GENE_P
    grid = grid_for(RANKS)
    rpn = machine.mode(None).ranks_per_node
    torus = machine.torus_for_ranks(RANKS, None)
    space = SlotSpace(torus, rpn)
    config = table5_configurations()[0]
    plan = ParallelSiblingsStrategy(fitted_model(machine)).plan(
        grid, config.parent, list(config.siblings)
    )
    parent_domain = (config.parent.nx, config.parent.ny)
    nest_domains = [(a.domain.nx, a.domain.ny) for a in plan.assignments]
    spec = HaloSpec()

    mappings = [ObliviousMapping(), TxyzMapping(), PartitionMapping(), MultiLevelMapping()]
    placements = [m.place(grid, space, plan.rects) for m in mappings]

    def sweep(metrics=nest_and_parent_metrics):
        return [
            metrics(p, parent_domain, nest_domains, plan.rects, spec)
            for p in placements
        ]

    def scalar_sweep():
        return sweep(_reference_metrics)

    vector_out = sweep()
    t0 = time.perf_counter()
    scalar_out = scalar_sweep()
    probe = time.perf_counter() - t0
    assert vector_out == scalar_out  # parity before timing
    if probe > PROBE_BUDGET_S:
        _skip(
            "metrics",
            f"reference metrics probe took {probe:.0f}s "
            f"(budget {PROBE_BUDGET_S:.0f}s); runner too small for a "
            f"meaningful ratio",
        )

    scalar_s = _best_of(scalar_sweep, repeats=2)
    vector_s = _best_of(sweep, repeats=3)
    speedup = scalar_s / vector_s

    _append(
        {
            "kind": "mapping_metrics_sweep",
            "ranks": RANKS,
            "machine": machine.name,
            "torus": list(torus.dims),
            "mappings": [m.name for m in mappings],
            "scalar_s": scalar_s,
            "vector_s": vector_s,
            "speedup": round(speedup, 2),
            "floor": METRICS_FLOOR,
        }
    )
    record(
        "placement_metrics",
        "\n".join(
            [
                f"mapping-metrics sweep (Table 5 pipeline), {RANKS} BG/P "
                f"ranks, {len(mappings)} mappings x "
                f"{1 + len(nest_domains)} exchanges:",
                f"  scalar oracle  {scalar_s * 1e3:9.2f} ms",
                f"  vector         {vector_s * 1e3:9.2f} ms   {speedup:6.1f}x",
                f"  [appended to {BENCH_JSON.name}]",
            ]
        ),
    )
    assert speedup >= METRICS_FLOOR, (
        f"array metrics pipeline only {speedup:.1f}x over the "
        f"reference (floor {METRICS_FLOOR}x at {RANKS} ranks)"
    )


# --------------------------------------------- warm simulate_iteration
def test_warm_simulate_iteration_speedup():
    machine = BLUE_GENE_P
    grid = grid_for(RANKS)
    config = table5_configurations()[0]
    plan = ParallelSiblingsStrategy(fitted_model(machine)).plan(
        grid, config.parent, list(config.siblings)
    )
    mapping = MultiLevelMapping()
    rpn = machine.mode(None).ranks_per_node
    space = SlotSpace(machine.torus_for_ranks(grid.size, None), rpn)

    def iterate():
        return simulate_iteration(plan, machine, mapping=mapping)

    def scalar_cold():
        # A fresh reference heuristic run per call: what every sweep
        # iteration paid before the array pipeline and placement cache.
        placement = ref.place(mapping, grid, space, plan.rects)
        return simulate_iteration(plan, machine, placement=placement)

    reset_placement_cache()
    vector_report = iterate()  # prime the placement cache
    t0 = time.perf_counter()
    scalar_report = scalar_cold()
    probe = time.perf_counter() - t0
    assert vector_report == scalar_report  # parity before timing
    if probe > PROBE_BUDGET_S:
        _skip(
            "simulate",
            f"reference simulate probe took {probe:.0f}s "
            f"(budget {PROBE_BUDGET_S:.0f}s); runner too small for a "
            f"meaningful ratio",
        )

    scalar_s = _best_of(scalar_cold, repeats=2)
    warm_s = _best_of(iterate, repeats=3)
    cache = placement_cache_stats()
    budget = placement_cache_budget_bytes()
    speedup = scalar_s / warm_s

    _append(
        {
            "kind": "warm_simulate_iteration",
            "ranks": RANKS,
            "machine": machine.name,
            "mapping": mapping.name,
            "scalar_cold_s": scalar_s,
            "vector_warm_s": warm_s,
            "speedup": round(speedup, 2),
            "floor": SIMULATE_FLOOR,
            "placement_cache": {**asdict(cache), "budget_bytes": budget},
        }
    )
    record(
        "placement_simulate",
        "\n".join(
            [
                f"simulate_iteration, {RANKS} BG/P ranks, "
                f"{mapping.name} mapping, no pre-supplied placement:",
                f"  scalar, cold cache  {scalar_s * 1e3:9.2f} ms",
                f"  vector, warm cache  {warm_s * 1e3:9.2f} ms   "
                f"{speedup:6.1f}x",
                f"  placement cache: {cache.hits} hits / "
                f"{cache.misses} misses",
                f"  [appended to {BENCH_JSON.name}]",
            ]
        ),
    )
    assert speedup >= SIMULATE_FLOOR, (
        f"warm simulate_iteration only {speedup:.1f}x over the cold "
        f"reference path (floor {SIMULATE_FLOOR}x at {RANKS} ranks)"
    )
