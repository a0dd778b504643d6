"""Self-tests of the repository benchmark.

Usage (from the root of a checkout)::

    python3 perfbench/selftest.py [--seed N] [--seconds S]

1. **Output checks fire.** Each workload's check is fed real outputs,
   then the same outputs with one element corrupted; the check must pass
   the first and flag exactly the corrupted op in the second.
2. **Counts repeat.** Each workload runs traced twice with one seed; the
   per-layer counts (calls, hit ratios, evictions, messages, chunks,
   replans, memo traffic) and the program's public cache stats must be
   identical, except the counts listed in ``SCHEDULING_DEPENDENT``.
3. **Anchors hold.** ``serve-warm`` hits every plan, placement and route
   lookup; ``reprice-131k`` gets no route hits; ``ensemble-steer``'s
   shared memo tier serves hits.

Exits 0 when every test passes.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import subprocess
import sys
from typing import Dict, List, Tuple

from harness import checkout_root, use_checkout_source

#: Counts the program itself defines as scheduling-dependent: which
#: queue worker publishes a memo entry first decides whether the other
#: one hits the shared tier or prices the state itself (and so touches
#: its plan, placement and route caches). See docs/ensemble.md.
SCHEDULING_DEPENDENT = {
    "ensemble-steer": (
        "memo.", "plan.", "place.", "halo.", "route.", "price.", "perfsim.",
        "iosim.", "caches.",
    ),
}

_COUNT_SUFFIXES = (".calls", ".hit_ratio", ".evictions", ".messages", ".chunks",
                   ".shared_hits", ".misses", ".replans")


def _fails(name: str, got: List[int], want: List[int]) -> List[str]:
    return [] if got == want else [f"{name}: check returned {got}, expected {want}"]


def check_checks(seed: int) -> List[str]:
    """Every output check passes real outputs and flags a corrupted one."""
    import workloads as w

    problems: List[str] = []

    expected = w.serve_expected()
    rounds = w.serve_rounds(seed, 4)
    replies = [[(200, expected[k]) for k in rnd] for rnd in rounds]
    problems += _fails("serve-warm clean", w.check_serve(rounds, replies, expected), [])
    bad = [list(r) for r in replies]
    bad[1][5] = (200, bad[1][5][1][:-2] + b"0}")
    bad[2][0] = (500, bad[2][0][1])
    bad[3] = bad[3][:-1]
    problems += _fails("serve-warm corrupted",
                       w.check_serve(rounds, bad, expected), [1, 2, 3])

    batches = w.sweep_batches(seed, 2)
    results = [w._sweep(b, jobs=1) for b in batches]
    problems += _fails("sweep-cold clean",
                       w.check_sweep(batches, results, 1, results[1]), [])
    first = results[1][0]
    tampered = dataclasses.replace(
        first, parallel=dataclasses.replace(
            first.parallel, io_time=first.parallel.io_time * (1 + 1e-12)))
    bad = [results[0], [tampered] + list(results[1][1:])]
    problems += _fails("sweep-cold corrupted",
                       w.check_sweep(batches, bad, 1, results[1]), [1])

    inputs = w.reprice_inputs()
    ref = w.reprice_once(inputs)
    seq, par = ref
    tampered = (seq, dataclasses.replace(par, average_hops=par.average_hops + 1e-9))
    problems += _fails("reprice-131k clean", w.check_reprice([ref, ref], ref), [])
    problems += _fails("reprice-131k corrupted",
                       w.check_reprice([ref, tampered, ref], ref), [1])

    specs, events = w.ensemble_inputs(seed, 4)
    alive: List[int] = []
    run = w._ensemble_driver(specs, events, 1, lambda f: alive.append(f.alive)).run(4)
    records = list(run.records)
    replay = [r for r in records if r.tick < 2]
    problems += _fails("ensemble-steer clean",
                       w.check_ensemble(records, replay, alive, 2), [])
    i = next(j for j, r in enumerate(records) if r.tick == 1)
    bad = list(records)
    bad[i] = dataclasses.replace(bad[i], sim_time_s=bad[i].sim_time_s + 1e-9)
    problems += _fails("ensemble-steer diverged replay",
                       w.check_ensemble(bad, replay, alive, 2), [0, 1])
    problems += _fails("ensemble-steer missing record",
                       w.check_ensemble(records[:-1], replay, alive, 2), [1])
    return problems


def _traced(workload: str, seed: int, seconds: float) -> Tuple[Dict, Dict]:
    out = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"],
        cwd=checkout_root(), capture_output=True, text=True, check=True,
    ).stdout.splitlines()
    result = json.loads(out[-1])
    detail = json.loads(out[-2])["detail"]
    if not result["correct"]:
        raise AssertionError(f"{workload}: traced run reported failed ops")
    return result["metrics"], detail


def _counts(metrics: Dict, detail: Dict) -> Dict[str, float]:
    counts = {k: v["value"] for k, v in metrics.items() if k.endswith(_COUNT_SUFFIXES)}
    counts.update(detail["counts"])
    return counts


def check_counts_and_anchors(seed: int, seconds: float) -> List[str]:
    from workloads import WORKLOADS

    problems: List[str] = []
    for name in WORKLOADS:
        (m1, d1), (m2, d2) = _traced(name, seed, seconds), _traced(name, seed, seconds)
        c1, c2 = _counts(m1, d1), _counts(m2, d2)
        skip = SCHEDULING_DEPENDENT.get(name, ())
        for key in sorted(c1):
            if c1[key] != c2.get(key):
                kind = "scheduling-dependent" if key.startswith(skip) else "MISMATCH"
                print(f"  {name} {key}: {c1[key]} vs {c2.get(key)} ({kind})")
                if not key.startswith(skip):
                    problems.append(f"{name}: count {key} differs between runs")
        value = {k: v["value"] for k, v in m1.items()}
        if name == "serve-warm":
            for layer in ("plan", "place", "route"):
                if value[f"{layer}.hit_ratio"] != 1.0:
                    problems.append(f"serve-warm: {layer}.hit_ratio {value[f'{layer}.hit_ratio']}")
        if name == "reprice-131k" and value["route.hit_ratio"] != 0.0:
            problems.append(f"reprice-131k: route.hit_ratio {value['route.hit_ratio']}")
        if name == "ensemble-steer" and not value["memo.shared_hits"] > 0:
            problems.append("ensemble-steer: no shared memo hits")
        print(f"{name}: {len(c1)} counts compared", flush=True)
    return problems


def main() -> int:
    p = argparse.ArgumentParser(description="benchmark self-tests")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--seconds", type=float, default=2.0)
    args = p.parse_args()
    use_checkout_source(checkout_root())
    problems = check_checks(args.seed)
    print(f"output checks: {'ok' if not problems else problems}", flush=True)
    problems += check_counts_and_anchors(args.seed, args.seconds)
    for line in problems:
        print(f"FAIL {line}")
    print("selftest: " + ("ok" if not problems else f"{len(problems)} failures"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
