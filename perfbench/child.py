"""One workload process of the repository benchmark.

Started by ``perfbench/run.py``; not meant to be run by hand. It prints
``READY`` when set-up is done (just before the first timed op) and, in a
full run, one ``RESULT <json>`` line at the end.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from harness import Bench, OpClock, SetupDone, checkout_root, use_checkout_source


def environment() -> dict:
    """Host and effective cache settings every result is recorded with.

    The two entry caps have no public accessor, so they are read off the
    cache objects.
    """
    import platform

    import numpy

    from repro.exec.plancache import _PLAN_CACHE
    from repro.netsim.budget import (
        mem_budget_bytes,
        placement_cache_budget_bytes,
        route_cache_budget_bytes,
    )
    from repro.netsim.engine import _ROUTE_CACHE

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "netsim_mem_mb": mem_budget_bytes() / 2**20,
        "route_cache_mb": route_cache_budget_bytes() / 2**20,
        "route_cache_max_entries": _ROUTE_CACHE.maxsize,
        "placement_cache_mb": placement_cache_budget_bytes() / 2**20,
        "plan_cache_max_entries": _PLAN_CACHE.maxsize,
    }


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--traced", type=int, default=0)
    p.add_argument("--setup-only", type=int, default=0)
    p.add_argument("--out", required=True)
    args = p.parse_args()

    use_checkout_source(checkout_root())
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    clock = OpClock(os.path.join(args.out, "opid"), create=True)
    recorder = None
    if args.traced:
        import ledger

        recorder = ledger.Recorder(args.out, clock)
        ledger.install(recorder)
    ops = workload.ops_for(args.seconds)
    # A safety cap at twice the calibrated duration, so a badly regressed
    # program or a slow host still ends inside the run limit (the op
    # count, and so the tail percentile, then differ).
    cap_s = 2 * max(args.seconds, ops / workload.ops_per_s)
    bench = Bench(
        seed=args.seed, cap_s=cap_s, setup_only=bool(args.setup_only),
        out_dir=args.out, clock=clock, recorder=recorder,
    )
    try:
        extra = workload.run(bench, ops)
    except SetupDone:
        return 0
    result = bench.result(server_peak_kb=extra.get("server_peak_kb"))
    if recorder is not None:
        recorder.flush()
    result["pid"] = os.getpid()
    result["ops_planned"] = ops
    result["env"] = environment()
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
