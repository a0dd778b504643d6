"""Repository benchmark: four workloads, five end-to-end metrics each.

Usage::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: ``serve-warm``, ``sweep-cold``, ``reprice-131k``,
``ensemble-steer`` (see ``perfbench/README.md`` for why each exists).

``--trace 0`` runs the program untraced and reports ``setup_s``,
``throughput_ops_s``, ``latency_p50_ms``, ``latency_tail_ms`` and
``peak_rss_mb``. ``--trace 1`` runs the workload once untraced and once
with the benchmark's span wrappers installed, and reports the per-layer
ledger plus ``unattributed_share`` and ``trace_overhead``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it carries the details (tail percentile and sample count, set-up
samples, deterministic counts, environment). Run from the root of a
checkout: the program is imported from its ``src`` tree.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from typing import Any, Dict, List, Tuple

from harness import OUT_DIRNAME, checkout_root, tail_percentile

#: Set-up is timed this many times per untraced run (fresh processes)
#: and reported as the median.
SETUP_SAMPLES = 3

#: A workload process that has not finished by then is killed.
CHILD_TIMEOUT_S = 170.0

END_TO_END = (
    ("setup_s", "s"),
    ("throughput_ops_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


class ChildFailed(RuntimeError):
    pass


def _run_child(
    root: str, out_dir: str, args, *, traced: bool, setup_only: bool,
    deadline: float,
) -> Tuple[float, Dict[str, Any]]:
    """Run one workload process; returns (set-up seconds, result)."""
    os.makedirs(out_dir)
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PERFBENCH_ROOT"] = root
    env["PYTHONHASHSEED"] = "0"
    cmd = [
        sys.executable, os.path.join(root, "perfbench", "child.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--traced", str(int(traced)),
        "--setup-only", str(int(setup_only)), "--out", out_dir,
    ]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=root)
    timer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    timer.start()
    ready = None
    result = None
    try:
        for line in proc.stdout:
            if line == "READY\n" and ready is None:
                ready = time.perf_counter() - t0
            elif line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
        code = proc.wait()
    finally:
        timer.cancel()
        proc.stdout.close()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0 or ready is None or (result is None and not setup_only):
        raise ChildFailed(
            f"workload process for {args.workload} exited with code {code}"
            + ("" if ready is not None else " before finishing set-up")
        )
    return ready, result or {}


def _throughput(res: Dict[str, Any]) -> float:
    return (res["attempted"] - res["failed"]) / res["window_s"]


def _end_to_end(setups: List[float], res: Dict[str, Any]) -> Tuple[Dict, Dict]:
    lat = res["latencies_ms"]
    q, tail, beyond = tail_percentile(lat)
    values = {
        "setup_s": statistics.median(setups),
        "throughput_ops_s": _throughput(res),
        "latency_p50_ms": statistics.median(lat),
        "latency_tail_ms": tail,
        "peak_rss_mb": res["peak_rss_mb"],
    }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    detail = {
        "latency_tail_ms": {"percentile": q, "samples": len(lat), "beyond": beyond},
        "setup_samples_s": setups,
        "window_s": res["window_s"],
    }
    return metrics, detail


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    root = checkout_root()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        print(f"error: no program source at {os.path.join(root, 'src', 'repro')}; "
              "run from a full checkout", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r} "
              f"(choose from {', '.join(WORKLOADS)})", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    out = os.path.join(root, OUT_DIRNAME, f"{args.workload}-{os.getpid()}")
    shutil.rmtree(out, ignore_errors=True)
    deadline = time.monotonic() + CHILD_TIMEOUT_S
    try:
        if args.trace == 0:
            # Set-up samples before and after the measured run, so a slow
            # spell of the host cannot bias all of them.
            setups = []
            for i in range(SETUP_SAMPLES):
                if i == SETUP_SAMPLES // 2:
                    s, res = _run_child(root, os.path.join(out, "run"), args,
                                        traced=False, setup_only=False,
                                        deadline=deadline)
                else:
                    s, _ = _run_child(root, os.path.join(out, f"setup{i}"), args,
                                      traced=False, setup_only=True,
                                      deadline=deadline)
                setups.append(s)
            metrics, detail = _end_to_end(setups, res)
        else:
            import ledger

            _, base = _run_child(root, os.path.join(out, "base"), args,
                                 traced=False, setup_only=False, deadline=deadline)
            traced_dir = os.path.join(out, "traced")
            _, res = _run_child(root, traced_dir, args, traced=True,
                                setup_only=False, deadline=deadline)
            values = ledger.analyse(ledger.load(traced_dir), res["pid"], res["op_windows"])
            values["trace_overhead"] = _throughput(base) / _throughput(res) - 1.0
            metrics = {
                name: {"value": values[name], "unit": unit}
                for name, unit in ledger.LAYER_METRICS
            }
            detail = {"untraced": {"attempted": base["attempted"],
                                   "failed": base["failed"]}}
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(out, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(out))
        except OSError:
            pass  # another run still uses it

    detail.update(
        workload=args.workload, seed=args.seed, trace=args.trace,
        ops=res["attempted"], counts=res["notes"].get("counts", {}), env=res["env"],
    )
    print(json.dumps({"detail": detail}))
    attempted, failed = res["attempted"], res["failed"]
    if args.trace:
        attempted += base["attempted"]
        failed += base["failed"]
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
