"""Shared plumbing for one workload process of the repository benchmark.

A workload process (``perfbench/child.py``) does the workload's set-up,
prints ``READY`` just before its first timed op, runs a fixed number of
ops, checks their outputs outside the timed window, and prints one
``RESULT`` line for ``perfbench/run.py`` to turn into metrics.

Everything here is the benchmark's own code; nothing in it changes how
the program under test behaves.
"""

from __future__ import annotations

import contextlib
import math
import mmap
import os
import resource
import struct
import sys
import time
from typing import Dict, List, Optional, Sequence, Tuple

import multiprocessing.util as mp_util

#: Percentiles tried for ``latency_tail_ms``, highest first. The tail is
#: the highest one with at least ``TAIL_BEYOND`` samples above it, so it
#: is never read off a handful of outliers.
TAIL_LADDER = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 80.0, 75.0, 70.0, 60.0, 50.0)
TAIL_BEYOND = 10

#: Output directory for span files, per-worker RSS records and the op
#: clock, relative to the checkout root (listed in ``.gitignore``).
OUT_DIRNAME = ".perfbench"


class SetupDone(Exception):
    """Raised by :meth:`Bench.ready` in a set-up-only process."""


class OpClock:
    """The current op id, shared by every process of a run.

    An 8-byte memory-mapped file: the workload process writes the id of
    the op it is timing (``-1`` outside the timed window) and span
    recorders in forked workers or the served process read it, so each
    span is tagged with the op that caused it.
    """

    def __init__(self, path: str, *, create: bool) -> None:
        if create:
            with open(path, "wb") as f:
                f.write(struct.pack("<q", -1))
        fd = os.open(path, os.O_RDWR)
        try:
            self._mm = mmap.mmap(fd, 8)
        finally:
            os.close(fd)

    def set(self, op: int) -> None:
        struct.pack_into("<q", self._mm, 0, op)

    def get(self) -> int:
        return struct.unpack_from("<q", self._mm, 0)[0]


def checkout_root() -> str:
    """The checkout the benchmark runs in (the parent of ``perfbench/``)."""
    return os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def use_checkout_source(root: str) -> None:
    """Import the program from the checkout's ``src`` tree."""
    src = os.path.join(root, "src")
    if src not in sys.path:
        sys.path.insert(0, src)


def peak_rss_kb(pid: Optional[int] = None) -> int:
    """Peak resident set (``VmHWM``) of *pid*, or of this process."""
    if pid is None:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError(f"no VmHWM for pid {pid}")


class WorkerRss:
    """Records the peak RSS of every worker forked through multiprocessing.

    Each forked worker writes ``<op at fork> <peak kB>`` to its own file
    when it exits, so the workers alive together can be summed: the
    ensemble's two queue workers (forked during set-up) or the two pool
    workers one sweep forks.
    """

    def __init__(self, out_dir: str, clock: OpClock) -> None:
        self.out_dir = out_dir
        self.clock = clock
        mp_util.register_after_fork(self, WorkerRss._after_fork)

    def _after_fork(self) -> None:
        op = self.clock.get()
        mp_util.Finalize(None, self._write, args=(op,), exitpriority=50)

    def _write(self, op: int) -> None:
        path = os.path.join(self.out_dir, f"rss-{os.getpid()}.txt")
        with open(path, "w") as f:
            f.write(f"{op} {peak_rss_kb()}\n")

    def peak_sum_kb(self) -> int:
        """Largest sum of worker peaks over the groups forked at one op."""
        groups: Dict[int, int] = {}
        for name in os.listdir(self.out_dir):
            if name.startswith("rss-"):
                with open(os.path.join(self.out_dir, name)) as f:
                    op, kb = (int(x) for x in f.read().split())
                groups[op] = groups.get(op, 0) + kb
        return max(groups.values(), default=0)


def wait_for_children(timeout_s: float = 30.0) -> None:
    """Join every multiprocessing child this process started."""
    import multiprocessing

    deadline = time.monotonic() + timeout_s
    for proc in multiprocessing.active_children():
        proc.join(max(0.1, deadline - time.monotonic()))
        if proc.is_alive():
            proc.terminate()
            proc.join(5.0)


class Bench:
    """Op bookkeeping for one workload process.

    ``begin``/``end`` bracket each timed op; ``ready`` marks the end of
    set-up. In a set-up-only process ``ready`` raises :class:`SetupDone`
    so the workload unwinds through its own clean-up.
    """

    def __init__(
        self,
        *,
        seed: int,
        cap_s: float,
        setup_only: bool,
        out_dir: str,
        clock: OpClock,
        recorder=None,
    ) -> None:
        self.seed = seed
        self.cap_s = cap_s
        self.setup_only = setup_only
        self.out_dir = out_dir
        self.clock = clock
        self.rss = WorkerRss(out_dir, clock)
        self.recorder = recorder
        self.starts: List[int] = []
        self.ends: List[int] = []
        self.failed: set = set()
        self.parent_peak_kb = 0
        self.notes: Dict[str, object] = {}
        self._deadline = math.inf

    @property
    def traced(self) -> bool:
        return self.recorder is not None

    def ready(self) -> None:
        print("READY", flush=True)
        if self.setup_only:
            raise SetupDone
        self._deadline = time.perf_counter() + self.cap_s

    def begin(self, op: int) -> None:
        self.clock.set(op)
        self.starts.append(time.perf_counter_ns())

    def end(self) -> None:
        self.ends.append(time.perf_counter_ns())
        self.clock.set(-1)

    def over_time(self) -> bool:
        return time.perf_counter() > self._deadline

    def span(self, name: str):
        """A benchmark-side span (a no-op context when not tracing)."""
        if self.recorder is None:
            return contextlib.nullcontext()
        return self.recorder.span(name)

    def window_done(self) -> None:
        """Call right after the last timed op, before any output check."""
        self.parent_peak_kb = peak_rss_kb()

    def result(self, *, server_peak_kb: Optional[int] = None) -> Dict[str, object]:
        latencies = [(e - s) / 1e6 for s, e in zip(self.starts, self.ends)]
        window_s = (self.ends[-1] - self.starts[0]) / 1e9 if self.ends else 0.0
        if server_peak_kb is not None:
            peak_kb = server_peak_kb
        else:
            wait_for_children()
            peak_kb = self.parent_peak_kb + self.rss.peak_sum_kb()
        return {
            "latencies_ms": latencies,
            "window_s": window_s,
            "attempted": len(latencies),
            "failed": len(self.failed),
            "peak_rss_mb": peak_kb / 1024.0,
            "op_windows": list(zip(self.starts, self.ends)),
            "notes": self.notes,
        }


def tail_percentile(latencies: Sequence[float]) -> Tuple[float, float, int]:
    """``(percentile, value, samples beyond)`` by the nearest-rank rule."""
    xs = sorted(latencies)
    n = len(xs)
    for q in TAIL_LADDER:
        k = math.ceil(q / 100.0 * n)
        if n - k >= TAIL_BEYOND:
            return q, xs[k - 1], n - k
    # Fewer than 2 * TAIL_BEYOND samples: only reachable when the safety
    # cap cut a run short; fall back to the median.
    k = max(1, math.ceil(n / 2))
    return 50.0, xs[k - 1], n - k
