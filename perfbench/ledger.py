"""Per-layer span ledger for the traced benchmark run.

The benchmark records spans from its own code, around calls into each
layer's public functions; the program's tracer stays off. Each span is
``(name, start_ns, end_ns, parent, op, attrs)``: ``parent`` indexes the
enclosing span of the same thread (``-1`` for a root), ``op`` is the op
id read from the shared :class:`~harness.OpClock` when the span opened,
and ``attrs`` holds counts read from the program's public stats at the
same boundary (cache hit, evictions, messages, chunks, ...).

Modules import with ``from ... import ...``, so a module-level function
is replaced in every ``repro`` module that holds a reference to it, not
just where it is defined; methods are replaced on their class.

Spans stay in memory. Forked pool and queue workers start with an empty
ledger and write theirs when they exit; the traced server writes its
ledger at shutdown; the workload process writes its own at the end.

Self time of a span is its duration minus the union of its children's
intervals. Children are the spans it encloses in its own thread and,
for the three dispatch spans (``service.http``, ``pool.map``,
``queue.gather``), the root spans of other processes that run inside
it — so ``pool.self_ms`` is the map's wall time during which no worker
ran a task.
"""

from __future__ import annotations

import bisect
import functools
import importlib
import os
import pickle
import pkgutil
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import multiprocessing.util as mp_util

Span = Tuple[str, int, int, int, int, Optional[Dict[str, int]]]

#: Spans whose work runs in another process (server, pool or queue workers).
DISPATCH = ("service.http", "pool.map", "queue.gather")


class Recorder:
    """In-memory span store with one stream per thread."""

    def __init__(self, out_dir: str, clock) -> None:
        self.out_dir = out_dir
        self.clock = clock
        self._reset()
        mp_util.register_after_fork(self, Recorder._after_fork)

    def _reset(self) -> None:
        self._streams: List[Tuple[int, List[Any]]] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def _after_fork(self) -> None:
        # A forked worker keeps none of its parent's spans or open stack.
        self._reset()
        mp_util.Finalize(None, self.flush, exitpriority=100)

    def _stream(self):
        st = getattr(self._local, "st", None)
        if st is None:
            st = self._local.st = ([], [])
            with self._lock:
                self._streams.append((threading.get_ident(), st[0]))
        return st

    def call(self, name: str, probe, fn: Callable, args, kwargs):
        spans, stack = self._stream()
        idx = len(spans)
        spans.append(None)
        parent = stack[-1] if stack else -1
        op = self.clock.get()
        before = probe.before() if probe is not None else None
        stack.append(idx)
        t0 = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            spans[idx] = (name, t0, time.perf_counter_ns(), parent, op, None)
            stack.pop()
            raise
        t1 = time.perf_counter_ns()
        stack.pop()
        attrs = probe.after(before, result) if probe is not None else None
        spans[idx] = (name, t0, t1, parent, op, attrs)
        return result

    def span(self, name: str):
        return _SpanContext(self, name)

    def flush(self) -> None:
        """Append this process's spans to its own file under ``out_dir``."""
        streams, self._streams = self._streams, []
        if not streams:
            return
        path = os.path.join(self.out_dir, f"spans-{os.getpid()}.pkl")
        with open(path, "ab") as f:
            pickle.dump({"pid": os.getpid(), "streams": streams}, f)


class _SpanContext:
    def __init__(self, recorder: Recorder, name: str) -> None:
        self.recorder = recorder
        self.name = name

    def __enter__(self):
        spans, stack = self.recorder._stream()
        self._idx = len(spans)
        spans.append(None)
        self._parent = stack[-1] if stack else -1
        self._op = self.recorder.clock.get()
        stack.append(self._idx)
        self._t0 = time.perf_counter_ns()
        return self

    def __exit__(self, *exc):
        t1 = time.perf_counter_ns()
        spans, stack = self.recorder._stream()
        stack.pop()
        spans[self._idx] = (self.name, self._t0, t1, self._parent, self._op, None)
        return False


# ---------------------------------------------------------------- probes
class _StatsProbe:
    """Hit/eviction deltas of one cache across a call, from its public stats."""

    def __init__(self, stats: Callable[[], Any], evictions: bool) -> None:
        self.stats = stats
        self.evictions = evictions

    def before(self):
        return self.stats()

    def after(self, before, result) -> Dict[str, int]:
        now = self.stats()
        attrs = {"hit": now.hits - before.hits}
        if self.evictions:
            attrs["evictions"] = now.evictions - before.evictions
        return attrs


class _RouteProbe(_StatsProbe):
    def after(self, before, result) -> Dict[str, int]:
        attrs = super().after(before, result)
        attrs["chunks"] = result[0].num_chunks
        return attrs


class _HaloProbe:
    def before(self):
        return None

    def after(self, before, result) -> Dict[str, int]:
        return {"messages": len(result)}


class _MemoProbe:
    def before(self):
        return None

    def after(self, before, result) -> Dict[str, int]:
        if result is None:
            return {"miss": 1}
        return {"hit": 1, "shared": int(result[1] == "shared")}


class _SteerProbe:
    def before(self):
        return None

    def after(self, before, result) -> Dict[str, int]:
        return {"replans": int(result.replanned)}


def _probes() -> Dict[str, Any]:
    from repro.exec.placementcache import placement_cache_stats
    from repro.exec.plancache import plan_cache_stats
    from repro.netsim.engine import route_cache_stats

    return {
        "plan": _StatsProbe(plan_cache_stats, evictions=False),
        "place": _StatsProbe(placement_cache_stats, evictions=True),
        "route": _RouteProbe(route_cache_stats, evictions=True),
        "halo": _HaloProbe(),
        "memo": _MemoProbe(),
        "steering": _SteerProbe(),
    }


#: (span name, ``module:attribute`` or ``module:Class.method``).
#: The layer is the span name's prefix.
HOOKS: Tuple[Tuple[str, str], ...] = (
    ("service.parse", "repro.service.schemas:parse_payload"),
    ("service.serialize", "repro.service.schemas:dump_bytes"),
    ("service.state", "repro.service.state:ServiceState.recommend"),
    ("analysis.recommend", "repro.analysis.planner:recommend"),
    ("analysis.compare", "repro.analysis.experiments.common:compare_strategies"),
    ("prediction.predict", "repro.core.prediction.model:PerformanceModel.predict_ratios"),
    ("plan.sequential", "repro.exec.plancache:sequential_plan"),
    ("plan.parallel", "repro.exec.plancache:parallel_plan"),
    ("place.cached", "repro.exec.placementcache:cached_placement"),
    ("halo.batch", "repro.runtime.halo:halo_batch"),
    ("route.exchange", "repro.netsim.engine:VectorBackend.route_exchange"),
    ("price.round", "repro.netsim.engine:VectorBackend.round_estimate"),
    ("perfsim.iteration", "repro.perfsim.simulate:simulate_iteration"),
    ("iosim.event", "repro.iosim.model:IoModel.event_cost"),
    ("pool.map", "repro.exec.pool:SweepRunner.map"),
    ("queue.gather", "repro.exec.workqueue:AffinityWorkQueue.gather"),
    ("memo.lookup", "repro.ensemble.memo:CrossMemberMemo.lookup"),
    ("memo.store", "repro.ensemble.memo:CrossMemberMemo.store"),
    ("steering.steer", "repro.steering.driver:SteeredRun.steer"),
    ("wrf.advance", "repro.wrf.model:NestedModel.advance"),
)

#: Modules never imported by :func:`install` (entry point, test plugin).
_SKIP_MODULES = ("repro.__main__", "repro.verify.pytest_plugin")


def _wrap(recorder: Recorder, name: str, probe, fn: Callable) -> Callable:
    call = recorder.call

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return call(name, probe, fn, args, kwargs)

    return wrapper


def install(recorder: Recorder) -> None:
    """Wrap every hooked function where it is looked up."""
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name not in _SKIP_MODULES:
            importlib.import_module(info.name)
    probes = _probes()
    for name, target in HOOKS:
        probe = probes.get(name.split(".")[0])
        module_name, attr = target.split(":")
        module = importlib.import_module(module_name)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            setattr(cls, meth, _wrap(recorder, name, probe, cls.__dict__[meth]))
            continue
        original = getattr(module, attr)
        wrapped = _wrap(recorder, name, probe, original)
        for mod in list(sys.modules.values()):
            if (
                getattr(mod, "__name__", "").startswith("repro")
                and getattr(mod, attr, None) is original
            ):
                setattr(mod, attr, wrapped)


# -------------------------------------------------------------- analysis
def load(out_dir: str) -> List[Tuple[int, int, List[Span]]]:
    """Every ``(pid, thread, spans)`` stream written under *out_dir*."""
    streams = []
    for fname in sorted(os.listdir(out_dir)):
        if not fname.startswith("spans-"):
            continue
        with open(os.path.join(out_dir, fname), "rb") as f:
            while True:
                try:
                    chunk = pickle.load(f)
                except EOFError:
                    break
                for tid, spans in chunk["streams"]:
                    streams.append((chunk["pid"], tid, spans))
    return streams


def _union(intervals: List[Tuple[int, int]]) -> int:
    total = 0
    end = None
    for a, b in sorted(intervals):
        if end is None or a > end:
            total += b - a
            end = b
        elif b > end:
            total += b - end
            end = b
    return total


#: Per-layer metric names and units, in output order (defined in README.md).
LAYER_METRICS: Tuple[Tuple[str, str], ...] = (
    ("service.http_ms", "ms/op"),
    ("service.parse_ms", "ms/op"),
    ("service.serialize_ms", "ms/op"),
    ("service.state_ms", "ms/op"),
    ("service.calls", "count/op"),
    ("analysis.self_ms", "ms/op"),
    ("analysis.calls", "count/op"),
    ("prediction.self_ms", "ms/op"),
    ("prediction.calls", "count/op"),
    ("plan.self_ms", "ms/op"),
    ("plan.hit_ratio", "ratio"),
    ("plan.calls", "count/op"),
    ("place.self_ms", "ms/op"),
    ("place.hit_ratio", "ratio"),
    ("place.evictions", "count/op"),
    ("place.calls", "count/op"),
    ("halo.self_ms", "ms/op"),
    ("halo.messages", "count/op"),
    ("halo.calls", "count/op"),
    ("route.self_ms", "ms/op"),
    ("route.hit_ratio", "ratio"),
    ("route.evictions", "count/op"),
    ("route.chunks", "count/op"),
    ("route.calls", "count/op"),
    ("price.self_ms", "ms/op"),
    ("price.calls", "count/op"),
    ("perfsim.self_ms", "ms/op"),
    ("perfsim.calls", "count/op"),
    ("iosim.self_ms", "ms/op"),
    ("iosim.calls", "count/op"),
    ("pool.self_ms", "ms/op"),
    ("pool.calls", "count/op"),
    ("queue.wait_ms", "ms/op"),
    ("queue.self_ms", "ms/op"),
    ("queue.calls", "count/op"),
    ("memo.hit_ratio", "ratio"),
    ("memo.shared_hits", "count/op"),
    ("memo.misses", "count/op"),
    ("memo.calls", "count/op"),
    ("steering.self_ms", "ms/op"),
    ("steering.replans", "count/op"),
    ("steering.calls", "count/op"),
    ("wrf.self_ms", "ms/op"),
    ("wrf.calls", "count/op"),
    ("unattributed_share", "ratio"),
    ("trace_overhead", "ratio"),
)


def analyse(
    streams: Sequence[Tuple[int, int, List[Span]]],
    main_pid: int,
    op_windows: Sequence[Tuple[int, int]],
) -> Dict[str, float]:
    """Per-op layer metrics from the spans of one traced run.

    Only spans opened inside a timed op count (``op >= 0``); set-up,
    warm-up and output checks are tagged ``-1``.
    """
    ops = len(op_windows)
    # Roots of every process sorted by start, for cross-process children.
    roots_by_pid: Dict[int, List[Tuple[int, int]]] = {}
    for pid, _tid, spans in streams:
        for s in spans:
            if s is not None and s[3] == -1 and s[4] >= 0:
                roots_by_pid.setdefault(pid, []).append((s[1], s[2]))
    index = {}
    for pid, roots in roots_by_pid.items():
        roots.sort()
        longest = max(b - a for a, b in roots)
        index[pid] = ([a for a, _ in roots], roots, longest)

    self_ns: Dict[str, int] = {}
    wall_ns: Dict[str, int] = {}
    calls: Dict[str, int] = {}
    sums: Dict[Tuple[str, str], int] = {}
    main_roots: List[Tuple[int, int]] = []
    for pid, _tid, spans in streams:
        children: Dict[int, List[Tuple[int, int]]] = {}
        for s in spans:
            if s is not None and s[3] >= 0:
                children.setdefault(s[3], []).append((s[1], s[2]))
        for idx, s in enumerate(spans):
            if s is None or s[4] < 0:
                continue
            name, t0, t1 = s[0], s[1], s[2]
            layer = name.split(".")[0]
            kids = list(children.get(idx, ()))
            if name in DISPATCH:
                for other, (starts, roots, longest) in index.items():
                    if other == pid:
                        continue
                    lo = bisect.bisect_left(starts, t0 - longest)
                    hi = bisect.bisect_left(starts, t1)
                    for a, b in roots[lo:hi]:
                        if b > t0 and not (a <= t0 and b >= t1):
                            kids.append((max(a, t0), min(b, t1)))
            own = (t1 - t0) - _union(kids)
            # The service layer reports each of its spans on its own.
            key = name if layer == "service" else layer
            self_ns[key] = self_ns.get(key, 0) + own
            wall_ns[name] = wall_ns.get(name, 0) + (t1 - t0)
            calls[layer] = calls.get(layer, 0) + 1
            for k, v in (s[5] or {}).items():
                sums[(layer, k)] = sums.get((layer, k), 0) + v
            if pid == main_pid and s[3] == -1:
                main_roots.append((t0, t1))

    def per_op_ms(ns: int) -> float:
        return ns / 1e6 / ops

    def ratio(layer: str, num: str) -> float:
        n = calls.get(layer, 0)
        if layer == "memo":
            n = sums.get(("memo", "hit"), 0) + sums.get(("memo", "miss"), 0)
        return sums.get((layer, num), 0) / n if n else 0.0

    op_ns = sum(b - a for a, b in op_windows)
    covered = 0
    for a, b in op_windows:
        inside = [(max(x, a), min(y, b)) for x, y in main_roots if x < b and y > a]
        covered += _union(inside)

    out = {
        "service.http_ms": per_op_ms(self_ns.get("service.http", 0)),
        "service.parse_ms": per_op_ms(self_ns.get("service.parse", 0)),
        "service.serialize_ms": per_op_ms(self_ns.get("service.serialize", 0)),
        "service.state_ms": per_op_ms(self_ns.get("service.state", 0)),
        "queue.wait_ms": per_op_ms(wall_ns.get("queue.gather", 0)),
        "plan.hit_ratio": ratio("plan", "hit"),
        "place.hit_ratio": ratio("place", "hit"),
        "place.evictions": sums.get(("place", "evictions"), 0) / ops,
        "halo.messages": sums.get(("halo", "messages"), 0) / ops,
        "route.hit_ratio": ratio("route", "hit"),
        "route.evictions": sums.get(("route", "evictions"), 0) / ops,
        "route.chunks": sums.get(("route", "chunks"), 0) / ops,
        "memo.hit_ratio": ratio("memo", "hit"),
        "memo.shared_hits": sums.get(("memo", "shared"), 0) / ops,
        "memo.misses": sums.get(("memo", "miss"), 0) / ops,
        "steering.replans": sums.get(("steering", "replans"), 0) / ops,
        "unattributed_share": (op_ns - covered) / op_ns if op_ns else 0.0,
    }
    for layer in ("analysis", "prediction", "plan", "place", "halo", "route",
                  "price", "perfsim", "iosim", "pool", "queue", "steering", "wrf"):
        out[f"{layer}.self_ms"] = per_op_ms(self_ns.get(layer, 0))
    for layer in ("service", "analysis", "prediction", "plan", "place", "halo",
                  "route", "price", "perfsim", "iosim", "pool", "queue", "memo",
                  "steering", "wrf"):
        out[f"{layer}.calls"] = calls.get(layer, 0) / ops
    return out
