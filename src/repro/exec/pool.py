"""Process-pool sweep execution with order-stable, seed-stable results.

Everything downstream of the simulator is an embarrassingly parallel
sweep: the capacity planner prices three strategy/mapping combinations
per rank count, every experiment driver loops configurations, the fuzzer
evaluates hundreds of independent scenarios. :class:`SweepRunner` fans
such a task list out over a ``ProcessPoolExecutor`` while keeping the
**determinism contract** the rest of the repo depends on:

* results come back in input order, regardless of worker scheduling;
* each task is a pure function of its (picklable) spec, so ``jobs=1``
  and ``jobs=N`` produce byte-identical artifacts;
* with ``capture_metrics=True`` every task runs against a freshly-zeroed
  metrics registry and freshly-cleared caches, and its snapshot comes
  back **in task order**; folding them with the associative
  :func:`~repro.obs.metrics.merge_snapshots` gives a merged snapshot
  that is also identical for every worker count.

Worker death (OOM killer, a segfaulting native library) is transient
from the sweep's point of view: completed chunks are kept, unfinished
chunks are resubmitted to a fresh pool, at most twice.
Task-raised exceptions are *not* retried — they propagate to the caller
unchanged.

When **not** to use workers: tiny sweeps. Dispatch costs roughly one
process spawn per worker plus a pickle round-trip per chunk; a sweep
whose total work is under ~100 ms is faster inline (``jobs=1``). See
``docs/parallel.md``.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import SweepError
from repro.exec.cache import clear_caches
from repro.obs.metrics import counter as _obs_counter
from repro.obs.metrics import registry
from repro.obs.trace import tracer

__all__ = ["SweepResult", "SweepRunner"]

Snapshot = Dict[str, Dict[str, Any]]

# Observability: sweep fan-out volume and health. Incremented *after* a
# sweep completes so metric capture (which zeroes the registry per task
# when running inline) cannot eat them mid-run.
_TASKS = _obs_counter("exec.sweep.tasks")
_CHUNKS = _obs_counter("exec.sweep.chunks")
_RETRIES = _obs_counter("exec.sweep.retries")

#: Pool rebuilds after ``BrokenProcessPool`` before a sweep gives up.
_MAX_RETRIES = 2


def _reset_task_state() -> None:
    """Zero all state a per-task metrics delta must not inherit.

    Every cache mirrors its counters into the metrics registry (they
    must always equal its ``stats()``); clearing the caches together with
    the registry keeps that invariant inside every captured delta — and
    makes each task's delta independent of which tasks ran earlier in
    the same process, which is what makes the merged snapshot identical
    across worker counts.
    """
    clear_caches()
    registry().reset()


def _prune_untouched(snap: Snapshot) -> Snapshot:
    """Drop metrics the task never touched from a captured delta.

    A snapshot lists *every registered* metric, and registration follows
    imports — which differ between the calling process and a fresh pool
    worker. Keeping only touched metrics makes each delta a function of
    what the task *did*, so merged snapshots are byte-identical across
    worker counts. (Untouched metrics are merge-neutral anyway.)

    ``proc.*`` metrics (RSS and friends, see
    :func:`repro.obs.metrics.sample_rss`) are dropped even when touched:
    they describe the *process*, not the task, so they necessarily
    differ between ``jobs=1`` and pool workers and would break the
    byte-identical merge contract.
    """
    pruned: Snapshot = {}
    for name, m in snap.items():
        if name.startswith("proc."):
            continue
        kind = m["type"]
        if kind == "counter" and m["value"] == 0:
            continue
        if kind == "gauge" and m["updates"] == 0:
            continue
        if kind == "histogram" and m["count"] == 0 and m["sum"] == 0.0:
            continue
        pruned[name] = m
    return pruned


def _run_chunk(
    fn: Callable[[Any], Any],
    start: int,
    items: Sequence[Any],
    capture: bool,
) -> Tuple[int, List[Any], Optional[List[Snapshot]]]:
    """Execute one contiguous chunk of tasks (in a worker or inline)."""
    tr = tracer()
    with tr.span(
        "exec.worker",
        {"start": start, "tasks": len(items)} if tr.enabled else None,
    ):
        if not capture:
            return start, [fn(item) for item in items], None
        results: List[Any] = []
        snaps: List[Snapshot] = []
        for item in items:
            _reset_task_state()
            results.append(fn(item))
            snaps.append(_prune_untouched(registry().snapshot()))
        return start, results, snaps


def _worker_init(
    initializer: Optional[Callable[..., None]],
    initargs: Tuple[Any, ...],
) -> None:
    if initializer is not None:
        initializer(*initargs)


@dataclass(frozen=True)
class SweepResult:
    """Outcome of one sweep: per-task results plus fan-out bookkeeping."""

    #: Task results, in input order.
    results: Tuple[Any, ...]
    #: Worker processes used (1 = inline, no pool).
    jobs: int
    #: Number of dispatched chunks.
    chunks: int
    #: Worker-death retries that were needed.
    retries: int
    #: Per-task metrics snapshots, in task order (``capture_metrics``
    #: only). Callers fold the prefix they consume.
    task_metrics: Optional[Tuple[Snapshot, ...]] = None


class SweepRunner:
    """Fan a list of picklable task specs out over a process pool.

    Tasks go out in chunks of ``ceil(n / (jobs * 4))`` (at least 1):
    four waves per worker balance pickle overhead against load balance.
    Chunking never affects results or captured metrics, only scheduling
    granularity.

    Parameters
    ----------
    jobs:
        Worker processes. ``1`` runs every task inline in the calling
        process — same code path, no pool — which is the reference
        execution the parallel runs must match byte for byte.
    capture_metrics:
        Capture a per-task metrics-registry snapshot into
        :attr:`SweepResult.task_metrics`. Each task then runs against a
        zeroed registry and cleared caches; in ``jobs=1`` mode that
        zeroing happens in the *calling* process, so only enable this
        when the sweep owns the registry for the duration (the fuzzer
        does).
    initializer / initargs:
        Ran once per worker before its first chunk (and once inline for
        ``jobs=1``) — the place to warm per-process caches: fit the
        performance model once per worker instead of once per task, warm
        the netsim route cache, etc. Must be picklable (module-level).
    """

    def __init__(
        self,
        jobs: int = 1,
        *,
        capture_metrics: bool = False,
        initializer: Optional[Callable[..., None]] = None,
        initargs: Tuple[Any, ...] = (),
    ) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        self.capture_metrics = capture_metrics
        self.initializer = initializer
        self.initargs = tuple(initargs)

    # ------------------------------------------------------------------
    def _chunks(self, items: Sequence[Any]) -> List[Tuple[int, Sequence[Any]]]:
        size = max(1, math.ceil(len(items) / (self.jobs * 4)))
        return [
            (start, items[start : start + size])
            for start in range(0, len(items), size)
        ]

    def map(self, fn: Callable[[Any], Any], items: Iterable[Any]) -> SweepResult:
        """Run ``fn`` over *items*; results come back in input order.

        ``fn`` must be a module-level callable and every item picklable
        (they cross a process boundary when ``jobs > 1``). Exceptions
        raised by a task propagate unchanged; remaining queued chunks
        are cancelled.
        """
        items = list(items)
        n = len(items)
        results: List[Any] = [None] * n
        per_task_snaps: List[Optional[Snapshot]] = [None] * n
        chunks = self._chunks(items) if n else []
        retries = 0

        tr = tracer()
        with tr.span(
            "exec.dispatch",
            {"tasks": n, "jobs": self.jobs, "chunks": len(chunks)}
            if tr.enabled
            else None,
        ):
            if self.jobs == 1:
                _worker_init(self.initializer, self.initargs)
                for start, sub in chunks:
                    _, out, chunk_snaps = _run_chunk(
                        fn, start, sub, self.capture_metrics
                    )
                    self._place(results, per_task_snaps, start, out, chunk_snaps)
            elif n:
                retries = self._run_pool(fn, chunks, results, per_task_snaps)

        _TASKS.inc(n)
        _CHUNKS.inc(len(chunks))
        _RETRIES.inc(retries)
        return SweepResult(
            results=tuple(results),
            jobs=self.jobs,
            chunks=len(chunks),
            retries=retries,
            task_metrics=tuple(per_task_snaps) if self.capture_metrics else None,
        )

    # ------------------------------------------------------------------
    @staticmethod
    def _place(
        results: List[Any],
        per_task_snaps: List[Optional[Snapshot]],
        start: int,
        out: List[Any],
        chunk_snaps: Optional[List[Snapshot]],
    ) -> None:
        results[start : start + len(out)] = out
        if chunk_snaps is not None:
            per_task_snaps[start : start + len(chunk_snaps)] = chunk_snaps

    def _run_pool(
        self,
        fn: Callable[[Any], Any],
        chunks: List[Tuple[int, Sequence[Any]]],
        results: List[Any],
        per_task_snaps: List[Optional[Snapshot]],
    ) -> int:
        """Dispatch chunks, retrying unfinished ones across pool deaths."""
        pending: Dict[int, Tuple[int, Sequence[Any]]] = dict(enumerate(chunks))
        retries = 0
        while pending:
            broken = False
            executor = ProcessPoolExecutor(
                max_workers=min(self.jobs, len(pending)),
                initializer=_worker_init,
                initargs=(self.initializer, self.initargs),
            )
            try:
                futures = {
                    executor.submit(_run_chunk, fn, start, sub, self.capture_metrics): cid
                    for cid, (start, sub) in pending.items()
                }
                for fut in as_completed(futures):
                    cid = futures[fut]
                    try:
                        start, out, chunk_snaps = fut.result()
                    except BrokenProcessPool:
                        broken = True
                        break
                    self._place(results, per_task_snaps, start, out, chunk_snaps)
                    del pending[cid]
            finally:
                executor.shutdown(wait=False, cancel_futures=True)
            if pending and not broken:
                # as_completed drained without a pool break yet chunks
                # remain: can only happen via a task exception above
                # (propagated out of the for loop through `finally`).
                break  # pragma: no cover - defensive
            if pending:
                retries += 1
                if retries > _MAX_RETRIES:
                    raise SweepError(
                        f"worker pool died {retries} times with "
                        f"{len(pending)} chunks unfinished; giving up"
                    )
        return retries
