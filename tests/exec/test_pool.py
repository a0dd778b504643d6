"""SweepRunner: ordering, determinism, retries, and metric capture.

Task functions live at module level because they cross the process
boundary when ``jobs > 1``. The worker-death tests use a tmp-file
sentinel so exactly the first execution of the poisoned task kills its
worker and every retry succeeds.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.errors import SweepError
from repro.exec import SweepRunner
from repro.obs.metrics import counter, merge_snapshots, registry


def _square(x):
    return x * x


def _boom(x):
    if x == 13:
        raise ValueError("unlucky task")
    return x


def _die_once(item):
    """Kill the worker process on first sight of the sentinel file."""
    x, sentinel = item
    if x == 5 and not Path(sentinel).exists():
        Path(sentinel).write_text("died")
        os._exit(1)
    return x


def _die_always(item):
    x, _ = item
    if x == 5:
        os._exit(1)
    return x


def _count_and_square(x):
    counter("test.sweep.pool.calls").inc()
    return x * x


def _merged(sweep):
    merged = {}
    for snap in sweep.task_metrics:
        merged = merge_snapshots(merged, snap)
    return merged


class TestInline:
    def test_results_in_input_order(self):
        out = SweepRunner().map(_square, range(10))
        assert out.results == tuple(x * x for x in range(10))
        assert out.jobs == 1
        assert out.task_metrics is None

    def test_empty_items(self):
        out = SweepRunner().map(_square, [])
        assert out.results == ()
        assert out.chunks == 0

    def test_task_exception_propagates(self):
        with pytest.raises(ValueError, match="unlucky"):
            SweepRunner().map(_boom, range(20))

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            SweepRunner(0)


class TestPool:
    def test_jobs_2_matches_inline(self):
        a = SweepRunner().map(_square, range(23))
        b = SweepRunner(2).map(_square, range(23))
        assert a.results == b.results
        assert b.jobs == 2
        assert b.chunks > 1

    def test_task_exception_propagates_from_worker(self):
        with pytest.raises(ValueError, match="unlucky"):
            SweepRunner(2).map(_boom, range(20))

    def test_worker_death_is_retried(self, tmp_path):
        sentinel = str(tmp_path / "died-once")
        out = SweepRunner(2).map(_die_once, [(x, sentinel) for x in range(8)])
        assert out.results == tuple(range(8))
        assert out.retries >= 1

    def test_repeated_worker_death_raises_sweep_error(self, tmp_path):
        with pytest.raises(SweepError, match="worker pool died 3 times"):
            SweepRunner(2).map(_die_always, [(x, str(tmp_path)) for x in range(8)])

    def test_initializer_runs_in_workers(self):
        # The initializer warms a per-process cache; here it just must
        # not break dispatch or ordering.
        out = SweepRunner(2, initializer=_noop_init, initargs=("x",)).map(
            _square, range(6)
        )
        assert out.results == tuple(x * x for x in range(6))


def _noop_init(tag):
    assert tag == "x"


class TestCaptureMetrics:
    def test_merged_snapshot_identical_across_jobs(self):
        a = SweepRunner(1, capture_metrics=True).map(_count_and_square, range(9))
        b = SweepRunner(2, capture_metrics=True).map(_count_and_square, range(9))
        assert a.results == b.results
        assert len(a.task_metrics) == len(b.task_metrics) == 9
        assert a.task_metrics == b.task_metrics
        assert _merged(a) == _merged(b)
        assert _merged(a)["test.sweep.pool.calls"]["value"] == 9

    def test_untouched_metrics_are_pruned(self):
        # A metric registered in this process but never touched by the
        # task must not leak into captured deltas (workers would not
        # even have it registered).
        counter("test.sweep.pool.never_touched")
        out = SweepRunner(1, capture_metrics=True).map(_count_and_square, [1])
        (snap,) = out.task_metrics
        assert "test.sweep.pool.never_touched" not in snap
        assert "test.sweep.pool.calls" in snap


def test_sweep_counters_survive_capture_mode():
    registry().reset()
    SweepRunner(1, capture_metrics=True).map(_count_and_square, range(4))
    snap = registry().snapshot("exec.sweep.")
    assert snap["exec.sweep.tasks"]["value"] == 4
    assert snap["exec.sweep.chunks"]["value"] >= 1
