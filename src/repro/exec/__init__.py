"""Parallel execution fabric: pool sweeps and plan memoization.

``repro.exec`` is the layer that makes every sweep in the repo scale
with local cores without changing a single result:

* :mod:`repro.exec.pool` — :class:`SweepRunner`, the process-pool fan-out
  with order-preserving results and deterministic metric merging;
* :mod:`repro.exec.cache` — :class:`BoundedCache`, the one locked,
  bounded LRU (with registry-mirrored counters) behind the plan,
  placement and route caches;
* :mod:`repro.exec.plancache` — memoized execution plans keyed by
  ``(grid dims, sibling signature, ratios digest)``;
* :mod:`repro.exec.placementcache` — memoized placements keyed by
  ``(mapping name, grid dims, torus dims, ranks-per-node, rects)``;
* :mod:`repro.exec.workqueue` — :class:`AffinityWorkQueue`, persistent
  workers with sticky affinity routing for *stateful* residents (the
  ensemble fabric's members), inline at ``jobs=1``.

The placement and route caches evict against byte budgets derived from
``REPRO_NETSIM_MEM_MB`` (:mod:`repro.netsim.budget`), so residency
scales with the configured memory, not the rank count. See
``docs/parallel.md`` for the determinism contract and when *not* to
use workers.
"""

from repro.exec.cache import BoundedCache, CacheStats, clear_caches
from repro.exec.placementcache import (
    cached_placement,
    placement_cache_stats,
    reset_placement_cache,
)
from repro.exec.plancache import (
    parallel_plan,
    plan_cache_stats,
    reset_plan_cache,
    sequential_plan,
)
from repro.exec.pool import SweepResult, SweepRunner, run_sweep
from repro.exec.procs import SupervisedProcess, WorkerSpawnError
from repro.exec.workqueue import AffinityWorkQueue

__all__ = [
    "SweepResult",
    "SweepRunner",
    "run_sweep",
    "AffinityWorkQueue",
    "SupervisedProcess",
    "WorkerSpawnError",
    "BoundedCache",
    "CacheStats",
    "clear_caches",
    "sequential_plan",
    "parallel_plan",
    "plan_cache_stats",
    "reset_plan_cache",
    "cached_placement",
    "placement_cache_stats",
    "reset_placement_cache",
]
