"""Shared-memory message columns: round trips, digests, lifecycle."""

import numpy as np
import pytest

from repro.errors import ReproError
from repro.exec.pool import run_sweep
from repro.exec.shm import (
    attach_arrays,
    attach_halo_batch,
    release,
    release_all_shared,
    share_arrays,
    share_halo_batch,
    shm_stats,
)
from repro.netsim.engine import VECTOR, reset_route_cache, route_cache_stats
from repro.runtime.halo import HaloBatch, HaloSpec, halo_batch
from repro.runtime.process_grid import ProcessGrid
from repro.topology.torus import Torus3D


@pytest.fixture(autouse=True)
def _clean_segments():
    yield
    release_all_shared()


def _batch(n: int = 64) -> HaloBatch:
    return HaloBatch(
        src=np.arange(n, dtype=np.int64),
        dst=(np.arange(n, dtype=np.int64) + 1) % n,
        nbytes=np.full(n, 6720, dtype=np.int64),
    )


def test_share_attach_round_trip():
    batch = _batch()
    handle = share_halo_batch(batch)
    out = attach_halo_batch(handle)
    assert np.array_equal(out.src, batch.src)
    assert np.array_equal(out.dst, batch.dst)
    assert np.array_equal(out.nbytes, batch.nbytes)


def test_attached_views_are_read_only_and_zero_copy():
    handle = share_halo_batch(_batch())
    a = attach_halo_batch(handle)
    b = attach_halo_batch(handle)
    with pytest.raises(ValueError):
        a.src[0] = 99  # type: ignore[index]
    # Memoised attachment: the same mapping, not a copy.
    assert a.src.base is b.src.base


def test_handle_digest_preseeds_batch_digest():
    batch = _batch()
    handle = share_halo_batch(batch)
    assert handle.digest == batch.digest()
    out = attach_halo_batch(handle)
    # Pre-seeded: available without touching the columns.
    assert object.__getattribute__(out, "_digest") == batch.digest()
    assert out.digest() == batch.digest()


def test_shared_batch_hits_route_cache_of_original():
    grid = ProcessGrid(4, 4)
    batch = halo_batch(grid, grid.full_rect(), 64, 64, HaloSpec())
    torus = Torus3D((2, 2, 2))
    nodes = [torus.coord_of(i % torus.num_nodes) for i in range(16)]
    handle = share_halo_batch(batch)
    shared = attach_halo_batch(handle)
    reset_route_cache()
    VECTOR.route_exchange(torus, nodes, batch)
    VECTOR.route_exchange(torus, nodes, shared)
    stats = route_cache_stats()
    assert (stats.hits, stats.misses) == (1, 1)


def test_release_unlinks_and_clears_bookkeeping():
    handle = share_halo_batch(_batch())
    attach_halo_batch(handle)
    assert shm_stats() == {"owned": 1, "attached": 1}
    release(handle)
    assert shm_stats() == {"owned": 0, "attached": 0}


def test_share_requires_content():
    with pytest.raises(ReproError):
        share_arrays({})


def test_attach_halo_batch_rejects_foreign_columns():
    handle = share_arrays({"other": np.zeros(4, dtype=np.int64)})
    with pytest.raises(ReproError, match="halo columns"):
        attach_halo_batch(handle)


def test_share_arrays_generic_round_trip():
    arrays = {
        "a": np.arange(10, dtype=np.int32),
        "b": np.linspace(0, 1, 7),
        "c": np.arange(12, dtype=np.int64).reshape(4, 3),
    }
    handle = share_arrays(arrays)
    views = attach_arrays(handle)
    for name, arr in arrays.items():
        assert np.array_equal(views[name], arr)
        assert views[name].dtype == arr.dtype


def _route_shared_task(item):
    """Worker task: attach the published batch and route it (picklable)."""
    handle, dims, n_ranks = item
    torus = Torus3D(tuple(dims))
    nodes = [torus.coord_of(i % torus.num_nodes) for i in range(n_ranks)]
    batch = attach_halo_batch(handle)
    _, loads = VECTOR.route_exchange(torus, nodes, batch)
    return loads.total_bytes(), batch.digest().hex()


def test_workers_map_shared_columns():
    grid = ProcessGrid(4, 4)
    batch = halo_batch(grid, grid.full_rect(), 64, 64, HaloSpec())
    handle = share_halo_batch(batch)
    item = (handle, (2, 2, 2), 16)
    inline = run_sweep(_route_shared_task, [item, item], jobs=1, shared=(handle,))
    pooled = run_sweep(_route_shared_task, [item, item], jobs=2, shared=(handle,))
    assert inline.results == pooled.results
    assert inline.results[0][1] == batch.digest().hex()
