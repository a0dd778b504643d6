"""Virtual MPI-like runtime: process grids, communicators, decomposition.

WRF lays its MPI ranks out as a 2-D virtual process grid ``Px x Py`` and
block-decomposes each simulation domain over it. The paper's allocator
carves this grid into disjoint rectangular sub-grids (one per sibling nest)
and gives each sibling its own sub-communicator. This package provides that
abstraction without a real MPI underneath:

* :class:`~repro.runtime.process_grid.ProcessGrid` — the Px x Py grid,
  rank/coordinate conversion, neighbourhoods, rectangular sub-grids.
* :class:`~repro.runtime.communicator.Communicator` — a rank set with world
  <-> local translation, mirroring ``MPI_COMM_WORLD`` vs per-nest
  sub-communicators.
* :mod:`~repro.runtime.decomposition` — remainder-aware block decomposition
  of an ``nx x ny`` domain over a grid, and the WRF-style choice of a
  near-square process grid for a rank count.
* :mod:`~repro.runtime.halo` — halo-exchange specification (who talks to
  whom, with how many bytes) consumed by the network simulator.
"""

from repro.runtime.process_grid import ProcessGrid, GridRect
from repro.runtime.communicator import Communicator
from repro.runtime.decomposition import (
    BlockDecomposition,
    decompose,
    choose_process_grid,
    tile_dims,
)
from repro.runtime.halo import HaloBatch, HaloSpec, halo_batch

__all__ = [
    "ProcessGrid",
    "GridRect",
    "Communicator",
    "BlockDecomposition",
    "decompose",
    "choose_process_grid",
    "tile_dims",
    "HaloSpec",
    "HaloBatch",
    "halo_batch",
]
