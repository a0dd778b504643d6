"""3-D torus interconnect topology and Blue Gene machine models.

This package provides the hardware substrate the paper evaluates on:

* :class:`~repro.topology.torus.Torus3D` — a 3-D torus of compute nodes with
  wraparound links, coordinate/rank conversion and hop distances.
* :mod:`~repro.topology.routing` — deterministic dimension-ordered (XYZ)
  routing, as used by Blue Gene's torus network: per-dimension direction
  and hop counts for whole arrays of node pairs.
* :mod:`~repro.topology.machines` — parameterised models of IBM Blue Gene/L
  and Blue Gene/P (clock rate, cores per node, execution modes, link
  bandwidth and latencies, I/O characteristics) plus helpers that choose the
  torus dimensions backing a given partition size.
"""

from repro.topology.torus import Torus3D, TorusCoord, Link
from repro.topology.machines import (
    Machine,
    ExecutionMode,
    blue_gene_l,
    blue_gene_p,
    BLUE_GENE_L,
    BLUE_GENE_P,
    torus_dims_for_nodes,
)

__all__ = [
    "Torus3D",
    "TorusCoord",
    "Link",
    "Machine",
    "ExecutionMode",
    "blue_gene_l",
    "blue_gene_p",
    "BLUE_GENE_L",
    "BLUE_GENE_P",
    "torus_dims_for_nodes",
]
