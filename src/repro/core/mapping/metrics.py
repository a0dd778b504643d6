"""Mapping quality metrics: hop counts and hop-bytes.

The paper evaluates mappings by the average number of torus hops between
communicating processes (Fig 12(b) reports a ~50% hop reduction for the
topology-aware mappings) and by the hop-byte volume the messages induce.

Every metric broadcasts the torus distance over whole message columns
via the placement's node array — one NumPy pass instead of a
``Placement.hops_between`` call per message. Hops and byte counts are
integers, so the per-message oracle (:mod:`repro.verify.reference.mapping`)
agrees exactly, division-for-division.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.core.mapping.base import Placement
from repro.errors import MappingError
from repro.runtime.halo import HaloBatch, HaloSpec, halo_batch
from repro.runtime.process_grid import GridRect

__all__ = ["MappingMetrics", "average_hops", "hop_bytes", "evaluate_mapping"]


@dataclass(frozen=True)
class MappingMetrics:
    """Aggregate hop statistics of a placement under a message set."""

    num_messages: int
    average_hops: float
    max_hops: int
    hop_bytes: float
    #: Fraction of messages between co-located ranks (0 hops).
    intra_node_fraction: float

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"msgs={self.num_messages} avg_hops={self.average_hops:.3f} "
            f"max_hops={self.max_hops} hop_bytes={self.hop_bytes:.3g}"
        )


def _hops_of(placement: Placement, messages: HaloBatch) -> np.ndarray:
    """Torus hop distance of every message, broadcast over the node array.

    Node coordinates lie in the torus, so ``|a - b| < dim`` and the wrap
    needs no modulo.
    """
    nodes = placement.vector.coords
    dims = np.asarray(placement.space.torus.dims, dtype=np.int64)
    d = np.abs(nodes[messages.src] - nodes[messages.dst])
    return np.minimum(d, dims - d).sum(axis=1)


def average_hops(placement: Placement, messages: HaloBatch) -> float:
    """Mean torus hop count over *messages* under *placement*."""
    if len(messages) == 0:
        raise MappingError("no messages to evaluate")
    return int(_hops_of(placement, messages).sum()) / len(messages)


def hop_bytes(placement: Placement, messages: HaloBatch) -> float:
    """Total hop-byte volume (sum of bytes * hops) — the classic metric."""
    return float(int((_hops_of(placement, messages) * messages.nbytes).sum()))


def evaluate_mapping(placement: Placement, messages: HaloBatch) -> MappingMetrics:
    """Full metric set for *messages* under *placement*."""
    n = len(messages)
    if n == 0:
        raise MappingError("no messages to evaluate")
    hops = _hops_of(placement, messages)
    return MappingMetrics(
        num_messages=n,
        average_hops=int(hops.sum()) / n,
        max_hops=int(hops.max()),
        hop_bytes=float(int((hops * messages.nbytes).sum())),
        intra_node_fraction=int((hops == 0).sum()) / n,
    )


def nest_and_parent_metrics(
    placement: Placement,
    parent_domain: tuple[int, int],
    nest_domains: Sequence[tuple[int, int]],
    nest_rects: Sequence[GridRect],
    spec: Optional[HaloSpec] = None,
) -> dict[str, MappingMetrics]:
    """Metrics for the parent exchange and each nest exchange.

    ``parent_domain``/``nest_domains`` are ``(nx, ny)`` sizes; the parent
    always runs on the full grid. Returns a dict with keys ``"parent"``
    and ``"nest<i>"``.
    """
    spec = spec or HaloSpec()
    grid = placement.grid
    out: dict[str, MappingMetrics] = {}
    pnx, pny = parent_domain
    out["parent"] = evaluate_mapping(
        placement, halo_batch(grid, grid.full_rect(), pnx, pny, spec)
    )
    for i, ((nnx, nny), rect) in enumerate(zip(nest_domains, nest_rects)):
        msgs = halo_batch(grid, rect, nnx, nny, spec)
        out[f"nest{i}"] = evaluate_mapping(placement, msgs)
    return out
