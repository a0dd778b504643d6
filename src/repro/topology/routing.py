"""Deterministic dimension-ordered routing on the 3-D torus.

Blue Gene's torus network routes packets deterministically (in the default
mode) one dimension at a time, taking the shorter direction around each
ring. :func:`ring_steps_array` gives that direction and hop count per
dimension for whole arrays of node pairs; the network engine
(:mod:`repro.netsim.engine`) expands them into the exact links every
message crosses, so two messages whose routes share a link contend for
its bandwidth. The hop-by-hop scalar routes it replaced live with the
reference simulator (:mod:`repro.verify.reference.netsim`).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

__all__ = ["ring_steps_array"]


def ring_steps_array(
    src: np.ndarray, dst: np.ndarray, size: np.ndarray | int
) -> Tuple[np.ndarray, np.ndarray]:
    """The shorter way around a ring, for whole arrays of positions.

    ``src``/``dst`` are integer position arrays and ``size`` the ring
    extent (scalar or broadcastable array). Returns ``(direction, count)``
    arrays: a tie (even ring, exactly half way) routes in the positive
    direction, matching a fixed hardware tie-break, and degenerate cases
    (``size == 1`` or ``src == dst``) yield ``(+1, 0)`` — the same as the
    reference simulator's scalar ``_ring_steps``.
    """
    forward = (dst - src) % size
    backward = (src - dst) % size
    direction = np.where(forward <= backward, 1, -1).astype(np.int64)
    count = np.minimum(forward, backward).astype(np.int64)
    return direction, count
