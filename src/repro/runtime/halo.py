"""Halo-exchange specification.

Each WRF integration step performs many point-to-point halo exchanges: the
paper reports 144 messages per step with the four neighbouring processes
(Sec 3.3), i.e. 36 exchange *rounds* of 4 directional messages. A message
to an east/west neighbour carries a strip of ``tile_height x halo_width``
columns over all vertical levels and exchanged variables; north/south
messages carry ``tile_width x halo_width`` rows.

This module turns a (domain, sub-grid rectangle) pair into the messages
of one exchange round: :func:`halo_batch` builds the :class:`HaloBatch`
column arrays in one shot from the decomposition's row/column edge
vectors. The network simulator routes each message over the torus and
the cost model multiplies by the number of rounds. The per-message
builder it replaced is the oracle in :mod:`repro.verify.reference.halo`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.runtime.decomposition import decompose
from repro.runtime.process_grid import GridRect, ProcessGrid
from repro.util.validation import check_positive_int

__all__ = ["HaloSpec", "HaloBatch", "halo_batch"]

#: Paper Sec 3.3: "each integration time-step involves 144 message
#: exchanges with the four neighbouring processes".
MESSAGES_PER_STEP = 144
DIRECTIONS = 4
ROUNDS_PER_STEP = MESSAGES_PER_STEP // DIRECTIONS  # 36 exchange rounds


@dataclass(frozen=True)
class HaloSpec:
    """Shape parameters of the halo exchange of one simulated model.

    Attributes
    ----------
    width:
        Halo width in grid points. WRF's stencils exchange mostly 2- and
        3-point halos (only a few fields need 5), so 3 is the effective
        width of an average exchange round.
    levels:
        Number of vertical levels in the 3-D fields being exchanged.
    bytes_per_value:
        8 for double precision.
    rounds_per_step:
        Number of 4-message exchange rounds per integration step.
    """

    width: int = 3
    levels: int = 35
    bytes_per_value: int = 8
    rounds_per_step: int = ROUNDS_PER_STEP

    def __post_init__(self) -> None:
        check_positive_int(self.width, "width")
        check_positive_int(self.levels, "levels")
        check_positive_int(self.bytes_per_value, "bytes_per_value")
        check_positive_int(self.rounds_per_step, "rounds_per_step")

    def strip_bytes(self, edge_points: int) -> int:
        """Bytes of one directional halo strip along an edge of *edge_points*."""
        return edge_points * self.width * self.levels * self.bytes_per_value


@dataclass(frozen=True)
class HaloBatch:
    """One exchange round as ``(src, dst, nbytes)`` column arrays.

    ``int64`` columns in message order: row-major cells, each emitting
    west, east, north, south. All arrays are read-only so batches can be
    shared and cached safely.
    """

    src: np.ndarray
    dst: np.ndarray
    nbytes: np.ndarray

    def __post_init__(self) -> None:
        for arr in (self.src, self.dst, self.nbytes):
            arr.flags.writeable = False

    def __len__(self) -> int:
        return len(self.src)


def halo_batch(
    grid: ProcessGrid,
    rect: GridRect,
    nx: int,
    ny: int,
    spec: HaloSpec,
) -> HaloBatch:
    """All messages of one halo-exchange round of a nest on *rect*.

    The nest's ``nx x ny`` domain is block-decomposed over the rectangle's
    ``width x height`` sub-grid. Every rank sends to each existing
    neighbour (boundary tiles have fewer neighbours). Message sizes use
    the *sender's* tile edge, matching how WRF packs its halo strips.

    A pure function of ``grid.px``, *rect*, *nx*, *ny* and *spec*: the
    route cache keys an exchange by exactly these
    (:meth:`~repro.netsim.engine.VectorBackend.route_exchange`), so a new
    input here must join that key.

    Built without a Python loop: per-cell candidate arrays for the four
    directions are stacked as ``(rows, cols, 4)`` and flattened in C
    order (a row-major cell walk with west, east, north, south emission
    order), then masked down to the neighbours that exist.
    """
    dec = decompose(nx, ny, rect.width, rect.height)
    w, h = rect.width, rect.height
    px_full = grid.px

    col_w = np.asarray(dec.col_widths, dtype=np.int64)
    row_h = np.asarray(dec.row_heights, dtype=np.int64)
    strip = spec.width * spec.levels * spec.bytes_per_value
    ew_bytes = row_h * strip  # east/west strips carry the tile height
    ns_bytes = col_w * strip  # north/south strips carry the tile width

    gx = rect.x0 + np.arange(w, dtype=np.int64)
    gy = rect.y0 + np.arange(h, dtype=np.int64)
    ranks = gy[:, None] * px_full + gx[None, :]  # (h, w), row-major ranks

    # Candidate (dst, nbytes, valid) per direction, emission order:
    # west (px-1), east (px+1), north (py-1), south (py+1).
    dst = np.stack(
        [ranks - 1, ranks + 1, ranks - px_full, ranks + px_full], axis=2
    )
    in_w = np.arange(w) > 0
    in_e = np.arange(w) < w - 1
    in_n = np.arange(h) > 0
    in_s = np.arange(h) < h - 1
    valid = np.empty((h, w, 4), dtype=bool)
    valid[:, :, 0] = in_w[None, :]
    valid[:, :, 1] = in_e[None, :]
    valid[:, :, 2] = in_n[:, None]
    valid[:, :, 3] = in_s[:, None]
    nbytes = np.empty((h, w, 4), dtype=np.int64)
    nbytes[:, :, 0] = ew_bytes[:, None]
    nbytes[:, :, 1] = ew_bytes[:, None]
    nbytes[:, :, 2] = ns_bytes[None, :]
    nbytes[:, :, 3] = ns_bytes[None, :]
    src = np.broadcast_to(ranks[:, :, None], (h, w, 4))

    keep = valid.ravel()
    return HaloBatch(
        src=src.reshape(-1)[keep],
        dst=dst.reshape(-1)[keep],
        nbytes=nbytes.reshape(-1)[keep],
    )

