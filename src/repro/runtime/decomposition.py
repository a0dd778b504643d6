"""Block decomposition of a 2-D domain over a process grid.

WRF distributes an ``nx x ny`` domain over a ``Px x Py`` process grid by
giving each rank a contiguous tile of roughly ``nx/Px x ny/Py`` points
(paper Sec 3.2). Remainder points go to the low-index rows/columns, so the
*maximum* tile — which sets the pace of a bulk-synchronous step — is
``ceil(nx/Px) x ceil(ny/Py)``.

Also provided is the WRF-style factorisation of a rank count into a
near-square process grid (``choose_process_grid``), optionally biased
toward the domain's aspect ratio, and the unbiased grid every
rank-count-driven caller runs on (``grid_for``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, List, Tuple

from repro.errors import ConfigurationError
from repro.runtime.process_grid import ProcessGrid
from repro.util.validation import check_positive_int

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.exec.cache import CacheStats

__all__ = [
    "BlockDecomposition",
    "decompose",
    "decompose_cache_stats",
    "reset_decompose_cache",
    "choose_process_grid",
    "grid_for",
    "tile_dims",
    "split_counts",
]


def split_counts(n: int, parts: int) -> List[int]:
    """Split *n* points into *parts* contiguous blocks as evenly as possible.

    The first ``n % parts`` blocks get the extra point, matching WRF's
    decomposition. Every block is non-empty when ``parts <= n``; otherwise a
    :class:`~repro.errors.ConfigurationError` is raised because WRF cannot
    run with empty tiles.
    """
    check_positive_int(n, "n")
    check_positive_int(parts, "parts")
    if parts > n:
        raise ConfigurationError(f"cannot split {n} points into {parts} non-empty blocks")
    base, extra = divmod(n, parts)
    return [base + (1 if i < extra else 0) for i in range(parts)]


def tile_dims(nx: int, ny: int, px: int, py: int) -> Tuple[int, int]:
    """The dimensions of the *largest* tile: ``(ceil(nx/px), ceil(ny/py))``."""
    check_positive_int(nx, "nx")
    check_positive_int(ny, "ny")
    check_positive_int(px, "px")
    check_positive_int(py, "py")
    return (-(-nx // px), -(-ny // py))


@dataclass(frozen=True)
class BlockDecomposition:
    """A full block decomposition of an ``nx x ny`` domain over ``px x py``."""

    nx: int
    ny: int
    px: int
    py: int
    #: Per-column tile widths (length px) and per-row tile heights (length py).
    col_widths: Tuple[int, ...]
    row_heights: Tuple[int, ...]

    @property
    def max_tile(self) -> Tuple[int, int]:
        """``(max width, max height)`` over all tiles."""
        return (max(self.col_widths), max(self.row_heights))

    @property
    def min_tile(self) -> Tuple[int, int]:
        """``(min width, min height)`` over all tiles."""
        return (min(self.col_widths), min(self.row_heights))

    def tile_of(self, ppx: int, ppy: int) -> Tuple[int, int, int, int]:
        """``(i0, j0, w, h)`` of the tile owned by grid position (ppx, ppy)."""
        if not (0 <= ppx < self.px and 0 <= ppy < self.py):
            raise ConfigurationError(f"position ({ppx},{ppy}) outside {self.px}x{self.py}")
        i0 = sum(self.col_widths[:ppx])
        j0 = sum(self.row_heights[:ppy])
        return (i0, j0, self.col_widths[ppx], self.row_heights[ppy])

    def load_imbalance(self) -> float:
        """``max_tile_area / mean_tile_area - 1`` (0.0 means perfectly even)."""
        mw, mh = self.max_tile
        mean = (self.nx * self.ny) / (self.px * self.py)
        return (mw * mh) / mean - 1.0


@lru_cache(maxsize=4096)
def decompose(nx: int, ny: int, px: int, py: int) -> BlockDecomposition:
    """Block-decompose an ``nx x ny`` domain over a ``px x py`` grid.

    Memoized: a pure function of four ints that every halo-message build
    of the same rectangle used to recompute. The returned decomposition
    is frozen and shared between callers; use
    :func:`reset_decompose_cache` for test isolation and
    :func:`decompose_cache_stats` for the counters.
    """
    return BlockDecomposition(
        nx=nx,
        ny=ny,
        px=px,
        py=py,
        col_widths=tuple(split_counts(nx, px)),
        row_heights=tuple(split_counts(ny, py)),
    )


def decompose_cache_stats() -> "CacheStats":
    """Current :func:`decompose` cache counters."""
    # Imported here: repro.exec imports this module while it initialises.
    from repro.exec.cache import CacheStats

    info = decompose.cache_info()
    return CacheStats(hits=info.hits, misses=info.misses, entries=info.currsize)


def reset_decompose_cache() -> None:
    """Drop all cached decompositions and zero the counters (tests)."""
    decompose.cache_clear()


def choose_process_grid(
    num_ranks: int, *, domain_aspect: float = 1.0
) -> Tuple[int, int]:
    """Factor *num_ranks* into ``(Px, Py)`` best matching *domain_aspect*.

    WRF picks the factorisation of the rank count whose grid aspect ratio
    ``Px/Py`` is closest to the domain aspect ratio ``nx/ny`` so tiles come
    out square-like. Ties break toward the more square grid.
    """
    check_positive_int(num_ranks, "num_ranks")
    if domain_aspect <= 0 or domain_aspect != domain_aspect:
        raise ConfigurationError(f"domain_aspect must be positive, got {domain_aspect}")
    best: Tuple[int, int] | None = None
    best_key: Tuple[float, float] | None = None
    for px in range(1, num_ranks + 1):
        if num_ranks % px:
            continue
        py = num_ranks // px
        # Compare aspect ratios in log space so 2x-off is symmetric
        # whichever side it falls on.
        mismatch = abs(math.log(px / py) - math.log(domain_aspect))
        spread = abs(math.log(px / py))
        key = (mismatch, spread)
        if best_key is None or key < best_key:
            best_key = key
            best = (px, py)
    assert best is not None
    return best


def grid_for(num_ranks: int) -> ProcessGrid:
    """The near-square virtual process grid WRF would pick for *num_ranks*."""
    return ProcessGrid(*choose_process_grid(num_ranks))
