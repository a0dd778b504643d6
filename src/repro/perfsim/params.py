"""Workload parameters of the WRF-like cost model.

The numeric anchors come from fitting the paper's own measurements
(Table 2 / Fig 9): sibling step times on 1024 BG/L cores and on their
partitioned sub-grids fit ``t(P) = w * points / P + B`` with
``w ~ 1.4e-3 core-seconds per horizontal point``. With 35 vertical levels
and BG/L's sustained ~0.28 GF/core this corresponds to ~10,000 effective
flops per grid *cell* per step — a realistic figure for WRF dynamics +
physics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.runtime.halo import HaloSpec
from repro.util.validation import check_positive_float, check_positive_int

__all__ = ["WorkloadParams", "OutputParams"]


@dataclass(frozen=True)
class OutputParams:
    """History-output configuration (drives the I/O cost model).

    ``interval_steps`` is the number of outer iterations between history
    writes; the paper's high-frequency runs wrote every 10 simulated
    minutes (a handful of iterations), the BG/L runs hourly.
    """

    #: Bytes written per horizontal grid point of a domain per history
    #: write: levels * output variables * 4 bytes (WRF writes float32).
    bytes_per_point: float = 35 * 8 * 4.0
    #: Outer iterations between history writes.
    interval_steps: int = 6
    #: Whether output is enabled at all.
    enabled: bool = True
    #: Whether the parent domain's history file is written at this
    #: frequency. The paper's high-frequency runs wrote only "the various
    #: regions of interest at the innermost level" every 10 minutes.
    include_parent: bool = True

    def __post_init__(self) -> None:
        check_positive_float(self.bytes_per_point, "bytes_per_point")
        check_positive_int(self.interval_steps, "interval_steps")


@dataclass(frozen=True)
class WorkloadParams:
    """Per-cell work and halo structure of the simulated model."""

    #: Floating-point operations per grid cell (point x level) per step.
    #: (8,000 of useful work; the redundant stencil-overlap frame charged
    #: by the compute model brings the effective per-point cost to the
    #: ~1.4e-3 core-seconds the paper's data implies.)
    flops_per_cell: float = 8_000.0
    #: Vertical levels.
    levels: int = 35
    #: Halo-exchange shape (width, rounds, bytes) — paper Sec 3.3. The
    #: default exchanges ``levels``-deep fields; an explicit spec is kept
    #: as given, so its depth may differ from the compute depth.
    halo: Optional[HaloSpec] = None
    #: Extra rows/columns each tile computes redundantly around its halo
    #: (stencil overlap work). Inflates small tiles slightly.
    halo_compute_overlap: int = 1
    #: History output configuration.
    output: OutputParams = field(default_factory=OutputParams)

    def __post_init__(self) -> None:
        check_positive_float(self.flops_per_cell, "flops_per_cell")
        check_positive_int(self.levels, "levels")
        if self.halo_compute_overlap < 0:
            raise ValueError("halo_compute_overlap must be >= 0")
        if self.halo is None:
            object.__setattr__(self, "halo", HaloSpec(levels=self.levels))

    def seconds_per_point(self, sustained_flops: float) -> float:
        """Core-seconds per horizontal point per step (all levels)."""
        return self.levels * self.flops_per_cell / sustained_flops
