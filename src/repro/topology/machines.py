"""Parameterised models of the IBM Blue Gene/L and Blue Gene/P systems.

The paper evaluates on up to 1024 cores of BG/L and 8192 cores of BG/P
(Sec 4.2). We model each machine by the handful of parameters the
performance simulator needs:

* core clock and *sustained* per-core floating-point rate (WRF typically
  sustains a few percent of peak on these systems),
* cores per node and the execution modes that decide how many MPI ranks
  share a node (BG/L: CO/VN; BG/P: SMP/Dual/VN),
* torus link bandwidth and the two latency components of a message
  (software/injection latency plus a small per-hop latency),
* fixed per-timestep runtime overhead and a logarithmic collective cost,
* parallel-I/O characteristics used by :mod:`repro.iosim`.

The numeric values are anchored to the public Blue Gene system papers
(refs [23, 24] of the paper) and then calibrated against four observations
in the paper itself (see ``DESIGN.md`` Sec 5): a 394x418 sibling costs
about 0.4 s/step on 1024 BG/L cores, the 415x445 nest saturates near 512
cores, communication is roughly 40% of execution, and there are 144
point-to-point messages per step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Tuple

from repro.errors import ConfigurationError, TopologyError
from repro.topology.torus import Torus3D
from repro.util.validation import check_positive_int

__all__ = [
    "ExecutionMode",
    "Machine",
    "blue_gene_l",
    "blue_gene_p",
    "BLUE_GENE_L",
    "BLUE_GENE_P",
    "MACHINES",
    "torus_dims_for_nodes",
]


@dataclass(frozen=True)
class ExecutionMode:
    """An application execution mode: how many MPI ranks run per node."""

    name: str
    ranks_per_node: int

    def __post_init__(self) -> None:
        check_positive_int(self.ranks_per_node, "ranks_per_node")


def torus_dims_for_nodes(num_nodes: int) -> Tuple[int, int, int]:
    """Choose near-cubic torus dimensions ``X <= Y <= Z`` for *num_nodes*.

    Blue Gene partitions come in fixed shapes (a 512-node midplane is
    8x8x8, a full BG/L rack of 1024 nodes is 8x8x16, ...). For arbitrary
    counts we pick the factorisation into three factors that minimises the
    spread ``Z - X``, which matches those shapes for the power-of-two sizes
    used in the paper.
    """
    n = check_positive_int(num_nodes, "num_nodes")
    best: Tuple[int, int, int] | None = None
    cube = round(n ** (1.0 / 3.0)) + 1
    for x in range(1, cube + 1):
        if n % x:
            continue
        m = n // x
        sq = int(math.isqrt(m))
        for y in range(x, sq + 1):
            if m % y:
                continue
            z = m // y
            cand = (x, y, z)
            if best is None or (cand[2] - cand[0], cand[2]) < (best[2] - best[0], best[2]):
                best = cand
    if best is None:  # n is prime and small x didn't divide: 1 x 1 x n
        best = (1, 1, n)
    return best


@dataclass(frozen=True)
class Machine:
    """A torus-interconnected supercomputer model.

    All rates are bytes/s or flop/s; all times are seconds.
    """

    name: str
    clock_hz: float
    cores_per_node: int
    modes: Dict[str, ExecutionMode]
    default_mode: str
    #: Sustained per-core floating point rate for WRF-like stencil code.
    sustained_flops_per_core: float
    #: Usable bandwidth of one torus link, per direction.
    link_bandwidth: float
    #: Per-message software/injection overhead (MPI stack).
    software_latency: float
    #: Additional latency per torus hop traversed.
    per_hop_latency: float
    #: Fixed per-timestep runtime overhead (loop management, BC processing).
    step_overhead: float
    #: Per-exchange-round synchronisation skew: the average extra wait a
    #: bulk-synchronous halo round incurs from rank-to-rank jitter. WRF
    #: performs 36 rounds per step, so this is the dominant component of
    #: the P-independent per-step cost observed in the paper's data.
    round_skew: float
    #: Cost coefficient of the per-step collective operations: the model
    #: charges ``collective_cost * log2(ranks)`` each step.
    collective_cost: float
    #: Collective-I/O metadata/synchronisation cost per participating writer
    #: (this is the term that makes PnetCDF degrade as ranks grow).
    io_meta_cost_per_writer: float
    #: Aggregate file-system bandwidth ceiling.
    io_bandwidth_max: float
    #: Per-writer achievable I/O bandwidth before the ceiling binds.
    io_per_writer_bandwidth: float

    def __post_init__(self) -> None:
        if self.default_mode not in self.modes:
            raise ConfigurationError(
                f"default mode {self.default_mode!r} not in modes {sorted(self.modes)}"
            )
        for mode in self.modes.values():
            if mode.ranks_per_node > self.cores_per_node:
                raise ConfigurationError(
                    f"mode {mode.name!r} uses {mode.ranks_per_node} ranks/node but "
                    f"{self.name} has {self.cores_per_node} cores/node"
                )

    # ------------------------------------------------------------------
    def mode(self, name: str | None = None) -> ExecutionMode:
        """Look up an execution mode (default mode when *name* is None)."""
        key = self.default_mode if name is None else name
        try:
            return self.modes[key]
        except KeyError:
            raise ConfigurationError(
                f"{self.name} has no mode {key!r}; available: {sorted(self.modes)}"
            ) from None

    def nodes_for_ranks(self, num_ranks: int, mode: str | None = None) -> int:
        """Number of nodes hosting *num_ranks* MPI ranks in *mode*."""
        rpn = self.mode(mode).ranks_per_node
        check_positive_int(num_ranks, "num_ranks")
        if num_ranks % rpn:
            raise ConfigurationError(
                f"{num_ranks} ranks do not fill whole nodes at {rpn} ranks/node"
            )
        return num_ranks // rpn

    def torus_for_ranks(self, num_ranks: int, mode: str | None = None) -> Torus3D:
        """The torus backing a partition that hosts *num_ranks* ranks."""
        return Torus3D(torus_dims_for_nodes(self.nodes_for_ranks(num_ranks, mode)))

    def seconds_per_flop(self) -> float:
        """Reciprocal sustained rate — handy for cost formulas."""
        return 1.0 / self.sustained_flops_per_core


def blue_gene_l() -> Machine:
    """IBM Blue Gene/L: 700 MHz PPC440, 2 cores/node, 3-D torus.

    Usable torus link bandwidth is ~154 MB/s of the 175 MB/s raw rate;
    MPI short-message latency on BG/L is a few microseconds.
    """
    return Machine(
        name="BlueGene/L",
        clock_hz=700e6,
        cores_per_node=2,
        modes={
            "CO": ExecutionMode("CO", 1),  # coprocessor: 1 compute rank/node
            "VN": ExecutionMode("VN", 2),  # virtual node: both cores compute
        },
        default_mode="VN",
        sustained_flops_per_core=2.8e8,  # ~10% of the 2.8 GF/core peak
        link_bandwidth=154e6,
        software_latency=3.5e-6,
        per_hop_latency=0.1e-6,
        step_overhead=8e-3,
        round_skew=2.5e-3,
        collective_cost=0.6e-3,
        io_meta_cost_per_writer=0.6e-3,
        io_bandwidth_max=1.0e9,
        io_per_writer_bandwidth=6e6,
    )


def blue_gene_p() -> Machine:
    """IBM Blue Gene/P: 850 MHz PPC450, 4 cores/node, 3-D torus.

    Torus links run at 425 MB/s raw (~375 MB/s usable); DMA-driven
    messaging lowers the software latency relative to BG/L.
    """
    return Machine(
        name="BlueGene/P",
        clock_hz=850e6,
        cores_per_node=4,
        modes={
            "SMP": ExecutionMode("SMP", 1),
            "Dual": ExecutionMode("Dual", 2),
            "VN": ExecutionMode("VN", 4),
        },
        default_mode="VN",
        sustained_flops_per_core=3.7e8,  # ~11% of the 3.4 GF/core peak
        link_bandwidth=375e6,
        software_latency=2.5e-6,
        per_hop_latency=0.07e-6,
        step_overhead=6e-3,
        round_skew=2.2e-3,
        collective_cost=0.45e-3,
        io_meta_cost_per_writer=0.45e-3,
        io_bandwidth_max=1.6e9,
        io_per_writer_bandwidth=5e6,
    )


#: Shared default instances. These are frozen dataclasses, safe to share.
BLUE_GENE_L = blue_gene_l()
BLUE_GENE_P = blue_gene_p()

#: The machines by their short name, as the CLI, the service and the
#: fuzzer spell them.
MACHINES: Dict[str, Machine] = {"bgl": BLUE_GENE_L, "bgp": BLUE_GENE_P}
