"""2D -> 3D topology mapping heuristics (paper Sec 3.3).

A *mapping* places every rank of the 2-D virtual process topology onto a
node of the 3-D torus. Because several ranks may share a node (VN/Dual
modes), mappings actually target *slots*: :class:`SlotSpace` extends the
node torus with a per-node core axis. Messages between slots on the same
node cost zero hops.

Implemented mappings:

* :class:`ObliviousMapping` — Blue Gene's default XYZT order (Fig 5(b)),
  the paper's "topology-oblivious" placement.
* :class:`TxyzMapping` — the stock TXYZ alternative compared in Table 4.
* :class:`PartitionMapping` — each sibling's processor rectangle onto a
  contiguous sub-box of the torus (Fig 6(a)).
* :class:`MultiLevelMapping` — partition mapping with each rectangle
  *folded* across torus planes so that parent-domain neighbours across
  partition seams are also adjacent (Fig 6(b)). Non-foldable rectangles
  fall back to the partition fill, matching the paper's restriction to
  foldable mappings.
"""

from repro.core.mapping.base import Mapping, Placement, SlotSpace, Box
from repro.core.mapping.oblivious import ObliviousMapping
from repro.core.mapping.txyz import TxyzMapping
from repro.core.mapping.partition_map import PartitionMapping
from repro.core.mapping.multilevel import MultiLevelMapping
from repro.core.mapping.metrics import (
    MappingMetrics,
    average_hops,
    hop_bytes,
    evaluate_mapping,
)

#: Every mapping class by its :attr:`Mapping.name`, in the order the
#: fuzzer draws them.
MAPPINGS = {
    cls.name: cls
    for cls in (ObliviousMapping, TxyzMapping, PartitionMapping, MultiLevelMapping)
}

__all__ = [
    "Mapping",
    "Placement",
    "SlotSpace",
    "Box",
    "ObliviousMapping",
    "TxyzMapping",
    "PartitionMapping",
    "MultiLevelMapping",
    "MAPPINGS",
    "MappingMetrics",
    "average_hops",
    "hop_bytes",
    "evaluate_mapping",
]
