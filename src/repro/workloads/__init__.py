"""Workload generators and the paper's named configurations.

* :mod:`~repro.workloads.regions` — the two experimental regions of
  Sec 4.1: the Pacific Ocean typhoon-season setup (random nest
  configurations over a 286x307 parent at 24 km) and the South East Asia
  business-centre setup (4.5 km parent, 1.5 km siblings, some second
  level nests).
* :mod:`~repro.workloads.generator` — random sibling-configuration
  sampling with disjoint footprints (seeded, reproducible).
* :mod:`~repro.workloads.paper_configs` — the specific configurations
  behind each table/figure (Table 2's four siblings, Fig 10's three
  large siblings, Fig 15's twin 259x229 nests, ...).
"""

from repro.workloads.generator import random_siblings, NestSizeRange
from repro.workloads.regions import (
    pacific_parent,
    pacific_configurations,
    southeast_asia_configurations,
)
from repro.workloads.paper_configs import (
    CONFIGS,
    fig2_domains,
    table2_domains,
    table2_rects,
    fig10_domains,
    table3_configurations,
    table4_configurations,
    table5_configurations,
    fig15_domains,
)

__all__ = [
    "random_siblings",
    "NestSizeRange",
    "pacific_parent",
    "pacific_configurations",
    "southeast_asia_configurations",
    "CONFIGS",
    "fig2_domains",
    "table2_domains",
    "table2_rects",
    "fig10_domains",
    "table3_configurations",
    "table4_configurations",
    "table5_configurations",
    "fig15_domains",
]
