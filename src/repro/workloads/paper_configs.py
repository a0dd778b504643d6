"""The specific domain configurations behind each table and figure.

Sizes are taken verbatim from the paper wherever printed; placements
inside the parent (which the paper does not print) are chosen to keep
footprints disjoint. Configurations whose nests are too large for the
Pacific parent (Fig 10's and Table 3's large nests) use a proportionally
larger parent, documented in DESIGN.md as a substitution.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.runtime.process_grid import GridRect
from repro.workloads.regions import Configuration, pacific_parent
from repro.wrf.grid import DomainSpec

__all__ = [
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


def _nest(
    name: str,
    nx: int,
    ny: int,
    at: Tuple[int, int],
    *,
    parent: str = "d01",
    dx_km: float = 8.0,
    refinement: int = 3,
) -> DomainSpec:
    return DomainSpec(
        name=name, nx=nx, ny=ny, dx_km=dx_km, parent=parent,
        parent_start=at, refinement=refinement, level=1,
    )


def fig2_domains() -> Configuration:
    """Fig 2: parent 286x307 with one 415x445 subdomain (BG/L scaling)."""
    parent = pacific_parent()
    return Configuration(
        "fig2", parent, (_nest("d02", 415, 445, (60, 70)),)
    )


def table2_domains() -> Configuration:
    """Table 2 / Fig 9: the four-sibling BG/L configuration."""
    parent = pacific_parent()
    return Configuration(
        "table2",
        parent,
        (
            _nest("d02", 394, 418, (10, 10)),
            _nest("d03", 232, 202, (160, 10)),
            _nest("d04", 232, 256, (10, 160)),
            _nest("d05", 313, 337, (160, 160)),
        ),
    )


def table2_rects() -> List[GridRect]:
    """Table 2's printed allocation on the 32x32 grid.

    18x24, 18x8, 14x12 and 14x20 processor rectangles.
    """
    return [
        GridRect(0, 0, 18, 24),
        GridRect(0, 24, 18, 8),
        GridRect(18, 0, 14, 12),
        GridRect(18, 12, 14, 20),
    ]


def fig10_domains() -> Configuration:
    """Fig 10: three large siblings (586x643, 856x919, 925x850).

    These nests' footprints exceed the 286x307 Pacific parent, so a
    770x800 parent at the same 24 km resolution hosts them (substitution:
    only the nest workloads matter to the experiment).
    """
    parent = DomainSpec(name="d01", nx=770, ny=800, dx_km=24.0)
    return Configuration(
        "fig10",
        parent,
        (
            _nest("d02", 586, 643, (10, 10)),
            _nest("d03", 856, 919, (220, 10)),
            _nest("d04", 925, 850, (220, 330)),
        ),
    )


def table3_configurations() -> List[Configuration]:
    """Table 3: three configurations with growing maximum nest size.

    Maximum nest sizes 205x223, 394x418 and 925x820; each configuration
    has three siblings (the paper reports per-configuration improvements
    on up to 8192 BG/P cores).
    """
    small_parent = pacific_parent()
    big_parent = DomainSpec(name="d01", nx=770, ny=800, dx_km=24.0)
    return [
        Configuration(
            "table3-small",
            small_parent,
            (
                _nest("d02", 205, 223, (10, 10)),
                _nest("d03", 190, 205, (120, 10)),
                _nest("d04", 178, 202, (10, 120)),
            ),
        ),
        Configuration(
            "table3-medium",
            small_parent,
            (
                _nest("d02", 394, 418, (10, 10)),
                _nest("d03", 265, 250, (160, 10)),
                _nest("d04", 241, 223, (10, 160)),
            ),
        ),
        Configuration(
            "table3-large",
            big_parent,
            (
                _nest("d02", 925, 820, (10, 10)),
                _nest("d03", 586, 643, (330, 10)),
                _nest("d04", 415, 445, (10, 300)),
            ),
        ),
    ]


def table4_configurations() -> List[Configuration]:
    """Table 4 / Fig 11: five BG/L configurations (2, 2, 2, 3, 4 siblings)."""
    parent = pacific_parent()
    return [
        Configuration(
            "table4-a", parent,
            (_nest("d02", 313, 337, (10, 10)), _nest("d03", 313, 337, (130, 130))),
        ),
        Configuration(
            "table4-b", parent,
            (_nest("d02", 415, 445, (10, 10)), _nest("d03", 394, 418, (150, 150))),
        ),
        Configuration(
            "table4-c", parent,
            (_nest("d02", 394, 418, (10, 10)), _nest("d03", 232, 256, (160, 160))),
        ),
        Configuration(
            "table4-d", parent,
            (
                _nest("d02", 394, 418, (10, 10)),
                _nest("d03", 313, 337, (160, 10)),
                _nest("d04", 232, 256, (10, 160)),
            ),
        ),
        Configuration("table4-e", parent, table2_domains().siblings),
    ]


def table5_configurations() -> List[Configuration]:
    """Table 5 / Fig 12: three BG/P 4096-core configurations (4, 4, 3 siblings)."""
    parent = pacific_parent()
    return [
        Configuration("table5-a", parent, table2_domains().siblings),
        Configuration(
            "table5-b", parent,
            (
                _nest("d02", 415, 445, (10, 10)),
                _nest("d03", 313, 337, (160, 10)),
                _nest("d04", 265, 250, (10, 170)),
                _nest("d05", 241, 223, (170, 170)),
            ),
        ),
        Configuration(
            "table5-c", parent,
            (
                _nest("d02", 415, 445, (10, 10)),
                _nest("d03", 394, 418, (152, 10)),
                _nest("d04", 313, 337, (10, 170)),
            ),
        ),
    ]


def fig15_domains() -> Configuration:
    """Fig 15: two sibling nests of 259x229 (scalability/speedup study)."""
    parent = pacific_parent()
    return Configuration(
        "fig15",
        parent,
        (_nest("d02", 259, 229, (10, 10)), _nest("d03", 259, 229, (150, 150))),
    )


#: The built-in configurations, keyed by name: what ``repro simulate``,
#: ``repro plan`` and ``repro recommend`` accept as ``--config`` and
#: what the planning service plans.
CONFIGS: Dict[str, Configuration] = {
    c.name: c
    for c in (fig2_domains(), fig10_domains(), fig15_domains(), table2_domains())
}
