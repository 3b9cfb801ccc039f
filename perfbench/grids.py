"""Input grids shared by the workloads and the reference generator.

Every workload grid is a coarse base grid, with a spacing that is a
multiple of OFFSET_STEP, shifted by a seed-chosen offset of
k * OFFSET_STEP, k in range(OFFSETS).  The reference file stores values on
the fine grid that covers every shifted point, so any seed can be checked.
Points are Python floats parsed from exact decimal strings, so the generator
and the workloads evaluate at bit-identical arguments.
"""

from __future__ import annotations

from decimal import Decimal
from typing import List

OFFSETS = 10
OFFSET_STEP = Decimal("0.01")

# hm_solve checks q and q' here: -10.00 .. 5.99 step 0.01 (1600 points)
Q_BASE = (Decimal("-10"), Decimal("0.01"), 1600)
# tw_table evaluates tw_point here: -8.0 .. 4.0 step 0.1 (121 points)
TW_BASE = (Decimal("-8"), Decimal("0.1"), 121)
# oracle_compare evaluates both F2 routes here: -8 .. 4 step 1 (13 points)
ORACLE_BASE = (Decimal("-8"), Decimal("1"), 13)

# Fine reference grids: start, OFFSET_STEP spacing, count.
Q_FINE = (Q_BASE[0], 1610)     # -10.00 .. 6.09
TW_FINE = (TW_BASE[0], 1210)   # -8.00 .. 4.09


def offset_index(seed: int) -> int:
    """The seed's grid shift, in units of OFFSET_STEP."""
    return seed % OFFSETS


def base_points(base, k: int) -> List[Decimal]:
    start, step, count = base
    return [start + i * step + k * OFFSET_STEP for i in range(count)]


def fine_points(fine) -> List[Decimal]:
    start, count = fine
    return [start + i * OFFSET_STEP for i in range(count)]


def fine_index(fine, x: Decimal) -> int:
    """Position of a shifted base point in a fine reference grid."""
    start, count = fine
    i = int((x - start) / OFFSET_STEP)
    if not (0 <= i < count and start + i * OFFSET_STEP == x):
        raise ValueError(f"x={x} is not on the reference grid")
    return i
