"""Integral-point counting for energy spheres in the folded chart.

For integer energy level E the standard chart contributes a level space of
dimension 2E - 1.  In the folded chart the admissible axis values l satisfy
l^2 = E^2 - 2k with k a positive integer, giving symmetric pairs +-l for
0 < 2k < E^2 and the single point l = 0 exactly when E is even
(2k = E^2).  Values are stored exactly as (integer l^2, sign).
"""

from __future__ import annotations

import math
from dataclasses import dataclass


def _check_level(E: int) -> None:
    if not isinstance(E, int) or E < 1:
        raise ValueError("energy level E must be a positive integer")


@dataclass(frozen=True, order=True)
class FoldedPoint:
    """Admissible axis value l = sign * sqrt(l_squared), stored exactly."""

    sign: int
    l_squared: int

    def __post_init__(self):
        if self.l_squared < 0:
            raise ValueError("l_squared must be non-negative")
        if self.l_squared == 0 and self.sign != 0:
            raise ValueError("l = 0 carries sign 0")
        if self.l_squared > 0 and self.sign not in (-1, 1):
            raise ValueError("sign must be -1 or +1 for nonzero l")

    @property
    def value(self) -> float:
        return self.sign * math.sqrt(self.l_squared)


@dataclass(frozen=True)
class LatticeReport:
    """Counting summary for one energy level."""

    E: int
    standard_dim: int
    folded_points: tuple[FoldedPoint, ...]

    @property
    def folded_count(self) -> int:
        return len(self.folded_points)


def standard_dim(E: int) -> int:
    """Dimension 2E - 1 of the level-E space in the standard chart."""
    _check_level(E)
    return 2 * E - 1


def folded_count(E: int) -> int:
    """Number of admissible folded axis values for level E: exactly E^2 - 1.

    The values are l^2 = E^2 - 2k for integers k >= 1 with l^2 >= 0.  Each
    2k < E^2 gives the pair +-l.  For odd E, E^2 is odd, so 2k runs over
    2, 4, ..., E^2 - 1: (E^2 - 1)/2 pairs and no l = 0, total E^2 - 1.  For
    even E, 2k runs over 2, 4, ..., E^2 - 2: E^2/2 - 1 pairs, plus l = 0 from
    2k = E^2, total E^2 - 2 + 1 = E^2 - 1.  ``folded_points`` enumerates the
    same values one by one.
    """
    _check_level(E)
    return E * E - 1


def folded_points(E: int) -> tuple[FoldedPoint, ...]:
    """All admissible axis values for level E, built in ascending order.

    -l for l^2 = E^2 - 2k descending, then 0 when E is even, then +l for
    l^2 ascending.
    """
    _check_level(E)
    e2 = E * E
    squares = range(e2 - 2, 0, -2)  # l^2 = E^2 - 2k > 0, descending
    zero = [FoldedPoint(0, 0)] if e2 % 2 == 0 else []
    return (
        *[FoldedPoint(-1, ls) for ls in squares],
        *zero,
        *[FoldedPoint(1, ls) for ls in reversed(squares)],
    )


def analyse(E: int) -> LatticeReport:
    return LatticeReport(E, standard_dim(E), folded_points(E))


__all__ = [
    "FoldedPoint",
    "LatticeReport",
    "analyse",
    "folded_count",
    "folded_points",
    "standard_dim",
]
