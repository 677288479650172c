"""Reference answers and the correctness check.

The reference length of a solve is the brute-force minimum: a
200000-sample ``sweep`` and ``refine_min`` for each of the four CSC types,
the same work as acceptance criterion 8.  The solver is never consulted
for it.  References are computed after the timed region.
"""

from __future__ import annotations

import math

from dubins_circle import InfeasiblePathError, PathType, refine_min, sweep

ORACLE_SAMPLES = 200000
# acceptance criterion 8: |solver - oracle| <= 1e-6 * r
LENGTH_TOL = 1e-6


def oracle_type_length(start, circle, path_type: PathType) -> float:
    """Refined sweep minimum of one type; inf when the type never exists."""
    try:
        grid = sweep(start, circle, path_type, n=ORACLE_SAMPLES)
        return float(refine_min(grid, start, circle).length)
    except InfeasiblePathError:
        return math.inf


def oracle_length(start, circle) -> float:
    """Shortest CSC length over all four types by brute force."""
    return min(oracle_type_length(start, circle, pt) for pt in PathType)


def gap_r(length: float, reference: float, r: float) -> float:
    """Signed disagreement in units of r; positive means longer than the
    reference."""
    return (length - reference) / r


def agrees(length: float, reference: float, r: float) -> bool:
    """True when ``length`` is within LENGTH_TOL * r of ``reference``."""
    return math.isfinite(length) and abs(gap_r(length, reference, r)) <= LENGTH_TOL
