"""Brute-force sweep of the circle-goal length function.

Ground truth for extremum, derivative, and discontinuity claims: evaluate
the length on a uniform angle grid, then refine the best sample by
re-sampling a shrinking bracket around it.  The refinement compares
length values only, so minima at stationary points, at 2*pi*r jumps and
on feasibility boundaries are all reached the same way, and the sweep
never consults the solver's event equations, which keeps the two routes
independent.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .circle_target import (
    TargetCircle,
    _world_terms,
    canonical_instance,
    canonical_terms_scalar,
)
from .errors import InfeasiblePathError
from .geometry import Configuration, TWO_PI, normalize_angle
from .paths import PathType

REFINE_TOL = 1e-10
REFINE_CELLS = 8  # sub-cells per refinement round; the bracket shrinks by 4
FLAT_TOL = 1e-9


@dataclass(frozen=True)
class SweepResult:
    """``alphas`` is the read-only grid every sweep of this ``n`` shares;
    the other arrays are fresh.  ``lengths``, ``phi1``, ``phi2`` and
    ``ls`` are writable, C-contiguous, disjoint rows of one block, so
    holding any one of them keeps all four alive."""

    path_type: PathType
    n: int
    alphas: np.ndarray
    lengths: np.ndarray
    phi1: np.ndarray
    phi2: np.ndarray
    ls: np.ndarray
    feasible: np.ndarray


@dataclass(frozen=True)
class RefinedMinimum:
    alpha: float
    length: float
    flat: bool  # the grid bracket is flat to 1e-9*r: alpha is ill-determined


@functools.lru_cache(maxsize=1)
def _grid(n: int) -> np.ndarray:
    alphas = np.arange(n) * (TWO_PI / n)
    alphas.flags.writeable = False
    return alphas


def sweep(
    start: Configuration, circle: TargetCircle, path_type: PathType, n: int = 4096
) -> SweepResult:
    """Evaluate the length of one CSC type at alpha_k = 2*pi*k/n, k < n."""
    if n < 16:
        raise ValueError(f"sweep needs n >= 16, got {n}")
    alphas = _grid(n)
    # in [0, 2*pi) by construction: no reduction and no scan for one
    terms = _world_terms(canonical_instance(start, circle, path_type), alphas, reduced=True)
    return SweepResult(path_type, n, alphas, *terms)


def grid_argmin(values: np.ndarray) -> int:
    """``np.nanargmin`` of values holding a non-NaN one, without its copy
    of the array and its NaN mask: the first index of the least value."""
    return int(np.argmax(values == np.nanmin(values)))


def refine_min(result: SweepResult, start: Configuration, circle: TargetCircle) -> RefinedMinimum:
    """Refine the best grid sample to 1e-10 rad.

    Each round samples the bracket, one cell either side of the best
    point, at REFINE_CELLS sub-cells on the scalar kernel, moves to the
    least finite value and shrinks the bracket to one sub-cell.  The old
    best is kept when no sample beats it, since rounding can put a
    re-sampled centre across a jump.  Jumps, kinks and feasibility
    boundaries need no special case.  Both kernels read an empty arc as 0
    (the vanished-arc rule), so the grid and the refinement agree on it.
    """
    if not bool(result.feasible.any()):
        raise InfeasiblePathError("every sweep sample is infeasible")
    k = grid_argmin(result.lengths)
    ci = canonical_instance(start, circle, result.path_type)

    def f(a: float) -> float:
        length = canonical_terms_scalar(ci, ci.from_world_alpha(normalize_angle(a)))[0]
        return math.inf if math.isnan(length) else length

    step = TWO_PI / result.n
    grid_alpha = float(result.alphas[k])
    best_alpha, best_length = grid_alpha, float(result.lengths[k])
    half = step
    while half > REFINE_TOL:
        cell = 2.0 * half / REFINE_CELLS
        lo = best_alpha - half
        for i in range(REFINE_CELLS + 1):
            a = lo + i * cell
            value = f(a)
            if value < best_length:
                best_alpha, best_length = a, value
        half = cell

    edge = max(f(grid_alpha - step), f(grid_alpha + step))
    flat = edge - best_length <= FLAT_TOL * circle.radius
    return RefinedMinimum(alpha=best_alpha % TWO_PI, length=best_length, flat=flat)
