"""Brute-force sweep of the circle-goal length function.

Ground truth for extremum, derivative, and discontinuity claims: evaluate
the length on a uniform angle grid, then refine the best sample with a
jump-aware golden-section search.  The sweep never consults the solver's
wrap analysis; jumps are recognized purely from length differences, which
keeps the two routes independent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circle_target import TargetCircle, closed_form_length, closed_form_table
from .errors import InfeasiblePathError
from .geometry import Configuration, TWO_PI
from .paths import PathType

GOLDEN_INV = (math.sqrt(5.0) - 1.0) / 2.0
REFINE_TOL = 1e-10
FLAT_TOL = 1e-9
JUMP_SIDE = 1e-9
# |dL/dalpha| never exceeds 3r on smooth pieces; intervals violating this
# bound (with margin) contain a 2*pi*r jump
MAX_SLOPE_FACTOR = 3.0


@dataclass(frozen=True)
class SweepResult:
    path_type: PathType
    direction: str
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


def sweep(
    start: Configuration, circle: TargetCircle, path_type: PathType, n: int = 4096
) -> SweepResult:
    """Evaluate the length of one CSC type at alpha_k = 2*pi*k/n, k < n."""
    if n < 16:
        raise ValueError(f"sweep needs n >= 16, got {n}")
    alphas = np.arange(n) * (TWO_PI / n)
    table = closed_form_table(start, circle, path_type, alphas)
    return SweepResult(
        path_type=path_type,
        direction=circle.direction.value,
        n=n,
        alphas=alphas,
        lengths=table["length"],
        phi1=table["phi1"],
        phi2=table["phi2"],
        ls=table["ls"],
        feasible=table["feasible"],
    )


def _contains_jump(la: float, lb: float, width: float, r: float) -> bool:
    return abs(lb - la) > MAX_SLOPE_FACTOR * r * width + r


def _locate_jump(f, lo: float, hi: float, r: float, iters: int = 80) -> float:
    """Binary search for the jump inside [lo, hi] using only length values."""
    flo, fhi = f(lo), f(hi)
    for _ in range(iters):
        if hi - lo <= REFINE_TOL:
            break
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if math.isinf(fm):
            break
        if _contains_jump(flo, fm, mid - lo, r):
            hi, fhi = mid, fm
        elif _contains_jump(fm, fhi, hi - mid, r):
            lo, flo = mid, fm
        else:
            break
    return 0.5 * (lo + hi)


def _golden_min(f, lo: float, hi: float) -> tuple[float, float]:
    """Golden-section minimum; tolerates kinks but not jumps."""
    c = hi - GOLDEN_INV * (hi - lo)
    d = lo + GOLDEN_INV * (hi - lo)
    fc, fd = f(c), f(d)
    while hi - lo > REFINE_TOL:
        if fc < fd:
            hi, d, fd = d, c, fc
            c = hi - GOLDEN_INV * (hi - lo)
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + GOLDEN_INV * (hi - lo)
            fd = f(d)
    mid = 0.5 * (lo + hi)
    return mid, f(mid)


def refine_min(result: SweepResult, start: Configuration, circle: TargetCircle) -> RefinedMinimum:
    """Refine the best grid sample to 1e-10 rad.

    The bracket around the best sample is split at any length jump it
    contains before golden-section search; one-sided values next to the
    jump join the candidate set, so sawtooth minima are found exactly.
    """
    lengths = result.lengths
    if not bool(result.feasible.any()):
        raise InfeasiblePathError("every sweep sample is infeasible")
    k = int(np.nanargmin(lengths))
    r = circle.radius
    step = TWO_PI / result.n
    lo = result.alphas[k] - step
    hi = result.alphas[k] + step

    def f(a: float) -> float:
        length = closed_form_length(start, circle, result.path_type, a)
        return math.inf if math.isnan(length) else length

    candidates: list[tuple[float, float]] = [(float(lengths[k]), float(result.alphas[k]))]
    flo, fhi = f(lo), f(hi)
    segments = []
    if math.isinf(flo) or math.isinf(fhi) or not _contains_jump(flo, fhi, hi - lo, r):
        segments.append((lo, hi))
    else:
        a_jump = _locate_jump(f, lo, hi, r)
        segments.append((lo, a_jump - JUMP_SIDE))
        segments.append((a_jump + JUMP_SIDE, hi))
        for side in (a_jump - JUMP_SIDE, a_jump + JUMP_SIDE):
            value = f(side)
            if not math.isinf(value):
                candidates.append((value, a_jump))
    for seg_lo, seg_hi in segments:
        if seg_hi - seg_lo <= REFINE_TOL:
            continue
        alpha, value = _golden_min(f, seg_lo, seg_hi)
        if not math.isinf(value):
            candidates.append((value, alpha))

    best_length, best_alpha = min(candidates)
    flat = max(flo, fhi) - best_length <= FLAT_TOL * r
    return RefinedMinimum(alpha=best_alpha % TWO_PI, length=best_length, flat=flat)
