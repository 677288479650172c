"""Extrema and discontinuities of the circle-goal length function.

The length of a fixed CSC type as a function of the arrival angle alpha
jumps by 2*pi*r wherever one of the arc angles wraps through zero modulo
2*pi.  Between jumps the function is smooth (counter-rotational) or
linear with slope r (co-rotational).

Each type is solved in its canonical frame, so a scene and its mirror
image share one computation, and every event is a canonical angle in
[0, 2*pi).  Wraps come from scanning the kernel's phi1 and phi2, folded
to (-pi, pi], on 4096 samples and bisecting each zero crossing on the
scalar kernel.  The other events are roots of ``p*cos(a) + q*sin(a) = k``:
the stationary points of the derivative ``r - 2*r*cos(phi2)``, the RSL
feasibility boundaries and the LSL cusp.  Each event is one candidate at
its exact angle, with the segment it zeros pinned to 0: the lower limit
of a jump, or a single arc where two degeneracies meet.  The least gets
its path from its own terms; world angles appear only in the report.

Under the 4r assumption (``assumption_check``) wraps of the first arc
come in pairs: the first arc wraps where the goal-side turn centre,
which runs on a radius-2r circle about the target centre, crosses the
ray from the first turn centre along the start heading; that ray starts
outside the circle, so it crosses it zero or two times. A co-rotational
instance then has exactly one discontinuity (a phi2-wrap) and a
counter-rotational instance one or three (a phi2-wrap plus zero or two
phi1-wraps with opposite-sign jumps). Nearer starts give other counts;
with the start at the origin heading along +x and r = 1, centre
(0.5, 1.0) gives LSL-cw a single phi1-wrap, and centre (-1.75, 1.75)
gives RSL-cw two discontinuities because one phi1-wrap falls where RSL
does not exist. Under the assumption stationary minima sit at
phi2 = pi/3 and maxima at 5*pi/3; nearer starts can also give a minimum
at 5*pi/3.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .circle_target import (
    CanonicalInstance,
    RotationalRelation,
    TargetCircle,
    assumption_check,
    canonical_instance,
    canonical_terms_scalar,
    final_config_at_alpha,
    lsl_terms,
    rotational_relation,
    rsl_terms,
)
from .errors import AtDiscontinuityError, InfeasiblePathError
from .geometry import Configuration, HALF_PI, TWO_PI, arc_angle, normalize_angle, wrap_to_pi
from .paths import DEGENERATE_CENTER_TOL, CscPath, PathType, assemble

SCAN_SAMPLES = 4096
BISECT_TOL = 1e-12
ROOT_MAX_ITER = 200
JUMP_PROBE = 1e-7
# a closed-form stationary root must reproduce its phi2 this closely
PHI2_TOL = 1e-6
TIE_REL_TOL = 1e-9
# analytic_derivative refuses angles this close to a discontinuity (rad)
DISCONTINUITY_TOL = 1e-9
# cells whose endpoints are this close to a wrap get a midpoint probe to
# catch crossing pairs that do not change the endpoint sign
NEAR_WRAP_GUARD = 0.05

CAUSE_PHI1 = "phi1-wrap"
CAUSE_PHI2 = "phi2-wrap"
CAUSE_CUSP = "cusp"

KIND_STATIONARY = "stationary"
KIND_DEGENERATE = "degenerate-cs"
KIND_DISCONTINUITY = "discontinuity"
KIND_BOUNDARY = "feasibility-boundary"
KIND_SINGLE_ARC = "single-arc"

_TYPE_ORDER = (PathType.LSL, PathType.RSL, PathType.RSR, PathType.LSR)


@dataclass(frozen=True)
class Extremum:
    alpha: float
    length: float
    phi2: float


@dataclass(frozen=True)
class Discontinuity:
    alpha: float
    jump: float  # signed left-to-right length change in world alpha order
    cause: str


@dataclass(frozen=True)
class GlobalMinimum:
    alpha: float
    length: float
    phi2: float
    kind: str
    path: CscPath


@dataclass(frozen=True)
class ExtremumReport:
    path_type: PathType
    relation: RotationalRelation
    minima: tuple[Extremum, ...]
    maxima: tuple[Extremum, ...]
    discontinuities: tuple[Discontinuity, ...]
    global_min: GlobalMinimum
    assumption_ok: bool
    tie: bool = False


@dataclass(frozen=True)
class SolveResult:
    path_type: PathType
    path: CscPath
    alpha: float
    length: float
    per_type: dict[PathType, ExtremumReport]
    assumption_ok: bool
    tie: bool


def _bisect(f: Callable[[float], float], lo: float, hi: float, flo: float, tol: float) -> float:
    for _ in range(ROOT_MAX_ITER):
        mid = 0.5 * (lo + hi)
        if hi - lo <= tol:
            return mid
        fm = f(mid)
        if math.isnan(fm):
            return mid
        if flo * fm <= 0.0:
            hi = mid
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi)


def _zero_crossings(f: Callable[[float], float], vals: np.ndarray, grid: np.ndarray) -> list[float]:
    """Angles where f, an arc angle folded to (-pi, pi], crosses zero.

    ``vals`` holds f on the cyclic grid.  Sign changes with both ends
    within pi/2 of zero are bisected (this excludes the harmless branch
    jump at +-pi); near-zero cells with equal end signs get a midpoint
    probe to catch crossing pairs inside one cell.  The cells are
    classified on the whole grid at once; only flagged ones are visited.
    """
    nxt = np.roll(vals, -1)
    near = (np.abs(vals) < NEAR_WRAP_GUARD) & (np.abs(nxt) < NEAR_WRAP_GUARD)
    flagged = (np.abs(vals) <= HALF_PI) & (np.abs(nxt) <= HALF_PI)
    flagged &= (vals == 0.0) | (vals * nxt < 0.0) | near
    step = grid[1] - grid[0]
    roots: list[float] = []
    for k in np.flatnonzero(flagged):
        a, b = float(grid[k]), float(grid[k] + step)
        fa, fb = float(vals[k]), float(nxt[k])
        if fa == 0.0:
            roots.append(a)
        elif fa * fb < 0.0:
            roots.append(_bisect(f, a, b, fa, BISECT_TOL))
        else:
            mid = 0.5 * (a + b)
            fm = f(mid)
            if not math.isnan(fm) and fa * fm < 0.0:
                roots.append(_bisect(f, a, mid, fa, BISECT_TOL))
                roots.append(_bisect(f, mid, b, fm, BISECT_TOL))
    return roots


def _canonical_discontinuities(ci: CanonicalInstance) -> list[tuple[float, str]]:
    """(canonical alpha, cause) for every arc-angle wrap, unsorted."""
    if not ci.cw:
        # co-rotational: phi1 is constant, phi2 wraps exactly once
        _, phi1, _, _, feasible = canonical_terms_scalar(ci, 0.0)
        if not feasible:
            raise InfeasiblePathError("inner-tangent type infeasible for every alpha")
        a0 = phi1 - HALF_PI if ci.kind is PathType.LSL else -phi1
        return [(a0 % TWO_PI, CAUSE_PHI2)]
    grid = np.arange(SCAN_SAMPLES) * (TWO_PI / SCAN_SAMPLES)
    terms = lsl_terms(ci, grid) if ci.kind is PathType.LSL else rsl_terms(ci, grid)
    found: list[tuple[float, str]] = []
    for i, cause in ((1, CAUSE_PHI1), (2, CAUSE_PHI2)):
        # a wrap is a zero crossing of the arc angle folded to (-pi, pi];
        # NaN from an infeasible sample passes through both folds
        def folded(x: float, i: int = i) -> float:
            return wrap_to_pi(canonical_terms_scalar(ci, x)[i])

        vals = np.where(terms[i] > math.pi, terms[i] - TWO_PI, terms[i])
        found += [(a % TWO_PI, cause) for a in _zero_crossings(folded, vals, grid)]
    return found


def _discontinuities(
    ci: CanonicalInstance, wraps: list[tuple[float, str]]
) -> tuple[Discontinuity, ...]:
    out = []
    for a, cause in wraps:
        after, before = (canonical_terms_scalar(ci, a + p)[0] for p in (JUMP_PROBE, -JUMP_PROBE))
        # the mirrored types' reduction reverses the world alpha order
        out.append(Discontinuity(ci.to_world_alpha(a), ci.alpha_sign * (after - before), cause))
    return tuple(sorted(out, key=lambda disc: disc.alpha))


def discontinuities(
    start: Configuration, circle: TargetCircle, path_type: PathType
) -> tuple[Discontinuity, ...]:
    """All discontinuities of the length function, sorted by world alpha.

    Each entry carries the signed length jump measured across the wrap in
    world-frame alpha order; its magnitude is 2*pi*r.
    """
    ci = canonical_instance(start, circle, path_type)
    return _discontinuities(ci, _canonical_discontinuities(ci))


def analytic_derivative(
    start: Configuration,
    circle: TargetCircle,
    path_type: PathType,
    alpha: float,
    *,
    known_discontinuities: Optional[tuple[Discontinuity, ...]] = None,
) -> float:
    """Derivative of the path length with respect to the arrival angle.

    Counter-rotational: ``r - 2*r*cos(phi2(alpha))`` up to orientation;
    co-rotational: the constant slope ``r`` up to orientation.  The sign
    is positive when the second arc turns counter-clockwise (LSL, RSL)
    and negative for RSR/LSR, whose reduction mirrors the angular
    coordinate.  Raises AtDiscontinuityError within ``DISCONTINUITY_TOL``
    of a detected discontinuity.
    """
    ci = canonical_instance(start, circle, path_type)
    if known_discontinuities is None:
        known_discontinuities = _discontinuities(ci, _canonical_discontinuities(ci))
    a = normalize_angle(alpha)
    for disc in known_discontinuities:
        gap = abs(wrap_to_pi(a - disc.alpha))
        if gap <= DISCONTINUITY_TOL:
            raise AtDiscontinuityError(
                f"length derivative undefined at alpha={alpha!r} "
                f"(discontinuity at {disc.alpha!r})"
            )
    r = circle.radius
    if rotational_relation(path_type, circle.direction) is RotationalRelation.CO_ROTATIONAL:
        return ci.alpha_sign * r
    _, _, phi2, _, feasible = canonical_terms_scalar(ci, ci.to_canonical_alpha(a))
    if not feasible:
        raise InfeasiblePathError(f"path type infeasible at alpha={alpha!r}")
    return ci.alpha_sign * (r - 2.0 * r * math.cos(phi2))


# ---------------------------------------------------------------------------
# per-type extremum search
# ---------------------------------------------------------------------------


def _cos_sin_roots(p: float, q: float, k: float) -> tuple[float, ...]:
    """Canonical angles a in [0, 2*pi) with p*cos(a) + q*sin(a) = k; none
    past tangency."""
    rho = math.hypot(p, q)
    if rho == 0.0 or abs(k) > rho:
        return ()
    beta = math.atan2(q, p)
    half = math.acos(k / rho)
    return ((beta - half) % TWO_PI, (beta + half) % TWO_PI)


def _centre_offset(ci: CanonicalInstance) -> tuple[float, float, float]:
    """(V0x, V0y, s): the turn-centre vector is V(a) = V0 + 2r*(cos a, sin a),
    and a straight segment at heading h is tangent to both turn circles where
    n(h).V(a) = s, n(h) being the left normal."""
    r = ci.r
    if ci.kind is PathType.LSL:
        return ci.c, ci.d - r, 0.0
    return ci.c - r, ci.d, 2.0 * r


def _stationary_points(ci: CanonicalInstance, wraps: list[float]) -> list[tuple[float, bool]]:
    """(canonical alpha, is_minimum) where the straight line meets the centre.

    There phi2 is pi/3 or 5*pi/3 and the straight heading h = a + delta,
    delta = -pi/2 - phi2, so tangency n(h).V(a) = s is linear in cos a and
    sin a.  A root counts when the kernel confirms its phi2 and the
    derivative changes sign across it; that sign, not phi2, tells a minimum
    from a maximum.  Roots on a wrap are left to its pinned path.
    """
    vx, vy, s = _centre_offset(ci)
    r = ci.r

    def deriv(a: float) -> float:
        return r - 2.0 * r * math.cos(canonical_terms_scalar(ci, a)[2])

    out = []
    for phi in (math.pi / 3.0, 5.0 * math.pi / 3.0):
        sd, cd = math.sin(-HALF_PI - phi), math.cos(-HALF_PI - phi)
        for a in _cos_sin_roots(vy * cd - vx * sd, -vx * cd - vy * sd, s + 2.0 * r * sd):
            if any(abs(wrap_to_pi(a - w)) <= JUMP_PROBE for w in wraps):
                continue
            if not abs(canonical_terms_scalar(ci, a)[2] - phi) <= PHI2_TOL:
                continue
            before, after = deriv(a - JUMP_PROBE), deriv(a + JUMP_PROBE)
            if before * after < 0.0:
                out.append((a, before < 0.0))
    return out


def _feasibility_events(ci: CanonicalInstance) -> list[tuple[float, str]]:
    """(canonical alpha, cause) of RSL's feasibility boundaries |V(a)| = 2r,
    or of LSL's cusp V(a) = 0 when |V0| = 2r: a 2*pi*r jump where both arc
    angles jump by pi instead of wrapping, so the wrap scan does not report
    it."""
    vx, vy, _ = _centre_offset(ci)
    if ci.kind is PathType.RSL:
        roots = _cos_sin_roots(vx, vy, -(vx * vx + vy * vy) / (4.0 * ci.r))
        return [(a, KIND_BOUNDARY) for a in roots]
    if abs(math.hypot(vx, vy) - 2.0 * ci.r) <= DEGENERATE_CENTER_TOL * ci.r:
        return [(math.atan2(-vy, -vx) % TWO_PI, CAUSE_CUSP)]
    return []


def _pinned_terms(ci: CanonicalInstance, a: float, cause: str):
    """Kernel terms at event angle a, with the segment ``cause`` zeros pinned to 0."""
    _, phi1, phi2, ls, feasible = canonical_terms_scalar(ci, a)
    if cause == CAUSE_PHI1:
        phi1 = 0.0
    elif cause == CAUSE_PHI2:
        phi2 = 0.0
    elif cause == KIND_BOUNDARY:
        # ls is rounding noise here; the tangent turns by atan2(ls, 2r) to ls = 0
        turn = math.atan2(ls, 2.0 * ci.r)
        phi1, phi2, ls = arc_angle(phi1 + turn), arc_angle(phi2 + turn), 0.0
    elif cause == CAUSE_CUSP:  # coincident turn circles: the two arcs are one
        phi1, phi2, ls = 0.0, arc_angle(phi1 + phi2), 0.0
    return ls + ci.r * (phi1 + phi2), phi1, phi2, ls, feasible


def _global_minimum(
    start: Configuration,
    circle: TargetCircle,
    path_type: PathType,
    alpha: float,
    terms: tuple,
    kind: str,
) -> GlobalMinimum:
    """Assemble the path from its terms at world alpha; report that alpha."""
    _, phi1, phi2, ls, _ = terms
    goal = final_config_at_alpha(circle, alpha)
    path = assemble(path_type, start, goal, circle.radius, phi1, ls, phi2)
    if ls == 0.0 and 0.0 in (phi1, phi2):
        kind = KIND_SINGLE_ARC
    return GlobalMinimum(alpha=alpha, length=path.total_length, phi2=phi2, kind=kind, path=path)


def shortest_for_type(
    start: Configuration,
    circle: TargetCircle,
    path_type: PathType,
) -> ExtremumReport:
    """Extrema, discontinuities, and the global minimum for one CSC type.

    Co-rotational types get the degenerate-CS minimum at the angle where
    the final arc vanishes.  Counter-rotational types take the least of
    their stationary minima and the pinned paths (``_pinned_terms``) at
    every wrap, feasibility boundary and cusp.  Every candidate is a
    canonical angle evaluated once on the scalar kernel, whose terms give
    the winner its path.
    """
    relation = rotational_relation(path_type, circle.direction)
    ci = canonical_instance(start, circle, path_type)
    wraps = _canonical_discontinuities(ci)
    minima: list[Extremum] = []
    maxima: list[Extremum] = []

    candidates: list[tuple[tuple, float, str]] = []  # (terms, canonical alpha, kind)
    if relation is RotationalRelation.CO_ROTATIONAL:
        a = wraps[0][0]  # the final arc vanishes at its only wrap
        length, _, phi2, _, _ = terms = _pinned_terms(ci, a, CAUSE_PHI2)
        minima.append(Extremum(ci.to_world_alpha(a), length, phi2))
        candidates.append((terms, a, KIND_DEGENERATE))
    else:
        for a, is_min in _stationary_points(ci, [a for a, _ in wraps]):
            length, _, phi2, _, _ = terms = canonical_terms_scalar(ci, a)
            (minima if is_min else maxima).append(Extremum(ci.to_world_alpha(a), length, phi2))
            if is_min:
                candidates.append((terms, a, KIND_STATIONARY))
        for a, cause in wraps + _feasibility_events(ci):
            terms = _pinned_terms(ci, a, cause)
            if terms[4]:
                kind = KIND_BOUNDARY if cause == KIND_BOUNDARY else KIND_DISCONTINUITY
                candidates.append((terms, a, kind))
    if not candidates:
        raise InfeasiblePathError(
            f"{path_type.value} has no feasible arrival angle for this instance"
        )
    terms, a, kind = min(candidates, key=lambda cand: cand[0][0])
    global_min = _global_minimum(start, circle, path_type, ci.to_world_alpha(a), terms, kind)

    minima.sort(key=lambda e: e.alpha)
    maxima.sort(key=lambda e: e.alpha)
    return ExtremumReport(
        path_type=path_type,
        relation=relation,
        minima=tuple(minima),
        maxima=tuple(maxima),
        discontinuities=_discontinuities(ci, wraps),
        global_min=global_min,
        assumption_ok=assumption_check(start, circle),
    )


def shortest_to_circle(start: Configuration, circle: TargetCircle) -> SolveResult:
    """Shortest CSC path over all four types.

    Ties within 1e-9*r resolve to the first type in the fixed order LSL,
    RSL, RSR, LSR; tied reports carry ``tie=True``.  Types with no
    feasible arrival angle (possible only when the 4r assumption fails)
    are left out of ``per_type``.
    """
    reports = {}
    for pt in _TYPE_ORDER:
        try:
            reports[pt] = shortest_for_type(start, circle, pt)
        except InfeasiblePathError:
            continue
    if not reports:
        raise InfeasiblePathError("no CSC type reaches the circle tangentially")
    best_length = min(rep.global_min.length for rep in reports.values())
    tol = TIE_REL_TOL * circle.radius
    tied = [
        pt
        for pt in _TYPE_ORDER
        if pt in reports and reports[pt].global_min.length <= best_length + tol
    ]
    chosen = tied[0]
    if len(tied) > 1:
        for pt in tied:
            reports[pt] = dataclasses.replace(reports[pt], tie=True)
    winner = reports[chosen].global_min
    return SolveResult(
        path_type=chosen,
        path=winner.path,
        alpha=winner.alpha,
        length=winner.length,
        per_type=reports,
        assumption_ok=reports[chosen].assumption_ok,
        tie=len(tied) > 1,
    )
