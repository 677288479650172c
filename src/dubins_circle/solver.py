"""Extrema and discontinuities of the circle-goal length function.

The length of a fixed CSC type as a function of the arrival angle alpha
jumps by 2*pi*r wherever one of the arc angles wraps through zero modulo
2*pi.  Between jumps the function is smooth (counter-rotational) or
linear with slope r (co-rotational).

Each type is solved in its canonical frame, so a scene and its mirror
image share one computation.  ``_events`` lists every event of a type
once, as (canonical angle in [0, 2*pi), cause): stationary minima and
maxima, wraps, feasibility boundaries and the LSL cusp.  Every event but
the cusp is a root of a row ``p*cos(a) + q*sin(a) = k`` of the family's
table (``_event_rows``); a scan of the kernel's phi1 and phi2, folded to
(-pi, pi], on 4096 samples only decides which row roots are wraps.  Where
the phi1 row is tangent, phi1 touches 0 without wrapping: the touch
point is a candidate and no discontinuity.  Each event is evaluated once
at its exact angle, with the segment it zeros pinned to 0; the extrema,
the candidates and ``discontinuities()`` are filters over the one list.
The least candidate gets its path from its own terms.

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
from typing import Optional

import numpy as np

from .circle_target import (
    CanonicalInstance,
    RotationalRelation,
    TargetCircle,
    assumption_check,
    canonical_instance,
    canonical_terms,
    canonical_terms_scalar,
    final_config_at_alpha,
    rotational_relation,
)
from .errors import AtDiscontinuityError, InfeasiblePathError
from .geometry import Configuration, HALF_PI, TWO_PI, arc_angle, normalize_angle, wrap_to_pi
from .paths import DEGENERATE_CENTER_TOL, CscPath, PathType, assemble

SCAN_SAMPLES = 4096
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
# the phi2 of a stationary point, where the straight line meets the centre
_STATIONARY_PHI2 = (math.pi / 3.0, 5.0 * math.pi / 3.0)

KIND_STATIONARY = "stationary"
KIND_DEGENERATE = "degenerate-cs"
KIND_DISCONTINUITY = "discontinuity"
KIND_BOUNDARY = "feasibility-boundary"
KIND_SINGLE_ARC = "single-arc"
# the cause of a stationary maximum, which is no candidate, and of the
# point where phi1 touches 0 without wrapping
_MAXIMUM = "maximum"
_CAUSE_TOUCH = "phi1-touch"
# the kind of a counter-rotational event's candidate, where it is not its cause
_KINDS = {CAUSE_PHI1: KIND_DISCONTINUITY, CAUSE_PHI2: KIND_DISCONTINUITY,
          CAUSE_CUSP: KIND_DISCONTINUITY, _CAUSE_TOUCH: KIND_DISCONTINUITY}

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


def _zero_crossings(f, vals: np.ndarray, grid: np.ndarray) -> list[tuple[float, float]]:
    """Brackets (lo, hi) of the zero crossings of f, an arc angle folded to
    (-pi, pi].

    ``vals`` holds f on the cyclic grid.  A sign change with both ends
    within pi/2 of zero brackets its cell (this excludes the harmless
    branch jump at +-pi), and an exact zero its own grid angle; near-zero
    cells with equal end signs get a midpoint probe, and a crossing pair
    inside one cell brackets its two half-cells.  The cells are classified
    on the whole grid at once; only flagged ones are visited.
    """
    nxt = np.roll(vals, -1)
    near = (np.abs(vals) < NEAR_WRAP_GUARD) & (np.abs(nxt) < NEAR_WRAP_GUARD)
    flagged = (np.abs(vals) <= HALF_PI) & (np.abs(nxt) <= HALF_PI)
    flagged &= (vals == 0.0) | (vals * nxt < 0.0) | near
    step = grid[1] - grid[0]
    brackets: list[tuple[float, float]] = []
    for k in np.flatnonzero(flagged):
        a, b = float(grid[k]), float(grid[k] + step)
        fa, fb = float(vals[k]), float(nxt[k])
        if fa == 0.0:
            brackets.append((a, a))
        elif fa * fb < 0.0:
            brackets.append((a, b))
        else:
            mid = 0.5 * (a + b)
            fm = f(mid)
            if not math.isnan(fm) and fa * fm < 0.0:
                brackets += [(a, mid), (mid, b)]
    return brackets


def _scanned_wraps(ci: CanonicalInstance, roots: dict) -> list[tuple[float, str]]:
    """(canonical alpha, cause) for every arc-angle wrap of a
    counter-rotational family, phi1's first.

    ``roots`` holds the roots of each row of ``_event_rows`` and the LSL
    cusp's angle.  Each wrap is the root of its row nearest to a zero
    crossing of the scanned arc angle, within one scan cell; a crossing
    with no root that near is dropped.
    """
    cell = TWO_PI / SCAN_SAMPLES
    grid = np.arange(SCAN_SAMPLES) * cell
    terms = canonical_terms(ci, grid)
    found: list[tuple[float, str]] = []
    for i, cause in ((1, CAUSE_PHI1), (2, CAUSE_PHI2)):
        # a wrap is a zero crossing of the arc angle folded to (-pi, pi];
        # NaN from an infeasible sample passes through both folds
        def folded(x: float, i: int = i) -> float:
            return wrap_to_pi(canonical_terms_scalar(ci, x)[i])

        vals = np.where(terms[i] > math.pi, terms[i] - TWO_PI, terms[i])
        for lo, hi in _zero_crossings(folded, vals, grid):
            mid = 0.5 * (lo + hi)
            gap, a = min(((abs(wrap_to_pi(w - mid)), w) for w in roots[cause]),
                         default=(math.inf, None))
            if gap <= cell:
                found.append((a % TWO_PI, cause))
    # both arc angles jump by pi at the cusp, and the scan can read that as
    # a wrap that no path attains; the cusp event evaluates this angle itself
    cusps = roots[CAUSE_CUSP]
    return [(a, c) for a, c in found if all(abs(wrap_to_pi(a - w)) > JUMP_PROBE for w in cusps)]


def _discontinuities(ci: CanonicalInstance, events: list) -> tuple[Discontinuity, ...]:
    """The wraps among ``_events(ci)``, with their jumps, by world alpha."""
    out = []
    for a, cause in events:
        if cause not in (CAUSE_PHI1, CAUSE_PHI2):
            continue
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
    return _discontinuities(ci, _events(ci))


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
        known_discontinuities = discontinuities(start, circle, path_type)
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
    _, _, phi2, _, feasible = canonical_terms_scalar(ci, ci.from_world_alpha(a))
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


def _event_rows(ci: CanonicalInstance) -> list[tuple[object, float, float, float]]:
    """(cause, p, q, k) rows: every event of a counter-rotational family but
    the LSL cusp is a root of ``p*cos(a) + q*sin(a) = k``.

    The phi1-wrap row is the line that phi1 = 0 pins V(a) to: V_y = 0 for
    LSL, V_x = -2r for RSL.  Tangency n(h).V(a) = s at the heading
    h = a - pi/2 - phi2 is the phi2-wrap row at phi2 = 0, and a stationary
    row (its cause is its phi2, from ``_STATIONARY_PHI2``) at pi/3 or
    5*pi/3.  RSL's feasibility boundary is |V(a)| = 2r.  A wrap row holds
    a whole line, and the scan decides which of its roots are wraps.
    """
    vx, vy, s = _centre_offset(ci)
    r = ci.r
    rows = [(CAUSE_PHI2, vx, vy, s - 2.0 * r)]
    if ci.kind is PathType.LSL:
        rows.append((CAUSE_PHI1, 0.0, 2.0 * r, r - ci.d))
    else:
        rows.append((CAUSE_PHI1, 2.0 * r, 0.0, -r - ci.c))
        rows.append((KIND_BOUNDARY, vx, vy, -(vx * vx + vy * vy) / (4.0 * r)))
    for phi in _STATIONARY_PHI2:
        sd, cd = math.sin(-HALF_PI - phi), math.cos(-HALF_PI - phi)
        rows.append((phi, vy * cd - vx * sd, -vx * cd - vy * sd, s + 2.0 * r * sd))
    return rows


def _events(ci: CanonicalInstance) -> list[tuple[float, object]]:
    """(canonical alpha, cause) for every event of the family, in candidate
    order: stationary minima (``KIND_STATIONARY``) and maxima, the phi1
    touch point, wraps, feasibility boundaries and the LSL cusp.

    A co-rotational family has one event, the phi2-wrap where its final arc
    vanishes, and raises InfeasiblePathError when it exists nowhere.  A
    counter-rotational family solves each row of ``_event_rows`` once.  A
    stationary root counts when the kernel confirms its phi2 and the
    derivative changes sign across it; that sign, not phi2, tells a minimum
    from a maximum.  Roots on a wrap are left to its pinned path.
    """
    if not ci.cw:
        # co-rotational: phi1 is constant, phi2 wraps exactly once
        _, phi1, _, _, feasible = canonical_terms_scalar(ci, 0.0)
        if not feasible:
            raise InfeasiblePathError("inner-tangent type infeasible for every alpha")
        a0 = phi1 - HALF_PI if ci.kind is PathType.LSL else -phi1
        return [(a0 % TWO_PI, CAUSE_PHI2)]
    r = ci.r
    vx, vy, _ = _centre_offset(ci)
    lsl = ci.kind is PathType.LSL
    roots = {_CAUSE_TOUCH: (), CAUSE_CUSP: ()}
    # LSL's cusp V(a) = 0, where |V0| = 2r within the constructors' co-location tolerance
    if lsl and abs(math.hypot(vx, vy) - 2.0 * r) <= DEGENERATE_CENTER_TOL * r:
        roots[CAUSE_CUSP] = (math.atan2(-vy, -vx) % TWO_PI,)
    for cause, p, q, k in _event_rows(ci):
        rho = math.hypot(p, q)
        if cause == CAUSE_PHI1 and rho <= abs(k) <= rho + DEGENERATE_CENTER_TOL * r:
            # V(a) touches the phi1 line, so phi1 touches 0 without wrapping;
            # a path exists there when V is on the start ray's side
            a = math.atan2(q * k, p * k) % TWO_PI
            side = vx + 2.0 * r * math.cos(a) if lsl else vy + 2.0 * r * math.sin(a)
            roots[cause], roots[_CAUSE_TOUCH] = (), (a,) if side > 0.0 else ()
        else:
            roots[cause] = _cos_sin_roots(p, q, k)
    # the touch point pins phi1 = 0 like a wrap
    wraps = [(a, _CAUSE_TOUCH) for a in roots[_CAUSE_TOUCH]] + _scanned_wraps(ci, roots)

    def deriv(a: float) -> float:
        return r - 2.0 * r * math.cos(canonical_terms_scalar(ci, a)[2])

    stationary = []
    for phi in _STATIONARY_PHI2:
        for a in roots[phi]:
            if any(abs(wrap_to_pi(a - w)) <= JUMP_PROBE for w, _ in wraps):
                continue
            if not abs(canonical_terms_scalar(ci, a)[2] - phi) <= PHI2_TOL:
                continue
            before, after = deriv(a - JUMP_PROBE), deriv(a + JUMP_PROBE)
            if before * after < 0.0:
                stationary.append((a, KIND_STATIONARY if before < 0.0 else _MAXIMUM))
    # RSL's feasibility boundaries, and LSL's cusp: a 2*pi*r jump where
    # both arc angles jump by pi instead of wrapping
    others = [(a, c) for c in (KIND_BOUNDARY, CAUSE_CUSP) for a in roots.get(c, ())]
    return stationary + wraps + others


def _pinned_terms(ci: CanonicalInstance, a: float, cause: str):
    """Kernel terms at event angle a, with the segment ``cause`` zeros pinned to 0."""
    terms = canonical_terms_scalar(ci, a)
    _, phi1, phi2, ls, feasible = terms
    if cause in (CAUSE_PHI1, _CAUSE_TOUCH):
        # the kernel's phi2 holds its own phi1, which is rounding near the
        # LSL cusp; phi2 + phi1 (LSL) or phi2 - phi1 (RSL) is free of it
        phi2 = arc_angle(phi2 + phi1 if ci.kind is PathType.LSL else phi2 - phi1)
        phi1 = 0.0
    elif cause == CAUSE_PHI2:
        phi2 = 0.0
    elif cause == KIND_BOUNDARY:
        # ls is rounding noise here; the tangent turns by atan2(ls, 2r) to ls = 0
        turn = math.atan2(ls, 2.0 * ci.r)
        phi1, phi2, ls = arc_angle(phi1 + turn), arc_angle(phi2 + turn), 0.0
    elif cause == CAUSE_CUSP:  # coincident turn circles: the two arcs are one
        phi1, phi2, ls = 0.0, arc_angle(phi1 + phi2), 0.0
    else:  # a stationary point pins nothing
        return terms
    return ls + ci.r * (phi1 + phi2), phi1, phi2, ls, feasible


def shortest_for_type(
    start: Configuration,
    circle: TargetCircle,
    path_type: PathType,
) -> ExtremumReport:
    """Extrema, discontinuities, and the global minimum for one CSC type.

    Every event of ``_events`` is evaluated once on the scalar kernel, with
    the segment it zeros pinned (``_pinned_terms``).  A co-rotational
    type's one event is its degenerate-CS minimum; a counter-rotational
    type's candidates are its stationary minima and every feasible touch
    point, wrap, feasibility boundary and cusp.  The least candidate's
    terms give the winner its path.
    """
    ci = canonical_instance(start, circle, path_type)
    events = _events(ci)
    minima: list[Extremum] = []
    maxima: list[Extremum] = []
    candidates: list[tuple[tuple, float, str]] = []  # (terms, canonical alpha, kind)
    for a, cause in events:
        length, _, phi2, _, feasible = terms = _pinned_terms(ci, a, cause)
        kind = _KINDS.get(cause, cause) if ci.cw else KIND_DEGENERATE
        if kind in (KIND_STATIONARY, KIND_DEGENERATE, _MAXIMUM):
            extremum = Extremum(ci.to_world_alpha(a), length, phi2)
            (maxima if kind == _MAXIMUM else minima).append(extremum)
        if kind != _MAXIMUM and feasible:
            candidates.append((terms, a, kind))
    if not candidates:
        raise InfeasiblePathError(
            f"{path_type.value} has no feasible arrival angle for this instance"
        )
    (_, phi1, phi2, ls, _), a, kind = min(candidates, key=lambda cand: cand[0][0])
    alpha = ci.to_world_alpha(a)
    path = assemble(
        path_type, start, final_config_at_alpha(circle, alpha), circle.radius, phi1, ls, phi2
    )
    if ls == 0.0 and 0.0 in (phi1, phi2):
        kind = KIND_SINGLE_ARC
    minima.sort(key=lambda e: e.alpha)
    maxima.sort(key=lambda e: e.alpha)
    return ExtremumReport(
        path_type=path_type,
        relation=rotational_relation(path_type, circle.direction),
        minima=tuple(minima),
        maxima=tuple(maxima),
        discontinuities=_discontinuities(ci, events),
        global_min=GlobalMinimum(alpha, path.total_length, phi2, kind, path),
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
