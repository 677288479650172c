"""Parametrization of CSC path length over the target-circle angle.

The arrival point is ``center + r*(cos(alpha), sin(alpha))`` with heading
tangential to the circle: ``alpha - pi/2`` for clockwise arrival and
``alpha + pi/2`` for counter-clockwise arrival.

Every (path type, arrival direction) pair reduces to one of two canonical
families by mirroring RSR/LSR onto LSL/RSL and moving the start pose to
the origin.  Whether the second arc of the path turns with or against the
target circle decides the whole shape of the length function:

* co-rotational: the goal-side turn circle coincides with the target, the
  first arc and straight segment are constant, and the length is a
  sawtooth of slope r with its minimum at the degenerate CS path.
* counter-rotational: the length is piecewise smooth with derivative
  ``r - 2*r*cos(phi2)``; stationary extrema sit at phi2 = pi/3 or
  5*pi/3, where the straight segment's line passes through the circle
  center.  Under the 4r assumption (``assumption_check``) the pi/3
  points are minima and the 5*pi/3 points maxima; nearer starts can
  also give a minimum at 5*pi/3.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DegenerateDirectionError
from .geometry import (
    ARC_TOP,
    Configuration,
    FrameTransform,
    HALF_PI,
    TWO_PI,
    arc_angle,
    mirror_transform,
    normalize_angle,
    to_canonical,
)
from .paths import INNER_TANGENT_REL_TOL, CscPath, PathType, csc_between


class RotationDirection(enum.Enum):
    CW = "cw"
    CCW = "ccw"

    @property
    def opposite(self) -> "RotationDirection":
        return RotationDirection.CCW if self is RotationDirection.CW else RotationDirection.CW

    @property
    def heading_offset(self) -> float:
        """Offset from the circle angle alpha to the tangential heading."""
        return -HALF_PI if self is RotationDirection.CW else HALF_PI


class RotationalRelation(enum.Enum):
    CO_ROTATIONAL = "co-rotational"
    COUNTER_ROTATIONAL = "counter-rotational"


@dataclass(frozen=True)
class TargetCircle:
    """Target circle with a prescribed tangent rotation direction.

    The radius doubles as the vehicle turn radius; the two are equal by
    construction in this library.
    """

    center: tuple[float, float]
    radius: float
    direction: RotationDirection

    def __post_init__(self):
        if isinstance(self.direction, str):
            object.__setattr__(self, "direction", RotationDirection(self.direction))
        cx, cy = self.center
        if not (math.isfinite(cx) and math.isfinite(cy)):
            raise ValueError(f"circle center must be finite, got {self.center!r}")
        if not (self.radius > 0.0 and math.isfinite(self.radius)):
            raise ValueError(f"circle radius must be positive, got {self.radius!r}")


def rotational_relation(path_type: PathType, direction: RotationDirection) -> RotationalRelation:
    """Whether the path's second arc turns with or against the target circle."""
    second_ccw = path_type.second_turn == "L"
    same = second_ccw == (direction is RotationDirection.CCW)
    return RotationalRelation.CO_ROTATIONAL if same else RotationalRelation.COUNTER_ROTATIONAL


def final_config_at_alpha(circle: TargetCircle, alpha: float) -> Configuration:
    """Pose on the circle at angle alpha, heading tangential in circle.direction.

    The angle is reduced to [0, 2*pi) first, so evaluations 2*pi apart
    coincide whenever their reductions do.
    """
    alpha = normalize_angle(alpha)
    cx, cy = circle.center
    r = circle.radius
    return Configuration(
        cx + r * math.cos(alpha),
        cy + r * math.sin(alpha),
        normalize_angle(alpha + circle.direction.heading_offset),
    )


def assumption_check(start: Configuration, circle: TargetCircle) -> bool:
    """True when the nearest circle point is farther than 4r from the start.

    This guarantees all four CSC types exist for every arrival angle and
    that the shortest Dubins path is among them.
    """
    cx, cy = circle.center
    dist = math.hypot(start.x - cx, start.y - cy)
    return dist - circle.radius > 4.0 * circle.radius


class AlphaEvaluation(NamedTuple):
    length: float
    path: CscPath


def length_at_alpha(
    start: Configuration, circle: TargetCircle, path_type: PathType, alpha: float
) -> AlphaEvaluation:
    """Length and path of the given type arriving at circle angle ``alpha``.

    Built through the general pose-to-pose constructor; the specialized
    closed-form route (``closed_form_length``) must agree with it.
    Raises InfeasiblePathError when the type does not exist at ``alpha``.
    """
    goal = final_config_at_alpha(circle, alpha)
    path = csc_between(start, goal, circle.radius, path_type)
    return AlphaEvaluation(path.total_length, path)


def perpendicular_distance_to_center(path: CscPath, circle: TargetCircle) -> float:
    """Unsigned distance from the circle center to the straight segment's line.

    For counter-rotational paths this equals |r - 2*r*cos(phi2)|, the
    absolute length derivative.  Undefined (raises) when the straight
    segment has zero length.
    """
    if path.ls <= 0.0:
        raise DegenerateDirectionError(
            "straight segment has zero length; its line is undefined"
        )
    (x1, y1), (x2, y2) = path.straight_start, path.straight_end
    cx, cy = circle.center
    ux, uy = x2 - x1, y2 - y1
    return abs(ux * (cy - y1) - uy * (cx - x1)) / math.hypot(ux, uy)


# ---------------------------------------------------------------------------
# canonical reduction and the specialized closed-form length formulas
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CanonicalInstance:
    """A (start, circle, path type) problem reduced to a canonical family.

    ``kind`` is LSL or RSL; RSR/LSR instances arrive here mirrored.  In
    the canonical frame the start pose is (0, 0, 0) for LSL and
    (0, 0, pi/2) for RSL, and the circle center is (c, d).  ``cw`` is the
    tangent direction seen in the canonical frame; cw means the family is
    counter-rotational.  Circle angles map by
    ``alpha_canonical = alpha_sign * alpha_world + alpha_offset``.
    """

    kind: PathType
    cw: bool
    c: float
    d: float
    r: float
    alpha_sign: float
    alpha_offset: float

    def to_canonical_alpha(self, alpha_world):
        return self.alpha_sign * alpha_world + self.alpha_offset

    def to_world_alpha(self, alpha_canonical: float) -> float:
        return normalize_angle((alpha_canonical - self.alpha_offset) * self.alpha_sign)


def canonical_instance(
    start: Configuration, circle: TargetCircle, path_type: PathType
) -> CanonicalInstance:
    center = circle.center
    direction = circle.direction
    mirrored = path_type in (PathType.RSR, PathType.LSR)
    if mirrored:
        tm = mirror_transform(start)
        center = tm.apply_point(*center)
        direction = direction.opposite
        kind = PathType.LSL if path_type is PathType.RSR else PathType.RSL
    else:
        kind = path_type
    target_heading = 0.0 if kind is PathType.LSL else HALF_PI
    t = to_canonical(start, target_heading)
    c, d = t.apply_point(*center)
    if mirrored:
        sign, offset = -1.0, 2.0 * start.theta + t.rotation
    else:
        sign, offset = 1.0, t.rotation
    return CanonicalInstance(
        kind=kind,
        cw=direction is RotationDirection.CW,
        c=c,
        d=d,
        r=circle.radius,
        alpha_sign=sign,
        alpha_offset=offset,
    )


def _fold_two_pi(x, scratch=None):
    """``np.mod(x, 2*pi)``, then the vanished-arc guard, in place, for x in
    (-2*pi, 2*pi).

    This is numpy's own fix-up after ``fmod``: 2*pi is added to negative
    values, and adding 0.0 everywhere else turns -0.0 into +0.0.  The
    guard, as in ``arc_angle``, multiplies by ``x < ARC_TOP``: +0.0 from
    ``ARC_TOP`` up, NaN kept.  An arctan2 result needs nothing more.
    Comparisons go to ``scratch`` (any float array of x's shape, or new
    arrays) as 1.0 and 0.0, which multiply like True and False.
    """
    x += np.multiply(np.less(x, 0.0, out=scratch), TWO_PI, out=scratch)
    x *= np.less(x, ARC_TOP, out=scratch)
    return x


def _mod_two_pi(x, scratch=None):
    """``np.mod(x, 2*pi)``, then the vanished-arc guard, in place, for any x.

    ``fmod`` is exact, so only the fix-up and the guard remain.  The
    reduction is never ``x - 2*pi*floor(x/(2*pi))``: that rounds, and a
    rounded reduction could put a sample that lies exactly on a wrap on
    the other branch and move a length jump (RSR-ccw (10, 1) in
    CHANGES.md).  ``scratch`` is as in ``_fold_two_pi``.
    """
    np.fmod(x, TWO_PI, out=x)
    return _fold_two_pi(x, scratch)


def _terms_into(lsl: bool, ci: CanonicalInstance, length, phi1, phi2, ls, feasible):
    """The LSL (``lsl``) or RSL family kernel, computed inside its outputs.

    phi2 holds the canonical angle a on entry; each intermediate lives in
    an output not yet final, in the order of the plain formulas, so every
    output is bit-identical to them with np.mod and the vanished-arc guard.
    The center-to-center vector is (c + 2r cos a, d + 2r sin a - r) for
    LSL and (c + 2r cos a - r, d + 2r sin a) for RSL; ccw drops the 2r
    terms, and ls, phi1 and feasibility come from 1-element arrays.
    """
    c, d, r = ci.c, ci.d, ci.r
    if ci.cw:
        x, y, ls1, feasible1 = np.cos(phi2, out=phi1), np.sin(phi2, out=length), ls, feasible
        x *= 2.0 * r
        y *= 2.0 * r
        x += c
        y += d
    else:
        x, y, ls1, feasible1 = np.array([c]), np.array([d]), np.empty(1), np.empty(1, dtype=bool)
    shifted = y if lsl else x
    shifted -= r
    np.hypot(x, y, out=ls1)
    if lsl:
        _fold_two_pi(np.arctan2(y, x, out=x), y)
        feasible1.fill(True)
    else:
        np.greater_equal(ls1, 2.0 * r * (1.0 - INNER_TANGENT_REL_TOL), out=feasible1)
        ls1 *= ls1
        ls1 -= 4.0 * r * r
        np.sqrt(np.clip(ls1, 0.0, None, out=ls1), out=ls1)
        # phi1 = (-psi1 + psi2 + pi/2) mod 2*pi with psi1 = arctan2(y, x)
        # and psi2 = arctan2(2r, ls); -psi1 + psi2 is psi2 - psi1 exactly
        np.arctan2(y, x, out=x)
        np.subtract(np.arctan2(2.0 * r, ls1, out=y), x, out=x)
        x += HALF_PI
        _mod_two_pi(x, y)
    if not ci.cw:
        ls.fill(ls1[0])
        phi1.fill(x[0])
        feasible.fill(feasible1[0])
    phi2 += -HALF_PI if ci.cw else HALF_PI
    if lsl:
        phi2 -= phi1
    else:
        phi2 += phi1
        phi2 -= HALF_PI
    _mod_two_pi(phi2, length)
    np.add(phi1, phi2, out=length)
    length *= r
    length += ls
    if not feasible.all():
        # the bytes of adding np.where(feasible, 0.0, np.nan): no feasible
        # sample holds -0.0, and x + NaN keeps a NaN x as it is
        infeasible = ~feasible
        for v in (length, phi1, phi2, ls):
            np.add(v, np.nan, out=v, where=infeasible)


def _outputs(alpha):
    """Fresh (length, phi1, phi2, ls, feasible) of alpha's shape, with a
    float copy of alpha in phi2.

    The four float outputs are the rows of one (4,) + shape block, so a
    large call makes one allocation, which the allocator keeps mapped
    and hands to the next call, instead of four that it unmaps and the
    next call faults in again.  Each row is still writable, C-contiguous
    and disjoint from the others (a 0-d view for scalar alpha); holding
    any one row keeps all four alive.
    """
    block = np.empty((4,) + np.shape(alpha))
    length, phi1, phi2, ls = (block[k, ...] for k in range(4))
    np.copyto(phi2, alpha)
    return length, phi1, phi2, ls, np.empty(phi2.shape, dtype=bool)


def lsl_terms(ci: CanonicalInstance, alpha):
    """Vectorized canonical LSL terms: (length, phi1, phi2, ls, feasible).

    ``alpha`` is a canonical-frame angle (scalar or ndarray) and is never
    written.  Every output is a new writable C-contiguous array of its
    shape, and the kernel computes inside those five arrays: it
    allocates nothing else of alpha's size.  The four float outputs are
    disjoint rows of one block (``_outputs``), so holding any one of them
    keeps all four alive.
    """
    out = _outputs(alpha)
    _terms_into(True, ci, *out)
    return out


def rsl_terms(ci: CanonicalInstance, alpha):
    """Vectorized canonical RSL terms: (length, phi1, phi2, ls, feasible).

    Infeasible samples (turn-circle centers closer than 2r) carry NaN in
    every numeric output and False in the feasibility mask.  Otherwise as
    ``lsl_terms``, but a partly infeasible call also allocates that mask.
    """
    out = _outputs(alpha)
    _terms_into(False, ci, *out)
    return out


def closed_form_table(start: Configuration, circle: TargetCircle, path_type: PathType, alphas):
    """Closed-form length terms over world-frame angles ``alphas``.

    Returns a dict with float arrays ``length``, ``phi1``, ``phi2``,
    ``ls`` (NaN where infeasible) and a boolean ``feasible`` mask.  This
    is the specialized-formula route, independent of the pose-to-pose
    constructors.  ``alphas`` is reduced to [0, 2*pi) first, unless no
    angle has its sign bit set (which also catches -0.0) and every angle
    is below ``ARC_TOP``: there the guarded reduction is the exact identity.
    The kernel runs inside the five fresh outputs, from the canonical
    angle written to phi2; ``alphas`` is never written.  The four float
    arrays are writable, C-contiguous, disjoint rows of one block, so
    holding any one of them keeps all four alive.
    """
    ci = canonical_instance(start, circle, path_type)
    length, phi1, phi2, ls, feasible = _outputs(alphas)
    if np.signbit(phi2).any() or not np.max(phi2, initial=0.0) < ARC_TOP:
        _mod_two_pi(phi2, length)
    phi2 *= ci.alpha_sign
    phi2 += ci.alpha_offset
    _terms_into(ci.kind is PathType.LSL, ci, length, phi1, phi2, ls, feasible)
    return {"length": length, "phi1": phi1, "phi2": phi2, "ls": ls, "feasible": feasible}


# scalar fast paths (pure math) used heavily by bisection and refinement


def _lsl_terms_scalar(ci: CanonicalInstance, a: float):
    c, d, r = ci.c, ci.d, ci.r
    if ci.cw:
        theta = a - HALF_PI
        dx = c + 2.0 * r * math.cos(a)
        dy = d + 2.0 * r * math.sin(a) - r
    else:
        theta = a + HALF_PI
        dx, dy = c, d - r
    ls = math.hypot(dx, dy)
    phi1 = arc_angle(math.atan2(dy, dx))
    phi2 = arc_angle(theta - phi1)
    return ls + r * (phi1 + phi2), phi1, phi2, ls, True


def _rsl_terms_scalar(ci: CanonicalInstance, a: float):
    c, d, r = ci.c, ci.d, ci.r
    if ci.cw:
        theta = a - HALF_PI
        wx = c + 2.0 * r * math.cos(a) - r
        wy = d + 2.0 * r * math.sin(a)
    else:
        theta = a + HALF_PI
        wx, wy = c - r, d
    lcc = math.hypot(wx, wy)
    if lcc < 2.0 * r * (1.0 - INNER_TANGENT_REL_TOL):
        return math.nan, math.nan, math.nan, math.nan, False
    ls = math.sqrt(max(lcc * lcc - 4.0 * r * r, 0.0))
    psi1 = math.atan2(wy, wx)
    psi2 = math.atan2(2.0 * r, ls)
    phi1 = arc_angle(-psi1 + psi2 + HALF_PI)
    phi2 = arc_angle(theta + phi1 - HALF_PI)
    return ls + r * (phi1 + phi2), phi1, phi2, ls, True


def canonical_terms_scalar(ci: CanonicalInstance, a: float):
    """(length, phi1, phi2, ls, feasible) at one canonical angle."""
    if ci.kind is PathType.LSL:
        return _lsl_terms_scalar(ci, a)
    return _rsl_terms_scalar(ci, a)


def closed_form_length(
    start: Configuration, circle: TargetCircle, path_type: PathType, alpha: float
) -> float:
    """Scalar closed-form length at a world-frame angle; NaN when infeasible."""
    ci = canonical_instance(start, circle, path_type)
    a = ci.to_canonical_alpha(normalize_angle(alpha))
    return canonical_terms_scalar(ci, a)[0]


def mirror_problem(
    start: Configuration, circle: TargetCircle
) -> tuple[Configuration, TargetCircle, FrameTransform]:
    """Reflect the scene across the line through the start pose's heading.

    The start is fixed by the reflection; the circle center reflects and
    its rotation direction flips.  Applying the returned transform twice
    is the identity.
    """
    tm = mirror_transform(start)
    center = tm.apply_point(*circle.center)
    return start, TargetCircle(center, circle.radius, circle.direction.opposite), tm
