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
    HALF_PI,
    TWO_PI,
    arc_angle,
    normalize_angle,
    rotate,
    to_start_frame,
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

    def from_world_alpha(self, alpha_world):
        return self.alpha_sign * alpha_world + self.alpha_offset

    def to_world_alpha(self, alpha_canonical: float) -> float:
        return normalize_angle((alpha_canonical - self.alpha_offset) * self.alpha_sign)


def canonical_instance(
    start: Configuration, circle: TargetCircle, path_type: PathType
) -> CanonicalInstance:
    mirrored = path_type in (PathType.RSR, PathType.LSR)
    if mirrored:
        kind = PathType.LSL if path_type is PathType.RSR else PathType.RSL
    else:
        kind = path_type
    target_heading = 0.0 if kind is PathType.LSL else HALF_PI
    c, d = rotate(*to_start_frame(start, *circle.center, mirrored), target_heading)
    rot = target_heading - start.theta
    if mirrored:
        sign, offset = -1.0, 2.0 * start.theta + rot
    else:
        sign, offset = 1.0, rot
    return CanonicalInstance(
        kind=kind,
        cw=(circle.direction is RotationDirection.CW) != mirrored,
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


# samples per kernel pass: the outputs take 33 bytes a sample, so a block
# (50,000 samples, 1.65 MB, at n = 200,000) stays in a 2 MB L2 cache from
# one pass to the next, where the whole call would stream 6.6 MB
_BLOCK = 2**16


def _centre_terms(lsl: bool, r: float, x, y, ls, feasible):
    """phi1 into x, ls and RSL's feasibility, from the centre-to-centre
    vector (x, y) before its r shift; y ends as scratch."""
    shifted = y if lsl else x
    shifted -= r
    np.hypot(x, y, out=ls)
    if lsl:
        _fold_two_pi(np.arctan2(y, x, out=x), y)
    else:
        np.greater_equal(ls, 2.0 * r * (1.0 - INNER_TANGENT_REL_TOL), out=feasible)
        ls *= ls
        ls -= 4.0 * r * r
        np.sqrt(np.clip(ls, 0.0, None, out=ls), out=ls)
        # phi1 = (-psi1 + psi2 + pi/2) mod 2*pi with psi1 = arctan2(y, x)
        # and psi2 = arctan2(2r, ls); -psi1 + psi2 is psi2 - psi1 exactly
        np.arctan2(y, x, out=x)
        np.subtract(np.arctan2(2.0 * r, ls, out=y), x, out=x)
        x += HALF_PI
        _mod_two_pi(x, y)


def _block_terms(lsl: bool, ci: CanonicalInstance, co, length, phi1, phi2, ls, feasible):
    """One block of the family kernel, computed inside its outputs.

    ``co`` is None for a counter-rotational family, whose centre-to-centre
    vector (c + 2r cos a, d + 2r sin a) is built in phi1 and length;
    otherwise it holds the co-rotational family's constant (phi1, ls,
    feasible), which the phi2 and length arithmetic read as scalars.
    """
    r = ci.r
    if co is None:
        x, y = np.cos(phi2, out=phi1), np.sin(phi2, out=length)
        x *= 2.0 * r
        y *= 2.0 * r
        x += ci.c
        y += ci.d
        _centre_terms(lsl, r, x, y, ls, feasible)
        arc1, straight = phi1, ls
        phi2 += -HALF_PI
    else:
        arc1, straight, exists = co
        phi1.fill(arc1)
        ls.fill(straight)
        phi2 += HALF_PI
    if lsl:
        phi2 -= arc1
    else:
        phi2 += arc1
        phi2 -= HALF_PI
    _mod_two_pi(phi2, length)
    np.add(arc1, phi2, out=length)
    length *= r
    length += straight
    if co is not None:
        feasible.fill(exists)
    elif lsl:
        feasible.fill(True)
    if not lsl and not feasible.all():
        # the bytes of adding np.where(feasible, 0.0, np.nan): no feasible
        # sample holds -0.0, and x + NaN keeps a NaN x as it is
        infeasible = ~feasible
        for v in (length, phi1, phi2, ls):
            np.add(v, np.nan, out=v, where=infeasible)


def _terms_into(lsl: bool, ci: CanonicalInstance, length, phi1, phi2, ls, feasible):
    """The LSL (``lsl``) or RSL family kernel, computed inside its outputs.

    phi2 holds the canonical angle a on entry; each intermediate lives in
    an output not yet final, in the order of the plain formulas, so every
    output is bit-identical to them with np.mod and the vanished-arc guard.
    The center-to-center vector is (c + 2r cos a, d + 2r sin a - r) for
    LSL and (c + 2r cos a - r, d + 2r sin a) for RSL; ccw drops the 2r
    terms, so its phi1, ls and feasibility come once from 1-element arrays.
    An input of more than ``_BLOCK`` samples runs as consecutive slices of
    the flat views of the C-contiguous outputs, at most ``_BLOCK`` each;
    every sample's arithmetic is the same in any slice.
    """
    co = None
    if not ci.cw:
        x, y, ls1, feasible1 = np.array([ci.c]), np.array([ci.d]), np.empty(1), np.ones(1, bool)
        _centre_terms(lsl, ci.r, x, y, ls1, feasible1)
        co = (x[0], ls1[0], feasible1[0])
    n = phi2.size
    if n <= _BLOCK:
        _block_terms(lsl, ci, co, length, phi1, phi2, ls, feasible)
        return
    flat = [v.reshape(-1) for v in (length, phi1, phi2, ls, feasible)]
    count = -(-n // _BLOCK)
    for k in range(count):
        part = slice(k * n // count, (k + 1) * n // count)
        _block_terms(lsl, ci, co, *(v[part] for v in flat))


def _outputs(shape):
    """Fresh (length, phi1, phi2, ls, feasible) of the given shape.

    The four float outputs are the rows of one (4,) + shape block, so a
    large call makes one allocation, which the allocator keeps mapped
    and hands to the next call, instead of four that it unmaps and the
    next call faults in again.  Each row is still writable, C-contiguous
    and disjoint from the others (a 0-d view for a scalar shape); holding
    any one row keeps all four alive.
    """
    block = np.empty((4,) + shape)
    length, phi1, phi2, ls = (block[k, ...] for k in range(4))
    return length, phi1, phi2, ls, np.empty(shape, dtype=bool)


def canonical_terms(ci: CanonicalInstance, alpha):
    """Vectorized canonical terms of ``ci``'s family: (length, phi1, phi2,
    ls, feasible).

    ``alpha`` is a canonical-frame angle (scalar or ndarray) and is never
    written.  Every output is a new writable C-contiguous array of its
    shape, and the kernel computes inside those five arrays: it
    allocates nothing else of alpha's size, except the mask of a partly
    infeasible RSL call.  Infeasible samples (turn-circle centers closer
    than 2r) carry NaN in every numeric output and False in the mask.
    The four float outputs are disjoint rows of one block (``_outputs``),
    so holding any one of them keeps all four alive.

    This is the vector twin of ``canonical_terms_scalar``, not its bitwise
    copy: numpy's vectorised ``arctan2`` and ``hypot`` round differently
    from ``math.atan2`` and ``math.hypot`` on a few inputs in a hundred.
    The two agree to within 64 ulps of the length, never differ by a
    2*pi*r jump, and are NaN at the same samples, which ``refine_min``
    and the solver's wrap scan rely on when they mix them; the blocked
    path keeps this, since it does the same arithmetic per sample.
    """
    out = _outputs(np.shape(alpha))
    np.copyto(out[2], alpha)
    _terms_into(ci.kind is PathType.LSL, ci, *out)
    return out


def _world_terms(ci: CanonicalInstance, alphas, reduced: bool):
    """``ci``'s kernel at world-frame angles ``alphas``, a float array:
    (length, phi1, phi2, ls, feasible), computed inside fresh outputs.

    ``reduced`` says that every angle lies in [0, ``ARC_TOP``) with its
    sign bit clear, where the guarded reduction is the exact identity;
    then the canonical angle sign*alpha + offset is one pass into phi2,
    as alpha + offset or offset - alpha, which are its bits (signed zeros
    included).  Otherwise alphas is reduced in phi2 first.
    """
    length, phi1, phi2, ls, feasible = out = _outputs(alphas.shape)
    if not reduced:
        np.copyto(phi2, alphas)
        alphas = _mod_two_pi(phi2, length)
    if ci.alpha_sign > 0.0:
        np.add(alphas, ci.alpha_offset, out=phi2)
    else:
        np.subtract(ci.alpha_offset, alphas, out=phi2)
    _terms_into(ci.kind is PathType.LSL, ci, *out)
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
    alphas = np.asarray(alphas, dtype=float)
    reduced = not np.signbit(alphas).any() and np.max(alphas, initial=0.0) < ARC_TOP
    terms = _world_terms(canonical_instance(start, circle, path_type), alphas, reduced)
    return dict(zip(("length", "phi1", "phi2", "ls", "feasible"), terms))


# scalar fast paths (pure math) used heavily by the solver and refinement


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
    a = ci.from_world_alpha(normalize_angle(alpha))
    return canonical_terms_scalar(ci, a)[0]


def mirror_problem(start: Configuration, circle: TargetCircle) -> TargetCircle:
    """Reflect the circle across the line through the start pose's heading.

    The start is fixed by the reflection; the circle center reflects and
    its rotation direction flips.  Mirroring twice gives the circle back.
    """
    dx, dy = rotate(*to_start_frame(start, *circle.center, mirrored=True), start.theta)
    return TargetCircle((start.x + dx, start.y + dy), circle.radius, circle.direction.opposite)
