"""Construction of the four CSC Dubins paths between fully specified poses.

Each constructor returns the path of its fixed type (LSL, RSL, RSR, LSR)
whether or not that type is the global optimum; picking the best arrival
point on a target circle is the solver's job.

Angle conventions: the first-arc angle phi1 and second-arc angle phi2 are
in [0, 2*pi), and ``normalize_angle`` reads an arc that rounds up to the
band below 2*pi as 0, as the closed-form kernels do (the vanished-arc
rule).  An L arc turns counter-clockwise, an R arc clockwise.  The
straight length is ``ls`` and the total is ``ls + r * (phi1 + phi2)``.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .errors import InfeasiblePathError
from .geometry import (
    Configuration,
    HALF_PI,
    atan2_ratio,
    mirror_transform,
    normalize_angle,
    to_canonical,
)

# below this fraction of r, the two turn circles of an outer-tangent type
# are treated as co-located and all turning is assigned to the first arc
DEGENERATE_CENTER_TOL = 1e-9

# relative slack accepted below L_cc = 2r before an inner tangent is
# declared infeasible (closure of the feasible set)
INNER_TANGENT_REL_TOL = 1e-12


class PathType(enum.Enum):
    LSL = "LSL"
    RSL = "RSL"
    RSR = "RSR"
    LSR = "LSR"

    @property
    def first_turn(self) -> str:
        return self.value[0]

    @property
    def second_turn(self) -> str:
        return self.value[2]

    @property
    def mirrored(self) -> "PathType":
        """The type obtained by exchanging L and R turns."""
        swap = str.maketrans("LR", "RL")
        return PathType(self.value.translate(swap))


@dataclass(frozen=True)
class CscPath:
    """One CSC path: first arc, straight segment, second arc."""

    path_type: PathType
    phi1: float
    ls: float
    phi2: float
    r: float
    c1_center: tuple[float, float]
    c2_center: tuple[float, float]
    total_length: float
    straight_start: tuple[float, float]
    straight_end: tuple[float, float]


def turn_center(config: Configuration, turn: str, r: float) -> tuple[float, float]:
    """Center of the radius-r circle traced by turning left ('L') or right ('R')."""
    s, c = math.sin(config.theta), math.cos(config.theta)
    if turn == "L":
        return (config.x - r * s, config.y + r * c)
    return (config.x + r * s, config.y - r * c)


def arc_end(config: Configuration, turn: str, phi: float, r: float) -> Configuration:
    """Pose after following a circular arc of angle phi from ``config``."""
    ox, oy = turn_center(config, turn, r)
    if turn == "L":
        t = config.theta + phi
        return Configuration(ox + r * math.sin(t), oy - r * math.cos(t), t)
    t = config.theta - phi
    return Configuration(ox - r * math.sin(t), oy + r * math.cos(t), t)


def straight_end(config: Configuration, s: float) -> Configuration:
    return Configuration(
        config.x + s * math.cos(config.theta),
        config.y + s * math.sin(config.theta),
        config.theta,
    )


def assemble(
    path_type: PathType,
    start: Configuration,
    goal: Configuration,
    r: float,
    phi1: float,
    ls: float,
    phi2: float,
) -> CscPath:
    p1 = arc_end(start, path_type.first_turn, phi1, r)
    p2 = straight_end(p1, ls)
    return CscPath(
        path_type=path_type,
        phi1=phi1,
        ls=ls,
        phi2=phi2,
        r=r,
        c1_center=turn_center(start, path_type.first_turn, r),
        c2_center=turn_center(goal, path_type.second_turn, r),
        total_length=ls + r * (phi1 + phi2),
        straight_start=(p1.x, p1.y),
        straight_end=(p2.x, p2.y),
    )


def _check_radius(r: float) -> None:
    if not (r > 0.0 and math.isfinite(r)):
        raise ValueError(f"turn radius must be positive and finite, got {r!r}")


def lsl_between(start: Configuration, goal: Configuration, r: float) -> CscPath:
    """LSL path: left arc, straight, left arc.

    In the canonical frame (start at the origin heading 0) the straight
    length equals the distance between the turn-circle centers, the first
    arc turns until the heading matches the center-to-center direction,
    and the second arc supplies the remaining goal heading.
    """
    _check_radius(r)
    t = to_canonical(start, 0.0)
    g = t.apply_config(goal)
    theta = g.theta
    # centers in the canonical frame: C1 = (0, r), C2 = goal's left circle
    dx = g.x - r * math.sin(theta)
    dy = g.y + r * math.cos(theta) - r
    if abs(dy) <= 4.0 * math.ulp(abs(g.y) + 2.0 * r):
        # within the rounding of the sum, C2 lies on the line y = r, so the
        # first arc is exactly 0 or pi; rounded, an empty arc could land a
        # few ulps below 2*pi and read as a full turn
        dy = 0.0
    ls = math.hypot(dx, dy)
    if ls < DEGENERATE_CENTER_TOL * r:
        # co-located circles: pure arc, all turning on the first arc
        phi1, ls, phi2 = normalize_angle(theta), 0.0, 0.0
    else:
        phi1 = normalize_angle(atan2_ratio(dy, dx))
        phi2 = normalize_angle(theta - phi1)
    return assemble(PathType.LSL, start, goal, r, phi1, ls, phi2)


def rsl_between(start: Configuration, goal: Configuration, r: float) -> CscPath:
    """RSL path: right arc, inner-tangent straight, left arc.

    Requires the two turn circles to be at least 2r apart; raises
    InfeasiblePathError otherwise.  Exact tangency is accepted with a
    zero-length straight segment.
    """
    _check_radius(r)
    t = to_canonical(start, HALF_PI)
    g = t.apply_config(goal)
    theta = g.theta
    # canonical centers: C1 = (r, 0), C2 = goal's left circle
    wx = g.x - r * math.sin(theta) - r
    wy = g.y + r * math.cos(theta)
    lcc = math.hypot(wx, wy)
    if lcc < 2.0 * r * (1.0 - INNER_TANGENT_REL_TOL):
        raise InfeasiblePathError(
            f"no inner tangent: center distance {lcc:.6g} < 2r = {2.0 * r:.6g}"
        )
    ls = math.sqrt(max(lcc * lcc - 4.0 * r * r, 0.0))
    psi1 = atan2_ratio(wy, wx)
    psi2 = atan2_ratio(2.0 * r, ls)  # ls = 0 gives the tangency limit pi/2
    phi1 = normalize_angle(-psi1 + psi2 + HALF_PI)
    phi2 = normalize_angle(theta + phi1 - HALF_PI)
    return assemble(PathType.RSL, start, goal, r, phi1, ls, phi2)


def _mirror_construct(
    base: PathType, target: PathType, start: Configuration, goal: Configuration, r: float
) -> CscPath:
    tm = mirror_transform(start)
    mirrored = {
        PathType.LSL: lsl_between,
        PathType.RSL: rsl_between,
    }[base](start, tm.apply_config(goal), r)
    # arc angles and lengths are reflection-invariant; reassemble in the
    # original frame with the turn handedness swapped back
    return assemble(target, start, goal, r, mirrored.phi1, mirrored.ls, mirrored.phi2)


def rsr_between(start: Configuration, goal: Configuration, r: float) -> CscPath:
    """RSR path, constructed as the mirror image of an LSL path."""
    return _mirror_construct(PathType.LSL, PathType.RSR, start, goal, r)


def lsr_between(start: Configuration, goal: Configuration, r: float) -> CscPath:
    """LSR path, constructed as the mirror image of an RSL path."""
    return _mirror_construct(PathType.RSL, PathType.LSR, start, goal, r)


_CONSTRUCTORS = {
    PathType.LSL: lsl_between,
    PathType.RSL: rsl_between,
    PathType.RSR: rsr_between,
    PathType.LSR: lsr_between,
}


def csc_between(
    start: Configuration, goal: Configuration, r: float, path_type: PathType
) -> CscPath:
    """Construct the CSC path of the requested type between two poses."""
    return _CONSTRUCTORS[path_type](start, goal, r)


def trace_path(path: CscPath, start: Configuration) -> Configuration:
    """Follow arc, straight, arc from ``start`` and return the end pose.

    Uses closed-form circle and line kinematics; no numerical integration.
    """
    p = arc_end(start, path.path_type.first_turn, path.phi1, path.r)
    p = straight_end(p, path.ls)
    return arc_end(p, path.path_type.second_turn, path.phi2, path.r)
