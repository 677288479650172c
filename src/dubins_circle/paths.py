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
from .geometry import Configuration, HALF_PI, normalize_angle, rotate, to_start_frame

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


def _lsl_arcs(start: Configuration, goal: Configuration, r: float, mirrored: bool):
    """(phi1, ls, phi2) of the LSL path, or of RSR when ``mirrored``.

    In the canonical frame (start at the origin heading 0) the straight
    length equals the distance between the turn-circle centers, the first
    arc turns until the heading matches the center-to-center direction,
    and the second arc supplies the remaining goal heading.  Arc angles
    and lengths are reflection-invariant, so RSR is LSL in the mirrored
    frame.
    """
    gx, gy = to_start_frame(start, goal.x, goal.y, mirrored)
    theta = goal.theta - start.theta
    theta = normalize_angle(-theta if mirrored else theta)
    # centers in the canonical frame: C1 = (0, r), C2 = goal's left circle
    dx = gx - r * math.sin(theta)
    dy = gy + r * math.cos(theta) - r
    if abs(dy) <= 4.0 * math.ulp(abs(gy) + 2.0 * r):
        # within the rounding of the sum, C2 lies on the line y = r, so the
        # first arc is exactly 0 or pi; rounded, an empty arc could land a
        # few ulps below 2*pi and read as a full turn
        dy = 0.0
    ls = math.hypot(dx, dy)
    if ls < DEGENERATE_CENTER_TOL * r:
        # co-located circles: pure arc, all turning on the first arc
        return normalize_angle(theta), 0.0, 0.0
    phi1 = normalize_angle(math.atan2(dy, dx))
    return phi1, ls, normalize_angle(theta - phi1)


def _rsl_arcs(start: Configuration, goal: Configuration, r: float, mirrored: bool):
    """(phi1, ls, phi2) of the RSL path, or of LSR when ``mirrored``.

    Requires the two turn circles to be at least 2r apart; raises
    InfeasiblePathError otherwise.  Exact tangency is accepted with a
    zero-length straight segment.
    """
    # the canonical frame is the start frame turned a quarter, heading pi/2
    gx, gy = rotate(*to_start_frame(start, goal.x, goal.y, mirrored), HALF_PI)
    theta = goal.theta - start.theta
    theta = normalize_angle((-theta if mirrored else theta) + HALF_PI)
    # canonical centers: C1 = (r, 0), C2 = goal's left circle
    wx = gx - r * math.sin(theta) - r
    wy = gy + r * math.cos(theta)
    if abs(wx + 2.0 * r) <= 4.0 * math.ulp(abs(gx) + 2.0 * r):
        # within the rounding of the sum, C2 lies on the line x = -r, where
        # a straight along the start ray is tangent to both circles
        wx = -2.0 * r
    lcc = math.hypot(wx, wy)
    if lcc < 2.0 * r * (1.0 - INNER_TANGENT_REL_TOL):
        raise InfeasiblePathError(
            f"no inner tangent: center distance {lcc:.6g} < 2r = {2.0 * r:.6g}"
        )
    ls = math.sqrt(max((wx - 2.0 * r) * (wx + 2.0 * r) + wy * wy, 0.0))
    # phi1 is pi/2 minus the straight's heading, w turned clockwise by
    # atan2(2r, ls); at wx = -2r and wy > 0, ls = wy and phi1 = 0 exactly
    phi1 = normalize_angle(math.atan2(ls * wx + 2.0 * r * wy, ls * wy - 2.0 * r * wx))
    return phi1, ls, normalize_angle(theta + phi1 - HALF_PI)


# each type's arcs: its family body, and whether it runs in the mirrored frame
_ARCS = {
    PathType.LSL: (_lsl_arcs, False),
    PathType.RSL: (_rsl_arcs, False),
    PathType.RSR: (_lsl_arcs, True),
    PathType.LSR: (_rsl_arcs, True),
}


def csc_between(
    start: Configuration, goal: Configuration, r: float, path_type: PathType
) -> CscPath:
    """Construct the CSC path of the requested type between two poses.

    RSR and LSR are the LSL and RSL constructions in the frame mirrored
    across the start's heading line; every type is assembled once, in the
    original frame.  Raises InfeasiblePathError when an inner-tangent
    type (RSL, LSR) does not exist between the poses.
    """
    if not (r > 0.0 and math.isfinite(r)):
        raise ValueError(f"turn radius must be positive and finite, got {r!r}")
    arcs, mirrored = _ARCS[path_type]
    phi1, ls, phi2 = arcs(start, goal, r, mirrored)
    return assemble(path_type, start, goal, r, phi1, ls, phi2)


def lsl_between(start: Configuration, goal: Configuration, r: float) -> CscPath:
    """LSL path: left arc, straight, left arc."""
    return csc_between(start, goal, r, PathType.LSL)


def rsl_between(start: Configuration, goal: Configuration, r: float) -> CscPath:
    """RSL path: right arc, inner-tangent straight, left arc."""
    return csc_between(start, goal, r, PathType.RSL)


def rsr_between(start: Configuration, goal: Configuration, r: float) -> CscPath:
    """RSR path: right arc, straight, right arc."""
    return csc_between(start, goal, r, PathType.RSR)


def lsr_between(start: Configuration, goal: Configuration, r: float) -> CscPath:
    """LSR path: left arc, inner-tangent straight, right arc."""
    return csc_between(start, goal, r, PathType.LSR)


def trace_path(path: CscPath, start: Configuration) -> Configuration:
    """Follow arc, straight, arc from ``start`` and return the end pose.

    Uses closed-form circle and line kinematics; no numerical integration.
    """
    p = arc_end(start, path.path_type.first_turn, path.phi1, path.r)
    p = straight_end(p, path.ls)
    return arc_end(p, path.path_type.second_turn, path.phi2, path.r)
