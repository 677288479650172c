"""Planar poses, angle arithmetic, and rigid-frame transforms.

The CSC path formulas are stated in canonical frames (start pose at the
origin with heading 0 for L-first paths, pi/2 for R-first paths).
``FrameTransform`` carries arbitrary scenes into those frames;
its optional reflection exchanges left- and right-turning paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

TWO_PI = 2.0 * math.pi
HALF_PI = 0.5 * math.pi
# low part of 2*pi dropped by the double representation; re-adding k times
# this after fmod keeps sin/cos of the reduced angle faithful for large k
_TWO_PI_LO = 2.4492935982947064e-16
# the vanished-arc rule: a reduced angle from the double below 2*pi up is an
# empty arc that rounded up, and reads +0.0.  One ulp wide, since a band w
# reads phi1 as 0 within sqrt(w/k) of a touch point where phi1 ~ -k*da**2
ARC_TOP = math.nextafter(TWO_PI, 0.0)


def normalize_angle(a: float) -> float:
    """Reduce an angle to [0, 2*pi), reading ``ARC_TOP`` and up as +0.0.

    Uses a two-term reduction so sine and cosine of the result match the
    input to ~1e-12 even for angles of magnitude ~1e12.  Raises
    ValueError for non-finite input.
    """
    if not math.isfinite(a):
        raise ValueError(f"angle must be finite, got {a!r}")
    b = a % TWO_PI
    k = round((a - b) / TWO_PI)  # exact: fmod leaves an exact multiple
    if k != 0:
        b -= k * _TWO_PI_LO
        b %= TWO_PI
    # a tiny negative angle can round up to 2*pi or just below it
    return 0.0 if b >= ARC_TOP else b


def arc_angle(a: float) -> float:
    """Arc angle ``a % (2*pi)`` under the vanished-arc rule: +0.0 from
    ``ARC_TOP`` up, so an arc that is empty in the geometry reads 0 in
    every route.  NaN passes through."""
    b = a % TWO_PI
    return 0.0 if b >= ARC_TOP else b


def wrap_to_pi(a: float) -> float:
    """Reduce an angle to (-pi, pi]."""
    b = a % TWO_PI
    if b > math.pi:
        b -= TWO_PI
    return b


def rotate(x: float, y: float, angle: float) -> tuple[float, float]:
    """Rotate the vector (x, y) by ``angle`` about the origin."""
    c, s = math.cos(angle), math.sin(angle)
    return c * x - s * y, s * x + c * y


@dataclass(frozen=True)
class Configuration:
    """A planar pose: position (x, y) and heading theta stored in [0, 2*pi)."""

    x: float
    y: float
    theta: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"position must be finite, got ({self.x!r}, {self.y!r})")
        object.__setattr__(self, "theta", normalize_angle(self.theta))


@dataclass(frozen=True)
class FrameTransform:
    """Rigid-frame map: rotate, optionally reflect across the x-axis, then translate.

    Applied to a point p the map is ``S @ R(rotation) @ p + translation``
    where ``S`` flips the y coordinate when ``reflection`` is set.
    Reflection also flips heading signs, so it exchanges left and right
    turns and clockwise and counter-clockwise circle directions.
    """

    rotation: float
    translation: tuple[float, float]
    reflection: bool = False

    def apply_point(self, x: float, y: float) -> tuple[float, float]:
        px, py = rotate(x, y, self.rotation)
        if self.reflection:
            py = -py
        return px + self.translation[0], py + self.translation[1]

    def apply_config(self, config: Configuration) -> Configuration:
        """Map a pose; its heading maps as a direction angle."""
        x, y = self.apply_point(config.x, config.y)
        theta = config.theta + self.rotation
        return Configuration(x, y, -theta if self.reflection else theta)


def to_canonical(start: Configuration, target_heading: float = 0.0) -> FrameTransform:
    """Transform mapping ``start`` to the pose (0, 0, target_heading).

    L-first path formulas use target heading 0, R-first formulas pi/2.
    """
    rot = target_heading - start.theta
    px, py = rotate(start.x, start.y, rot)
    return FrameTransform(rot, (-px, -py), False)


def mirror_transform(start: Configuration) -> FrameTransform:
    """Reflection across the line through ``start`` along its heading.

    Fixes ``start`` itself, exchanges L and R turns, and is an involution.
    """
    phi = start.theta
    px, py = start.x, start.y
    # linear part S @ R(-2*phi) equals the reflection about the angle-phi line
    qx, qy = rotate(px, py, -2.0 * phi)
    return FrameTransform(-2.0 * phi, (px - qx, py + qy), True)
