"""Planar poses, angle arithmetic, and the start-frame reduction.

The CSC path formulas are stated in canonical frames (start pose at the
origin with heading 0 for L-first paths, pi/2 for R-first paths).
``to_start_frame`` carries a point into the start's own frame by
subtracting the start and then rotating, optionally reflecting across
the start's heading line to exchange left- and right-turning paths; a
quarter turn more gives the R-first frame.
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


def to_start_frame(
    start: Configuration, x: float, y: float, mirrored: bool = False
) -> tuple[float, float]:
    """The point (x, y) in the frame of ``start``: origin at the start,
    heading along +x, and y negated when ``mirrored``.

    The start is subtracted before the rotation, so the result depends
    only on the differences ``x - start.x`` and ``y - start.y``, and
    exactly translated scenes reduce to the same bits.  The negation is
    the reflection across the start's heading line, which exchanges left
    and right turns.
    """
    u, v = rotate(x - start.x, y - start.y, -start.theta)
    return (u, -v) if mirrored else (u, v)
