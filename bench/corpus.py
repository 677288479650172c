"""Seeded inputs for the benchmark workloads.

Every generator takes a ``random.Random`` built from the run's seed, so
the same seed gives the same inputs.  Random instances are drawn in the
frame the library's ``random_instance`` uses (start at the origin,
heading 0, r = 1) and then carried into a general frame by a seeded
rigid motion and scale, so canonical reduction sees arbitrary poses.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass

from dubins_circle import Configuration, PathType, TargetCircle
from dubins_circle.geometry import rotate
from dubins_circle.instances import random_instance

# scale r is log-uniform in [1/SCALE_SPAN, SCALE_SPAN]; the start moves
# up to OFFSET_SPAN * r from the world origin
SCALE_SPAN = 10.0
OFFSET_SPAN = 50.0
# solve-near start distances from the circle centre, in units of r
NEAR_MIN = 1.2
NEAR_MAX = 5.0


@dataclass(frozen=True)
class Case:
    start: Configuration
    circle: TargetCircle
    label: str  # "random" or the name of a hand-placed edge case


# Hand-placed solve-near instances, r = 1, start pose (x, y, theta).
# The tie heading was found by bisection on the heading until the RSR and
# LSR minima agree to the last bit; the seam instance is a solved scene
# rotated about the circle centre so the winning alpha lands on 0.
EDGE_CASES = (
    ("gap-exactly-4r", (0.0, 0.0, 0.0), (5.0, 0.0), "cw"),
    ("gap-exactly-4r", (0.0, 0.0, 0.0), (0.0, 5.0), "ccw"),
    ("tie-rsr-lsr", (0.0, 0.0, 0.3805063946894563), (2.5, 1.0), "ccw"),
    ("seam-lsl", (6.217691453639596, 3.626794919212223, 3.021690320385208), (3.0, 2.0), "cw"),
    ("seam-lsr", (-0.30811545537628393, -0.1839482859593371, 6.183617571105163),
     (-2.0, 3.0), "ccw"),
)


def _place(rng: random.Random, center: tuple[float, float], direction) -> Case:
    """Apply a seeded rigid motion and scale to a unit instance whose start
    is the origin with heading 0."""
    r = SCALE_SPAN ** rng.uniform(-1.0, 1.0)
    phi = rng.uniform(0.0, 2.0 * math.pi)
    tx = rng.uniform(-OFFSET_SPAN, OFFSET_SPAN) * r
    ty = rng.uniform(-OFFSET_SPAN, OFFSET_SPAN) * r
    px, py = rotate(center[0] * r, center[1] * r, phi)
    return Case(
        start=Configuration(tx, ty, phi),
        circle=TargetCircle((tx + px, ty + py), r, direction),
        label="random",
    )


def far_cases(rng: random.Random, count: int) -> list[Case]:
    """Circles 6r-30r from the start (``random_instance``), half cw, half ccw."""
    out = []
    for _ in range(count):
        inst = random_instance(rng)
        out.append(_place(rng, inst.circle.center, inst.circle.direction))
    return out


def near_cases(rng: random.Random, count: int) -> list[Case]:
    """The hand-placed edge cases, then ``count`` random starts
    NEAR_MIN*r to NEAR_MAX*r from the circle centre."""
    out = [
        Case(Configuration(*pose), TargetCircle(center, 1.0, direction), label)
        for label, pose, center, direction in EDGE_CASES
    ]
    for _ in range(count):
        dist = rng.uniform(NEAR_MIN, NEAR_MAX)
        angle = rng.uniform(0.0, 2.0 * math.pi)
        direction = "cw" if rng.random() < 0.5 else "ccw"
        center = (dist * math.cos(angle), dist * math.sin(angle))
        out.append(_place(rng, center, direction))
    return out


def sweep_pairs(rng: random.Random, count: int) -> list[tuple[Case, PathType]]:
    """(far instance, path type) pairs; every type appears equally often."""
    types = list(PathType)
    cases = far_cases(rng, count)
    return [(case, types[k % len(types)]) for k, case in enumerate(cases)]


def instance_document(case: Case) -> str:
    """The case as an instance file for ``dubins-circle solve``."""
    cx, cy = case.circle.center
    doc = {
        "start": {"x": case.start.x, "y": case.start.y, "theta_radians": case.start.theta},
        "circle": {"cx": cx, "cy": cy, "r": case.circle.radius,
                   "direction": case.circle.direction.value},
    }
    return json.dumps(doc, sort_keys=True) + "\n"
