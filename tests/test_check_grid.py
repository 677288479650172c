"""`check` on the origin grid, pinned scene by scene.

The grid: start at the origin heading +x, r = 1, circle centres on a 0.25
grid in [-3, 3]^2 at least 1.05r from the start, in both directions
(1,136 scenes).  Each scene runs ``cli.run_checks`` alone at n = 4096,
seed 0.  The test asserts the exact map from scene to failing checks, so
a fix shrinks the map and no new failure can enter.  Each failing check
is tagged with the ROADMAP open items that remove it.
"""

import math

from dubins_circle import Configuration, TargetCircle
from dubins_circle.cli import run_checks
from dubins_circle.instances import Instance

JUMP = "discontinuity-jump"
LENGTH = "oracle-agreement-length"
ALPHA = "oracle-agreement-alpha"

# (direction, cx, cy) -> {failing check: ROADMAP items that remove it}
#   2: the wrap scan misses a phi1-wrap beside a feasibility boundary,
#      and the 4096-sample oracle also misses the narrow stretch (5)
#   5: narrow basins that the oracle misses, and isolated minima that no
#      grid sample hits: at (2, -1) ccw the RSR cusp's single arc, pi/2
GRID_FAILURES = {
    ("ccw", -1.5, -2.25): {LENGTH: (5,), ALPHA: (5,)},
    ("ccw", 1.0, -2.75): {LENGTH: (2, 5), ALPHA: (2, 5)},
    ("ccw", 1.75, -2.0): {LENGTH: (2, 5), ALPHA: (2, 5)},
    ("ccw", 1.75, 0.0): {LENGTH: (5,), ALPHA: (5,)},
    ("ccw", 2.0, -1.25): {LENGTH: (2, 5), ALPHA: (2, 5)},
    ("ccw", 2.0, -1.0): {LENGTH: (5,)},
    ("ccw", 2.0, -0.75): {LENGTH: (2, 5), ALPHA: (2, 5)},
    ("ccw", 2.0, -0.5): {LENGTH: (2, 5), ALPHA: (2, 5)},
    ("cw", -1.5, 2.25): {LENGTH: (5,), ALPHA: (5,)},
    ("cw", 1.0, 2.75): {LENGTH: (2, 5), ALPHA: (2, 5)},
    ("cw", 1.75, 0.0): {LENGTH: (5,), ALPHA: (5,)},
    ("cw", 1.75, 2.0): {LENGTH: (2, 5), ALPHA: (2, 5)},
    ("cw", 2.0, 0.5): {LENGTH: (2, 5), ALPHA: (2, 5)},
    ("cw", 2.0, 0.75): {LENGTH: (2, 5), ALPHA: (2, 5)},
    ("cw", 2.0, 1.25): {LENGTH: (2, 5), ALPHA: (2, 5)},
}


def _grid_scenes():
    for direction in ("cw", "ccw"):
        for i in range(-12, 13):
            for j in range(-12, 13):
                if math.hypot(0.25 * i, 0.25 * j) >= 1.05:
                    yield direction, 0.25 * i, 0.25 * j


def test_origin_grid_failing_checks():
    start = Configuration(0.0, 0.0, 0.0)
    failing = {}
    scenes = list(_grid_scenes())
    for direction, cx, cy in scenes:
        instance = Instance(start, TargetCircle((cx, cy), 1.0, direction))
        rows, ok = run_checks([instance], tolerance=1e-6, n=4096, seed=0)
        if not ok:
            failing[direction, cx, cy] = {name for name, passed, _ in rows if not passed}
    assert len(scenes) == 1136
    assert failing == {scene: set(checks) for scene, checks in GRID_FAILURES.items()}
