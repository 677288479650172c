"""Unit tests for the four CSC constructors and path tracing.

Frozen expected values were computed with the brute-force search oracle
in oracle.py, which never uses the closed-form center/tangent formulas.
"""

import math
import random

import pytest

import oracle
from dubins_circle import (
    Configuration,
    InfeasiblePathError,
    PathType,
    csc_between,
    lsl_between,
    lsr_between,
    rsl_between,
    rsr_between,
    trace_path,
    wrap_to_pi,
)

TWO_PI = 2.0 * math.pi


def assert_pose_close(config, expected, tol=1e-8):
    assert config.x == pytest.approx(expected[0], abs=tol)
    assert config.y == pytest.approx(expected[1], abs=tol)
    assert wrap_to_pi(config.theta - expected[2]) == pytest.approx(0.0, abs=tol)


def random_pose(rng, span=30.0):
    return Configuration(
        rng.uniform(-span, span), rng.uniform(-span, span), rng.uniform(0.0, TWO_PI)
    )


def far_pair(rng, r):
    while True:
        start = random_pose(rng)
        goal = random_pose(rng)
        if math.hypot(goal.x - start.x, goal.y - start.y) > 4.0 * r:
            return start, goal


class TestLsl:
    def test_collinear_degenerate(self):
        p = lsl_between(Configuration(0, 0, 0), Configuration(5, 0, 0), 1.0)
        assert p.phi1 == pytest.approx(0.0, abs=1e-12)
        assert p.ls == pytest.approx(5.0)
        assert p.phi2 == pytest.approx(0.0, abs=1e-12)
        assert p.total_length == pytest.approx(5.0)

    def test_straight_then_half_circle(self):
        p = lsl_between(Configuration(0, 0, 0), Configuration(4, 2, math.pi), 1.0)
        assert p.phi1 == pytest.approx(0.0, abs=1e-12)
        assert p.ls == pytest.approx(4.0)
        assert p.phi2 == pytest.approx(math.pi)
        assert p.total_length == pytest.approx(4.0 + math.pi)

    def test_oracle_frozen_value(self):
        # oracle: phi1 = 3*pi/2, ls = 8, phi2 = 3*pi/2, length = 8 + 3*pi
        p = lsl_between(Configuration(0, 0, 0), Configuration(0, -6, math.pi), 1.0)
        assert p.phi1 == pytest.approx(4.712388980385, abs=1e-9)
        assert p.ls == pytest.approx(8.0, abs=1e-9)
        assert p.phi2 == pytest.approx(4.712388980385, abs=1e-9)
        assert p.total_length == pytest.approx(17.424777960769, abs=1e-9)

    def test_colocated_circles_use_first_arc(self):
        # goal on the start's left turn circle with ccw-tangent heading
        start = Configuration(0, 0, 0)
        phi = 2.0
        goal = Configuration(
            math.sin(phi), 1.0 - math.cos(phi), phi
        )  # on circle centered (0, 1)
        p = lsl_between(start, goal, 1.0)
        assert p.ls == 0.0
        assert p.phi2 == 0.0
        assert p.phi1 == pytest.approx(phi)
        assert_pose_close(trace_path(p, start), (goal.x, goal.y, goal.theta))


class TestRsl:
    def test_straight_line_degenerate(self):
        p = rsl_between(Configuration(0, 0, math.pi / 2), Configuration(0, 5, math.pi / 2), 1.0)
        assert p.phi1 == pytest.approx(0.0, abs=1e-12)
        assert p.phi2 == pytest.approx(0.0, abs=1e-12)
        assert p.ls == pytest.approx(5.0)
        assert p.total_length == pytest.approx(5.0)

    def test_oracle_frozen_value(self):
        p = rsl_between(Configuration(0, 0, math.pi / 2), Configuration(4, 0, 3 * math.pi / 2), 1.0)
        assert p.phi1 == pytest.approx(2.094395102393, abs=1e-9)
        assert p.ls == pytest.approx(3.464101615138, abs=1e-9)
        assert p.phi2 == pytest.approx(5.235987755983, abs=1e-9)
        assert p.total_length == pytest.approx(10.794484473514, abs=1e-9)

    def test_no_inner_tangent(self):
        with pytest.raises(InfeasiblePathError):
            rsl_between(
                Configuration(0, 0, math.pi / 2), Configuration(2.5, 0, math.pi / 2), 1.0
            )

    def test_exact_tangency_is_feasible(self):
        # centers exactly 2r apart: C1 = (1, 0), C2 = (3, 0)
        p = rsl_between(Configuration(0, 0, math.pi / 2), Configuration(2, 0, 3 * math.pi / 2), 1.0)
        assert p.ls == pytest.approx(0.0, abs=1e-9)
        assert math.dist(p.c1_center, p.c2_center) == pytest.approx(2.0)

    def test_eq8_identity(self):
        rng = random.Random(5)
        for _ in range(200):
            r = rng.uniform(0.3, 2.5)
            start, goal = far_pair(rng, r)
            try:
                p = rsl_between(start, goal, r)
            except InfeasiblePathError:
                continue
            assert p.ls**2 + 4 * r**2 == pytest.approx(math.dist(p.c1_center, p.c2_center) ** 2, rel=1e-9)


class TestMirroredTypes:
    def test_rsr_collinear(self):
        p = rsr_between(Configuration(0, 0, 0), Configuration(5, 0, 0), 1.0)
        assert p.total_length == pytest.approx(5.0)
        assert p.phi1 == pytest.approx(0.0, abs=1e-12)
        assert p.phi2 == pytest.approx(0.0, abs=1e-12)

    def test_rsr_mirror_of_lsl_case(self):
        p = rsr_between(Configuration(0, 0, 0), Configuration(4, -2, math.pi), 1.0)
        assert p.total_length == pytest.approx(4.0 + math.pi)

    def test_lsr_equals_mirrored_rsl(self):
        lsr = lsr_between(Configuration(0, 0, 0), Configuration(6, 3, math.pi / 2), 1.0)
        rsl = rsl_between(Configuration(0, 0, 0), Configuration(6, -3, 3 * math.pi / 2), 1.0)
        assert lsr.total_length == pytest.approx(rsl.total_length, abs=1e-10)
        # frozen oracle value for both sides
        assert lsr.total_length == pytest.approx(12.825587616405, abs=1e-9)
        assert lsr.phi1 == pytest.approx(0.556599318010, abs=1e-9)
        assert lsr.ls == pytest.approx(7.0, abs=1e-9)

    def test_mirror_equivalence_many(self):
        rng = random.Random(17)
        for _ in range(300):
            r = rng.uniform(0.4, 2.0)
            start, goal = far_pair(rng, r)
            goal_m = Configuration(
                *_reflect_about_heading_line(start, goal.x, goal.y),
                _reflect_heading(start, goal.theta),
            )
            for a, b in ((PathType.LSL, PathType.RSR), (PathType.RSL, PathType.LSR)):
                try:
                    pa = csc_between(start, goal, r, a)
                    pb = csc_between(start, goal_m, r, b)
                except InfeasiblePathError:
                    continue
                assert pa.total_length == pytest.approx(pb.total_length, abs=1e-10)


def _reflect_about_heading_line(start, x, y):
    phi = start.theta
    dx, dy = x - start.x, y - start.y
    c, s = math.cos(2 * phi), math.sin(2 * phi)
    return start.x + c * dx + s * dy, start.y + s * dx - c * dy


def _reflect_heading(start, theta):
    return 2 * start.theta - theta


class TestTrace:
    def test_straight_only(self):
        p = lsl_between(Configuration(0, 0, 0), Configuration(5, 0, 0), 1.0)
        assert_pose_close(trace_path(p, Configuration(0, 0, 0)), (5, 0, 0))

    def test_quarter_circle(self):
        start = Configuration(0, 0, 0)
        goal = Configuration(1, 1, math.pi / 2)
        p = lsl_between(start, goal, 1.0)
        assert p.phi1 == pytest.approx(math.pi / 2)
        assert p.ls == pytest.approx(0.0, abs=1e-9)
        assert_pose_close(trace_path(p, start), (1, 1, math.pi / 2))

    def test_endpoint_consistency_many(self):
        rng = random.Random(29)
        for _ in range(1000):
            r = rng.uniform(0.3, 2.0)
            start, goal = far_pair(rng, r)
            for ptype in PathType:
                try:
                    p = csc_between(start, goal, r, ptype)
                except InfeasiblePathError:
                    continue
                assert_pose_close(trace_path(p, start), (goal.x, goal.y, goal.theta))


class TestPathInvariants:
    def test_structure_and_bounds(self):
        rng = random.Random(31)
        for _ in range(400):
            r = rng.uniform(0.3, 2.0)
            start, goal = far_pair(rng, r)
            dist = math.hypot(goal.x - start.x, goal.y - start.y)
            for ptype in PathType:
                try:
                    p = csc_between(start, goal, r, ptype)
                except InfeasiblePathError:
                    continue
                assert p.total_length == pytest.approx(p.ls + r * (p.phi1 + p.phi2), rel=1e-9)
                assert 0.0 <= p.phi1 < TWO_PI
                assert 0.0 <= p.phi2 < TWO_PI
                assert p.ls >= 0.0
                assert p.total_length >= dist - 1e-9
                assert math.hypot(
                    p.c1_center[0] - start.x, p.c1_center[1] - start.y
                ) == pytest.approx(r, abs=1e-9)
                assert math.hypot(
                    p.c2_center[0] - goal.x, p.c2_center[1] - goal.y
                ) == pytest.approx(r, abs=1e-9)

    def test_all_types_feasible_beyond_4r(self):
        rng = random.Random(37)
        for _ in range(300):
            r = rng.uniform(0.3, 2.0)
            start, goal = far_pair(rng, r)
            for ptype in PathType:
                csc_between(start, goal, r, ptype)  # must not raise

    def test_rejects_bad_radius(self):
        with pytest.raises(ValueError):
            lsl_between(Configuration(0, 0, 0), Configuration(5, 0, 0), 0.0)
        with pytest.raises(ValueError):
            rsl_between(Configuration(0, 0, 0), Configuration(5, 0, 0), -1.0)


class TestAgainstOracle:
    def test_random_instances_match_brute_force(self):
        rng = random.Random(41)
        for _ in range(25):
            r = rng.uniform(0.5, 1.5)
            start, goal = far_pair(rng, r)
            for ptype in PathType:
                p = csc_between(start, goal, r, ptype)
                sols = oracle.csc_by_search(
                    (start.x, start.y, start.theta),
                    (goal.x, goal.y, goal.theta),
                    r,
                    ptype.value,
                )
                assert sols, f"oracle found no {ptype.value} path"
                lengths = [s[3] for s in sols]
                assert min(abs(L - p.total_length) for L in lengths) < 1e-6 * max(
                    1.0, p.total_length
                )
