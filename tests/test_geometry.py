"""Unit tests for angle arithmetic, poses, and the mirror reduction."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from dubins_circle import (
    Configuration,
    mirror_problem,
    normalize_angle,
    wrap_to_pi,
)
from dubins_circle.circle_target import RotationDirection, TargetCircle

TWO_PI = 2.0 * math.pi

angles = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)


def test_normalize_examples():
    assert normalize_angle(0.0) == 0.0
    assert normalize_angle(-math.pi / 2) == pytest.approx(3 * math.pi / 2, abs=1e-15)
    assert normalize_angle(5 * math.pi) == pytest.approx(math.pi, abs=1e-15)


def test_normalize_rejects_non_finite():
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError):
            normalize_angle(bad)


def test_normalize_tiny_negative_stays_below_two_pi():
    out = normalize_angle(-1e-20)
    assert 0.0 <= out < TWO_PI


@given(angles)
@settings(deadline=None)
def test_normalize_range_and_idempotence(a):
    b = normalize_angle(a)
    assert 0.0 <= b < TWO_PI
    assert normalize_angle(b) == b


@given(angles)
@settings(deadline=None)
def test_normalize_preserves_sin_cos(a):
    b = normalize_angle(a)
    assert math.sin(b) == pytest.approx(math.sin(a), abs=1e-12)
    assert math.cos(b) == pytest.approx(math.cos(a), abs=1e-12)


@given(st.floats(min_value=-1e3, max_value=1e3, allow_nan=False, allow_infinity=False))
@settings(deadline=None)
def test_wrap_to_pi_range(a):
    b = wrap_to_pi(a)
    assert -math.pi < b <= math.pi
    assert math.sin(b) == pytest.approx(math.sin(a), abs=1e-12)


def test_configuration_normalizes_heading():
    c = Configuration(1.0, 2.0, -math.pi / 2)
    assert c.theta == pytest.approx(3 * math.pi / 2)
    with pytest.raises(ValueError):
        Configuration(math.inf, 0.0, 0.0)


def test_mirror_problem_examples():
    start = Configuration(0, 0, 0)
    circle = TargetCircle((5, 3), 1.0, RotationDirection.CCW)
    mirrored = mirror_problem(start, circle)
    assert mirrored.center == pytest.approx((5, -3), abs=1e-12)
    assert mirrored.direction is RotationDirection.CW

    circle = TargetCircle((5, 0), 1.0, RotationDirection.CW)
    mirrored = mirror_problem(start, circle)
    assert mirrored.center == pytest.approx((5, 0), abs=1e-12)
    assert mirrored.direction is RotationDirection.CCW

    start = Configuration(2, 1, math.pi / 2)
    circle = TargetCircle((4, 5), 1.0, RotationDirection.CCW)
    mirrored = mirror_problem(start, circle)
    assert mirrored.center == pytest.approx((0, 5), abs=1e-12)
    assert mirrored.direction is RotationDirection.CW


def test_mirror_problem_involution_many():
    rng = random.Random(23)
    for _ in range(1000):
        start = Configuration(
            rng.uniform(-20, 20), rng.uniform(-20, 20), rng.uniform(0, TWO_PI)
        )
        circle = TargetCircle(
            (rng.uniform(-30, 30), rng.uniform(-30, 30)),
            rng.uniform(0.1, 3.0),
            RotationDirection.CW if rng.random() < 0.5 else RotationDirection.CCW,
        )
        once = mirror_problem(start, circle)
        twice = mirror_problem(start, once)
        assert twice.center == pytest.approx(circle.center, abs=1e-10)
        assert twice.direction is circle.direction
