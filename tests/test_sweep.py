"""Unit tests for the sweep oracle and its refinement."""

import math
import os
import platform
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from dubins_circle import (
    Configuration,
    InfeasiblePathError,
    PathType,
    RotationDirection,
    TargetCircle,
    closed_form_length,
    length_at_alpha,
    shortest_for_type,
    wrap_to_pi,
)
from dubins_circle.instances import random_instance
from dubins_circle.sweep import grid_argmin, refine_min, sweep

TWO_PI = 2.0 * math.pi
ORIGIN = Configuration(0, 0, 0)
DEGENERATE = TargetCircle((10, 1), 1.0, RotationDirection.CCW)


def test_rejects_small_n():
    with pytest.raises(ValueError):
        sweep(ORIGIN, DEGENERATE, PathType.LSL, n=15)


def test_grid_is_uniform_and_complete():
    result = sweep(ORIGIN, DEGENERATE, PathType.LSL, n=64)
    assert result.n == 64
    np.testing.assert_allclose(result.alphas, np.arange(64) * TWO_PI / 64, rtol=0, atol=0)
    assert result.alphas[0] == 0.0
    assert result.alphas[-1] < TWO_PI


def test_sweep_matches_constructor_route():
    rng = random.Random(51)
    inst = random_instance(rng)
    for ptype in PathType:
        result = sweep(inst.start, inst.circle, ptype, n=64)
        for k in range(0, 64, 7):
            length, path = length_at_alpha(inst.start, inst.circle, ptype, float(result.alphas[k]))
            assert result.lengths[k] == pytest.approx(length, abs=1e-9 * max(1.0, length))
            assert result.phi1[k] == pytest.approx(path.phi1, abs=1e-9)
            assert result.phi2[k] == pytest.approx(path.phi2, abs=1e-9)
            assert result.ls[k] == pytest.approx(path.ls, abs=1e-9 * max(1.0, path.ls))


def test_degenerate_min_sample_near_three_half_pi():
    result = sweep(ORIGIN, DEGENERATE, PathType.LSL, n=4096)
    k = int(np.nanargmin(result.lengths))
    assert result.alphas[k] == pytest.approx(3 * math.pi / 2, abs=TWO_PI / 4096)
    assert result.lengths[k] == pytest.approx(10.0, abs=TWO_PI / 4096 * 1.5)


def test_co_rotational_constant_differences():
    result = sweep(ORIGIN, DEGENERATE, PathType.LSL, n=256)
    diffs = np.diff(result.lengths)
    dalpha = TWO_PI / 256
    smooth = np.abs(diffs - dalpha) < 1e-9
    assert smooth.sum() == 254  # all but the single wrap cell


def test_sweep_deterministic():
    a = sweep(ORIGIN, DEGENERATE, PathType.RSL, n=1024)
    b = sweep(ORIGIN, DEGENERATE, PathType.RSL, n=1024)
    np.testing.assert_array_equal(a.lengths, b.lengths)
    np.testing.assert_array_equal(a.feasible, b.feasible)


class TestRefine:
    def test_degenerate_exact(self):
        result = sweep(ORIGIN, DEGENERATE, PathType.LSL, n=4096)
        refined = refine_min(result, ORIGIN, DEGENERATE)
        assert refined.alpha == pytest.approx(3 * math.pi / 2, abs=1e-8)
        assert refined.length == pytest.approx(10.0, abs=1e-9)

    def test_counter_rotational_phi2_condition(self):
        circle = TargetCircle((10, 5), 1.0, RotationDirection.CW)
        refined = refine_min(sweep(ORIGIN, circle, PathType.LSL, n=4096), ORIGIN, circle)
        _, path = length_at_alpha(ORIGIN, circle, PathType.LSL, refined.alpha)
        assert path.phi2 == pytest.approx(math.pi / 3, abs=1e-6)

    def test_never_above_best_grid_sample(self):
        rng = random.Random(53)
        for _ in range(40):
            inst = random_instance(rng)
            for ptype in PathType:
                result = sweep(inst.start, inst.circle, ptype, n=2048)
                refined = refine_min(result, inst.start, inst.circle)
                assert refined.length <= np.nanmin(result.lengths) + 1e-12

    def test_grid_doubling_converges(self):
        rng = random.Random(59)
        for _ in range(10):
            inst = random_instance(rng)
            r = inst.circle.radius
            for ptype in PathType:
                coarse = refine_min(
                    sweep(inst.start, inst.circle, ptype, n=8192), inst.start, inst.circle
                )
                fine = refine_min(
                    sweep(inst.start, inst.circle, ptype, n=16384), inst.start, inst.circle
                )
                assert fine.length <= coarse.length + 1e-9 * r

    def test_all_infeasible_raises(self):
        # co-rotational RSL with the inner tangent missing for every alpha
        circle = TargetCircle((0.5, -1.0), 1.0, RotationDirection.CCW)
        result = sweep(ORIGIN, circle, PathType.RSL, n=64)
        assert not result.feasible.any()
        with pytest.raises(InfeasiblePathError):
            refine_min(result, ORIGIN, circle)

    def test_partial_feasibility_and_jump_minimum(self):
        # counter-rotational RSL close to the start: feasibility varies with
        # alpha and the minimum sits exactly at a 2*pi*r jump, so the refined
        # length is the lower one-sided limit at the refined alpha
        circle = TargetCircle((2.2, 0.3), 1.0, RotationDirection.CW)
        result = sweep(ORIGIN, circle, PathType.RSL, n=4096)
        assert result.feasible.any() and not result.feasible.all()
        refined = refine_min(result, ORIGIN, circle)
        sides = [
            closed_form_length(ORIGIN, circle, PathType.RSL, refined.alpha + d)
            for d in (-1e-9, 1e-9)
        ]
        assert refined.length == pytest.approx(min(sides), abs=1e-8)

    def test_vanished_arc_reads_zero_on_grid_and_refinement(self):
        # LSR-cw (3, -1): the straight path of length 3 with phi1 = phi2 = 0;
        # the vector kernel on the grid and the scalar kernel in the
        # refinement both read the empty first arc as 0
        circle = TargetCircle((3, -1), 1.0, RotationDirection.CW)
        result = sweep(ORIGIN, circle, PathType.LSR, n=4096)
        assert np.nanmin(result.lengths) == pytest.approx(3.0, abs=1e-12)
        refined = refine_min(result, ORIGIN, circle)
        assert refined.length == pytest.approx(3.0, abs=1e-12)

    @pytest.mark.parametrize(
        "ptype, center, direction",
        [
            (PathType.LSR, (0.75, -1.0), "cw"),
            (PathType.LSR, (2.5, -1.0), "cw"),
            (PathType.RSL, (0.75, 1.0), "ccw"),
            (PathType.RSL, (2.5, 1.0), "ccw"),
        ],
    )
    def test_empty_first_arc_matches_solver(self, ptype, center, direction):
        # co-rotational types whose first arc is empty at every alpha: a
        # 2*pi branch there would put the whole sweep 2*pi*r high
        circle = TargetCircle(center, 1.0, direction)
        refined = refine_min(sweep(ORIGIN, circle, ptype, n=4096), ORIGIN, circle)
        solved = shortest_for_type(ORIGIN, circle, ptype).global_min
        assert refined.length == pytest.approx(solved.length, abs=1e-9)
        assert abs(wrap_to_pi(refined.alpha - solved.alpha)) <= 1e-6

    @pytest.mark.parametrize("x", [0.5, 3.0, 10.0])
    def test_touch_point_minimum(self, x):
        # RSL-cw (x, 3): phi1 touches 0 at one alpha only, where the path is
        # straight along the start ray for x, then a half turn
        circle = TargetCircle((x, 3.0), 1.0, RotationDirection.CW)
        refined = refine_min(sweep(ORIGIN, circle, PathType.RSL, n=4096), ORIGIN, circle)
        assert refined.length == pytest.approx(x + math.pi, abs=1e-6)


def test_grid_is_arange_times_step():
    for n in (16, 4097, 200000):
        result = sweep(ORIGIN, DEGENERATE, PathType.LSL, n=n)
        expected = np.arange(n) * (TWO_PI / n)
        assert np.array_equal(result.alphas.view(np.int64), expected.view(np.int64))


def test_grid_is_shared_and_read_only():
    a = sweep(ORIGIN, DEGENERATE, PathType.LSL, n=256)
    b = sweep(ORIGIN, DEGENERATE, PathType.RSL, n=256)
    assert a.alphas is b.alphas and not a.alphas.flags.writeable
    with pytest.raises(ValueError):
        a.alphas[0] = 1.0


@pytest.mark.parametrize(
    "values",
    [
        [np.nan, np.nan, 3.0, 1.0, 2.0],
        [3.0, np.nan, np.nan, 1.0, np.nan, 2.0],
        [3.0, 1.0, 2.0, np.nan, np.nan],
        [np.nan, 2.0, 1.0, np.nan, 1.0, 1.0, np.nan],
        [1.0, 1.0, 1.0],
        [np.nan, np.nan, 5.0, np.nan],
        [7.0],
    ],
    ids=["nan-start", "nan-middle", "nan-end", "repeated", "all-equal", "single-finite", "one"],
)
def test_grid_argmin_matches_nanargmin(values):
    values = np.array(values)
    before = values.copy()
    assert grid_argmin(values) == np.nanargmin(values)
    assert np.array_equal(values, before, equal_nan=True)


# every type in both directions far away, and the partly infeasible near RSL
_BUDGET_CASES = [
    (TargetCircle((10, 5), 1.0, direction), ptype)
    for direction in RotationDirection
    for ptype in PathType
] + [(TargetCircle((1.5, 1.0), 1.0, RotationDirection.CW), PathType.RSL)]


@pytest.mark.parametrize(
    "circle, ptype",
    _BUDGET_CASES,
    ids=[f"{p.value}-{c.direction.value}{c.center}" for c, p in _BUDGET_CASES],
)
def test_sweep_and_refine_allocate_little_beyond_the_result(circle, ptype):
    # the returned arrays are 4.125 x 8n bytes (four float, one bool); the
    # budget leaves room for a bool mask of n bytes, not for a float
    # temporary of the grid's size
    n = 100000
    refine_min(sweep(ORIGIN, circle, ptype, n=n), ORIGIN, circle)  # warm-up
    tracemalloc.start()
    try:
        result = sweep(ORIGIN, circle, ptype, n=n)
        refine_min(result, ORIGIN, circle)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4.5 * 8 * n


# the 8 (type, direction) scenes at centre (10, 5); three warm-up rounds,
# then the minor page faults of one more, per operation
_FAULT_LOOP = """
import resource
from dubins_circle import Configuration, PathType, RotationDirection, TargetCircle
from dubins_circle.sweep import refine_min, sweep

start = Configuration(0, 0, 0)
scenes = [(TargetCircle((10, 5), 1.0, d), p) for d in RotationDirection for p in PathType]
for _ in range(3):
    for circle, ptype in scenes:
        refine_min(sweep(start, circle, ptype, n=200000), start, circle)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for circle, ptype in scenes:
    refine_min(sweep(start, circle, ptype, n=200000), start, circle)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / len(scenes))
"""


@pytest.mark.skipif(
    platform.libc_ver()[0] != "glibc", reason="the fault count depends on glibc's allocator"
)
def test_sweep_reuses_its_memory_across_operations():
    # one sweep's four float outputs are one 6.4 MB block, which glibc keeps
    # mapped and hands to the next sweep; four separate 1.6 MB blocks go back
    # to the OS on free and cost ~1,600 minor faults per operation. A fresh
    # interpreter, so the allocator starts clean.
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", _FAULT_LOOP], env=env, capture_output=True, text=True, check=True
    )
    assert float(done.stdout) <= 50
