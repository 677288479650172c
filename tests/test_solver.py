"""Unit tests for extremum search, discontinuities, and the global solver."""

import dataclasses
import math
import random
import re
from pathlib import Path

import numpy as np
import pytest

from dubins_circle import (
    AtDiscontinuityError,
    Configuration,
    InfeasiblePathError,
    PathType,
    RotationDirection,
    RotationalRelation,
    TargetCircle,
    analytic_derivative,
    canonical_instance,
    closed_form_length,
    discontinuities,
    final_config_at_alpha,
    length_at_alpha,
    mirror_problem,
    perpendicular_distance_to_center,
    rotational_relation,
    shortest_for_type,
    shortest_to_circle,
    trace_path,
    wrap_to_pi,
)
from dubins_circle import solver as solver_mod
from dubins_circle.circle_target import canonical_terms, canonical_terms_scalar
from dubins_circle.instances import random_instance
from dubins_circle.sweep import refine_min, sweep
from test_check_grid import GRID_FAILURES, JUMP, _grid_scenes

TWO_PI = 2.0 * math.pi
HALF_PI = 0.5 * math.pi
PI_3 = math.pi / 3.0
ORIGIN = Configuration(0, 0, 0)
CW, CCW = RotationDirection.CW, RotationDirection.CCW


class TestDegenerateInstance:
    circle = TargetCircle((10, 1), 1.0, CCW)

    def test_report(self):
        report = shortest_for_type(ORIGIN, self.circle, PathType.LSL)
        assert report.relation is RotationalRelation.CO_ROTATIONAL
        assert len(report.minima) == 1
        minimum = report.minima[0]
        assert minimum.alpha == pytest.approx(3 * math.pi / 2, abs=1e-9)
        assert minimum.length == pytest.approx(10.0, abs=1e-9)
        assert minimum.phi2 <= 1e-7
        assert report.maxima == ()
        assert report.global_min.kind == "degenerate-cs"
        assert report.assumption_ok is True

    def test_single_discontinuity_at_minimum(self):
        discs = discontinuities(ORIGIN, self.circle, PathType.LSL)
        assert len(discs) == 1
        assert discs[0].alpha == pytest.approx(3 * math.pi / 2, abs=1e-9)
        assert discs[0].cause == "phi2-wrap"
        assert abs(discs[0].jump) == pytest.approx(TWO_PI, abs=1e-6)

    def test_vanished_final_arc_is_zero_far_from_origin(self):
        # translated by 1e3*r or 1e6*r, the pose-to-pose constructor puts
        # phi2 at the degenerate CS up to ~1e4 ulps below 2*pi; the path
        # assembled from the kernel's terms must still read it as 0
        rng = random.Random(5)
        for _ in range(100):
            inst = random_instance(rng)
            r = inst.circle.radius
            for shift in (1e3 * r, 1e6 * r):
                s = inst.start
                start = Configuration(s.x + shift, s.y + shift, s.theta)
                cx, cy = inst.circle.center
                circle = TargetCircle((cx + shift, cy + shift), r, inst.circle.direction)
                for ptype in PathType:
                    relation = rotational_relation(ptype, circle.direction)
                    if relation is not RotationalRelation.CO_ROTATIONAL:
                        continue
                    g = shortest_for_type(start, circle, ptype).global_min
                    assert g.phi2 < 1e-9
                    assert g.length == pytest.approx(g.path.ls + r * g.path.phi1, abs=1e-9 * r)


class TestCounterRotationalInstance:
    """start at origin, circle (10,5) r=1 clockwise: frozen oracle values."""

    circle = TargetCircle((10, 5), 1.0, CW)

    def test_lsl_minimum(self):
        report = shortest_for_type(ORIGIN, self.circle, PathType.LSL)
        assert report.relation is RotationalRelation.COUNTER_ROTATIONAL
        assert len(report.minima) == 1
        minimum = report.minima[0]
        assert minimum.alpha == pytest.approx(3.091481874418, abs=1e-6)
        assert minimum.length == pytest.approx(10.512440006594, abs=1e-8)
        assert minimum.phi2 == pytest.approx(PI_3, abs=1e-6)

    def test_lsl_maximum(self):
        report = shortest_for_type(ORIGIN, self.circle, PathType.LSL)
        assert len(report.maxima) == 1
        maximum = report.maxima[0]
        assert maximum.alpha == pytest.approx(0.997086827053, abs=1e-6)
        assert maximum.length == pytest.approx(18.165331826518, abs=1e-8)
        assert maximum.phi2 == pytest.approx(5 * PI_3, abs=1e-6)

    def test_lsl_discontinuity(self):
        discs = discontinuities(ORIGIN, self.circle, PathType.LSL)
        assert len(discs) == 1
        assert discs[0].alpha == pytest.approx(2.138082164989, abs=1e-6)
        assert discs[0].jump == pytest.approx(-TWO_PI, abs=1e-5)

    def test_straight_line_through_center_at_extrema(self):
        report = shortest_for_type(ORIGIN, self.circle, PathType.LSL)
        for extremum in report.minima + report.maxima:
            _, path = length_at_alpha(ORIGIN, self.circle, PathType.LSL, extremum.alpha)
            assert perpendicular_distance_to_center(path, self.circle) <= 1e-6


class TestDerivative:
    circle = TargetCircle((10, 5), 1.0, CW)

    def test_counter_rotational_formula(self):
        discs = discontinuities(ORIGIN, self.circle, PathType.LSL)
        rng = random.Random(7)
        for _ in range(50):
            a = rng.uniform(0, TWO_PI)
            if any(abs(wrap_to_pi(a - d.alpha)) < 1e-3 for d in discs):
                continue
            h = 1e-6
            fd = (
                closed_form_length(ORIGIN, self.circle, PathType.LSL, a + h)
                - closed_form_length(ORIGIN, self.circle, PathType.LSL, a - h)
            ) / (2 * h)
            analytic = analytic_derivative(
                ORIGIN, self.circle, PathType.LSL, a, known_discontinuities=discs
            )
            assert fd == pytest.approx(analytic, abs=1e-4)
            _, path = length_at_alpha(ORIGIN, self.circle, PathType.LSL, a)
            assert analytic == pytest.approx(1.0 - 2.0 * math.cos(path.phi2), abs=1e-12)

    def test_phi2_pi_gives_3r(self):
        # derivative value r - 2r*cos(pi) = 3r wherever phi2 = pi
        report = shortest_for_type(ORIGIN, self.circle, PathType.LSL)
        lo, hi = report.minima[0].alpha, report.discontinuities[0].alpha
        # phi2 passes through pi between the minimum (pi/3) and the wrap (2*pi)
        for a in np.linspace(lo, lo + TWO_PI, 20000):
            _, path = length_at_alpha(ORIGIN, self.circle, PathType.LSL, a)
            if abs(path.phi2 - math.pi) < 2e-4:
                d = analytic_derivative(
                    ORIGIN,
                    self.circle,
                    PathType.LSL,
                    a,
                    known_discontinuities=report.discontinuities,
                )
                assert d == pytest.approx(3.0, abs=1e-3)
                return
        pytest.fail("no alpha with phi2 near pi found")

    def test_co_rotational_slope_is_r(self):
        circle = TargetCircle((10, 1), 2.5, CCW)
        d = analytic_derivative(ORIGIN, circle, PathType.LSL, 1.0)
        assert d == 2.5

    def test_raises_at_discontinuity(self):
        discs = discontinuities(ORIGIN, self.circle, PathType.LSL)
        with pytest.raises(AtDiscontinuityError):
            analytic_derivative(
                ORIGIN, self.circle, PathType.LSL, discs[0].alpha, known_discontinuities=discs
            )


class TestTableConditions:
    """Fixed-point conditions for the extremum/discontinuity angles.

    With phi1 evaluated at the solution and theta_i the start heading:
    counter-rotational minima satisfy alpha = theta_i +- phi1 +- 5*pi/6 and
    co-rotational minima alpha = theta_i +- phi1 -+ pi/2, with signs fixed
    by the first turn (+ for L) and the tangent direction.
    """

    @staticmethod
    def _phi1_at(start, circle, ptype, alpha):
        _, path = length_at_alpha(start, circle, ptype, alpha)
        return path.phi1

    def test_counter_rotational_rows(self, subtests=None):
        rng = random.Random(211)
        rows = {
            (PathType.LSL, CW): (1.0, 5 * math.pi / 6),
            (PathType.RSL, CW): (-1.0, 5 * math.pi / 6),
            (PathType.RSR, CCW): (-1.0, -5 * math.pi / 6),
            (PathType.LSR, CCW): (1.0, -5 * math.pi / 6),
        }
        for (ptype, direction), (sign, offset) in rows.items():
            checked = 0
            while checked < 8:
                inst = random_instance(rng)
                start = Configuration(0.0, 0.0, rng.uniform(0, TWO_PI))
                circle = TargetCircle(inst.circle.center, 1.0, direction)
                report = shortest_for_type(start, circle, ptype)
                if not report.minima:
                    continue
                for minimum in report.minima:
                    phi1 = self._phi1_at(start, circle, ptype, minimum.alpha)
                    residual = wrap_to_pi(
                        minimum.alpha - (start.theta + sign * phi1 + offset)
                    )
                    assert residual == pytest.approx(0.0, abs=1e-6)
                checked += 1

    def test_co_rotational_rows(self):
        rng = random.Random(223)
        rows = {
            (PathType.LSL, CCW): (1.0, -math.pi / 2),
            (PathType.RSL, CCW): (-1.0, -math.pi / 2),
            (PathType.RSR, CW): (-1.0, math.pi / 2),
            (PathType.LSR, CW): (1.0, math.pi / 2),
        }
        for (ptype, direction), (sign, offset) in rows.items():
            for _ in range(8):
                inst = random_instance(rng)
                start = Configuration(0.0, 0.0, rng.uniform(0, TWO_PI))
                circle = TargetCircle(inst.circle.center, 1.0, direction)
                report = shortest_for_type(start, circle, ptype)
                minimum = report.minima[0]
                phi1 = self._phi1_at(start, circle, ptype, minimum.alpha + 1e-7)
                residual = wrap_to_pi(
                    minimum.alpha - (start.theta + sign * phi1 + offset)
                )
                assert residual == pytest.approx(0.0, abs=1e-5)


class TestDiscontinuities:
    def test_counts_one_or_three(self):
        rng = random.Random(307)
        seen = set()
        for _ in range(150):
            inst = random_instance(rng)
            for ptype in PathType:
                relation_counter = (
                    shortest_for_type(inst.start, inst.circle, ptype).relation
                    is RotationalRelation.COUNTER_ROTATIONAL
                )
                discs = discontinuities(inst.start, inst.circle, ptype)
                if relation_counter:
                    assert len(discs) in (1, 3)
                    seen.add(len(discs))
                else:
                    assert len(discs) == 1
        assert seen == {1, 3}  # the corpus contains both counts

    def test_jump_magnitudes(self):
        rng = random.Random(311)
        for _ in range(40):
            inst = random_instance(rng)
            r = inst.circle.radius
            for ptype in PathType:
                for disc in discontinuities(inst.start, inst.circle, ptype):
                    assert abs(disc.jump) == pytest.approx(TWO_PI * r, abs=1e-6 * r)

    def test_detections_match_sweep_jumps(self):
        rng = random.Random(313)
        n = 100000
        for _ in range(12):
            inst = random_instance(rng)
            r = inst.circle.radius
            for ptype in PathType:
                result = sweep(inst.start, inst.circle, ptype, n=n)
                diffs = np.diff(np.append(result.lengths, result.lengths[0]))
                jump_idx = np.nonzero(np.abs(diffs) > 0.1 * r)[0]
                detected = discontinuities(inst.start, inst.circle, ptype)
                # every sweep jump has a detection within one grid cell
                for k in jump_idx:
                    mid = result.alphas[k] + math.pi / n
                    assert any(
                        abs(wrap_to_pi(d.alpha - mid)) <= TWO_PI / n for d in detected
                    ), f"unmatched sweep jump at {mid}"
                # every detection coincides with a sweep jump
                for d in detected:
                    assert any(
                        abs(wrap_to_pi(d.alpha - (result.alphas[k] + math.pi / n)))
                        <= TWO_PI / n
                        for k in jump_idx
                    ), f"spurious detection at {d.alpha}"

    def test_near_start_counts_match_sweep(self):
        # Within 4r the one-or-three count fails: LSL-cw gets a single
        # phi1-wrap (at alpha = 0), and RSL-cw keeps only one of its two
        # phi1-wraps because the other falls where RSL does not exist.
        n = 200000
        cases = (
            (PathType.LSL, (0.5, 1.0), [solver_mod.CAUSE_PHI1], False),
            (PathType.RSL, (-1.75, 1.75), [solver_mod.CAUSE_PHI2, solver_mod.CAUSE_PHI1], True),
        )
        for ptype, center, causes, partly_infeasible in cases:
            circle = TargetCircle(center, 1.0, CW)
            detected = discontinuities(ORIGIN, circle, ptype)
            assert [d.cause for d in detected] == causes
            result = sweep(ORIGIN, circle, ptype, n=n)
            assert (not result.feasible.all()) is partly_infeasible
            diffs = np.diff(np.append(result.lengths, result.lengths[0]))
            mids = result.alphas[np.abs(diffs) > 0.1] + math.pi / n
            assert len(mids) == len(detected)
            for d in detected:
                assert min(abs(wrap_to_pi(d.alpha - m)) for m in mids) <= 1e-4
            for m in mids:
                assert min(abs(wrap_to_pi(d.alpha - m)) for d in detected) <= 1e-4

    def test_tangent_wrap_locus_gives_one_discontinuity(self):
        # phi1 touches 0 without wrapping where phi2 wraps: one 2*pi*r jump
        for ptype, center, direction, alpha in (
            (PathType.RSR, (10, 1), CCW, 1.5 * math.pi),
            (PathType.LSL, (10, -1), CW, 0.5 * math.pi),
            (PathType.RSR, (0.5, 1), CCW, 1.5 * math.pi),
            (PathType.LSL, (0.5, -1), CW, 0.5 * math.pi),
        ):
            (disc,) = discontinuities(ORIGIN, TargetCircle(center, 1.0, direction), ptype)
            assert disc.cause == solver_mod.CAUSE_PHI2
            assert disc.alpha == pytest.approx(alpha, abs=1e-12)
            assert abs(disc.jump) == pytest.approx(TWO_PI, abs=1e-6)

    @staticmethod
    def _zero_crossings_cell_loop(f, vals, grid):
        """Reference: the per-cell loop that ``_zero_crossings`` vectorises,
        giving each crossing's bracket."""
        guard = solver_mod.NEAR_WRAP_GUARD
        n = len(grid)
        brackets = []
        for k in range(n):
            a, b = grid[k], grid[k] + (grid[1] - grid[0])
            fa, fb = vals[k], vals[(k + 1) % n]
            if math.isnan(fa) or math.isnan(fb) or max(abs(fa), abs(fb)) > math.pi / 2:
                continue
            if fa == 0.0:
                brackets.append((a, a))
            elif fa * fb < 0.0:
                brackets.append((a, b))
            elif abs(fa) < guard and abs(fb) < guard:
                mid = 0.5 * (a + b)
                fm = f(mid)
                if not math.isnan(fm) and fa * fm < 0.0:
                    brackets += [(a, mid), (mid, b)]
        return brackets

    def test_zero_crossings_match_cell_loop(self):
        # f is positive at every grid point with a crossing pair inside
        # every cell; vals adds an exact zero outside the guard, a NaN, a
        # sign change to a value past pi/2 and a plain sign change
        def f(x):
            return 0.01 - 0.3 * math.sin(32.0 * x) ** 2

        vals = np.full(64, 0.01)
        vals[[5, 6, 9, 19, 20, 30]] = [0.0, 0.5, math.nan, -0.02, 3.0, -0.02]
        cases = [(f, vals, np.arange(64) * (TWO_PI / 64))]
        grid = np.arange(solver_mod.SCAN_SAMPLES) * (TWO_PI / solver_mod.SCAN_SAMPLES)
        near = [(PathType.LSL, (0.5, 1.0)), (PathType.RSL, (-1.75, 1.75))]
        far = [(pt, random_instance(random.Random(s)).circle.center)
               for s in range(3) for pt in (PathType.LSL, PathType.RSL)]
        for ptype, center in near + far:
            ci = solver_mod.canonical_instance(ORIGIN, TargetCircle(center, 1.0, CW), ptype)
            terms = canonical_terms(ci, grid)
            for i in (1, 2):
                # the kernel's phi1 or phi2 folded from [0, 2*pi) to (-pi, pi]
                vals = np.where(terms[i] > math.pi, terms[i] - TWO_PI, terms[i])
                cases.append((lambda x, ci=ci, i=i: wrap_to_pi(canonical_terms_scalar(ci, x)[i]),
                              vals, grid))
        for func, vals, cells in cases:
            expected = self._zero_crossings_cell_loop(func, vals, cells)
            assert solver_mod._zero_crossings(func, vals, cells) == expected

    @staticmethod
    def _wrap_row(ci, cause):
        """(p, q, k) of the line p*cos(a) + q*sin(a) = k that the goal-side
        turn centre crosses at a wrap, from the canonical (c, d) and r."""
        c, d, r = ci.c, ci.d, ci.r
        lsl = ci.kind is PathType.LSL
        if cause == solver_mod.CAUSE_PHI1:
            return (0.0, 2.0 * r, r - d) if lsl else (2.0 * r, 0.0, -r - c)
        return (c, d - r, -2.0 * r) if lsl else (c - r, d, 0.0)

    def test_every_wrap_sits_on_its_row(self):
        # the scan only picks which row roots are wraps, so each
        # counter-rotational wrap is its row's root to rounding
        rng = random.Random(3)
        scenes = [(inst.start, inst.circle) for inst in (random_instance(rng) for _ in range(300))]
        scenes += [(ORIGIN, TargetCircle((cx, cy), 1.0, direction))
                   for direction, cx, cy in _grid_scenes()]
        eps = np.finfo(float).eps
        causes = set()
        for start, circle in scenes:
            for ptype in PathType:
                ci = canonical_instance(start, circle, ptype)
                if not ci.cw:
                    continue
                for a, cause in solver_mod._events(ci):
                    if cause not in (solver_mod.CAUSE_PHI1, solver_mod.CAUSE_PHI2):
                        continue
                    p, q, k = self._wrap_row(ci, cause)
                    residual = abs(p * math.cos(a) + q * math.sin(a) - k)
                    assert residual <= 16.0 * eps * max(math.hypot(p, q), ci.r), (
                        circle, ptype, a, cause)
                    causes.add(cause)
        assert causes == {solver_mod.CAUSE_PHI1, solver_mod.CAUSE_PHI2}

    def test_jump_signs_match_sweep_steps(self):
        # each jump's sign against the 4096-sample sweep's length step, in
        # world alpha order, across the cell that holds it; a wrap on a grid
        # angle may read on either side, so both cells beside it count
        n = 4096
        cell = TWO_PI / n
        rng = random.Random(313)
        scenes = [(inst.start, inst.circle) for inst in (random_instance(rng) for _ in range(40))]
        scenes += [
            (ORIGIN, TargetCircle((cx, cy), 1.0, direction))
            for direction, cx, cy in _grid_scenes()
            if JUMP not in GRID_FAILURES.get((direction, cx, cy), {})
        ]
        checked = 0
        for start, circle in scenes:
            for ptype in PathType:
                try:
                    detected = discontinuities(start, circle, ptype)
                except InfeasiblePathError:
                    continue
                lengths = sweep(start, circle, ptype, n=n).lengths
                for disc in detected:
                    k = round(disc.alpha / cell)
                    if abs(disc.alpha - k * cell) > 1e-9:
                        cells = [int(disc.alpha // cell)]
                    else:
                        cells = [k - 1, k]
                    steps = [lengths[(j + 1) % n] - lengths[j % n] for j in cells]
                    if not np.all(np.isfinite(steps)):
                        continue  # a cell with an infeasible end
                    step = max(steps, key=abs)
                    assert abs(step) > math.pi * circle.radius, (circle, ptype, disc)
                    assert math.copysign(1.0, step) == math.copysign(1.0, disc.jump), (
                        circle, ptype, disc)
                    checked += 1
        assert checked > 5000


class TestGlobalMinima:
    def test_matches_refined_sweep(self):
        rng = random.Random(401)
        for _ in range(30):
            inst = random_instance(rng)
            r = inst.circle.radius
            for ptype in PathType:
                report = shortest_for_type(inst.start, inst.circle, ptype)
                refined = refine_min(
                    sweep(inst.start, inst.circle, ptype, n=20000), inst.start, inst.circle
                )
                assert report.global_min.length == pytest.approx(
                    refined.length, abs=1e-6 * r
                )

    def test_kink_minimum_instance(self):
        # three discontinuities; the global minimum sits at a phi1 wrap,
        # not at the phi2 = pi/3 stationary point
        start = Configuration(0, 0, math.pi / 2)
        circle = TargetCircle((-0.36757402429701647, 9.786850901450004), 1.0, CW)
        report = shortest_for_type(start, circle, PathType.RSL)
        assert len(report.discontinuities) == 3
        assert report.global_min.kind == "discontinuity"
        assert abs(report.global_min.phi2 - PI_3) > 1e-3
        refined = refine_min(sweep(start, circle, PathType.RSL, n=200000), start, circle)
        assert report.global_min.length == pytest.approx(refined.length, abs=1e-6)
        assert abs(wrap_to_pi(report.global_min.alpha - refined.alpha)) < 1e-4
        # a stationary pi/3 minimum exists but is not the global one
        assert len(report.minima) == 1
        assert report.minima[0].phi2 == pytest.approx(PI_3, abs=1e-6)
        assert report.minima[0].length > report.global_min.length

    def test_stationary_point_on_a_wrap(self):
        # LSL-cw (10, 0) and its mirror RSR-ccw (10, 0): the phi1-wraps at
        # alpha = pi/6 and 5*pi/6 are exactly the 5*pi/3 and pi/3 stationary
        # points, which are left to the wraps' pinned paths
        for ptype, direction, alpha, wraps in (
            (PathType.LSL, CW, 5 * math.pi / 6, (math.pi / 6, 5 * math.pi / 6)),
            (PathType.RSR, CCW, 7 * math.pi / 6, (7 * math.pi / 6, 11 * math.pi / 6)),
        ):
            circle = TargetCircle((10.0, 0.0), 1.0, direction)
            report = shortest_for_type(ORIGIN, circle, ptype)
            assert report.minima == () and report.maxima == ()
            phi1_wraps = [d.alpha for d in report.discontinuities
                          if d.cause == solver_mod.CAUSE_PHI1]
            assert phi1_wraps == pytest.approx(wraps, abs=1e-12)
            g = report.global_min
            assert g.kind == "discontinuity"
            assert g.alpha == pytest.approx(alpha, abs=1e-12)
            assert g.length == pytest.approx(9.315146743628, abs=1e-12)
            refined = refine_min(sweep(ORIGIN, circle, ptype, n=200000), ORIGIN, circle)
            assert g.length == pytest.approx(refined.length, abs=1e-9)

    def test_results_are_plain_floats(self):
        far = [random_instance(random.Random(s)) for s in range(1, 4)]
        near = [(0, 3), (0.5, 3), (2, 0.5), (1, -3), (-1.75, 1.75)]
        scenes = [(inst.start, inst.circle) for inst in far] + [
            (ORIGIN, TargetCircle(center, 1.0, direction))
            for center in near
            for direction in (CW, CCW)
        ]
        checked = 0
        for start, circle in scenes:
            for ptype in PathType:
                try:
                    report = shortest_for_type(start, circle, ptype)
                except InfeasiblePathError:
                    continue
                g, path = report.global_min, report.global_min.path
                values = [g.alpha, g.length, g.phi2, path.phi1, path.ls, path.phi2,
                          path.total_length]
                values += [d.alpha for d in report.discontinuities]
                assert all(type(v) is float for v in values), (ptype, circle, values)
                checked += 1
        assert checked > 40


class TestNearStartMinima:
    """Starts within 4r, where RSL/LSR exist on part of the circle only."""

    def test_boundary_winners_touch(self):
        # a minimum on a feasibility boundary lies where the turn circles
        # touch, L_cc = 2r, not at the last feasible sample of a grid
        boundary_winners = 0
        for seed in (1, 2, 3):
            rng = random.Random(seed)
            for _ in range(60):
                dist, angle = rng.uniform(1.2, 5.0), rng.uniform(0.0, TWO_PI)
                direction = CW if rng.random() < 0.5 else CCW
                center = (dist * math.cos(angle), dist * math.sin(angle))
                circle = TargetCircle(center, 1.0, direction)
                for ptype in PathType:
                    try:
                        report = shortest_for_type(ORIGIN, circle, ptype)
                    except InfeasiblePathError:
                        continue
                    if report.global_min.kind == "feasibility-boundary":
                        boundary_winners += 1
                        path = report.global_min.path
                        lcc = math.dist(path.c1_center, path.c2_center)
                        assert lcc == pytest.approx(2.0, abs=1e-6)
                        # one-sided: the sweep must reach the boundary
                        # minimum; a wrap beside the boundary can leave the
                        # solver above it (ROADMAP item 2)
                        grid = sweep(ORIGIN, circle, ptype, n=200000)
                        refined = refine_min(grid, ORIGIN, circle)
                        assert refined.length <= report.global_min.length + 1e-6
        assert boundary_winners > 0

    def test_degenerate_minima(self):
        # each is a collapsed path, attained exactly at its event angle
        cases = (
            # coincident turn circles: a single arc of pi
            (PathType.LSL, (0, 3), CW, math.pi, "single-arc"),
            (PathType.RSR, (0, -3), CCW, math.pi, "single-arc"),
            # isolated points where phi1 touches 0 without wrapping
            (PathType.RSL, (0, 3), CW, math.pi, "single-arc"),
            (PathType.LSR, (1, -3), CCW, math.pi + 1.0, "discontinuity"),
            # a feasibility boundary where the straight and one arc vanish
            (PathType.RSL, (2, 1), CW, HALF_PI, "single-arc"),
            (PathType.LSR, (2, -1), CCW, HALF_PI, "single-arc"),
            (PathType.RSL, (-2, 1), CW, 3 * HALF_PI, "single-arc"),
            (PathType.LSR, (-2, -1), CCW, 3 * HALF_PI, "single-arc"),
            # the LSL cusp at alpha = pi: the two arcs merge into one
            (PathType.LSL, (2, 1), CW, HALF_PI, "single-arc"),
            (PathType.RSR, (2, -1), CCW, HALF_PI, "single-arc"),
        )
        for ptype, center, direction, expected, kind in cases:
            report = shortest_for_type(ORIGIN, TargetCircle(center, 1.0, direction), ptype)
            assert report.global_min.length == pytest.approx(expected, abs=1e-12)
            assert report.global_min.kind == kind

    def test_cusp_under_rigid_motions(self):
        # the LSL cusp scenes of test_degenerate_minima moved anywhere: the
        # answer is the quarter arc, never a pinned phi1-wrap beside the cusp
        rng = random.Random(1)
        for _ in range(200):
            theta = rng.uniform(0.0, TWO_PI)
            sx, sy = rng.uniform(-50.0, 50.0), rng.uniform(-50.0, 50.0)
            start = Configuration(sx, sy, theta)
            c, s = math.cos(theta), math.sin(theta)
            for cy, direction in ((1.0, CW), (-1.0, CCW)):
                center = (sx + 2.0 * c - cy * s, sy + 2.0 * s + cy * c)
                circle = TargetCircle(center, 1.0, direction)
                result = shortest_to_circle(start, circle)
                assert result.length == pytest.approx(HALF_PI, abs=1e-9)
                assert result.per_type[result.path_type].global_min.kind == "single-arc"
                end = trace_path(result.path, start)
                goal = final_config_at_alpha(circle, result.alpha)
                assert math.hypot(end.x - goal.x, end.y - goal.y) <= 1e-10
                assert abs(wrap_to_pi(end.theta - goal.theta)) <= 1e-10

    def test_touch_point_under_rigid_motions(self):
        # scenes whose phi1 row is tangent, moved anywhere: rounding puts the
        # row a hair past tangency, and the touch point must still be found
        rng = random.Random(5)
        scenes = (
            (PathType.RSL, 0.5, 3.0, CW, math.pi + 0.5),
            (PathType.RSL, 10.0, 3.0, CW, math.pi + 10.0),
            (PathType.LSL, 0.5, -1.0, CW, 0.5),
            (PathType.LSL, 10.0, -1.0, CW, 10.0),
            (PathType.LSR, 1.0, -3.0, CCW, math.pi + 1.0),
        )
        for _ in range(200):
            theta = rng.uniform(0.0, TWO_PI)
            sx, sy = rng.uniform(-50.0, 50.0), rng.uniform(-50.0, 50.0)
            start = Configuration(sx, sy, theta)
            c, s = math.cos(theta), math.sin(theta)
            for ptype, cx, cy, direction, expected in scenes:
                circle = TargetCircle((sx + cx * c - cy * s, sy + cx * s + cy * c), 1.0, direction)
                g = shortest_for_type(start, circle, ptype).global_min
                assert g.length == pytest.approx(expected, abs=1e-6), (ptype, cx, cy, start)
                end = trace_path(g.path, start)
                goal = final_config_at_alpha(circle, g.alpha)
                assert math.hypot(end.x - goal.x, end.y - goal.y) <= 1e-10
                assert abs(wrap_to_pi(end.theta - goal.theta)) <= 1e-10

    def test_phi1_row_just_short_of_tangency_keeps_its_dip(self):
        # the phi1 row still crosses: the two wraps 2e-5 rad apart bound a
        # narrow dip below the straight 10, which a touch point would lose
        circle = TargetCircle((10.0, -1.0 + 1e-10), 1.0, CW)
        g = shortest_for_type(ORIGIN, circle, PathType.LSL).global_min
        assert g.length <= 10.0 - 5e-6
        end = trace_path(g.path, ORIGIN)
        goal = final_config_at_alpha(circle, g.alpha)
        assert math.hypot(end.x - goal.x, end.y - goal.y) <= 1e-10
        assert abs(wrap_to_pi(end.theta - goal.theta)) <= 1e-10

    @pytest.mark.xfail(
        strict=True,
        reason="the wrap scan misses a phi1-wrap beside the feasibility boundary "
        "(FOUND line on RSL-cw (2, 0.5) in CHANGES.md)",
    )
    def test_wrap_beside_boundary_reaches_sweep_minimum(self):
        for ptype, center, direction in (
            (PathType.RSL, (2, 0.5), CW),
            (PathType.LSR, (2, -0.5), CCW),
        ):
            circle = TargetCircle(center, 1.0, direction)
            grid_min = np.nanmin(sweep(ORIGIN, circle, ptype, n=200000).lengths)
            report = shortest_for_type(ORIGIN, circle, ptype)
            assert report.global_min.length <= grid_min + 1e-6

    def test_touch_point_minimum_is_mirror_invariant(self):
        # the path with phi1 = 0, ls = 0.5 and phi2 = pi
        for ptype, center, direction in (
            (PathType.RSL, (0.5, 3), CW),
            (PathType.LSR, (0.5, -3), CCW),
        ):
            report = shortest_for_type(ORIGIN, TargetCircle(center, 1.0, direction), ptype)
            assert report.global_min.length == pytest.approx(math.pi + 0.5, abs=1e-6)


class TestMirrorSymmetry:
    def test_reports_swap_under_mirroring(self):
        rng = random.Random(419)
        scenes = [(inst.start, inst.circle) for inst in (random_instance(rng) for _ in range(25))]
        # near starts: (k/4, +-3) crosses the touch points of the first-arc
        # wrap locus, and (0.5, -1) ccw has a type that exists nowhere
        scenes += [(ORIGIN, TargetCircle((k / 4, y), 1.0, direction))
                   for k in range(13) for y in (3, -3) for direction in (CW, CCW)]
        scenes.append((ORIGIN, TargetCircle((0.5, -1.0), 1.0, CCW)))
        for start, circle in scenes:
            mirrored_circle = mirror_problem(start, circle)
            for ptype in PathType:
                try:
                    rep = shortest_for_type(start, circle, ptype)
                except InfeasiblePathError:
                    with pytest.raises(InfeasiblePathError):
                        shortest_for_type(start, mirrored_circle, ptype.mirrored)
                    continue
                rep_m = shortest_for_type(start, mirrored_circle, ptype.mirrored)
                assert rep.global_min.length == pytest.approx(
                    rep_m.global_min.length, abs=1e-9
                )
                # alpha reflects across the start heading line (theta = 0)
                assert wrap_to_pi(
                    rep.global_min.alpha + rep_m.global_min.alpha
                ) == pytest.approx(0.0, abs=1e-6)
                assert len(rep.minima) == len(rep_m.minima)
                for e, em in zip(
                    rep.minima, sorted(rep_m.minima, key=lambda m: -m.alpha)
                ):
                    assert e.length == pytest.approx(em.length, abs=1e-9)


class TestShortestToCircle:
    def test_oracle_verified_global_choice(self):
        # LSR tangent arrival beats the straight-line LSL on this instance
        result = shortest_to_circle(ORIGIN, TargetCircle((10, 1), 1.0, CCW))
        assert result.path_type is PathType.LSR
        assert result.length == pytest.approx(9.365188535855, abs=1e-8)
        assert result.per_type[PathType.LSL].global_min.length == pytest.approx(
            10.0, abs=1e-9
        )

    def test_counter_instance(self):
        result = shortest_to_circle(ORIGIN, TargetCircle((10, 5), 1.0, CW))
        assert result.path_type is PathType.LSL
        assert result.length == pytest.approx(10.512440006594, abs=1e-8)
        assert set(result.per_type) == set(PathType)

    def test_equals_sweep_argmin(self):
        rng = random.Random(431)
        for _ in range(10):
            inst = random_instance(rng)
            result = shortest_to_circle(inst.start, inst.circle)
            best = min(
                refine_min(
                    sweep(inst.start, inst.circle, pt, n=50000), inst.start, inst.circle
                ).length
                for pt in PathType
            )
            assert result.length == pytest.approx(best, abs=1e-6 * inst.circle.radius)

    def test_mirrored_instance_swaps_type(self):
        rng = random.Random(433)
        for _ in range(10):
            inst = random_instance(rng)
            result = shortest_to_circle(inst.start, inst.circle)
            mirrored = mirror_problem(inst.start, inst.circle)
            result_m = shortest_to_circle(inst.start, mirrored)
            assert result_m.length == pytest.approx(result.length, abs=1e-10)
            if not result.tie:
                assert result_m.path_type is result.path_type.mirrored

    def test_tie_break_fixed_order(self, monkeypatch):
        inst = random_instance(random.Random(437))
        real = solver_mod.shortest_for_type
        baseline = {pt: real(inst.start, inst.circle, pt) for pt in PathType}
        target = min(rep.global_min.length for rep in baseline.values())

        def forced(start, circle, ptype, **kwargs):
            rep = baseline[ptype]
            forced_min = dataclasses.replace(rep.global_min, length=target)
            return dataclasses.replace(rep, global_min=forced_min)

        monkeypatch.setattr(solver_mod, "shortest_for_type", forced)
        result = solver_mod.shortest_to_circle(inst.start, inst.circle)
        assert result.path_type is PathType.LSL  # first in fixed order
        assert result.tie is True
        assert all(rep.tie for rep in result.per_type.values())

    def test_near_tie_behind_start_prefers_lsl(self):
        # cw circles behind the start on its heading line: RSL and LSL differ
        # by rounding only, and either may come out a few ulps shorter
        for x in (-9.5, -8.25, -7.75, -7.25):
            result = shortest_to_circle(ORIGIN, TargetCircle((x, 0.0), 1.0, CW))
            lsl, rsl = result.per_type[PathType.LSL], result.per_type[PathType.RSL]
            assert lsl.global_min.length != rsl.global_min.length
            assert lsl.global_min.length == pytest.approx(rsl.global_min.length, abs=1e-12)
            assert result.path_type is PathType.LSL
            assert result.tie is True
            assert lsl.tie is True and rsl.tie is True

    def test_assumption_warning_flag(self):
        close = TargetCircle((3, 0), 1.0, CW)
        result = shortest_to_circle(ORIGIN, close)
        assert result.assumption_ok is False
        assert result.length > 0.0

    def test_wholly_infeasible_type_is_skipped(self):
        # RSL has no inner tangent for any alpha on this non-assumption instance
        circle = TargetCircle((0.5, -1.0), 1.0, CCW)
        result = shortest_to_circle(ORIGIN, circle)
        assert PathType.RSL not in result.per_type
        assert result.length > 0.0
        assert result.assumption_ok is False

    def test_readme_library_example(self, capsys):
        # the README's python block runs as written against the public API
        readme = Path(__file__).resolve().parents[1] / "README.md"
        (block,) = re.findall(r"```python\n(.*?)```", readme.read_text(encoding="utf-8"), re.S)
        exec(compile(block, str(readme), "exec"), {})
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("PathType.LSL 10.51244")


class TestArrivalPose:
    """Every type's answer, traced from the start, lands on its arrival pose.

    The solver assembles each winning path from kernel terms, so this is
    the independent check of the assembled geometry.
    """

    @staticmethod
    def _assert_arrives(start, circle, position_tol=1e-10):
        r = circle.radius
        for rep in shortest_to_circle(start, circle).per_type.values():
            g = rep.global_min
            end = trace_path(g.path, start)
            goal = final_config_at_alpha(circle, g.alpha)
            assert math.hypot(end.x - goal.x, end.y - goal.y) <= position_tol * r
            assert abs(wrap_to_pi(end.theta - goal.theta)) <= 1e-10
            assert g.length == g.path.total_length

    def test_origin_grid(self):
        for direction, cx, cy in _grid_scenes():
            self._assert_arrives(ORIGIN, TargetCircle((cx, cy), 1.0, direction))

    def test_random_far_from_origin(self):
        rng = random.Random(7)
        for _ in range(200):
            inst = random_instance(rng)
            r = inst.circle.radius
            cx, cy = inst.circle.center
            for shift in (0.0, 1e3 * r, 1e6 * r):
                s = inst.start
                start = Configuration(s.x + shift, s.y + shift, s.theta)
                circle = TargetCircle((cx + shift, cy + shift), r, inst.circle.direction)
                # at 1e6*r one ulp of a coordinate is ~1.2e-10*r: the worst
                # gap there, 2.6e-10*r, is about 2 ulps of the coordinates
                self._assert_arrives(start, circle, 1e-9 if shift == 1e6 * r else 1e-10)


class TestNearCusp:
    """LSL-cw and RSR-ccw just outside the cusp band, where the two turn
    circles nearly coincide at one alpha.

    The centre (2 + 2*eps, +-1) puts |V0| - 2r = 2*eps, outside the cusp
    band of ``DEGENERATE_CENTER_TOL``*r; there phi1 turns by ~1/eps per
    radian of alpha, so a phi1-wrap pinned at a bisected angle misses its
    path by up to ~1e-4*r, and one that keeps the kernel's phi2 by up to
    ~1e-7*r.
    """

    @pytest.mark.parametrize("eps", [1e-9, 3e-9, 1e-8, 3e-8, 1e-7, 3e-7])
    @pytest.mark.parametrize("ptype, cy, direction", [
        (PathType.LSL, 1.0, CW),
        (PathType.RSR, -1.0, CCW),
    ])
    def test_type_report_reaches_the_sweep_minimum(self, eps, ptype, cy, direction):
        circle = TargetCircle((2.0 + 2.0 * eps, cy), 1.0, direction)
        g = shortest_for_type(ORIGIN, circle, ptype).global_min
        refined = refine_min(sweep(ORIGIN, circle, ptype, n=200000), ORIGIN, circle)
        assert abs(g.length - refined.length) <= 1e-6
        end = trace_path(g.path, ORIGIN)
        goal = final_config_at_alpha(circle, g.alpha)
        # a cusp band of 1e-6*r would read them as cusps and end 2*eps*r off
        assert math.hypot(end.x - goal.x, end.y - goal.y) <= 1e-12


def _translated_scenes(n, seed):
    """(scene, shifted scene, shift) for far scenes on a 2**-20 grid, each
    moved by +-1e3*r and +-1e6*r, where the start-to-point differences are
    exact."""
    rng = random.Random(seed)
    grid = 2.0**-20

    def snap(v):
        return round(v / grid) * grid

    for _ in range(n):
        sx, sy = snap(rng.uniform(-20.0, 20.0)), snap(rng.uniform(-20.0, 20.0))
        dist, angle = rng.uniform(6.0, 30.0), rng.uniform(0.0, TWO_PI)
        cx, cy = snap(sx + dist * math.cos(angle)), snap(sy + dist * math.sin(angle))
        theta, direction = rng.uniform(0.0, TWO_PI), rng.choice((CW, CCW))
        scene = (Configuration(sx, sy, theta), TargetCircle((cx, cy), 1.0, direction))
        for shift in (1e3, -1e3, 1e6, -1e6):
            for tx, ty in ((shift, shift), (shift, -shift)):
                assert (cx + tx) - (sx + tx) == cx - sx
                assert (cy + ty) - (sy + ty) == cy - sy
                start = Configuration(sx + tx, sy + ty, theta)
                circle = TargetCircle((cx + tx, cy + ty), 1.0, direction)
                yield scene, (start, circle), abs(shift)


class TestTranslationInvariance:
    """The reduction subtracts the start before it rotates, so a scene moved
    by an exact translation reduces to the same bits."""

    def test_solver_and_kernel_are_bit_identical(self):
        rng = random.Random(11)
        for (start0, circle0), (start, circle), _ in _translated_scenes(40, 5):
            base, moved = shortest_to_circle(start0, circle0), shortest_to_circle(start, circle)
            assert (moved.path_type, moved.length, moved.alpha) == (
                base.path_type, base.length, base.alpha
            )
            for ptype in PathType:
                for alpha in (rng.uniform(0.0, TWO_PI) for _ in range(3)):
                    assert closed_form_length(start, circle, ptype, alpha) == (
                        closed_form_length(start0, circle0, ptype, alpha)
                    )

    def test_constructor_within_an_ulp_of_the_offset(self):
        # the world goal pose of final_config_at_alpha rounds at the scale
        # of the moved coordinates, and the constructor reads it from there
        rng = random.Random(13)
        for (start0, circle0), (start, circle), _ in _translated_scenes(40, 7):
            ulp = math.ulp(max(abs(v) for v in (start.x, start.y, *circle.center)))
            for ptype in PathType:
                for alpha in (rng.uniform(0.0, TWO_PI) for _ in range(3)):
                    moved = length_at_alpha(start, circle, ptype, alpha).length
                    base = length_at_alpha(start0, circle0, ptype, alpha).length
                    assert abs(moved - base) <= ulp

    def test_canonical_centre_matches_high_precision(self):
        import mpmath

        for _, (start, circle), shift in _translated_scenes(20, 9):
            # the same float inputs, reduced in 50 digits
            with mpmath.workdps(50):
                u0 = mpmath.mpf(circle.center[0]) - mpmath.mpf(start.x)
                v0 = mpmath.mpf(circle.center[1]) - mpmath.mpf(start.y)
                cos_t, sin_t = mpmath.cos(start.theta), mpmath.sin(start.theta)
                u, v = cos_t * u0 + sin_t * v0, cos_t * v0 - sin_t * u0
            for ptype in PathType:
                ci = canonical_instance(start, circle, ptype)
                mu, mv = (u, -v) if ptype in (PathType.RSR, PathType.LSR) else (u, v)
                if ci.kind is PathType.RSL:  # a quarter turn more
                    mu, mv = -mv, mu
                assert abs(ci.c - mu) <= 1e-14 and abs(ci.d - mv) <= 1e-14, shift
