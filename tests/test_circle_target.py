"""Unit tests for the circle-goal parametrization and its closed forms."""

import math
import random

import numpy as np
import pytest

from dubins_circle import (
    Configuration,
    DegenerateDirectionError,
    PathType,
    RotationDirection,
    RotationalRelation,
    TargetCircle,
    assumption_check,
    closed_form_length,
    closed_form_table,
    final_config_at_alpha,
    length_at_alpha,
    perpendicular_distance_to_center,
    rotational_relation,
    rsl_between,
)
from dubins_circle.circle_target import (
    CanonicalInstance,
    _fold_two_pi,
    _mod_two_pi,
    canonical_instance,
    lsl_terms,
    rsl_terms,
)
from dubins_circle.instances import random_instance
from dubins_circle.paths import INNER_TANGENT_REL_TOL
from dubins_circle.sweep import sweep

TWO_PI = 2.0 * math.pi
HALF_PI = 0.5 * math.pi
ORIGIN = Configuration(0, 0, 0)


def test_target_circle_validation():
    with pytest.raises(ValueError):
        TargetCircle((0, 0), 0.0, RotationDirection.CW)
    with pytest.raises(ValueError):
        TargetCircle((0, 0), -1.0, RotationDirection.CCW)
    with pytest.raises(ValueError):
        TargetCircle((math.nan, 0), 1.0, RotationDirection.CW)
    circle = TargetCircle((1, 2), 0.5, "ccw")  # strings coerce
    assert circle.direction is RotationDirection.CCW


def test_rotational_relation_table():
    cases = {
        (PathType.LSL, RotationDirection.CCW): RotationalRelation.CO_ROTATIONAL,
        (PathType.RSL, RotationDirection.CCW): RotationalRelation.CO_ROTATIONAL,
        (PathType.RSR, RotationDirection.CW): RotationalRelation.CO_ROTATIONAL,
        (PathType.LSR, RotationDirection.CW): RotationalRelation.CO_ROTATIONAL,
        (PathType.LSL, RotationDirection.CW): RotationalRelation.COUNTER_ROTATIONAL,
        (PathType.RSL, RotationDirection.CW): RotationalRelation.COUNTER_ROTATIONAL,
        (PathType.RSR, RotationDirection.CCW): RotationalRelation.COUNTER_ROTATIONAL,
        (PathType.LSR, RotationDirection.CCW): RotationalRelation.COUNTER_ROTATIONAL,
    }
    for (ptype, direction), expected in cases.items():
        assert rotational_relation(ptype, direction) is expected


class TestFinalConfig:
    def test_ccw_example(self):
        circle = TargetCircle((10, 1), 1.0, RotationDirection.CCW)
        pose = final_config_at_alpha(circle, 3 * math.pi / 2)
        assert (pose.x, pose.y) == pytest.approx((10, 0), abs=1e-12)
        assert pose.theta == pytest.approx(0.0, abs=1e-12)

    def test_cw_example(self):
        circle = TargetCircle((0, 0), 1.0, RotationDirection.CW)
        pose = final_config_at_alpha(circle, 0.0)
        assert (pose.x, pose.y) == pytest.approx((1, 0), abs=1e-12)
        assert pose.theta == pytest.approx(3 * math.pi / 2)

    def test_on_circle_identity(self):
        rng = random.Random(3)
        circle = TargetCircle((2.5, -7.0), 1.3, RotationDirection.CW)
        for _ in range(100):
            a = rng.uniform(-10, 10)
            pose = final_config_at_alpha(circle, a)
            assert math.hypot(pose.x - 2.5, pose.y + 7.0) == pytest.approx(1.3, abs=1e-12)


class TestAssumption:
    def test_examples(self):
        assert assumption_check(ORIGIN, TargetCircle((10, 0), 1.0, "cw")) is True
        assert assumption_check(ORIGIN, TargetCircle((5, 0), 1.0, "cw")) is False
        assert assumption_check(ORIGIN, TargetCircle((6, 0), 1.0, "cw")) is True


class TestLengthAtAlpha:
    def test_degenerate_straight(self):
        circle = TargetCircle((10, 1), 1.0, RotationDirection.CCW)
        length, path = length_at_alpha(ORIGIN, circle, PathType.LSL, 3 * math.pi / 2)
        assert length == pytest.approx(10.0, abs=1e-12)
        assert path.phi1 == pytest.approx(0.0, abs=1e-12)
        assert path.phi2 == pytest.approx(0.0, abs=1e-12)
        assert path.ls == pytest.approx(10.0)

    def test_linear_growth_past_degenerate_point(self):
        circle = TargetCircle((10, 1), 1.0, RotationDirection.CCW)
        for delta in (1e-3, 0.1, 0.5):
            length, _ = length_at_alpha(ORIGIN, circle, PathType.LSL, 3 * math.pi / 2 + delta)
            assert length == pytest.approx(10.0 + delta, rel=1e-9)

    def test_frozen_oracle_value_rsl(self):
        circle = TargetCircle((10, 5), 1.0, RotationDirection.CW)
        length, _ = length_at_alpha(ORIGIN, circle, PathType.RSL, 1.0)
        assert length == pytest.approx(24.415250911610, abs=1e-8)

    def test_frozen_oracle_value_lsl(self):
        circle = TargetCircle((10, 5), 1.0, RotationDirection.CW)
        length, _ = length_at_alpha(ORIGIN, circle, PathType.LSL, 2.0)
        assert length == pytest.approx(17.570698488191, abs=1e-8)


class TestClosedFormAgreement:
    def test_matches_constructor_on_random_instances(self):
        rng = random.Random(101)
        for _ in range(250):
            inst = random_instance(rng)
            for ptype in PathType:
                for _ in range(4):
                    a = rng.uniform(0.0, TWO_PI)
                    cf = closed_form_length(inst.start, inst.circle, ptype, a)
                    length, path = length_at_alpha(inst.start, inst.circle, ptype, a)
                    assert cf == pytest.approx(length, abs=1e-9 * max(1.0, length))

    def test_matches_constructor_arbitrary_start_pose(self):
        rng = random.Random(103)
        for _ in range(100):
            start = Configuration(
                rng.uniform(-20, 20), rng.uniform(-20, 20), rng.uniform(0, TWO_PI)
            )
            offset_angle = rng.uniform(0, TWO_PI)
            dist = rng.uniform(7.0, 25.0)
            circle = TargetCircle(
                (
                    start.x + dist * math.cos(offset_angle),
                    start.y + dist * math.sin(offset_angle),
                ),
                1.0,
                RotationDirection.CW if rng.random() < 0.5 else RotationDirection.CCW,
            )
            a = rng.uniform(0, TWO_PI)
            for ptype in PathType:
                cf = closed_form_length(start, circle, ptype, a)
                length, _ = length_at_alpha(start, circle, ptype, a)
                assert cf == pytest.approx(length, abs=1e-9 * max(1.0, length))

    @pytest.mark.parametrize(
        "direction, center",
        [
            pytest.param("cw", (0.5, -1.0), id="cw(0.5,-1)"),
            pytest.param("cw", (0.75, -1.0), id="cw(0.75,-1)"),
            pytest.param("cw", (1.0, -1.0), id="cw(1,-1)"),
            pytest.param("cw", (2.5, -1.0), id="cw(2.5,-1)"),
            pytest.param("ccw", (0.75, 1.0), id="ccw(0.75,1)"),
            pytest.param("ccw", (2.5, 1.0), id="ccw(2.5,1)"),
        ],
    )
    def test_empty_first_arc_reads_zero_in_every_route(self, direction, center):
        # the start ray is tangent to a co-rotational type's turn circles, so
        # its first arc is empty; the kernels and the constructors must all
        # read it as 0, not put it on the 2*pi branch
        circle = TargetCircle(center, 1.0, direction)
        alphas = np.random.default_rng(0).uniform(0.0, TWO_PI, 200)
        for ptype in PathType:
            table = closed_form_table(ORIGIN, circle, ptype, alphas)["length"]
            for a, from_table in zip(alphas.tolist(), table):
                cf = closed_form_length(ORIGIN, circle, ptype, a)
                if math.isnan(cf):
                    assert math.isnan(from_table)
                    continue
                assert from_table == pytest.approx(cf, abs=1e-12)
                assert length_at_alpha(ORIGIN, circle, ptype, a).length == pytest.approx(
                    cf, abs=1e-12
                )

    @pytest.mark.xfail(
        strict=True,
        reason="rsl_between sums phi1 from two rounded arctangents and a rounded "
        "sqrt, so an empty first arc can land 2 ulps below 2*pi (LSR-cw (0.5, -1) "
        "FOUND line in CHANGES.md)",
    )
    def test_empty_inner_tangent_first_arc_reads_zero(self):
        # LSR-cw (0.5, -1): the straight runs along the start ray, so the
        # first arc is empty at every angle; at this one the constructor
        # reads it as a full turn
        circle = TargetCircle((0.5, -1.0), 1.0, "cw")
        a = 0.05269402848437588
        cf = closed_form_length(ORIGIN, circle, PathType.LSR, a)
        length = length_at_alpha(ORIGIN, circle, PathType.LSR, a).length
        assert length == pytest.approx(cf, abs=1e-12)

    def test_table_matches_scalar(self):
        rng = random.Random(107)
        inst = random_instance(rng)
        alphas = np.linspace(0.0, TWO_PI, 257)
        for ptype in PathType:
            table = closed_form_table(inst.start, inst.circle, ptype, alphas)
            for k in (0, 31, 100, 256):
                scalar = closed_form_length(inst.start, inst.circle, ptype, float(alphas[k]))
                assert table["length"][k] == pytest.approx(scalar, abs=1e-12)

    def test_periodicity(self):
        circle = TargetCircle((10, 5), 1.0, RotationDirection.CW)
        # dyadic angles survive the +2*pi round trip bit-exactly
        for a in (0.5, 1.25, 2.75):
            for ptype in PathType:
                assert closed_form_length(ORIGIN, circle, ptype, a) == closed_form_length(
                    ORIGIN, circle, ptype, a + TWO_PI
                )
        rng = random.Random(5)
        for _ in range(50):
            a = rng.uniform(0, TWO_PI)
            for ptype in PathType:
                left = closed_form_length(ORIGIN, circle, ptype, a)
                right = closed_form_length(ORIGIN, circle, ptype, a + TWO_PI)
                assert left == pytest.approx(right, abs=1e-11)

    def test_angle_reads_the_same_in_any_call(self):
        # the double below 2*pi is a vanished arc, 0, whether or not the
        # other angles in the call make the table reduce them
        circle = TargetCircle((10, 5), 1.0, RotationDirection.CW)
        top = np.nextafter(TWO_PI, 0.0)
        for ptype in PathType:
            alone = closed_form_table(ORIGIN, circle, ptype, np.array([top]))
            mixed = closed_form_table(ORIGIN, circle, ptype, np.array([top, -1.0]))
            zero = closed_form_table(ORIGIN, circle, ptype, np.array([0.0]))
            for key in ("length", "phi1", "phi2", "ls", "feasible"):
                _assert_bytes_equal(alone[key], mixed[key][:1])
                _assert_bytes_equal(alone[key], zero[key])


class TestCoRotationalStructure:
    def test_constant_first_segments_and_slope(self):
        rng = random.Random(109)
        for _ in range(50):
            inst = random_instance(rng)
            for ptype in PathType:
                if (
                    rotational_relation(ptype, inst.circle.direction)
                    is not RotationalRelation.CO_ROTATIONAL
                ):
                    continue
                alphas = np.linspace(0.0, TWO_PI, 128, endpoint=False)
                table = closed_form_table(inst.start, inst.circle, ptype, alphas)
                assert np.ptp(table["phi1"]) < 1e-10
                assert np.ptp(table["ls"]) < 1e-10
                # sawtooth of slope magnitude r: +r when the final arc is
                # traversed counter-clockwise (L), -r when clockwise (R)
                sign = 1.0 if ptype.second_turn == "L" else -1.0
                diffs = np.diff(table["length"])
                dalpha = alphas[1] - alphas[0]
                r = inst.circle.radius
                smooth = np.abs(diffs - sign * r * dalpha) < 1e-9
                wraps = np.abs(diffs - sign * (r * dalpha - TWO_PI * r)) < 1e-9
                assert np.all(smooth | wraps)
                assert int(wraps.sum()) == 1


class TestPerpendicularDistance:
    def test_equals_abs_derivative_formula(self):
        rng = random.Random(113)
        circle = TargetCircle((10, 5), 1.0, RotationDirection.CW)
        r = 1.0
        for _ in range(100):
            a = rng.uniform(0, TWO_PI)
            _, path = length_at_alpha(ORIGIN, circle, PathType.LSL, a)
            dist = perpendicular_distance_to_center(path, circle)
            assert dist == pytest.approx(abs(r - 2 * r * math.cos(path.phi2)), abs=1e-9)

    def test_zero_length_straight_raises(self):
        path = rsl_between(
            Configuration(0, 0, math.pi / 2), Configuration(2, 0, 3 * math.pi / 2), 1.0
        )
        assert path.ls == pytest.approx(0.0, abs=1e-9)
        circle = TargetCircle((2, 0), 1.0, RotationDirection.CW)
        if path.ls == 0.0:
            with pytest.raises(DegenerateDirectionError):
                perpendicular_distance_to_center(path, circle)


# The vector kernels as plain np.mod formulas: the reference that the
# in-place kernels must reproduce bit for bit.  Each reduction is np.mod
# followed by the vanished-arc guard: a result at or above the double just
# below 2*pi reads +0.0.  Of the 41,066,200 float outputs that
# TestKernelBitIdentity compares, the guard changes 40 (15 length, 15 phi1,
# 10 phi2), all on the partly infeasible near RSL at multiples of pi/2.


def _np_mod_arc(x):
    y = np.mod(x, TWO_PI)
    return np.where(y >= np.nextafter(TWO_PI, 0.0), 0.0, y)


def _reference_lsl_terms(ci, alpha):
    alpha = np.asarray(alpha, dtype=float)
    c, d, r = ci.c, ci.d, ci.r
    if ci.cw:
        theta = alpha - HALF_PI
        dx = c + 2.0 * r * np.cos(alpha)
        dy = d + 2.0 * r * np.sin(alpha) - r
    else:
        theta = alpha + HALF_PI
        dx = np.broadcast_to(np.float64(c), alpha.shape)
        dy = np.broadcast_to(np.float64(d - r), alpha.shape)
    ls = np.hypot(dx, dy)
    phi1 = _np_mod_arc(np.arctan2(dy, dx))
    phi2 = _np_mod_arc(theta - phi1)
    length = ls + r * (phi1 + phi2)
    return length, phi1, phi2, ls, np.ones(alpha.shape, dtype=bool)


def _reference_rsl_terms(ci, alpha):
    alpha = np.asarray(alpha, dtype=float)
    c, d, r = ci.c, ci.d, ci.r
    if ci.cw:
        theta = alpha - HALF_PI
        wx = c + 2.0 * r * np.cos(alpha) - r
        wy = d + 2.0 * r * np.sin(alpha)
    else:
        theta = alpha + HALF_PI
        wx = np.broadcast_to(np.float64(c - r), alpha.shape)
        wy = np.broadcast_to(np.float64(d), alpha.shape)
    lcc = np.hypot(wx, wy)
    feasible = lcc >= 2.0 * r * (1.0 - INNER_TANGENT_REL_TOL)
    ls = np.sqrt(np.clip(lcc * lcc - 4.0 * r * r, 0.0, None))
    psi1 = np.arctan2(wy, wx)
    psi2 = np.arctan2(2.0 * r, ls)
    phi1 = _np_mod_arc(-psi1 + psi2 + HALF_PI)
    phi2 = _np_mod_arc(theta + phi1 - HALF_PI)
    length = ls + r * (phi1 + phi2)
    nan = np.where(feasible, 0.0, np.nan)
    return length + nan, phi1 + nan, phi2 + nan, ls + nan, feasible


def _kernels(ci):
    if ci.kind is PathType.LSL:
        return lsl_terms, _reference_lsl_terms
    return rsl_terms, _reference_rsl_terms


def _assert_bytes_equal(got, want):
    """Equal bit for bit: signed zeros and NaN positions count."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype
    if got.dtype == bool:
        assert np.array_equal(got, want)
    else:
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


# canonical angles: multiples of pi/2 and pi/4, signed zeros, subnormals,
# the seam, negative angles and magnitudes up to 1e3
_SPECIAL_ALPHAS = np.concatenate(
    [
        np.arange(-640, 641) * HALF_PI,
        np.arange(-20, 21) * (0.25 * math.pi),
        [0.0, -0.0, 5e-324, -5e-324, np.nextafter(TWO_PI, 0.0), TWO_PI, -TWO_PI, 1e3, -1e3],
        np.random.default_rng(7).uniform(-1e3, 1e3, 2000),
        np.random.default_rng(8).uniform(-7.0, 7.0, 2000),
    ]
)
_GRID = np.arange(200000) * (TWO_PI / 200000)


def _posed_instance(rng, r):
    """A far instance of turn radius r seen from a random start pose."""
    inst = random_instance(rng, r)
    start = Configuration(rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0), rng.uniform(0.0, TWO_PI))
    cx, cy = inst.circle.center
    return start, TargetCircle((start.x + cx, start.y + cy), r, inst.circle.direction)


def _bit_identity_instances():
    """Canonical instances of both families, cw and ccw, far and near."""
    out = []
    rng = random.Random(211)
    for k in range(6):
        start, circle = _posed_instance(rng, (0.37, 1.0, 2.9)[k % 3])
        for direction in RotationDirection:
            circle = TargetCircle(circle.center, circle.radius, direction)
            out += [canonical_instance(start, circle, pt) for pt in PathType]
    # a near start whose RSL is partly infeasible
    near = canonical_instance(ORIGIN, TargetCircle((1.5, 1.0), 1.0, "cw"), PathType.RSL)
    # co-rotational RSL whose turn circles overlap for every alpha
    never = CanonicalInstance(PathType.RSL, False, 1.5, 0.5, 1.0, 1.0, 0.0)
    return out + [near, never]


class TestKernelBitIdentity:
    def test_instances_cover_the_cases(self):
        cases = _bit_identity_instances()
        assert {(ci.kind, ci.cw) for ci in cases} == {
            (kind, cw) for kind in (PathType.LSL, PathType.RSL) for cw in (True, False)
        }
        feasible = [rsl_terms(ci, _GRID)[4] for ci in cases[-2:]]
        assert feasible[0].any() and not feasible[0].all()
        assert not feasible[1].any()

    @pytest.mark.parametrize("alphas", [_SPECIAL_ALPHAS, _GRID], ids=["special", "grid"])
    def test_matches_np_mod_formulas(self, alphas):
        for ci in _bit_identity_instances():
            kernel, reference = _kernels(ci)
            for got, want in zip(kernel(ci, alphas), reference(ci, alphas)):
                _assert_bytes_equal(got, want)

    def test_scalar_and_zero_d_alpha(self):
        for ci in _bit_identity_instances():
            kernel, reference = _kernels(ci)
            for alpha in (0.7, -0.0, np.float64(4.0), np.array(1e3)):
                got = kernel(ci, alpha)
                assert all(np.ndim(x) == 0 for x in got)
                for g, w in zip(got, reference(ci, alpha)):
                    _assert_bytes_equal(g, w)

    def test_table_and_sweep_match_np_mod_route(self):
        rng = random.Random(223)
        world = np.concatenate([np.linspace(-50.0, 50.0, 3001), [-0.0, TWO_PI, -TWO_PI]])
        for k in range(4):
            start, circle = _posed_instance(rng, (0.37, 2.9)[k % 2])
            for direction in RotationDirection:
                circle = TargetCircle(circle.center, circle.radius, direction)
                for ptype in PathType:
                    ci = canonical_instance(start, circle, ptype)
                    reference = _kernels(ci)[1]
                    result = sweep(start, circle, ptype, n=20011)
                    grid = np.arange(20011) * (TWO_PI / 20011)
                    _assert_bytes_equal(result.alphas, grid)
                    want = reference(ci, ci.to_canonical_alpha(_np_mod_arc(grid)))
                    got = (result.lengths, result.phi1, result.phi2, result.ls, result.feasible)
                    for g, w in zip(got, want):
                        _assert_bytes_equal(g, w)
                    table = closed_form_table(start, circle, ptype, world)
                    want = reference(ci, ci.to_canonical_alpha(_np_mod_arc(world)))
                    for key, w in zip(("length", "phi1", "phi2", "ls", "feasible"), want):
                        _assert_bytes_equal(table[key], w)

    def test_reduction_helpers_match_np_mod(self):
        tricky = np.array(
            [-0.0, 0.0, -5e-324, 5e-324, np.nextafter(TWO_PI, 0.0), TWO_PI, -TWO_PI, 1e6, -1e6,
             math.pi, -math.pi, np.nan]
        )
        reduced = _mod_two_pi(tricky.copy())
        _assert_bytes_equal(reduced, _np_mod_arc(tricky))
        # -5e-324 rounds up to 2*pi under np.mod, and the double below 2*pi
        # is in the band: both read +0.0
        _assert_bytes_equal(reduced[[2, 4]], np.zeros(2))
        # the fold alone covers arctan2's range [-pi, pi] and anything in (-2pi, 2pi)
        folded = tricky[~(np.abs(tricky) >= TWO_PI)]  # keeps the NaN
        assert folded.size == 8
        _assert_bytes_equal(_fold_two_pi(folded.copy()), _np_mod_arc(folded))
        atan = np.arctan2(*np.random.default_rng(9).uniform(-1.0, 1.0, (2, 1000)))
        _assert_bytes_equal(_fold_two_pi(atan.copy()), _np_mod_arc(atan))
        # caller scratch holding NaN and other garbage gives the same bytes
        # as the one-argument form, and the input is the only array written
        for helper, x in ((_mod_two_pi, tricky), (_fold_two_pi, folded), (_fold_two_pi, atan)):
            garbage = np.resize([np.nan, -0.0, np.inf, -7.5, 1.0, TWO_PI], x.shape)
            for scratch in (np.full(x.shape, np.nan), garbage):
                out = x.copy()
                assert helper(out, scratch) is out
                _assert_bytes_equal(out, helper(x.copy()))


class TestVectorContract:
    """Outputs are fresh arrays; inputs are never written."""

    scenes = [
        TargetCircle((10, 5), 1.0, RotationDirection.CW),
        TargetCircle((10, 5), 1.0, RotationDirection.CCW),
        TargetCircle((1.5, 1.0), 1.0, RotationDirection.CW),
        TargetCircle((1.5, 1.0), 1.0, RotationDirection.CCW),
    ]

    @staticmethod
    def _assert_fresh(arrays, shape, inputs):
        for k, x in enumerate(arrays):
            assert isinstance(x, np.ndarray) and x.shape == shape
            assert x.flags.writeable and x.flags.c_contiguous
            assert x.dtype == (bool if x is arrays[-1] else np.float64)
            for other in list(arrays[k + 1:]) + inputs:
                assert not np.shares_memory(x, other)

    def test_closed_form_table(self):
        for alphas in (np.linspace(0.0, 5.0, 12).reshape(3, 4), np.linspace(-9.0, 9.0, 7)):
            before = alphas.copy()
            for circle in self.scenes:
                for ptype in PathType:
                    table = closed_form_table(ORIGIN, circle, ptype, alphas)
                    arrays = [table[k] for k in ("length", "phi1", "phi2", "ls", "feasible")]
                    self._assert_fresh(arrays, alphas.shape, [alphas])
                    _assert_bytes_equal(alphas, before)

    def test_sweep(self):
        for circle in self.scenes:
            for ptype in PathType:
                result = sweep(ORIGIN, circle, ptype, n=64)
                arrays = [result.lengths, result.phi1, result.phi2, result.ls, result.feasible]
                self._assert_fresh(arrays, (64,), [result.alphas])
                _assert_bytes_equal(result.alphas, np.arange(64) * (TWO_PI / 64))

    def test_zero_d_and_scalar_alpha(self):
        for circle in self.scenes:
            for ptype in PathType:
                for alpha in (1.25, np.array(1.25)):
                    table = closed_form_table(ORIGIN, circle, ptype, alpha)
                    arrays = [table[k] for k in ("length", "phi1", "phi2", "ls", "feasible")]
                    self._assert_fresh(arrays, (), [])
                    expected = closed_form_length(ORIGIN, circle, ptype, 1.25)
                    assert float(table["length"]) == pytest.approx(expected, nan_ok=True)
