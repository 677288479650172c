"""Unit tests for path sampling, CSV export, and SVG rendering."""

import math
import random

import numpy as np
import pytest

from dubins_circle import (
    Configuration,
    PathScene,
    PathType,
    RotationDirection,
    SweepPlot,
    TargetCircle,
    csc_between,
    export_sweep_csv,
    lsl_between,
    render_svg,
    sample_path,
)
from dubins_circle.export import fmt12
from dubins_circle.instances import random_instance
from dubins_circle.paths import PathType as PT
from dubins_circle.sweep import SweepResult, sweep

TWO_PI = 2.0 * math.pi
ORIGIN = Configuration(0, 0, 0)


class TestSamplePath:
    def test_straight_path_pose_count(self):
        p = lsl_between(ORIGIN, Configuration(5, 0, 0), 1.0)
        sample = sample_path(p, ORIGIN, 1.0)
        assert len(sample.poses) == 6
        assert sample.poses[0] == (0, 0, 0)
        assert sample.poses[-1][0] == pytest.approx(5.0)

    def test_quarter_circle_arc_length(self):
        p = lsl_between(ORIGIN, Configuration(1, 1, math.pi / 2), 1.0)
        sample = sample_path(p, ORIGIN, 1e-3)
        assert sample.polyline_length() == pytest.approx(math.pi / 2, abs=1e-4)

    def test_polyline_converges_to_total_length(self):
        rng = random.Random(61)
        for _ in range(5):
            inst = random_instance(rng)
            goal = Configuration(*inst.circle.center, rng.uniform(0, TWO_PI))
            for ptype in PathType:
                p = csc_between(inst.start, goal, inst.circle.radius, ptype)
                sample = sample_path(p, inst.start, 1e-3)
                assert sample.polyline_length() <= p.total_length + 1e-12
                assert sample.polyline_length() == pytest.approx(
                    p.total_length, abs=1e-5 * p.total_length
                )

    def test_halving_step_at_least_halves_gap(self):
        p = lsl_between(ORIGIN, Configuration(0, -6, math.pi), 1.0)
        gaps = []
        for step in (0.2, 0.1):
            sample = sample_path(p, ORIGIN, step)
            gaps.append(p.total_length - sample.polyline_length())
        assert gaps[1] <= 0.5 * gaps[0] + 1e-12

    def test_endpoints_and_spacing(self):
        rng = random.Random(67)
        inst = random_instance(rng)
        goal = Configuration(*inst.circle.center, 1.0)
        p = csc_between(inst.start, goal, 1.0, PathType.RSL)
        step = 0.25
        sample = sample_path(p, inst.start, step)
        assert sample.poses[0] == (inst.start.x, inst.start.y, inst.start.theta)
        assert sample.poses[-1][0] == pytest.approx(goal.x, abs=1e-8)
        assert sample.poses[-1][1] == pytest.approx(goal.y, abs=1e-8)
        for (x1, y1, _), (x2, y2, _) in zip(sample.poses, sample.poses[1:]):
            assert math.hypot(x2 - x1, y2 - y1) <= step + 1e-12

    def test_rejects_bad_step(self):
        p = lsl_between(ORIGIN, Configuration(5, 0, 0), 1.0)
        with pytest.raises(ValueError):
            sample_path(p, ORIGIN, 0.0)
        with pytest.raises(ValueError):
            sample_path(p, ORIGIN, -1.0)


GOLDEN_CSV = """alpha,length,phi1,phi2,ls,feasible
0,11.5707963268,0,1.57079632679,10,true
1.57079632679,13.1415926536,0,3.14159265359,10,true
3.14159265359,14.7123889804,0,4.71238898038,10,true
4.71238898038,10,0,0,10,true
"""


def _tiny_sweep_result():
    alphas = np.array([0.0, math.pi / 2, math.pi, 3 * math.pi / 2])
    phi2 = np.array([math.pi / 2, math.pi, 3 * math.pi / 2, 0.0])
    return SweepResult(
        path_type=PT.LSL,
        n=4,
        alphas=alphas,
        lengths=10.0 + phi2,
        phi1=np.zeros(4),
        phi2=phi2,
        ls=np.full(4, 10.0),
        feasible=np.ones(4, dtype=bool),
    )


class TestCsv:
    def test_golden_content(self, tmp_path):
        out = tmp_path / "sweep.csv"
        export_sweep_csv(_tiny_sweep_result(), out)
        assert out.read_text(encoding="utf-8") == GOLDEN_CSV
        assert len(out.read_text().splitlines()) == 5

    def test_reexport_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        result = sweep(ORIGIN, TargetCircle((10, 5), 1.0, "cw"), PathType.RSL, n=64)
        export_sweep_csv(result, a)
        export_sweep_csv(result, b)
        assert a.read_bytes() == b.read_bytes()

    def test_round_trip_at_twelve_digits(self, tmp_path):
        out = tmp_path / "sweep.csv"
        result = sweep(ORIGIN, TargetCircle((10, 5), 1.0, "cw"), PathType.LSL, n=32)
        export_sweep_csv(result, out)
        rows = [line.split(",") for line in out.read_text(encoding="utf-8").splitlines()[1:]]
        assert len(rows) == 32
        for k, (alpha, length, _, _, _, feasible) in enumerate(rows):
            assert feasible == "true"
            assert float(alpha) == float(fmt12(result.alphas[k]))
            assert float(length) == float(fmt12(result.lengths[k]))
            # formatting is stable under one parse/format cycle
            assert fmt12(float(length)) == fmt12(result.lengths[k])

    def test_infeasible_rows_have_empty_fields(self, tmp_path):
        circle = TargetCircle((0.5, -1.0), 1.0, RotationDirection.CCW)
        result = sweep(ORIGIN, circle, PathType.RSL, n=16)
        out = tmp_path / "inf.csv"
        export_sweep_csv(result, out)
        lines = out.read_text().splitlines()
        assert lines[1].endswith(",,,,false")
        assert len(lines) == 17
        assert all(line.split(",")[5] == "false" for line in lines[1:])

    def test_io_error_names_destination(self, tmp_path):
        result = _tiny_sweep_result()
        missing = tmp_path / "no" / "such" / "dir" / "x.csv"
        with pytest.raises(OSError) as err:
            export_sweep_csv(result, missing)
        assert "x.csv" in str(err.value)


class TestSvg:
    def _scene(self):
        p = lsl_between(ORIGIN, Configuration(5, 0, 0), 1.0)
        sample = sample_path(p, ORIGIN, 0.5)
        return PathScene(paths=(("LSL", sample),), circles=((5, 1, 1.0),), start=ORIGIN)

    def test_single_path_single_polyline(self, tmp_path):
        out = tmp_path / "scene.svg"
        render_svg(self._scene(), out)
        text = out.read_text()
        assert text.startswith("<?xml")
        assert text.count("<polyline") == 1
        assert "</svg>" in text

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        render_svg(self._scene(), a)
        render_svg(self._scene(), b)
        assert a.read_bytes() == b.read_bytes()

    def test_four_curve_plot_with_labels(self, tmp_path):
        inst_circle = TargetCircle((10, 5), 1.0, RotationDirection.CW)
        curves = []
        for ptype in PathType:
            result = sweep(ORIGIN, inst_circle, ptype, n=256)
            curves.append(
                (ptype.value, [float(v) for v in result.alphas], [float(v) for v in result.lengths])
            )
        out = tmp_path / "plot.svg"
        render_svg(SweepPlot(curves=tuple(curves), break_threshold=0.5), out)
        text = out.read_text()
        for label in ("LSL", "RSL", "RSR", "LSR"):
            assert f">{label}</text>" in text

    def test_jumps_break_the_curve(self, tmp_path):
        circle = TargetCircle((10, 5), 1.0, RotationDirection.CW)
        result = sweep(ORIGIN, circle, PathType.LSL, n=512)
        curve = ("LSL", [float(v) for v in result.alphas], [float(v) for v in result.lengths])
        out = tmp_path / "broken.svg"
        render_svg(SweepPlot(curves=(curve,), break_threshold=0.5), out)
        # one jump on this instance: the curve splits into two polylines
        assert out.read_text().count("<polyline") == 2

    def test_empty_scene_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            render_svg(PathScene(paths=()), tmp_path / "empty.svg")
        with pytest.raises(TypeError):
            render_svg(object(), tmp_path / "bad.svg")
