"""End-to-end tests for the command-line interface."""

import dataclasses
import io
import json
import math
import sys
from contextlib import redirect_stdout, redirect_stderr

import pytest

from dubins_circle import PathType, cli, load_instance, shortest_for_type


def write_instance(tmp_path, name="inst.json", **overrides):
    doc = {
        "start": {"x": 0.0, "y": 0.0, "theta_radians": 0.0},
        "circle": {"cx": 10.0, "cy": 1.0, "r": 1.0, "direction": "ccw"},
    }
    doc.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


class TestSolve:
    def test_per_type_degenerate_output(self, tmp_path):
        inst = write_instance(tmp_path)
        code, out, _ = run_cli(["solve", inst, "--type", "LSL"])
        assert code == 0
        assert out.splitlines()[0] == "LSL, length 10.000000000000"
        assert "alpha_rad 4.712388980385" in out

    def test_global_solve_prefers_tangent_arrival(self, tmp_path):
        inst = write_instance(tmp_path)
        code, out, _ = run_cli(["solve", inst])
        assert code == 0
        assert out.splitlines()[0] == "LSR, length 9.365188535855"

    def test_mirrored_instance(self, tmp_path):
        inst = write_instance(
            tmp_path, circle={"cx": 10.0, "cy": -1.0, "r": 1.0, "direction": "cw"}
        )
        code, out, _ = run_cli(["solve", inst, "--type", "RSR"])
        assert code == 0
        assert out.splitlines()[0] == "RSR, length 10.000000000000"

    def test_degrees_and_radians_agree(self, tmp_path):
        a = write_instance(
            tmp_path, "a.json", start={"x": 0.0, "y": 0.0, "theta_radians": math.pi / 2}
        )
        b = write_instance(
            tmp_path, "b.json", start={"x": 0.0, "y": 0.0, "theta_degrees": 90.0}
        )
        _, out_a, _ = run_cli(["solve", a])
        _, out_b, _ = run_cli(["solve", b])
        len_a = float(out_a.splitlines()[0].split()[-1])
        len_b = float(out_b.splitlines()[0].split()[-1])
        assert len_a == pytest.approx(len_b, abs=1e-12)

    def test_json_and_svg_outputs(self, tmp_path):
        inst = write_instance(tmp_path)
        json_out = tmp_path / "result.json"
        svg_out = tmp_path / "result.svg"
        code, _, _ = run_cli(
            ["solve", inst, "--json-out", str(json_out), "--svg-out", str(svg_out)]
        )
        assert code == 0
        doc = json.loads(json_out.read_text())
        assert doc["type"] == "LSR"
        assert doc["length"] == pytest.approx(9.365188535855, abs=1e-8)
        assert set(doc["per_type"]) == {"LSL", "RSL", "RSR", "LSR"}
        report = doc["per_type"]["LSL"]
        assert report["global_min"]["kind"] == "degenerate-cs"
        assert svg_out.read_text().startswith("<?xml")

    def test_assumption_violation_exit_code(self, tmp_path):
        inst = write_instance(
            tmp_path, circle={"cx": 4.0, "cy": 0.0, "r": 1.0, "direction": "cw"}
        )
        code, out, err = run_cli(["solve", inst])
        assert code == 2
        assert "assumption_ok false" in out
        assert "warning" in err

    def test_missing_file(self):
        code, _, err = run_cli(["solve", "/nonexistent/instance.json"])
        assert code == 1
        assert "instance" in err

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, err = run_cli(["solve", str(path)])
        assert code == 1
        assert "invalid JSON" in err

    def test_field_level_message(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps(
                {
                    "start": {"x": 0, "y": 0, "theta_radians": 0},
                    "circle": {"cx": 1, "cy": 2, "r": 1, "direction": "up"},
                }
            )
        )
        code, _, err = run_cli(["solve", str(path)])
        assert code == 1
        assert "circle.direction" in err

    def test_both_headings_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps(
                {
                    "start": {"x": 0, "y": 0, "theta_radians": 0, "theta_degrees": 0},
                    "circle": {"cx": 10, "cy": 1, "r": 1, "direction": "cw"},
                }
            )
        )
        code, _, err = run_cli(["solve", str(path)])
        assert code == 1
        assert "theta" in err

    def test_console_script_exit_codes(self, tmp_path, monkeypatch, capsys):
        # the installed dubins-circle script calls main_entry, which exits
        # with main's code: 0 for a far solve, 2 within 4r of the circle
        for (cx, cy), code in (((10.0, 5.0), 0), ((2.0, 0.5), 2)):
            circle = {"cx": cx, "cy": cy, "r": 1.0, "direction": "cw"}
            inst = write_instance(tmp_path, circle=circle)
            monkeypatch.setattr(sys, "argv", ["dubins-circle", "solve", inst])
            with pytest.raises(SystemExit) as exc:
                cli.main_entry()
            assert exc.value.code == code
            assert ("warning" in capsys.readouterr().err) == (code == 2)

    def test_usage_error_exit_one(self, tmp_path):
        inst = write_instance(tmp_path)
        code, _, err = run_cli(["solve", inst, "--type", "XYZ"])
        assert code == 1
        assert "error" in err


class TestSweep:
    def test_per_type_csv_files(self, tmp_path):
        inst = write_instance(tmp_path)
        csv_out = tmp_path / "sweep.csv"
        code, out, _ = run_cli(
            ["sweep", inst, "--n", "64", "--csv-out", str(csv_out)]
        )
        assert code == 0
        for tag in ("LSL", "RSL", "RSR", "LSR"):
            assert (tmp_path / f"sweep_{tag}.csv").exists()
            assert f"{tag} grid_min" in out

    def test_refined_min_degenerate(self, tmp_path):
        inst = write_instance(tmp_path)
        code, out, _ = run_cli(["sweep", inst, "--type", "LSL", "--n", "4096"])
        assert code == 0
        refined_line = [l for l in out.splitlines() if "refined_min" in l][0]
        assert refined_line.split()[-1] == "10.000000000000"

    def test_svg_plot(self, tmp_path):
        inst = write_instance(tmp_path)
        svg_out = tmp_path / "plot.svg"
        code, _, _ = run_cli(["sweep", inst, "--n", "128", "--svg-out", str(svg_out)])
        assert code == 0
        assert "<polyline" in svg_out.read_text()

    def test_small_n_rejected(self, tmp_path):
        inst = write_instance(tmp_path)
        code, _, err = run_cli(["sweep", inst, "--n", "8"])
        assert code == 1
        assert "--n" in err


class TestCheck:
    def test_single_instance_passes(self, tmp_path):
        inst = write_instance(tmp_path)
        code, out, _ = run_cli(["check", inst])
        assert code == 0
        assert "overall: PASS" in out
        for name in (
            "closed-form-vs-constructor",
            "derivative-vs-finite-difference",
            "counter-extremum-phi2",
            "co-min-degenerate-phi2",
            "perpendicular-distance",
            "discontinuity-jump",
            "oracle-agreement-length",
        ):
            assert name in out

    def test_random_corpus_passes(self, tmp_path):
        code, out, _ = run_cli(["check", "--random", "10", "--seed", "3"])
        assert code == 0
        assert "overall: PASS" in out
        assert "10 instances" in out

    def test_deterministic_output(self):
        code_a, out_a, _ = run_cli(["check", "--random", "6", "--seed", "7"])
        code_b, out_b, _ = run_cli(["check", "--random", "6", "--seed", "7"])
        assert code_a == code_b == 0
        assert out_a == out_b

    def test_corrupted_solver_fails(self, monkeypatch):
        real = cli.shortest_for_type

        def corrupted(start, circle, ptype, **kwargs):
            report = real(start, circle, ptype, **kwargs)
            shifted = tuple(
                dataclasses.replace(e, phi2=e.phi2 + math.pi / 12) for e in report.minima
            )
            return dataclasses.replace(report, minima=shifted)

        monkeypatch.setattr(cli, "shortest_for_type", corrupted)
        code, out, _ = run_cli(["check", "--random", "4", "--seed", "3"])
        assert code == 3
        assert "overall: FAIL" in out

    @pytest.mark.parametrize(
        "center, direction",
        [
            # RSL has no inner tangent at any alpha
            ((-1.75, -1.75), "ccw"),
            # RSL does not exist at one of the sampled alphas
            ((-3.0, 0.0), "cw"),
        ],
    )
    def test_near_start_infeasible_types_are_skipped(self, tmp_path, center, direction):
        circle = {"cx": center[0], "cy": center[1], "r": 1.0, "direction": direction}
        code, out, err = run_cli(["check", write_instance(tmp_path, circle=circle)])
        assert (code, err) == (0, "")
        assert "overall: PASS (8/8 checks, 1 instances)" in out

    def test_near_start_minimum_at_five_pi_thirds(self, tmp_path):
        circle = {"cx": -1.75, "cy": -1.75, "r": 1.0, "direction": "cw"}
        inst = write_instance(tmp_path, circle=circle)
        instance = load_instance(inst)
        report = shortest_for_type(instance.start, instance.circle, PathType.RSL)
        assert report.assumption_ok is False
        assert [e.phi2 for e in report.minima] == pytest.approx([5 * math.pi / 3], abs=1e-9)
        code, out, _ = run_cli(["check", inst])
        assert code == 0
        assert "overall: PASS" in out

    def test_far_extrema_keep_their_phi2(self, monkeypatch):
        # under the 4r assumption a minimum at 5*pi/3 is a solver fault
        real = cli.shortest_for_type

        def swapped(start, circle, ptype, **kwargs):
            report = real(start, circle, ptype, **kwargs)
            return dataclasses.replace(report, minima=report.maxima, maxima=report.minima)

        monkeypatch.setattr(cli, "shortest_for_type", swapped)
        code, out, _ = run_cli(["check", "--random", "4", "--seed", "3"])
        assert code == 3
        assert "counter-extremum-phi2              FAIL" in out

    def test_requires_instances(self):
        code, _, err = run_cli(["check"])
        assert code == 1
        assert "--random" in err
