"""Command-line interface: solve, sweep, and check workflows.

Exit codes: 0 success, 1 invalid input, 2 solved with the 4r-distance
assumption violated (result still produced), 3 check failure.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys
from pathlib import Path

from .circle_target import (
    RotationalRelation,
    closed_form_length,
    final_config_at_alpha,
    length_at_alpha,
    perpendicular_distance_to_center,
    rotational_relation,
)
from .errors import DubinsCircleError, InfeasiblePathError
from .export import PathScene, SweepPlot, export_sweep_csv, render_svg
from .geometry import TWO_PI, wrap_to_pi
from .instances import Instance, InstanceFormatError, load_instance, random_instance
from .paths import PathType
from .sampling import sample_path
from .solver import (
    ExtremumReport,
    analytic_derivative,
    shortest_for_type,
    shortest_to_circle,
)
from .sweep import grid_argmin, refine_min, sweep

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_ASSUMPTION = 2
EXIT_CHECK_FAILED = 3

_TYPE_CHOICES = ("LSL", "RSL", "RSR", "LSR", "all")
_ORDER = (PathType.LSL, PathType.RSL, PathType.RSR, PathType.LSR)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _f(x: float) -> str:
    return format(float(x), ".12f")


def _report_doc(report: ExtremumReport) -> dict:
    return {
        "relation": report.relation.value,
        "assumption_ok": report.assumption_ok,
        "tie": report.tie,
        "minima": [
            {"alpha": e.alpha, "length": e.length, "phi2": e.phi2} for e in report.minima
        ],
        "maxima": [
            {"alpha": e.alpha, "length": e.length, "phi2": e.phi2} for e in report.maxima
        ],
        "discontinuities": [
            {"alpha": d.alpha, "jump": d.jump, "cause": d.cause}
            for d in report.discontinuities
        ],
        "global_min": {
            "alpha": report.global_min.alpha,
            "length": report.global_min.length,
            "phi2": report.global_min.phi2,
            "kind": report.global_min.kind,
        },
    }


def _write_solution_svg(instance: Instance, path, alpha: float, label: str, out) -> None:
    r = instance.circle.radius
    sample = sample_path(path, instance.start, r / 32.0)
    cx, cy = instance.circle.center
    arrival = final_config_at_alpha(instance.circle, alpha)
    scene = PathScene(
        paths=((label, sample),),
        circles=(
            (cx, cy, r),
            (*path.c1_center, r),
            (*path.c2_center, r),
        ),
        start=instance.start,
        markers=((arrival.x, arrival.y, "arrival"),),
    )
    render_svg(scene, out)


def cmd_solve(args) -> int:
    instance = load_instance(args.instance)
    if args.type == "all":
        result = shortest_to_circle(instance.start, instance.circle)
        chosen_type, reports = result.path_type, result.per_type
    else:
        chosen_type = PathType(args.type)
        reports = {chosen_type: shortest_for_type(instance.start, instance.circle, chosen_type)}
    report = reports[chosen_type]
    best, assumption_ok = report.global_min, report.assumption_ok
    path, alpha = best.path, best.alpha

    print(f"{chosen_type.value}, length {_f(best.length)}")
    print(f"alpha_rad {_f(alpha)}")
    print(f"alpha_deg {_f(math.degrees(alpha))}")
    print(f"phi1 {_f(path.phi1)}")
    print(f"ls {_f(path.ls)}")
    print(f"phi2 {_f(path.phi2)}")
    print(f"assumption_ok {'true' if assumption_ok else 'false'}")
    if not assumption_ok:
        print("warning: start is within 4r of the target circle; "
              "CSC optimality is not guaranteed", file=sys.stderr)

    if args.json_out:
        doc = {
            "type": chosen_type.value,
            "alpha": alpha,
            "alpha_degrees": math.degrees(alpha),
            "length": best.length,
            "phi1": path.phi1,
            "ls": path.ls,
            "phi2": path.phi2,
            "assumption_ok": assumption_ok,
            "tie": report.tie,
            "per_type": {pt.value: _report_doc(rep) for pt, rep in reports.items()},
        }
        Path(args.json_out).write_text(
            json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
    if args.svg_out:
        _write_solution_svg(instance, path, alpha, chosen_type.value, args.svg_out)
    return EXIT_OK if assumption_ok else EXIT_ASSUMPTION


def _suffixed(base: str, tag: str) -> str:
    p = Path(base)
    return str(p.with_name(f"{p.stem}_{tag}{p.suffix}"))


def cmd_sweep(args) -> int:
    instance = load_instance(args.instance)
    if args.n < 16:
        raise InstanceFormatError(f"--n must be at least 16, got {args.n}")
    types = list(_ORDER) if args.type == "all" else [PathType(args.type)]
    curves = []
    for ptype in types:
        result = sweep(instance.start, instance.circle, ptype, n=args.n)
        feasible_any = bool(result.feasible.any())
        if feasible_any:
            k = grid_argmin(result.lengths)
            refined = refine_min(result, instance.start, instance.circle)
            print(
                f"{ptype.value} grid_min alpha {_f(result.alphas[k])} "
                f"length {_f(result.lengths[k])}"
            )
            print(
                f"{ptype.value} refined_min alpha {_f(refined.alpha)} "
                f"length {_f(refined.length)}"
            )
        else:
            print(f"{ptype.value} infeasible for all alpha")
        if args.csv_out:
            out = _suffixed(args.csv_out, ptype.value) if args.type == "all" else args.csv_out
            export_sweep_csv(result, out)
        curves.append(
            (
                ptype.value,
                [float(a) for a in result.alphas],
                [float(v) for v in result.lengths],
            )
        )
    if args.svg_out:
        r = instance.circle.radius
        threshold = 12.0 * r * (TWO_PI / args.n)
        render_svg(SweepPlot(curves=tuple(curves), break_threshold=threshold), args.svg_out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# check command: cross-validation of the closed forms against the oracle
# ---------------------------------------------------------------------------


_FD_STEP = 1e-6
# smooth probe angles keep this far (rad) from every discontinuity
_SMOOTH_MARGIN = 1e-3


def _fd_derivative(instance: Instance, ptype: PathType, alpha: float) -> float:
    hi = closed_form_length(instance.start, instance.circle, ptype, alpha + _FD_STEP)
    lo = closed_form_length(instance.start, instance.circle, ptype, alpha - _FD_STEP)
    return (hi - lo) / (2.0 * _FD_STEP)


def _smooth_alphas(report: ExtremumReport, rng: random.Random, count: int):
    out = []
    guard = 0
    while len(out) < count and guard < 50 * count:
        guard += 1
        a = rng.uniform(0.0, TWO_PI)
        if all(abs(wrap_to_pi(a - d.alpha)) > _SMOOTH_MARGIN for d in report.discontinuities):
            out.append(a)
    return out


# each check's pass limit, in the order of the printed table;
# --tolerance sets the oracle-agreement-length limit
_CHECK_LIMITS = {
    "closed-form-vs-constructor": 1e-9,
    "derivative-vs-finite-difference": 1e-4,
    "counter-extremum-phi2": 1e-6,
    "co-min-degenerate-phi2": 1e-7,
    "perpendicular-distance": 1e-6,
    "discontinuity-jump": 1e-6,
    "oracle-agreement-length": None,
    "oracle-agreement-alpha": 1e-4,
}


def run_checks(instances: list[Instance], tolerance: float, n: int, seed: int):
    """Run the verification suite; returns (rows, all_pass).

    Rows are (name, passed, worst) where worst is the largest observed
    deviation for that check.
    """
    rng = random.Random(seed ^ 0x5EED)
    limits = {**_CHECK_LIMITS, "oracle-agreement-length": tolerance}
    worst = dict.fromkeys(limits, 0.0)

    def note(name: str, value: float) -> None:
        worst[name] = max(worst[name], value)

    for instance in instances:
        start, circle = instance.start, instance.circle
        r = circle.radius
        for ptype in _ORDER:
            try:
                report = shortest_for_type(start, circle, ptype)
            except InfeasiblePathError:
                continue  # possible only within 4r, as in shortest_to_circle
            relation = rotational_relation(ptype, circle.direction)

            for a in _smooth_alphas(report, rng, 6):
                cf = closed_form_length(start, circle, ptype, a)
                if math.isnan(cf):
                    continue  # the type does not exist at this alpha
                ev = length_at_alpha(start, circle, ptype, a)
                note("closed-form-vs-constructor", abs(cf - ev.length) / max(1.0, ev.length))
                analytic = analytic_derivative(
                    start, circle, ptype, a,
                    known_discontinuities=report.discontinuities,
                )
                fd = _fd_derivative(instance, ptype, a)
                note("derivative-vs-finite-difference", abs(fd - analytic))

            if relation is RotationalRelation.COUNTER_ROTATIONAL:
                low, high = math.pi / 3.0, 5.0 * math.pi / 3.0
                if report.assumption_ok:
                    targets = [(e, (low,)) for e in report.minima]
                    targets += [(e, (high,)) for e in report.maxima]
                else:
                    # nearer starts can also give a minimum at 5*pi/3
                    targets = [(e, (low, high)) for e in report.minima + report.maxima]
                for extremum, phis in targets:
                    note("counter-extremum-phi2", min(abs(extremum.phi2 - phi) for phi in phis))
                    ev = length_at_alpha(start, circle, ptype, extremum.alpha)
                    dist = perpendicular_distance_to_center(ev.path, circle)
                    note("perpendicular-distance", dist / r)
            else:
                note("co-min-degenerate-phi2", report.global_min.phi2)

            for disc in report.discontinuities:
                note("discontinuity-jump", abs(abs(disc.jump) - TWO_PI * r) / r)

            grid = sweep(start, circle, ptype, n=n)
            refined = refine_min(grid, start, circle)
            note("oracle-agreement-length", abs(report.global_min.length - refined.length) / r)
            if not refined.flat:
                note(
                    "oracle-agreement-alpha",
                    abs(wrap_to_pi(report.global_min.alpha - refined.alpha)),
                )

    rows = [(name, worst[name] <= limits[name], worst[name]) for name in worst]
    return rows, all(passed for _, passed, _ in rows)


def cmd_check(args) -> int:
    if args.random is not None:
        rng = random.Random(args.seed)
        instances = [random_instance(rng) for _ in range(args.random)]
    elif args.instance:
        instances = [load_instance(args.instance)]
    else:
        raise InstanceFormatError("check needs an instance file or --random COUNT")
    if args.n < 16:
        raise InstanceFormatError(f"--n must be at least 16, got {args.n}")
    rows, ok = run_checks(instances, args.tolerance, args.n, args.seed)
    print(f"{'check':<34} {'status':<6} worst")
    for name, passed, value in rows:
        print(f"{name:<34} {'PASS' if passed else 'FAIL':<6} {value:.3e}")
    passed_count = sum(1 for _, p, _ in rows if p)
    print(
        f"overall: {'PASS' if ok else 'FAIL'} "
        f"({passed_count}/{len(rows)} checks, {len(instances)} instances)"
    )
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def build_parser() -> _Parser:
    parser = _Parser(prog="dubins-circle", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="shortest CSC path to the target circle")
    p_solve.add_argument("instance", help="instance JSON file")
    p_solve.add_argument("--type", choices=_TYPE_CHOICES, default="all")
    p_solve.add_argument("--json-out", help="write the full result as JSON")
    p_solve.add_argument("--svg-out", help="render the chosen path as SVG")

    p_sweep = sub.add_parser("sweep", help="length-vs-angle sweep")
    p_sweep.add_argument("instance", help="instance JSON file")
    p_sweep.add_argument("--type", choices=_TYPE_CHOICES, default="all")
    p_sweep.add_argument("--n", type=int, default=4096, help="grid samples (>= 16)")
    p_sweep.add_argument("--csv-out", help="write sweep CSV (suffixed per type for all)")
    p_sweep.add_argument("--svg-out", help="render length-vs-alpha plot as SVG")

    p_check = sub.add_parser("check", help="cross-validate solver against the sweep oracle")
    p_check.add_argument("instance", nargs="?", help="instance JSON file")
    p_check.add_argument("--random", type=int, metavar="COUNT", help="random instance count")
    p_check.add_argument("--seed", type=int, default=0)
    p_check.add_argument("--tolerance", type=float, default=1e-6,
                         help="oracle length agreement tolerance in units of r")
    p_check.add_argument("--n", type=int, default=4096, help="oracle sweep samples")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    try:
        if args.command == "solve":
            return cmd_solve(args)
        if args.command == "sweep":
            return cmd_sweep(args)
        return cmd_check(args)
    except (InstanceFormatError, DubinsCircleError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
