"""Acceptance suite: one test per criterion, printed as a pass/fail line.

Shared corpora are built lazily and cached at module scope so the
sweep-heavy criteria reuse each other's work.  Criterion 6 asserts the
wrap geometry that holds under the 4r assumption, which every corpus
instance satisfies: one discontinuity for co-rotational instances and
one or three for counter-rotational ones (first-arc wraps come in
pairs).  An earlier "at most 2 discontinuities per instance" claim was
withdrawn because real instances carry three.
"""

import io
import math
import random
import time
from contextlib import redirect_stdout

import numpy as np

from dubins_circle import (
    Configuration,
    PathType,
    RotationDirection,
    TargetCircle,
    analytic_derivative,
    assumption_check,
    closed_form_length,
    closed_form_table,
    length_at_alpha,
    mirror_problem,
    perpendicular_distance_to_center,
    shortest_for_type,
    shortest_to_circle,
    wrap_to_pi,
)
from dubins_circle import cli
from dubins_circle.instances import random_instance
from dubins_circle.solver import CAUSE_PHI1, CAUSE_PHI2
from dubins_circle.sweep import refine_min, sweep

TWO_PI = 2.0 * math.pi
PI_3 = math.pi / 3.0
ORIGIN = Configuration(0, 0, 0)

COUNTER_COMBOS = (
    (PathType.LSL, RotationDirection.CW),
    (PathType.RSL, RotationDirection.CW),
    (PathType.RSR, RotationDirection.CCW),
    (PathType.LSR, RotationDirection.CCW),
)
CO_COMBOS = (
    (PathType.LSL, RotationDirection.CCW),
    (PathType.RSL, RotationDirection.CCW),
    (PathType.RSR, RotationDirection.CW),
    (PathType.LSR, RotationDirection.CW),
)
ALL_COMBOS = COUNTER_COMBOS + CO_COMBOS


def _instances(seed: int, count: int, direction: RotationDirection):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        inst = random_instance(rng)
        out.append(TargetCircle(inst.circle.center, 1.0, direction))
    return out


_REPORT_CACHE: dict = {}


def _report(circle: TargetCircle, ptype: PathType):
    key = (circle.center, circle.direction, ptype)
    if key not in _REPORT_CACHE:
        _REPORT_CACHE[key] = shortest_for_type(ORIGIN, circle, ptype)
    return _REPORT_CACHE[key]


def _announce(criterion: str, passed: bool, detail: str = ""):
    status = "PASS" if passed else "FAIL"
    suffix = f" — {detail}" if detail else ""
    print(f"criterion {criterion}: {status}{suffix}")


def test_criterion_1_extremum_conditions():
    """Every reported minimum has phi2 = pi/3 and maximum phi2 = 5*pi/3."""
    start_time = time.monotonic()
    worst_min, worst_max = 0.0, 0.0
    for seed, (ptype, direction) in enumerate(COUNTER_COMBOS, start=1000):
        for circle in _instances(seed, 500, direction):
            report = _report(circle, ptype)
            for e in report.minima:
                worst_min = max(worst_min, abs(e.phi2 - PI_3))
            for e in report.maxima:
                worst_max = max(worst_max, abs(e.phi2 - 5.0 * PI_3))
    elapsed = time.monotonic() - start_time
    ok = worst_min <= 1e-6 and worst_max <= 1e-6 and elapsed < 30.0
    _announce(
        "1 (extremum phi2 conditions)",
        ok,
        f"worst min {worst_min:.2e}, worst max {worst_max:.2e}, {elapsed:.1f}s",
    )
    assert worst_min <= 1e-6
    assert worst_max <= 1e-6
    assert elapsed < 30.0


def test_criterion_2_line_through_center():
    """At each stationary extremum the straight line passes through the center."""
    worst = 0.0
    for seed, (ptype, direction) in enumerate(COUNTER_COMBOS, start=1000):
        for circle in _instances(seed, 500, direction):
            report = _report(circle, ptype)
            for e in report.minima + report.maxima:
                _, path = length_at_alpha(ORIGIN, circle, ptype, e.alpha)
                dist = perpendicular_distance_to_center(path, circle)
                worst = max(worst, dist / circle.radius)
    ok = worst <= 1e-6
    _announce("2 (perpendicular distance at extrema)", ok, f"worst {worst:.2e}*r")
    assert worst <= 1e-6


def test_criterion_3_co_rotational_structure():
    """phi1, ls constant; |slope| exactly r; minimum degenerates to CS."""
    worst_const, worst_slope, worst_phi2 = 0.0, 0.0, 0.0
    probe = np.linspace(0.0, TWO_PI, 64, endpoint=False)
    for seed, (ptype, direction) in enumerate(CO_COMBOS, start=3000):
        sign = 1.0 if ptype.second_turn == "L" else -1.0
        for circle in _instances(seed, 500, direction):
            report = _report(circle, ptype)
            table = closed_form_table(ORIGIN, circle, ptype, probe)
            worst_const = max(worst_const, float(np.ptp(table["phi1"])))
            worst_const = max(worst_const, float(np.ptp(table["ls"])))
            # signed slope between discontinuities: +r for L second arcs,
            # -r for R second arcs (the angular coordinate mirrors)
            r = circle.radius
            a0 = report.discontinuities[0].alpha
            pts = a0 + np.array([0.3, 0.9, 1.7, 2.6, 4.1, 5.5])
            vals = [closed_form_length(ORIGIN, circle, ptype, float(a)) for a in pts]
            for (a1, v1), (a2, v2) in zip(zip(pts, vals), zip(pts[1:], vals[1:])):
                slope = (v2 - v1) / (a2 - a1)
                worst_slope = max(worst_slope, abs(slope - sign * r))
            worst_phi2 = max(worst_phi2, report.global_min.phi2)
    ok = worst_const <= 1e-10 and worst_slope <= 1e-9 and worst_phi2 <= 1e-7
    _announce(
        "3 (co-rotational linearity and CS minimum)",
        ok,
        f"constancy {worst_const:.2e}, slope dev {worst_slope:.2e}, phi2 {worst_phi2:.2e}",
    )
    assert worst_const <= 1e-10
    assert worst_slope <= 1e-9
    assert worst_phi2 <= 1e-7


def test_criterion_4_analytic_derivative():
    """Central differences match the closed-form derivative to 1e-4."""
    h = 1e-6
    worst = 0.0
    for seed, (ptype, direction) in enumerate(COUNTER_COMBOS, start=4000):
        rng = random.Random(seed)
        for circle in _instances(seed, 50, direction):
            report = _report(circle, ptype)
            checked = 0
            while checked < 100:
                a = rng.uniform(0.0, TWO_PI)
                if any(abs(wrap_to_pi(a - d.alpha)) < 1e-3 for d in report.discontinuities):
                    continue
                fd = (
                    closed_form_length(ORIGIN, circle, ptype, a + h)
                    - closed_form_length(ORIGIN, circle, ptype, a - h)
                ) / (2.0 * h)
                analytic = analytic_derivative(
                    ORIGIN, circle, ptype, a, known_discontinuities=report.discontinuities
                )
                worst = max(worst, abs(fd - analytic))
                checked += 1
    ok = worst <= 1e-4
    _announce("4 (derivative vs finite differences)", ok, f"worst {worst:.2e}")
    assert worst <= 1e-4


def _sweep_corpus():
    """Sweeps shared by criteria 5 and 6 (500 instances per combo)."""
    for seed, (ptype, direction) in enumerate(ALL_COMBOS, start=5000):
        for circle in _instances(seed, 500, direction):
            yield ptype, circle


def test_criterion_5_oracle_agreement():
    """Solver minima match refined 200000-sample sweeps."""
    start_time = time.monotonic()
    worst_len, worst_alpha = 0.0, 0.0
    for ptype, circle in _sweep_corpus():
        report = _report(circle, ptype)
        refined = refine_min(sweep(ORIGIN, circle, ptype, n=200000), ORIGIN, circle)
        r = circle.radius
        worst_len = max(worst_len, abs(report.global_min.length - refined.length) / r)
        if not refined.flat:
            worst_alpha = max(
                worst_alpha, abs(wrap_to_pi(report.global_min.alpha - refined.alpha))
            )
    elapsed = time.monotonic() - start_time
    ok = worst_len <= 1e-6 and worst_alpha <= 1e-4 and elapsed < 300.0
    _announce(
        "5 (oracle agreement)",
        ok,
        f"worst length {worst_len:.2e}*r, worst alpha {worst_alpha:.2e} rad, {elapsed:.0f}s",
    )
    assert worst_len <= 1e-6
    assert worst_alpha <= 1e-4
    assert elapsed < 300.0


def test_criterion_6_discontinuities():
    """Detected jumps are 2*pi*r sweep jumps, one or three per instance.

    Under the 4r assumption the ray from the first turn centre along the
    start heading starts outside the radius-2r circle on which the
    goal-side turn centre runs, so the first arc wraps zero or two
    times.  Co-rotational instances therefore carry exactly one
    phi2-wrap; counter-rotational ones carry one phi2-wrap plus zero or
    two phi1-wraps whose jumps have opposite signs.  Detections and
    sweep jumps are matched in both directions, so the counts do not
    rest on the solver's own list.
    """
    n = 200000
    worst_jump = 0.0
    worst_match = 0.0
    unmatched_sweep_jumps = 0
    unmatched_detections = 0
    out_of_scope = 0
    bad_geometry = 0
    counter_counts = set()
    for ptype, circle in _sweep_corpus():
        report = _report(circle, ptype)
        r = circle.radius
        result = sweep(ORIGIN, circle, ptype, n=n)
        diffs = np.diff(np.append(result.lengths, result.lengths[0]))
        jump_idx = np.nonzero(np.abs(diffs) > 0.1 * r)[0]
        sweep_mids = [float(result.alphas[k]) + math.pi / n for k in jump_idx]
        detected = report.discontinuities
        for mid in sweep_mids:
            best = min(
                (abs(wrap_to_pi(d.alpha - mid)) for d in detected), default=math.inf
            )
            if best > 1e-4:
                unmatched_sweep_jumps += 1
            else:
                worst_match = max(worst_match, best)
        for d in detected:
            worst_jump = max(worst_jump, abs(abs(d.jump) - TWO_PI * r) / r)
            best = min(
                (abs(wrap_to_pi(d.alpha - mid)) for mid in sweep_mids), default=math.inf
            )
            if best > 1e-4:
                unmatched_detections += 1
            else:
                worst_match = max(worst_match, best)
        if not assumption_check(ORIGIN, circle):
            out_of_scope += 1
        phi1_jumps = [d.jump for d in detected if d.cause == CAUSE_PHI1]
        phi2_count = sum(1 for d in detected if d.cause == CAUSE_PHI2)
        if (ptype, circle.direction) in COUNTER_COMBOS:
            counter_counts.add(len(detected))
            phi1_ok = len(phi1_jumps) == 0 or (
                len(phi1_jumps) == 2 and phi1_jumps[0] * phi1_jumps[1] < 0
            )
        else:
            phi1_ok = not phi1_jumps
        if phi2_count != 1 or not phi1_ok or len(detected) != phi2_count + len(phi1_jumps):
            bad_geometry += 1
    jumps_ok = worst_jump <= 1e-6
    match_ok = (
        unmatched_sweep_jumps == 0 and unmatched_detections == 0 and worst_match <= 1e-4
    )
    # both counts must occur, so the geometry check cannot pass vacuously
    count_ok = out_of_scope == 0 and bad_geometry == 0 and counter_counts == {1, 3}
    ok = jumps_ok and match_ok and count_ok
    _announce(
        "6 (discontinuities)",
        ok,
        f"jump magnitude dev {worst_jump:.2e}*r, match dev {worst_match:.2e} rad, "
        f"unmatched sweep jumps {unmatched_sweep_jumps}, unmatched detections "
        f"{unmatched_detections}, counter-rotational counts {sorted(counter_counts)}, "
        f"off-geometry instances {bad_geometry} (one or three under the 4r assumption)",
    )
    assert jumps_ok
    assert match_ok
    assert out_of_scope == 0, f"{out_of_scope} corpus instances violate the 4r assumption"
    assert bad_geometry == 0, (
        f"{bad_geometry} instances break the wrap geometry: expected one phi2-wrap, "
        "plus zero or two opposite-sign phi1-wraps on counter-rotational instances"
    )
    assert counter_counts == {1, 3}, (
        f"counter-rotational counts {sorted(counter_counts)}: the corpus must "
        "reach both one and three discontinuities"
    )


def test_criterion_7_mirror_symmetry():
    """Mirrored per-type results equal L/R-swapped originals."""
    rng = random.Random(7000)
    worst_len, worst_alpha = 0.0, 0.0
    for _ in range(500):
        inst = random_instance(rng)
        mirrored = mirror_problem(inst.start, inst.circle)
        for ptype in PathType:
            rep = shortest_for_type(inst.start, inst.circle, ptype)
            rep_m = shortest_for_type(inst.start, mirrored, ptype.mirrored)
            worst_len = max(
                worst_len, abs(rep.global_min.length - rep_m.global_min.length)
            )
            worst_alpha = max(
                worst_alpha,
                abs(wrap_to_pi(rep.global_min.alpha + rep_m.global_min.alpha)),
            )
            assert len(rep.minima) == len(rep_m.minima)
            assert len(rep.discontinuities) == len(rep_m.discontinuities)
    ok = worst_len <= 1e-9 and worst_alpha <= 1e-6
    _announce(
        "7 (mirror symmetry)",
        ok,
        f"worst length {worst_len:.2e}, worst alpha {worst_alpha:.2e}",
    )
    assert worst_len <= 1e-9
    assert worst_alpha <= 1e-6


def test_criterion_8_global_solver():
    """shortest_to_circle equals the minimum over four independent sweeps."""
    rng = random.Random(8000)
    worst = 0.0
    for _ in range(200):
        inst = random_instance(rng)
        result = shortest_to_circle(inst.start, inst.circle)
        best = min(
            refine_min(
                sweep(inst.start, inst.circle, pt, n=200000), inst.start, inst.circle
            ).length
            for pt in PathType
        )
        worst = max(worst, abs(result.length - best) / inst.circle.radius)
    ok = worst <= 1e-6
    _announce("8 (global solver vs sweeps)", ok, f"worst {worst:.2e}*r")
    assert worst <= 1e-6


def test_criterion_9_determinism():
    """Repeated cmd_check runs with one seed are byte-identical."""
    outputs = []
    codes = []
    for _ in range(2):
        buf = io.StringIO()
        with redirect_stdout(buf):
            codes.append(cli.main(["check", "--random", "100", "--seed", "7"]))
        outputs.append(buf.getvalue())
    ok = outputs[0] == outputs[1] and codes[0] == codes[1] == 0
    _announce(
        "9 (determinism)",
        ok,
        f"identical={outputs[0] == outputs[1]}, exit={codes[0]}/{codes[1]}",
    )
    assert outputs[0] == outputs[1]
    assert codes[0] == 0 and codes[1] == 0
