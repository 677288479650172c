"""Set-up, the closed loops, the correctness check and the metrics of one
workload run."""

from __future__ import annotations

import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import reference
import spans
import workloads
from dubins_circle import PathType, shortest_to_circle
from workloads import (
    SWEEP_SAMPLES,
    Outcome,
    SolverCounts,
    probe_cli_layers,
    probe_solver_layers,
    probe_sweep_layers,
)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 3
SUBPROCESS_TIMEOUT_S = 170.0
# End-to-end times are scaled to a nominal machine speed, because contention
# from other tenants of the host slows this process by up to 2x for seconds
# to minutes at a time: each time is multiplied by CALIB_NOMINAL_S over the
# time of the calibration loop measured at most CALIB_EVERY_S before it.
CALIB_EVERY_S = 0.1
CALIB_NOMINAL_S = 1.4e-3

IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import dubins_circle; print(time.perf_counter() - t)"
)

def import_seconds() -> float:
    """Time ``import dubins_circle`` in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
        capture_output=True, text=True, timeout=SUBPROCESS_TIMEOUT_S, check=True, cwd=ROOT,
    )
    return float(done.stdout.split()[-1])


def attempt(wl, key, item, tracer=None):
    """One operation; an unexpected error is recorded, not raised."""
    try:
        if tracer is None:
            return wl.run_op(key, item)
        return wl.traced_op(tracer, key, item)
    except Exception as exc:  # the loop must go on; the error is counted as a failure
        return Outcome(key, math.nan, wl.case(item).circle.radius,
                       error=f"{type(exc).__name__}: {exc}")


def set_up(wl, seed: int, workdir: Path):
    """Build the corpus and warm up SETUP_REPEATS times.

    Returns (corpus, setup seconds, import seconds): each setup sample is a
    fresh-interpreter import plus corpus generation plus warm-up, scaled by
    a calibration loop run just before it, and the setup time is their
    median.  The import seconds are unscaled.
    """
    totals, imports = [], []
    items = []
    for _ in range(SETUP_REPEATS):
        calib = spans.calib_seconds()
        imported = import_seconds()
        t0 = time.perf_counter()
        items = wl.make(random.Random(seed), workdir)
        for k in range(wl.warmup_ops):
            attempt(wl, k % len(items), items[k % len(items)])
        totals.append((imported + time.perf_counter() - t0) * CALIB_NOMINAL_S / calib)
        imports.append(imported)
    return items, statistics.median(totals), imports


def peak_rss_mb(wl) -> float:
    who = resource.RUSAGE_CHILDREN if wl.in_child_process else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is KiB on Linux


def check(wl, outcomes, refs: dict) -> int:
    """Count failed operations: an unexpected error, or a length more than
    1e-6*r from the reference.  The first few are reported on stderr."""
    failed = 0
    for out in outcomes:
        ok = out.error is None and reference.agrees(out.length, refs[out.key], out.r)
        if not ok:
            failed += 1
            if failed <= 5:
                why = out.error or (
                    f"length {out.length:.15g} vs reference {refs[out.key]:.15g} "
                    f"({reference.gap_r(out.length, refs[out.key], out.r):+.3e}*r)")
                print(f"{wl.name}: input {out.key} failed: {why}", file=sys.stderr)
    return failed


def closed_loop(wl, items, seconds: float):
    """Untraced closed loop; (start times, end times, outcomes, calibration
    seconds for each operation).

    An operation's calibration is the mean of the last calibration loop
    before it starts and the first one after it ends."""
    starts, ends, outcomes, before = [], [], [], []
    samples = []
    deadline = time.perf_counter() + seconds
    k = 0
    last = -math.inf
    while True:
        if time.perf_counter() - last >= CALIB_EVERY_S:
            samples.append(spans.calib_seconds())
            last = time.perf_counter()
        key = k % len(items)
        t0 = time.perf_counter()
        out = attempt(wl, key, items[key])
        t1 = time.perf_counter()
        out.detail = None  # keep memory flat: peak_rss_mb must not grow with the op count
        starts.append(t0)
        ends.append(t1)
        outcomes.append(out)
        before.append(len(samples) - 1)
        k += 1
        if t1 >= deadline:
            samples.append(spans.calib_seconds())
            calibs = [0.5 * (samples[j] + samples[j + 1]) for j in before]
            return starts, ends, outcomes, calibs


def run_untraced(wl, items, seconds: float, setup_s: float):
    """The timed closed loop, then the reference answers and the check."""
    starts, ends, outcomes, calibs = closed_loop(wl, items, seconds)
    latencies = [b - a for a, b in zip(starts, ends)]
    scaled = [lat * CALIB_NOMINAL_S / c for lat, c in zip(latencies, calibs)]
    rss = peak_rss_mb(wl)
    t0 = time.perf_counter()
    refs = {key: wl.reference(items[key]) for key in sorted({o.key for o in outcomes})}
    print(f"{wl.name}: {len(refs)} reference answers in {time.perf_counter() - t0:.1f} s")
    failed = check(wl, outcomes, refs)
    n = len(latencies)
    pct, tail_s = spans.tail(scaled)
    print(f"{wl.name}: {n} ops in {ends[-1] - starts[0]:.3f} s, {n / (ends[-1] - starts[0]):.4g}"
          f" ops/s unscaled; unscaled latency p50 {statistics.median(latencies) * 1e6:.6g} us; "
          f"calibration loop p50 {statistics.median(calibs) * 1e6:.6g} us")
    print(f"{wl.name}: latency_us_tail is p{pct:.2f} of {n} ops "
          f"({spans.TAIL_BEYOND} beyond it)")
    print(f"{wl.name}: fail_ratio {failed / n:.6f} ({failed} of {n})")
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (n / sum(scaled), "1/s"),
        "latency_us_p50": (statistics.median(scaled) * 1e6, "us"),
        "latency_us_tail": (tail_s * 1e6, "us"),
        "peak_rss_mb": (rss, "MB"),
    }
    return n, failed, metrics


def _fill_outcomes(wl, items, outcomes) -> dict:
    """First error-free outcome per corpus input, running inputs the loop
    never reached (outside any timing)."""
    first = {}
    for out in outcomes:
        if out.error is None and out.key not in first:
            first[out.key] = out
    for key in range(len(items)):
        if key not in first:
            out = attempt(wl, key, items[key])
            if out.error is None:
                first[key] = out
    return first


def layer_metrics(wl, items, tr, untraced, loop_ops, calibs, imports, first, refs) -> dict:
    """Per-layer metrics from the spans, plus the solver path counts and
    the largest oracle gap over the whole corpus."""
    names = [s.name for s in tr.spans]

    def secs(name, parent=None):
        out = [s.seconds for s in tr.spans if s.name == name
               and (parent is None or (s.parent is not None and names[s.parent] == parent))]
        if not out:
            raise RuntimeError(f"no span named {name!r} under {parent!r}")
        return out

    def us(name, parent=None):
        return statistics.median(secs(name, parent)) * 1e6

    extrema = []
    for index, s in enumerate(tr.spans):
        if s.name == "type.counter":
            kids = {c.name: c.seconds for c in tr.spans if c.parent == index}
            if "solver.shortest_for_type" in kids and "solver.discontinuities" in kids:
                extrema.append(kids["solver.shortest_for_type"] - kids["solver.discontinuities"])

    counts = SolverCounts()
    for key, out in sorted(first.items()):
        wl.count(counts, wl.case(items[key]), out)
    gap = max(abs(out.length - refs[key]) / out.r for key, out in first.items())

    untraced_p50 = statistics.median(untraced)
    main = [s.seconds for s in tr.spans if s.name == "op.main"]
    if wl.accounted:
        per_op = {}
        for s in tr.spans:
            if s.op in loop_ops and s.name in wl.accounted:
                per_op[s.op] = per_op.get(s.op, 0.0) + s.seconds
        accounted = statistics.median(list(per_op.values()))
    else:  # the process's own import and solve command
        accounted = statistics.median(imports) + statistics.median(secs("cli.main_solve"))

    metrics = {
        "solver.discontinuities_us.counter": (us("solver.discontinuities", "type.counter"), "us"),
        "solver.discontinuities_us.co": (us("solver.discontinuities", "type.co"), "us"),
        "solver.shortest_for_type_us.counter": (
            us("solver.shortest_for_type", "type.counter"), "us"),
        "solver.shortest_for_type_us.co": (us("solver.shortest_for_type", "type.co"), "us"),
        "solver.extrema_self_us.counter": (statistics.median(extrema) * 1e6, "us"),
        "solver.oracle_gap_max_r": (gap, "r"),
        "circle_target.canonical_instance_us": (us("circle_target.canonical_instance"), "us"),
        "circle_target.closed_form_length_us": (us("circle_target.closed_form_length"), "us"),
        "circle_target.length_at_alpha_us": (us("circle_target.length_at_alpha"), "us"),
        "paths.csc_between_us": (us("paths.csc_between"), "us"),
        "circle_target.closed_form_table_ns_per_sample": (
            us("circle_target.closed_form_table") * 1e3 / SWEEP_SAMPLES, "ns"),
        "sweep.sweep_ms": (us("sweep.sweep") / 1e3, "ms"),
        "sweep.refine_min_us": (us("sweep.refine_min"), "us"),
        "cli.import_ms": (statistics.median(imports) * 1e3, "ms"),
        "cli.main_solve_ms": (us("cli.main_solve") / 1e3, "ms"),
        "instances.load_instance_us": (us("instances.load_instance"), "us"),
        "sampling.sample_path_us": (us("sampling.sample_path"), "us"),
        "export.render_svg_us": (us("export.render_svg"), "us"),
        "machine.calib_us": (statistics.median(calibs) * 1e6, "us"),
        "trace.overhead_pct": ((statistics.median(main) / untraced_p50 - 1.0) * 100.0, "%"),
        "trace.accounted_share": (accounted / untraced_p50, "ratio"),
    }
    for name, value in counts.metrics().items():
        metrics[name] = (value, "count")
    return metrics


def run_traced(wl, items, seconds: float, imports, workdir: Path, seed: int):
    """Alternate untraced and traced operations on the same inputs, then
    probe every layer on the first PROBE_COUNT inputs."""
    tr = spans.Tracer()
    untraced, outcomes, loop_ops, calibs = [], [], set(), []
    deadline = time.perf_counter() + seconds
    k = 0
    last = -math.inf
    while True:
        if time.perf_counter() - last >= CALIB_EVERY_S:
            calibs.append(spans.calib_seconds())
            last = time.perf_counter()
        key = k % len(items)
        t0 = time.perf_counter()
        outcomes.append(attempt(wl, key, items[key]))
        untraced.append(time.perf_counter() - t0)
        op = tr.begin_op()
        loop_ops.add(op)
        with tr.span("op"):
            outcomes.append(attempt(wl, key, items[key], tr))
        k += 1
        if time.perf_counter() >= deadline:
            break
    types = list(PathType)
    for i in range(min(workloads.PROBE_COUNT, len(items))):
        case = wl.case(items[i])
        result = shortest_to_circle(case.start, case.circle)
        tr.begin_op()
        with tr.span("probe"):
            probe_solver_layers(tr, case, result.path_type, result.alpha)
            probe_sweep_layers(tr, case, types[i % len(types)])
            probe_cli_layers(tr, case, workdir, str(i))

    first = _fill_outcomes(wl, items, outcomes)
    refs = {key: wl.reference(items[key]) for key in range(len(items))}
    failed = check(wl, outcomes, refs)
    metrics = layer_metrics(wl, items, tr, untraced, loop_ops, calibs, imports, first, refs)
    trace_file = WORK / f"trace-{wl.name}-seed{seed}.json"
    trace_file.write_text(json.dumps(tr.to_records()) + "\n", encoding="utf-8")
    print(f"{wl.name}: {len(tr.spans)} spans written to {trace_file.relative_to(ROOT)}")
    return len(outcomes), failed, metrics


def run_one(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One workload run; the result object the benchmark prints last."""
    wl = workloads.make_workloads(SRC)[name]
    # one core for the run and every process it starts, so the calibration
    # loop sees the contention the operations see
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    try:
        items, setup_s, imports = set_up(wl, seed, workdir)
        if trace:
            attempted, failed, metrics = run_traced(wl, items, seconds, imports, workdir, seed)
        else:
            attempted, failed, metrics = run_untraced(wl, items, seconds, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


