"""The benchmark workloads.

Each workload is a closed loop driven by one client thread: the next
operation starts when the previous one returns.  A workload knows how to
build its corpus from a seeded ``random.Random``, run one operation
untraced, run the same operation traced together with probes of the
layers it exercises, and compute the reference answer for an input.

Per-layer spans are recorded around calls to the library's public
functions from here; nothing inside ``src/`` is instrumented.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional

import numpy as np

from dubins_circle import (
    InfeasiblePathError,
    PathType,
    RotationalRelation,
    canonical_instance,
    closed_form_length,
    closed_form_table,
    csc_between,
    discontinuities,
    final_config_at_alpha,
    length_at_alpha,
    load_instance,
    refine_min,
    render_svg,
    rotational_relation,
    sample_path,
    shortest_for_type,
    shortest_to_circle,
    sweep,
)
from dubins_circle import cli
from dubins_circle.export import PathScene

import corpus
import reference
from spans import Tracer

SWEEP_SAMPLES = reference.ORACLE_SAMPLES  # acceptance criterion 5's grid
FAR_COUNT = 32
NEAR_COUNT = 60
SWEEP_COUNT = 48
CLI_COUNT = 16
# corpus items that get the full set of layer probes in a traced run
PROBE_COUNT = 6
CLI_TIMEOUT_S = 60.0


@dataclass
class Outcome:
    key: int  # index of the input in the workload's corpus
    length: float
    r: float
    error: Optional[str] = None
    detail: Any = None  # SolveResult, parsed CLI JSON, or None


@dataclass
class SolverCounts:
    """Which solver paths the corpus exercises; exact for a given seed."""

    discontinuity_count: dict = field(default_factory=lambda: {1: 0, 3: 0})
    winner_kind: dict = field(default_factory=lambda: {
        "stationary": 0, "discontinuity": 0, "feasibility-boundary": 0, "degenerate-cs": 0})
    infeasible_types: int = 0

    def add_report(self, counter: bool, n_discs: int, kind: str) -> None:
        if counter and n_discs in self.discontinuity_count:
            self.discontinuity_count[n_discs] += 1
        self.winner_kind[kind] = self.winner_kind.get(kind, 0) + 1

    def metrics(self) -> dict:
        out = {f"solver.discontinuity_count.{n}": c for n, c in self.discontinuity_count.items()}
        out.update({f"solver.winner_kind.{k}": c for k, c in self.winner_kind.items()})
        out["solver.infeasible_types"] = self.infeasible_types
        return out


def _relation(case, path_type: PathType) -> str:
    rel = rotational_relation(path_type, case.circle.direction)
    return "counter" if rel is RotationalRelation.COUNTER_ROTATIONAL else "co"


def probe_solver_layers(tr: Tracer, case, path_type: PathType, alpha: float) -> None:
    """Time each solver-side layer once on this input.

    Per type: canonical reduction, ``discontinuities`` and
    ``shortest_for_type`` (grouped under a ``type.<relation>`` span so the
    derived extrema self time pairs calls on the same input); then the
    closed forms and the pose-to-pose constructor at ``alpha``.
    """
    s, c = case.start, case.circle
    for pt in PathType:
        with tr.span(f"type.{_relation(case, pt)}"):
            with tr.span("circle_target.canonical_instance"):
                canonical_instance(s, c, pt)
            try:
                with tr.span("solver.discontinuities"):
                    discontinuities(s, c, pt)
                with tr.span("solver.shortest_for_type"):
                    shortest_for_type(s, c, pt)
            except InfeasiblePathError:
                pass
    with tr.span("circle_target.closed_form_length"):
        closed_form_length(s, c, path_type, alpha)
    goal = final_config_at_alpha(c, alpha)
    with contextlib.suppress(InfeasiblePathError):
        with tr.span("circle_target.length_at_alpha"):
            length_at_alpha(s, c, path_type, alpha)
        with tr.span("paths.csc_between"):
            csc_between(s, goal, c.radius, path_type)


def probe_sweep_layers(tr: Tracer, case, path_type: PathType) -> None:
    s, c = case.start, case.circle
    alphas = np.arange(SWEEP_SAMPLES) * (2.0 * np.pi / SWEEP_SAMPLES)
    with tr.span("circle_target.closed_form_table"):
        closed_form_table(s, c, path_type, alphas)
    with tr.span("sweep.sweep"):
        grid = sweep(s, c, path_type, n=SWEEP_SAMPLES)
    with contextlib.suppress(InfeasiblePathError):
        with tr.span("sweep.refine_min"):
            refine_min(grid, s, c)


def probe_cli_layers(tr: Tracer, case, workdir: Path, tag: str) -> None:
    """In-process CLI layers: instance loading, path sampling, SVG export
    and the whole ``solve`` command."""
    inst_path = workdir / f"probe-{tag}.json"
    inst_path.write_text(corpus.instance_document(case), encoding="utf-8")
    with tr.span("instances.load_instance"):
        inst = load_instance(inst_path)
    result = shortest_to_circle(inst.start, inst.circle)
    r = inst.circle.radius
    with tr.span("sampling.sample_path"):
        sample = sample_path(result.path, inst.start, r / 32.0)
    scene = PathScene(paths=((result.path_type.value, sample),),
                      circles=((*inst.circle.center, r),), start=inst.start)
    with tr.span("export.render_svg"):
        render_svg(scene, workdir / f"probe-{tag}.svg")
    argv = ["solve", str(inst_path), "--json-out", str(workdir / f"probe-{tag}-out.json"),
            "--svg-out", str(workdir / f"probe-{tag}-out.svg")]
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        with tr.span("cli.main_solve"):
            cli.main(argv)


class SolveWorkload:
    """``shortest_to_circle`` on one instance per operation."""

    warmup_ops = 3
    in_child_process = False
    # spans whose per-operation sum should account for the operation
    accounted = ("solver.shortest_for_type",)

    def __init__(self, name: str, near: bool):
        self.name = name
        self.near = near

    def make(self, rng, workdir: Path) -> list:
        if self.near:
            return corpus.near_cases(rng, NEAR_COUNT)
        return corpus.far_cases(rng, FAR_COUNT)

    def case(self, item):
        return item

    def run_op(self, key: int, item) -> Outcome:
        result = shortest_to_circle(item.start, item.circle)
        return Outcome(key, result.length, item.circle.radius, detail=result)

    def traced_op(self, tr: Tracer, key: int, item) -> Outcome:
        with tr.span("op.main"):
            with tr.span("solver.shortest_to_circle"):
                result = shortest_to_circle(item.start, item.circle)
        probe_solver_layers(tr, item, result.path_type, result.alpha)
        return Outcome(key, result.length, item.circle.radius, detail=result)

    def reference(self, item) -> float:
        return reference.oracle_length(item.start, item.circle)

    def count(self, counts: SolverCounts, item, outcome: Outcome) -> None:
        result = outcome.detail
        counts.infeasible_types += len(PathType) - len(result.per_type)
        for pt, rep in result.per_type.items():
            counts.add_report(_relation(item, pt) == "counter",
                              len(rep.discontinuities), rep.global_min.kind)


class SweepWorkload:
    """One (instance, type) pair per operation: ``sweep(n=200000)`` then
    ``refine_min``, the shape of acceptance criterion 5 and of ``check``.

    The operation is the oracle itself, so its answer is cross-checked the
    way criterion 5 does: against the solver's minimum for that type.
    """

    name = "oracle-sweep"
    warmup_ops = 3
    in_child_process = False
    accounted = ("sweep.sweep", "sweep.refine_min")

    def make(self, rng, workdir: Path) -> list:
        return corpus.sweep_pairs(rng, SWEEP_COUNT)

    def case(self, item):
        return item[0]

    def run_op(self, key: int, item) -> Outcome:
        case, pt = item
        grid = sweep(case.start, case.circle, pt, n=SWEEP_SAMPLES)
        refined = refine_min(grid, case.start, case.circle)
        return Outcome(key, float(refined.length), case.circle.radius)

    def traced_op(self, tr: Tracer, key: int, item) -> Outcome:
        case, pt = item
        with tr.span("op.main"):
            with tr.span("sweep.sweep"):
                grid = sweep(case.start, case.circle, pt, n=SWEEP_SAMPLES)
            with tr.span("sweep.refine_min"):
                refined = refine_min(grid, case.start, case.circle)
        return Outcome(key, float(refined.length), case.circle.radius)

    def reference(self, item) -> float:
        case, pt = item
        return shortest_for_type(case.start, case.circle, pt).global_min.length

    def count(self, counts: SolverCounts, item, outcome: Outcome) -> None:
        """The operation never calls the solver: nothing to count."""


class CliWorkload:
    """One ``python -m dubins_circle.cli solve`` process per operation,
    writing the JSON result and the SVG figure."""

    name = "cli-solve"
    warmup_ops = 1
    in_child_process = True
    accounted = ()  # accounted from import and the in-process solve command

    def __init__(self, src: Path):
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(src), os.environ.get("PYTHONPATH", "")) if p)
        self.workdir: Optional[Path] = None

    def make(self, rng, workdir: Path) -> list:
        self.workdir = workdir
        cases = corpus.far_cases(rng, CLI_COUNT)
        for key, case in enumerate(cases):
            (workdir / f"inst-{key}.json").write_text(
                corpus.instance_document(case), encoding="utf-8")
        return cases

    def case(self, item):
        return item

    def _solve_process(self, key: int) -> int:
        """Run one CLI process to completion and return its exit code."""
        wd = self.workdir
        cmd = [sys.executable, "-m", "dubins_circle.cli", "solve", str(wd / f"inst-{key}.json"),
               "--json-out", str(wd / f"out-{key}.json"), "--svg-out", str(wd / f"out-{key}.svg")]
        with open(wd / f"err-{key}.txt", "wb") as err:
            proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, stderr=err, env=self.env)
            try:
                proc.wait(timeout=CLI_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                raise
        return proc.returncode

    def _outcome(self, key: int, item, code: int) -> Outcome:
        if code != 0:
            err = (self.workdir / f"err-{key}.txt").read_text(encoding="utf-8", errors="replace")
            return Outcome(key, float("nan"), item.circle.radius,
                           error=f"exit {code}: {err.strip()[-300:]}")
        doc = json.loads((self.workdir / f"out-{key}.json").read_text(encoding="utf-8"))
        return Outcome(key, float(doc["length"]), item.circle.radius, detail=doc)

    def run_op(self, key: int, item) -> Outcome:
        code = self._solve_process(key)
        return self._outcome(key, item, code)

    def traced_op(self, tr: Tracer, key: int, item) -> Outcome:
        with tr.span("op.main"):
            with tr.span("cli.process"):
                code = self._solve_process(key)
        return self._outcome(key, item, code)

    def reference(self, item) -> float:
        return reference.oracle_length(item.start, item.circle)

    def count(self, counts: SolverCounts, item, outcome: Outcome) -> None:
        doc = outcome.detail
        counts.infeasible_types += len(PathType) - len(doc["per_type"])
        for name, rep in doc["per_type"].items():
            counts.add_report(_relation(item, PathType(name)) == "counter",
                              len(rep["discontinuities"]), rep["global_min"]["kind"])


def make_workloads(src: Path) -> dict:
    return {
        "solve-far": SolveWorkload("solve-far", near=False),
        "solve-near": SolveWorkload("solve-near", near=True),
        "oracle-sweep": SweepWorkload(),
        "cli-solve": CliWorkload(src),
    }
