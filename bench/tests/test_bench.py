"""Tests of the benchmark itself: corpus determinism, metric names and the
correctness check.  Run with ``python3 -m pytest bench/tests -q``."""

import json
import math
import random
import re

import pytest

import corpus
import harness
import reference
import spans
import workloads
from workloads import Outcome

NAME = re.compile(r"[A-Za-z0-9_.-]+")
SPEC = json.loads((harness.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _fingerprint(cases):
    out = []
    for case in cases:
        case, pt = case if isinstance(case, tuple) else (case, None)
        out.append((case.start.x, case.start.y, case.start.theta, case.circle.center,
                    case.circle.radius, case.circle.direction.value, pt, case.label))
    return out


GENERATORS = {
    "far": lambda rng: corpus.far_cases(rng, 8),
    "near": lambda rng: corpus.near_cases(rng, 8),
    "sweep": lambda rng: corpus.sweep_pairs(rng, 8),
}


@pytest.mark.parametrize("kind", sorted(GENERATORS))
def test_same_seed_same_corpus(kind):
    make = GENERATORS[kind]
    assert _fingerprint(make(random.Random(7))) == _fingerprint(make(random.Random(7)))


@pytest.mark.parametrize("kind", sorted(GENERATORS))
def test_different_seed_different_corpus(kind):
    make = GENERATORS[kind]
    first, second = _fingerprint(make(random.Random(7))), _fingerprint(make(random.Random(8)))
    random_first = [c for c in first if c[-1] == "random"]
    random_second = [c for c in second if c[-1] == "random"]
    assert random_first and all(a != b for a, b in zip(random_first, random_second))


def test_instance_document_round_trips(tmp_path):
    case = corpus.far_cases(random.Random(3), 1)[0]
    path = tmp_path / "inst.json"
    path.write_text(corpus.instance_document(case), encoding="utf-8")
    inst = workloads.load_instance(path)
    assert (inst.start, inst.circle) == (case.start, case.circle)


def test_spec_metric_names_are_well_formed():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)
    assert len(names) == len(set(names))


@pytest.fixture
def small_runs(monkeypatch):
    """Shrink corpora and repeats so a whole run takes a few seconds."""
    monkeypatch.setattr(workloads, "FAR_COUNT", 3)
    monkeypatch.setattr(workloads, "CLI_COUNT", 2)
    monkeypatch.setattr(workloads, "PROBE_COUNT", 1)
    monkeypatch.setattr(harness, "SETUP_REPEATS", 1)


@pytest.mark.parametrize("trace", [False, True])
def test_run_emits_exactly_the_spec_metrics(small_runs, trace):
    result = harness.run_one("solve-far", seed=5, seconds=0.05, trace=trace)
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == expected
    assert all(NAME.fullmatch(name) for name in got)
    assert all(isinstance(m["value"], (int, float)) and math.isfinite(m["value"])
               for m in result["metrics"].values())
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1


def test_check_rejects_a_wrong_length():
    case = corpus.far_cases(random.Random(11), 1)[0]
    r = case.circle.radius
    ref = reference.oracle_length(case.start, case.circle)
    wl = workloads.make_workloads(harness.SRC)["solve-far"]
    good = Outcome(0, ref + 0.5e-6 * r, r)
    wrong = Outcome(0, ref + 2e-6 * r, r)
    short = Outcome(0, ref - 2e-6 * r, r)
    raised = Outcome(0, math.nan, r, error="ValueError: boom")
    assert harness.check(wl, [good], {0: ref}) == 0
    assert harness.check(wl, [good, wrong, short, raised], {0: ref}) == 3


def test_solver_answer_passes_the_check():
    case = corpus.far_cases(random.Random(11), 1)[0]
    wl = workloads.make_workloads(harness.SRC)["solve-far"]
    out = wl.run_op(0, case)
    assert harness.check(wl, [out], {0: wl.reference(case)}) == 0


def test_tail_has_ten_samples_beyond_it():
    samples = [float(k) for k in range(1, 101)]
    pct, value = spans.tail(samples)
    assert value == 90.0 and pct == 90.0
    assert sum(s > value for s in samples) == spans.TAIL_BEYOND
