"""Benchmark of dubins-circle: end-to-end and per-layer timings.

    python3 bench/run.py --workload solve-far --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 10 --trace 0

One run sets up a workload (import, seeded corpus, warm-up) several
times, then drives it as a closed loop with one client for ``--seconds``
seconds, then checks every answer against a reference computed after the
timed region.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  ``--workload all`` runs every workload in turn, each in
its own process, and prints a table.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOADS = ("solve-far", "solve-near", "oracle-sweep", "cli-solve")
RUN_TIMEOUT_S = 180.0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Run every workload in its own process and print one table."""
    results = {}
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "1" if trace else "0"],
            capture_output=True, text=True, timeout=RUN_TIMEOUT_S, cwd=ROOT,
        )
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            print(f"{name}: exit {done.returncode}", file=sys.stderr)
            return 1
        lines = done.stdout.splitlines()
        for line in lines[:-1]:
            print(line)
        results[name] = json.loads(lines[-1])
    print(f"{'workload':<14} {'metric':<46} {'value':>16} unit")
    for name, res in results.items():
        rows = [(k, m["value"], m["unit"]) for k, m in res["metrics"].items()]
        rows.append(("fail_ratio", res["failed"] / res["attempted"], "ratio"))
        for metric, value, unit in rows:
            print(f"{name:<14} {metric:<46} {value:>16.6g} {unit}")
        print(f"{name:<14} {'correct':<46} {str(res['correct']):>16}")
    print(json.dumps(results, sort_keys=True))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "dubins_circle" / "__init__.py").is_file():
        print(f"error: library source not found under {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    sys.path.insert(0, str(SRC))
    import harness

    result = harness.run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
