"""Steadiness of the benchmark: run one workload N times and summarise.

Usage, from the root of a source checkout::

    python3 perfbench/steady.py --workload replay --runs 10 [--first-seed 1]

Each run gets its own seed (``first-seed``, ``first-seed + 1``, ...).
For every end-to-end metric the command prints the median, the first and
third quartiles (``statistics.quantiles(values, n=4)``) and the spread,
the interquartile distance as a share of the median, beside the metric's
bound from ``BENCHMARK.json`` and a third of it (the target the bounds
were set against).  It also prints the share of failed operations and
whether every run was correct.  ``--json`` writes the raw results.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def spread(values):
    """``(median, q1, q3, (q3 - q1) / median)`` of a sample of at least two."""

    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, q1, q3, (q3 - q1) / q2 if q2 else float("inf")


def run_once(workload: str, seed: int, seconds: int) -> dict:
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=False,
    )
    if completed.returncode != 0:
        raise RuntimeError(
            f"seed {seed}: exit {completed.returncode}\n{completed.stderr[-2000:]}"
        )
    lines = completed.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    diagnostics = lines[-2] if len(lines) > 1 else ""
    result["diagnostics"] = diagnostics
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--json", type=Path, default=None)
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2")

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {metric["name"]: metric for metric in benchmark["end_to_end"]}
    results = []
    for index in range(args.runs):
        seed = args.first_seed + index
        result = run_once(args.workload, seed, benchmark["run_seconds"])
        results.append(result)
        print(f"seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}", flush=True)

    print(f"\n{args.workload}: {args.runs} runs")
    print(f"{'metric':<14} {'unit':<7} {'median':>11} {'q1':>11} {'q3':>11} "
          f"{'spread':>7} {'bound':>6} {'bound/3':>7}")
    for name, metric in bounds.items():
        values = [result["metrics"][name]["value"] for result in results]
        middle, q1, q3, share = spread(values)
        print(f"{name:<14} {metric['unit']:<7} {middle:>11.4f} {q1:>11.4f} {q3:>11.4f} "
              f"{share:>7.3f} {metric['bound']:>6.2f} {metric['bound'] / 3:>7.3f}")
    shares = {result["failed"] / result["attempted"] for result in results}
    print(f"failed shares: {sorted(shares)}; all correct: "
          f"{all(result['correct'] for result in results)}")
    if args.json is not None:
        args.json.write_text(json.dumps(results, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
