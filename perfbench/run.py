"""Run one benchmark workload and print its metrics.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload study|replay|refresh --seed N \\
        --seconds S --trace 0|1

The program is imported from the checkout's ``src/`` directory and from
nowhere else; without it the benchmark exits with status 2.  The last
line of standard output is one JSON object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end metrics; with
``--trace 1`` they are the per-layer metrics, and the run also writes its
spans as a Chrome trace-event file under ``perfbench/out/``.  The line
before it records the host (CPU count, versions, load, stolen CPU share)
and, in a traced run, the traced run's end-to-end figures.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import time
from pathlib import Path

STARTED = time.perf_counter()

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("study", "replay", "refresh")

#: Every end-to-end metric with its unit, in ``BENCHMARK.json`` order.
END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("corpus_s", "s"),
    ("pipeline_s", "s"),
    ("report_s", "s"),
    ("rows_per_s", "rows/s"),
    ("batch_p50_ms", "ms"),
    ("batch_p99_ms", "ms"),
)


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _import_program() -> bool:
    """Put the checkout's ``src/`` first on the path and import ``repro`` from it."""

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC}", file=sys.stderr)
        return False
    sys.path.insert(0, str(SRC))
    # The program reads REPRO_* knobs (workers, faults, telemetry, cache);
    # the benchmark passes every setting explicitly instead.
    for name in [name for name in os.environ if name.startswith("REPRO_")]:
        del os.environ[name]
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        print(f"perfbench: imported repro from {repro.__file__}, not {SRC}", file=sys.stderr)
        return False
    return True


def main(argv=None) -> int:
    args = _parse(argv)
    if not _import_program():
        return 2

    from harness import HostRecord, Run
    import layers
    from online import run_online
    from study import run_study

    host = HostRecord()
    run = Run(seed=args.seed, seconds=args.seconds, trace=bool(args.trace), out_dir=OUT, src=SRC)
    with contextlib.ExitStack() as stack:
        stack.callback(run.cleanup)
        if run.trace:
            layers.instrument(run.tracer)
            stack.callback(run.tracer.restore)
            stack.enter_context(run.gc)
        if args.workload == "study":
            values = run_study(run)
        else:
            values = run_online(run, refresh=args.workload == "refresh")
    values["peak_rss_mb"] = run.peak_rss_mb

    for problem in run.problems:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    end_to_end = {name: values[name] for name, _unit in END_TO_END}
    diagnostics = {
        "workload": args.workload,
        "seed": args.seed,
        "host": host.summary(),
        "wall_s": round(time.perf_counter() - STARTED, 3),
    }
    if run.trace:
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        run.tracer.write_chrome_trace(trace_path)
        diagnostics["trace_file"] = str(trace_path.relative_to(ROOT))
        diagnostics["traced_end_to_end"] = end_to_end
        measured = layers.layer_metrics(
            run.tracer, run.gc, run.passes, run.setups, run.import_samples
        )
        metrics = {
            name: {"value": measured[name], "unit": unit} for name, unit in layers.LAYER_METRICS
        }
    else:
        metrics = {
            name: {"value": end_to_end[name], "unit": unit} for name, unit in END_TO_END
        }
    print("perfbench diagnostics: " + json.dumps(diagnostics, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": not run.problems,
                "attempted": run.attempted,
                "failed": run.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
