"""Benchmark entry point.

    python3 perfbench/run.py --workload {fit,serve,stream} --seed N --seconds S --trace {0,1}

Run from the repository root; the program is imported from ``src/``.
Every process runs with one BLAS thread.  The last line of standard
output is one JSON object ``{"correct", "attempted", "failed", "metrics"}``;
the lines before it (prefixed ``#``) give the host, each metric with its
unit and sample count, the latency tail and the output checks.

Workloads (see each module's docstring):

* ``fit``    — cold ``TPGrGAD.fit_detect`` on distinct simML graphs.
* ``serve``  — ``python -m repro.serve`` scoring a pool of snapshots over
  HTTP: an open loop at a fixed rate, then a closed loop for capacity.
* ``stream`` — a burst event stream replayed through ``IncrementalTPGrGAD``.

``--trace 0`` reports the end-to-end metrics of :data:`catalog.END_TO_END`;
``--trace 1`` repeats the work under the per-layer clock
(:mod:`perfbench.layers`) and reports :data:`catalog.PER_LAYER`.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import shutil
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("fit", "serve", "stream")


def _parse(argv):
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _print_report(workload, host, outcome, names) -> None:
    print(f"# host {json.dumps(host, sort_keys=True)}")
    for name in names:
        value, unit = outcome.metrics[name]
        n = outcome.samples.get(name)
        print(f"# {workload} {name} = {value:.6g} {unit}" + (f" (n={n})" if n is not None else ""))
    for key, value in outcome.report.items():
        print(f"# {workload} {key}: {json.dumps(value, sort_keys=True, default=str)}")
    print(f"# {workload} checks: {outcome.attempted - outcome.failed}/{outcome.attempted} passed")
    for error in outcome.errors:
        print(f"# {workload} FAILED: {error}")


def main(argv=None) -> int:
    args = _parse(argv)
    if not (REPO_ROOT / "src" / "repro").is_dir():
        print(f"error: no program sources at {REPO_ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    # Import the benchmark as a package (not its files from the script's
    # directory) and the program from src/.  The BLAS pin must precede the
    # first numpy import in this process.
    sys.path[0:1] = [str(REPO_ROOT / "src"), str(REPO_ROOT)]
    from perfbench.host import host_block, pin_blas_threads

    pin_blas_threads()
    from perfbench.catalog import END_TO_END, PER_LAYER

    host = host_block()
    work_dir = REPO_ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        workload = importlib.import_module(f"perfbench.{args.workload}")
        outcome = workload.run(args.seed, args.seconds, bool(args.trace), work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    if args.trace:
        names = list(PER_LAYER)
        for name in names:
            if name not in outcome.metrics:
                outcome.put(name, 0.0, PER_LAYER[name])
    else:
        names = list(END_TO_END)
        outcome.put("ok_ratio", (outcome.attempted - outcome.failed) / max(outcome.attempted, 1), "ratio")
    _print_report(args.workload, host, outcome, names)
    result = {
        "correct": outcome.failed == 0 and outcome.attempted > 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": outcome.metrics[name][0], "unit": outcome.metrics[name][1]} for name in names
        },
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
