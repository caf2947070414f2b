"""One workload in a fresh process: set up, run passes until time is up, check.

Started by run.py, never by hand.  Prints ``READY <CLOCK_MONOTONIC time>`` on
stdout once numpy, scipy and netvax are imported and the workload's config is
built, so the parent can time set-up from process start.  With ``--setup-only`` it stops
there.  Otherwise it writes its result as JSON to ``--result``.

Untraced runs make one warm-up pass, then timed passes.  Traced runs
alternate untraced and traced passes, so ``trace.overhead_s`` compares passes
made under the same conditions.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time

import numpy
import scipy

import tracing
import workloads

MIN_PASSES = 3


def _machine(args) -> dict:
    return {"nproc": len(os.sched_getaffinity(0)), "machine": platform.machine(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas_threads": os.environ.get("OMP_NUM_THREADS", "unset"),
            "commit": args.commit, "seed": args.seed}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=workloads.NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--commit", default="unknown")
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    workload = workloads.make(args.workload, args.seed, args.tiny, args.work_dir)
    print(f"READY {time.clock_gettime(time.CLOCK_MONOTONIC)!r}", flush=True)
    if args.setup_only:
        return 0

    plain = tracing.plain_api()
    tracer = tracing.Tracer() if args.trace else None
    checks = workloads.Checks()
    walls: list[float] = []
    traced_walls: list[float] = []
    deadline = time.perf_counter() + args.seconds
    passes = 0
    while True:
        traced = tracer is not None and passes % 2 == 1
        api = plain
        if traced:
            tracer.pass_id = len(traced_walls)
            api = tracer.install()
        start = time.perf_counter()
        try:
            workload.run_pass(api, checks)
        finally:
            if traced:
                tracer.uninstall()
        wall = time.perf_counter() - start
        if passes > 0:  # pass 0 is the warm-up
            (traced_walls if traced else walls).append(wall)
        passes += 1
        counts = (len(walls), len(traced_walls)) if tracer else (len(walls),)
        if min(counts) >= MIN_PASSES and \
                time.perf_counter() + statistics.median(walls) > deadline:
            break

    result = {
        "workload": args.workload, "tiny": args.tiny, "trace": args.trace,
        "machine": _machine(args), "attempted": checks.attempted,
        "failed": checks.failed, "failures": checks.failures,
        "wall_s": walls,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        layers = tracer.summary(len(traced_walls))
        layers["trace.overhead_s"] = statistics.fmean(traced_walls) - statistics.fmean(walls)
        result["traced_wall_s"] = traced_walls
        result["layers"] = layers
        spans_path = os.path.join(args.work_dir, f"{args.workload}-spans.json")
        with open(spans_path, "w", encoding="utf-8") as sink:
            json.dump({"fields": ["pass", "name", "start", "end", "parent"],
                       "spans": tracer.spans}, sink)
        result["spans_file"] = spans_path
    with open(args.result, "w", encoding="utf-8") as sink:
        json.dump(result, sink)
    return 0


if __name__ == "__main__":
    sys.exit(main())
