"""netvax benchmark: end-to-end and per-layer numbers for four workloads.

Run from the repository root:

    python3 perfbench/run.py --workload desk --seed 0 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all --trace 1   # every workload, every metric

Each workload runs as a closed loop (one client, sequential calls, no
concurrency) in a fresh worker process, so ``peak_rss_mb`` and ``setup_s``
are its own.  BLAS/OpenMP threads are capped at the number of usable CPUs.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` reports per-layer
self time and counters from a separate traced run.  The last line of stdout
is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
Detailed results and spans go to ``.perfbench_out/`` in the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
HERE = Path(__file__).resolve().parent
OUT = ROOT / ".perfbench_out"
# The same names as workloads.NAMES: run.py does not import netvax, so that it
# can refuse cleanly when the sources are missing.
WORKLOADS = ("desk", "scale20k", "regret", "exact5k")
# Set-up-only processes, half before and half after the measuring worker so
# the samples span the run; the measuring worker adds one more.
SETUP_PROBES = 8
RUN_LIMIT_S = 170.0  # per workload run, under the 180 s a run may take

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}

# Self-time shares the traced run should show, per workload: span-name
# prefixes and the share of the traced pass they should reach.
STRESS = {
    "desk": (("solvers.random_assignment.",), 0.80),
    "scale20k": (("graph.", "harness.draw_instance.", "solvers."), 0.70),
    "regret": (("objective.build_context.", "solvers.brute_force."), 0.60),
    "exact5k": (("harness.run_experiment.",), 0.70),
}


def _commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _env() -> dict:
    env = dict(os.environ)
    cap = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = cap
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def _spawn(argv: list[str], env: dict, deadline: float) -> float:
    """Run a worker to completion; return its set-up time (start to READY)."""
    started = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py")] + argv, env=env,
                            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)
    try:
        out, err = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"worker {argv[:2]} ran past the {RUN_LIMIT_S:.0f} s limit")
    if proc.returncode != 0:
        raise RuntimeError(f"worker {argv[:2]} exited with {proc.returncode}:\n{err}")
    ready = [line for line in out.splitlines() if line.startswith("READY ")]
    if not ready:
        raise RuntimeError(f"worker {argv[:2]} never reported READY:\n{err}")
    return float(ready[0].split()[1]) - started


def run_workload(name: str, seed: int, seconds: float, trace: int, tiny: bool) -> dict:
    """Set-up probes plus one measuring worker for one workload."""
    deadline = time.monotonic() + RUN_LIMIT_S
    tag = f"{name}-seed{seed}-trace{trace}" + ("-tiny" if tiny else "")
    work_dir = OUT / tag
    work_dir.mkdir(parents=True, exist_ok=True)
    result_path = work_dir / "result.json"
    result_path.unlink(missing_ok=True)
    env = _env()
    argv = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace), "--work-dir", str(work_dir),
            "--result", str(result_path), "--commit", _commit()]
    if tiny:
        argv.append("--tiny")
    probe = argv + ["--setup-only"]
    probes = 0 if trace else SETUP_PROBES  # setup_s is an end-to-end metric
    setups = [_spawn(probe, env, deadline) for _ in range(probes // 2)]
    setups.append(_spawn(argv, env, deadline))
    result = json.loads(result_path.read_text(encoding="utf-8"))
    setups += [_spawn(probe, env, deadline) for _ in range(probes - probes // 2)]
    result["setup_s"] = setups
    result_path.write_text(json.dumps(result, indent=1), encoding="utf-8")
    return result


def _metrics(result: dict) -> dict:
    if result["trace"]:
        return {key: {"value": value, "unit": _layer_unit(key)}
                for key, value in result["layers"].items()}
    values = {"setup_s": statistics.median(result["setup_s"]),
              "wall_s": statistics.fmean(result["wall_s"]),
              "peak_rss_mb": result["peak_rss_mb"]}
    return {key: {"value": values[key], "unit": unit}
            for key, unit in END_TO_END_UNITS.items()}


def _layer_unit(key: str) -> str:
    if key.endswith("_s"):
        return "s"
    if key == "solvers.key_use_ratio":
        return "ratio"
    if key == "solvers.member_bytes":
        return "B"
    return "count"


def _report(name: str, result: dict, metrics: dict) -> None:
    print(f"# {name} machine {json.dumps(result['machine'], sort_keys=True)}")
    for kind, walls in (("untraced", result["wall_s"]),
                        ("traced", result.get("traced_wall_s", ()))):
        if walls:
            q1, q2, q3 = statistics.quantiles(walls, n=4)
            print(f"{name} {len(walls)} {kind} passes: mean {statistics.fmean(walls)!r} s, "
                  f"quartiles {q1!r} {q2!r} {q3!r} s, min {min(walls)!r} s, "
                  f"max {max(walls)!r} s")
    if result["trace"]:
        print(f"{name} spans in {result['spans_file']}")
        prefixes, target = STRESS[name]
        share = sum(value for key, value in result["layers"].items()
                    if key.endswith(".self_s") and key.startswith(prefixes)
                    ) / statistics.fmean(result["traced_wall_s"])
        print(f"{name} stress: self time of {'+'.join(p.rstrip('.') for p in prefixes)} "
              f"is {share:.3f} of the mean traced pass (expected >= {target:.2f})")
    else:
        print(f"{name} setup samples: {len(result['setup_s'])}, "
              f"median {statistics.median(result['setup_s'])!r} s")
    for key, metric in metrics.items():
        print(f"{name} {key} = {metric['value']!r} {metric['unit']}")
    attempted, failed = result["attempted"], result["failed"]
    print(f"{name} fail_share = {failed}/{attempted} = {failed / attempted!r} ratio")
    for failure in result["failures"]:
        print(f"{name} FAILED: {failure}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="0: end-to-end metrics; 1: per-layer metrics "
                             "(with --workload all: both)")
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test sizes; numbers are not comparable")
    args = parser.parse_args()

    if not (ROOT / "src" / "netvax" / "__init__.py").is_file():
        print(f"netvax sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    traces = (0, 1) if args.workload == "all" and args.trace else (args.trace,)
    attempted = failed = 0
    metrics: dict = {}
    for name in names:
        for trace in traces:
            try:
                result = run_workload(name, args.seed, args.seconds, trace, args.tiny)
            except (RuntimeError, OSError, ValueError) as exc:
                print(f"{name}: {exc}", file=sys.stderr)
                return 1
            own = _metrics(result)
            _report(name, result, own)
            attempted += result["attempted"]
            failed += result["failed"]
            if len(names) == 1:
                metrics.update(own)
            else:
                metrics.update({f"{name}.{key}": value for key, value in own.items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
