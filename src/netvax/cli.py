"""Command-line entry point.

Subcommands: gen (write a random network), solve (one instance, one policy),
experiment (policy comparison to CSV), regret (estimation-noise study to
CSV), check (structural property suites).

Exit codes: 0 success, 1 failed check or unexpected error, 2 configuration
error, 3 enumeration budget refused.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from typing import IO, Optional, Sequence

from . import harness
from .graph import (ContactGraph, EdgeListError, erdos_renyi, load_edge_list,
                    save_edge_list)
from .solvers import BudgetError

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2
EXIT_BUDGET = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="netvax")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a random network edge list")
    gen.add_argument("--n", type=int, required=True, help="number of units")
    gen.add_argument("--density", type=float, required=True)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True, help="edge-list output path")

    solve = sub.add_parser("solve", help="solve one drawn instance with one policy")
    solve.add_argument("--config", required=True, help="experiment config path")
    solve.add_argument("--policy", default="greedy", choices=harness.POLICIES)
    solve.add_argument("--capacity-fraction", type=float, default=None,
                       help="overrides the first configured capacity fraction")
    solve.add_argument("--edges", default=None,
                       help="optional edge-list path replacing the generated network")
    solve.add_argument("--seed", type=int, default=None, help="override config seed")
    solve.add_argument("--out", default=None, help="JSON-lines output path (default stdout)")

    experiment = sub.add_parser("experiment", help="run the policy comparison grid")
    experiment.add_argument("--config", required=True)
    experiment.add_argument("--out", required=True, help="CSV output path")
    experiment.add_argument("--seed", type=int, default=None, help="override config seed")
    experiment.add_argument("--policies", default=None,
                            help="comma-separated policy override")
    experiment.add_argument("--mode", choices=["linear", "exact"], default=None,
                            help="welfare reporting mode override")

    regret = sub.add_parser("regret", help="run the estimation-noise regret study")
    regret.add_argument("--config", required=True)
    regret.add_argument("--out", required=True, help="CSV output path")
    regret.add_argument("--seed", type=int, default=None, help="override config seed")

    check = sub.add_parser("check", help="run structural property suites")
    check.add_argument("--seed", type=int, default=0)
    check.add_argument("--trials", type=int, default=1000)
    return parser


class OutputError(Exception):
    """Raised when an output file cannot be opened for writing."""


def _read_config(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise harness.ConfigError(f"cannot read config {path}: {exc}") from None


def _read_edges(path: str) -> ContactGraph:
    try:
        with open(path, encoding="utf-8") as handle:
            return load_edge_list(handle)
    except (OSError, UnicodeDecodeError) as exc:
        raise harness.ConfigError(f"cannot read edge list {path}: {exc}") from None


def _open_out(path: str) -> IO[str]:
    try:
        return open(path, "w", encoding="utf-8")
    except OSError as exc:
        raise OutputError(f"cannot write {path}: {exc.strerror or exc}") from None


def _override(config: harness.ExperimentConfig, args: argparse.Namespace
              ) -> harness.ExperimentConfig:
    updates = {}
    if getattr(args, "seed", None) is not None:
        updates["seed"] = args.seed
    if getattr(args, "policies", None):
        updates["policies"] = tuple(
            part.strip() for part in args.policies.split(",") if part.strip())
    if getattr(args, "mode", None):
        updates["mode"] = args.mode
    if getattr(args, "capacity_fraction", None) is not None:
        updates["capacity_fractions"] = (args.capacity_fraction,)
    if not updates:
        return config
    try:
        return dataclasses.replace(config, **updates)
    except harness.ConfigError:
        raise
    except ValueError as exc:
        raise harness.ConfigError(str(exc)) from None


def _cmd_gen(args: argparse.Namespace) -> int:
    try:
        graph = erdos_renyi(args.n, args.density, args.seed)
    except ValueError as exc:
        raise harness.ConfigError(str(exc)) from None
    with _open_out(args.out) as sink:
        save_edge_list(graph, sink)
    print(f"wrote {graph.n_edges} edges for {graph.n_units} units to {args.out}")
    return EXIT_OK


def _cmd_solve(args: argparse.Namespace) -> int:
    config = _override(harness.parse_experiment_config(_read_config(args.config)), args)
    seed = harness.replicate_seed(config.seed, 0)
    inst = config.instance(seed, None if args.edges is None else _read_edges(args.edges))
    fraction = config.capacity_fractions[0]
    d = harness.capacity_budget(fraction, inst.graph.n_units)
    out = harness.run_policy(inst, args.policy, d, config)

    record: dict = {"policy": args.policy, "n_units": inst.graph.n_units,
                    "capacity": d, "capacity_fraction": fraction}
    if args.policy == "random":
        summary = out.result
        record.update(mean_f=summary.mean_f, sd_f=summary.sd_f, mean_welfare=out.welfare)
    else:
        res = out.result
        record.update(selected=sorted(res.allocation.selected),
                      f_value=res.f_value, welfare=out.welfare, rounds=res.rounds)
    record["pct_young_vaccinated"] = out.pct_young

    line = json.dumps(record)
    if args.out:
        with _open_out(args.out) as sink:
            sink.write(line + "\n")
    else:
        print(line)
    return EXIT_OK


def _cmd_experiment(args: argparse.Namespace) -> int:
    config = _override(harness.parse_experiment_config(_read_config(args.config)), args)
    rows = harness.run_experiment(config)
    with _open_out(args.out) as sink:
        harness.emit_csv(rows, sink)
    print(f"wrote {len(rows)} rows to {args.out}")
    return EXIT_OK


def _cmd_regret(args: argparse.Namespace) -> int:
    study = harness.parse_regret_config(_read_config(args.config))
    if args.seed is not None:
        study = dataclasses.replace(
            study, experiment=dataclasses.replace(study.experiment, seed=args.seed))
    rows = harness.run_regret_study(study)
    with _open_out(args.out) as sink:
        harness.emit_regret_csv(rows, sink)
    print(f"wrote {len(rows)} rows to {args.out}")
    return EXIT_OK


def _cmd_check(args: argparse.Namespace) -> int:
    if args.trials < 1:
        raise harness.ConfigError(f"--trials must be >= 1, got {args.trials}")
    results = harness.run_property_checks(seed=args.seed, trials=args.trials)
    failed = 0
    for result in results:
        tag = "PASS" if result.passed else "FAIL"
        failed += 0 if result.passed else 1
        print(f"{tag} {result.name}: {result.detail}")
    if failed:
        print(f"{failed} of {len(results)} checks failed")
        return EXIT_FAIL
    print(f"all {len(results)} checks passed")
    return EXIT_OK


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "gen": _cmd_gen,
        "solve": _cmd_solve,
        "experiment": _cmd_experiment,
        "regret": _cmd_regret,
        "check": _cmd_check,
    }
    try:
        return handlers[args.command](args)
    except (harness.ConfigError, EdgeListError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except BudgetError as exc:
        print(f"budget refused: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (OutputError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
