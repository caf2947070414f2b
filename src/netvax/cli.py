"""Command-line entry point.

Subcommands: gen (write a random network), solve (one instance, one policy),
experiment (policy comparison to CSV), regret (estimation-noise study to
CSV), check (structural property suites).

Exit codes: 0 success, 1 failed check or unexpected error, 2 configuration
error, 3 brute-force node budget refused.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from typing import IO, Callable, Iterator, Optional, Sequence, TypeVar

from . import harness
from .graph import EdgeListError, erdos_renyi, load_edge_list, save_edge_list
from .solvers import BudgetError

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2
EXIT_BUDGET = 3

T = TypeVar("T")


def _build_parser() -> argparse.ArgumentParser:
    """The parser, each subcommand naming its handler.  Built on every main
    call, so the table commands run the harness functions bound at the time."""
    parser = argparse.ArgumentParser(prog="netvax")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a random network edge list")
    gen.add_argument("--n", type=int, required=True, help="number of units")
    gen.add_argument("--density", type=float, required=True)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True, help="edge-list output path")
    gen.set_defaults(handler=_cmd_gen)

    # a flag whose dest is a config key replaces that key's value in the file
    configured = argparse.ArgumentParser(add_help=False)
    configured.add_argument("--config", required=True, help="config path")
    configured.add_argument("--seed", help="config key seed")

    solve = sub.add_parser("solve", parents=[configured],
                           help="solve one drawn instance with one policy")
    solve.add_argument("--policy", default="greedy", choices=harness.POLICIES)
    solve.add_argument("--capacity-fraction", dest="capacity_fractions",
                       help="config key capacity_fractions; solve uses the first")
    solve.add_argument("--edges", default=None,
                       help="optional edge-list path replacing the generated network")
    solve.add_argument("--out", default=None, help="JSON-lines output path (default stdout)")
    solve.set_defaults(handler=_cmd_solve)

    experiment = sub.add_parser("experiment", parents=[configured],
                                help="run the policy comparison grid")
    experiment.add_argument("--out", required=True, help="CSV output path")
    experiment.add_argument("--policies", help="config key policies")
    experiment.add_argument("--mode", help="config key mode")
    experiment.set_defaults(handler=_cmd_table, parse=harness.parse_experiment_config,
                            run=harness.run_experiment)

    regret = sub.add_parser("regret", parents=[configured],
                            help="run the estimation-noise regret study")
    regret.add_argument("--out", required=True, help="CSV output path")
    regret.set_defaults(handler=_cmd_table, parse=harness.parse_regret_config,
                        run=harness.run_regret_study)

    check = sub.add_parser("check", help="run structural property suites")
    check.add_argument("--seed", type=int, default=0)
    check.add_argument("--trials", type=int, default=1000)
    check.set_defaults(handler=_cmd_check)
    return parser


class OutputError(Exception):
    """Raised when an output file cannot be opened, written or closed."""


def _read(path: str, what: str, load: Callable[[IO[str]], T]) -> T:
    try:
        with open(path, encoding="utf-8") as handle:
            return load(handle)
    except (OSError, UnicodeDecodeError) as exc:
        raise harness.ConfigError(f"cannot read {what} {path}: {exc}") from None


def _config(args: argparse.Namespace, parse: Callable[[str, dict[str, str]], T]) -> T:
    """parse of the --config file's text and of the config-key flags given."""
    flags = {key: value.strip() for key in ("seed", "capacity_fractions", "policies", "mode")
             if (value := getattr(args, key, None)) is not None}
    return parse(_read(args.config, "config", lambda handle: handle.read()), flags)


@contextlib.contextmanager
def _open_out(path: Optional[str]) -> Iterator[IO[str]]:
    """path open for writing, or stdout for None, flushed on leaving; an
    OSError opening, writing, flushing or closing it is an OutputError."""
    try:
        with (contextlib.nullcontext(sys.stdout) if path is None
              else open(path, "w", encoding="utf-8")) as sink:
            yield sink
            print(end="", file=sink, flush=True)  # sys.stdout is None if fd 1 was closed
    except OSError as exc:
        if path is None:  # drop the bytes stdout still holds, or its flush at exit fails again
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise OutputError(f"cannot write {path or 'stdout'}: {exc.strerror or exc}") from None


def _cmd_gen(args: argparse.Namespace) -> int:
    try:
        graph = erdos_renyi(args.n, args.density, args.seed)
    except ValueError as exc:  # named as gen's flags, not as the library's parameters
        message = str(exc).replace("n_units", "--n").replace("density", "--density")
        raise harness.ConfigError(message) from None
    with _open_out(args.out) as sink:
        save_edge_list(graph, sink)
    with _open_out(None) as sink:
        print(f"wrote {graph.n_edges} edges for {graph.n_units} units to {args.out}", file=sink)
    return EXIT_OK


def _cmd_solve(args: argparse.Namespace) -> int:
    config = _config(args, harness.parse_experiment_config)
    edges = None if args.edges is None else _read(args.edges, "edge list", load_edge_list)
    inst = config.instance(harness.replicate_seed(config.seed, 0), edges)
    fraction = config.capacity_fractions[0]
    d = harness.capacity_budget(fraction, inst.graph.n_units)
    out = harness.run_policy(inst, args.policy, d, config)

    record: dict = {"policy": args.policy, "n_units": inst.graph.n_units,
                    "capacity": d, "capacity_fraction": fraction}
    res = out.result
    if args.policy == "random":
        record.update(mean_f=res.mean_f, sd_f=res.sd_f, mean_welfare=out.welfare)
    else:
        record.update(selected=sorted(res.allocation.selected),
                      f_value=res.f_value, welfare=out.welfare, rounds=res.rounds)
    record["pct_young_vaccinated"] = out.pct_young

    with _open_out(args.out or None) as sink:  # --out "" is stdout too
        print(json.dumps(record), file=sink)
    return EXIT_OK


def _cmd_table(args: argparse.Namespace) -> int:
    """experiment and regret: parse the config, run the study, write its rows."""
    rows = args.run(_config(args, args.parse))
    with _open_out(args.out) as sink:
        harness.emit_csv(rows, sink)
    with _open_out(None) as sink:
        print(f"wrote {len(rows)} rows to {args.out}", file=sink)
    return EXIT_OK


def _cmd_check(args: argparse.Namespace) -> int:
    if args.trials < 1:
        raise harness.ConfigError(f"--trials must be >= 1, got {args.trials}")
    results = harness.run_property_checks(seed=args.seed, trials=args.trials)
    failed = sum(not result.passed for result in results)
    with _open_out(None) as sink:
        for result in results:
            print(f"{'PASS' if result.passed else 'FAIL'} {result.name}: {result.detail}", file=sink)
        print(f"{failed} of {len(results)} checks failed" if failed
              else f"all {len(results)} checks passed", file=sink)
    return EXIT_FAIL if failed else EXIT_OK


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command in ("gen", "check") and args.seed < 0:
            raise harness.ConfigError(f"--seed must be >= 0, got {args.seed}")
        return args.handler(args)
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
