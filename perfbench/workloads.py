"""The benchmark's four workloads and the checks on their outputs.

Each workload is built from the run's seed alone.  ``run_pass`` does one full
pass through the functions in ``api`` (plain or traced, see tracing.py) and
records its correctness checks in ``checks``.  The ``tiny`` sizes serve the
smoke test only.

- desk: the criterion-6 experiment as users run it, through the CLI.  About
  95% of it is the linear random-baseline Monte Carlo.
- scale20k: one N=20,000, mean degree 20 instance through the library:
  pair-scan generation and greedy at scale, no random baseline.
- regret: the criterion-8 study through the CLI.  Thousands of calls on a
  20-unit instance, so compile and brute force per call dominate.
- exact5k: an exact-mode experiment at N=5,000 through the CLI.  The dense
  exact-mode Monte Carlo dominates time and peak memory.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import os

from netvax import harness

NAMES = ("desk", "scale20k", "regret", "exact5k")
CAPACITY_FRACTIONS = (0.07, 0.1, 0.2)
TOL = 1e-9
MAX_WEIGHT = 1.0  # group weights are 1,1, so welfare lies in [0, 1]


class Checks:
    """Counts correctness checks; keeps the first few failure messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)


@contextlib.contextmanager
def _returned(module, name: str, sink: list):
    """Record what ``module.name`` returns while the block runs."""
    original = getattr(module, name)

    def record(*args, **kwargs):
        out = original(*args, **kwargs)
        sink.append(out)
        return out

    setattr(module, name, record)
    try:
        yield
    finally:
        setattr(module, name, original)


def _config_text(settings: dict) -> str:
    return "".join(f"{key} = {value}\n" for key, value in settings.items())


class CliWorkload:
    """A workload that runs one ``netvax`` subcommand on a generated config."""

    command = ""
    loop = ""  # the harness function whose rows the checks read

    def __init__(self, seed: int, tiny: bool, work_dir: str) -> None:
        self.settings = self.sizes(tiny) | {
            "capacity_fractions": ",".join(map(str, CAPACITY_FRACTIONS)),
            "weights": f"{MAX_WEIGHT},{MAX_WEIGHT}", "seed": seed}
        self.config_path = os.path.join(work_dir, f"{self.name}.cfg")
        self.csv_path = os.path.join(work_dir, f"{self.name}.csv")
        with open(self.config_path, "w", encoding="utf-8") as sink:
            sink.write(_config_text(self.settings))

    def run_pass(self, api, checks: Checks) -> None:
        rows: list = []
        argv = [self.command, "--config", self.config_path, "--out", self.csv_path]
        with _returned(harness, self.loop, rows), \
                contextlib.redirect_stdout(io.StringIO()):
            code = api.main(argv)
        checks.check(code == 0, f"{self.name}: exit code {code}")
        checks.check(len(rows) == 1, f"{self.name}: {self.loop} ran {len(rows)} times")
        if code == 0 and len(rows) == 1:
            with open(self.csv_path, encoding="utf-8", newline="") as source:
                table = list(csv.DictReader(source))
            self.check_rows(rows[0], table, checks)


class ExperimentWorkload(CliWorkload):
    command = "experiment"
    loop = "run_experiment"

    def check_rows(self, rows, table, checks: Checks) -> None:
        name = self.name
        policies = self.settings["policies"].split(",")
        checks.check(len(rows) == len(table) == len(policies) * len(CAPACITY_FRACTIONS),
                     f"{name}: {len(rows)} rows, {len(table)} in the CSV")
        by = {(r.policy, r.capacity_fraction): r for r in rows}
        for row, line in zip(rows, table):
            checks.check(line["policy"] == row.policy and
                         abs(float(line["mean_welfare"]) - row.mean_welfare) <= 5e-7,
                         f"{name}: CSV row {line} differs from {row}")
            checks.check(0.0 <= row.mean_welfare <= MAX_WEIGHT + TOL,
                         f"{name}: {row.policy}@{row.capacity_fraction} welfare "
                         f"{row.mean_welfare} outside [0, {MAX_WEIGHT}]")
        for frac in CAPACITY_FRACTIONS:
            greedy = by.get(("greedy", frac))
            for baseline in (p for p in policies if p != "greedy"):
                other = by.get((baseline, frac))
                checks.check(greedy is not None and other is not None
                             and greedy.mean_welfare > other.mean_welfare,
                             f"{name}: greedy {greedy} not above {baseline} {other}")
        if self.settings["mode"] == "linear":
            offsets = [r.mean_welfare - r.mean_f for r in rows]
            checks.check(max(offsets) - min(offsets) <= TOL,
                         f"{name}: welfare - F spread {max(offsets) - min(offsets)}")


class Desk(ExperimentWorkload):
    name = "desk"

    @staticmethod
    def sizes(tiny: bool) -> dict:
        return {"n_units": 60 if tiny else 500, "density": 0.1,
                "n_networks": 2 if tiny else 3,
                "policies": "greedy,random,twni", "mode": "linear",
                "random_draws": 200 if tiny else 10000}


class Exact5k(ExperimentWorkload):
    name = "exact5k"

    @staticmethod
    def sizes(tiny: bool) -> dict:
        return {"n_units": 200 if tiny else 5000, "density": 0.1 if tiny else 0.004,
                "n_networks": 1, "policies": "greedy,random", "mode": "exact",
                "random_draws": 100 if tiny else 2000}


class Regret(CliWorkload):
    name = "regret"
    command = "regret"
    loop = "run_regret_study"

    @staticmethod
    def sizes(tiny: bool) -> dict:
        return {"n_units": 20, "density": 0.5, "regret_capacity": 3,
                "regret_n_grid": "100,1000,10000", "regret_use_brute": "true",
                "regret_replications": 4 if tiny else 200}

    def check_rows(self, rows, table, checks: Checks) -> None:
        grid = [int(n) for n in self.settings["regret_n_grid"].split(",")]
        checks.check(len(rows) == len(table) == len(grid),
                     f"regret: {len(rows)} rows, {len(table)} in the CSV")
        for row in rows:
            at = f"regret n={row.n_external}"
            checks.check(row.mean_total <= row.bound,
                         f"{at}: mean total {row.mean_total} > bound {row.bound}")
            gaps = row.mean_estimation_gap + row.mean_optimization_gap + row.mean_evaluation_gap
            checks.check(abs(gaps - row.mean_total) <= 1e-12,
                         f"{at}: gaps sum {gaps} != total {row.mean_total}")
            checks.check(row.mean_optimization_gap >= -1e-12,
                         f"{at}: optimization gap {row.mean_optimization_gap}")


class Scale20k:
    name = "scale20k"

    def __init__(self, seed: int, tiny: bool, work_dir: str) -> None:
        self.n = 300 if tiny else 20_000
        self.density = 20.0 / (self.n - 1)
        self.seed = seed
        self.params = harness.PARAMETER_SETS["set1"]

    def run_pass(self, api, checks: Checks) -> None:
        inst = api.draw_instance(self.n, self.density, self.params, 0.4,
                                 ((0.7, 0.2, 0.1), (0.7, 0.2, 0.1)),
                                 (MAX_WEIGHT, MAX_WEIGHT),
                                 self.seed)
        ctx, groups = inst.ctx, inst.pop.group
        for frac in CAPACITY_FRACTIONS:
            d = max(1, round(frac * self.n))
            cap = math.ceil(d / 2)
            greedy = api.greedy_capacity(ctx, d)
            targeted = api.greedy_targeting(ctx, d, cap, cap, groups)
            naive = api.twni(ctx, d, groups)
            linear = api.welfare_value(inst.graph, inst.pop, self.params,
                                       greedy.allocation, mode="linear")
            exact = api.welfare_value(inst.graph, inst.pop, self.params,
                                      greedy.allocation, mode="exact")
            value = api.objective_value(ctx, greedy.allocation)

            at = f"scale20k d={d}"
            f = greedy.f_value
            checks.check(len(greedy.allocation.selected) == d,
                         f"{at}: greedy chose {len(greedy.allocation.selected)}")
            checks.check(abs(f - value) <= TOL, f"{at}: f_value {f} != F {value}")
            traced = sum(gain for _, gain in greedy.gain_trace)
            checks.check(abs(traced - f) <= TOL, f"{at}: gain trace sums to {traced}")
            checks.check(abs(linear - f - ctx.welfare_constant) <= TOL,
                         f"{at}: welfare - F = {linear - f}, "
                         f"constant {ctx.welfare_constant}")
            checks.check(0.0 <= exact <= MAX_WEIGHT + TOL, f"{at}: exact welfare {exact}")
            picked = targeted.allocation.sorted_units()
            in_g1 = int((groups[picked] == 0).sum())
            checks.check(in_g1 <= cap and picked.size - in_g1 <= cap and picked.size <= d,
                         f"{at}: targeting took {in_g1}+{picked.size - in_g1}, caps {cap}")
            checks.check(f >= naive.f_value, f"{at}: greedy {f} < twni {naive.f_value}")


_WORKLOADS = {cls.name: cls for cls in (Desk, Scale20k, Regret, Exact5k)}


def make(name: str, seed: int, tiny: bool, work_dir: str):
    return _WORKLOADS[name](seed, tiny, work_dir)

