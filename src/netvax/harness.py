"""Simulation harness: seeded instance generation, policy comparisons over
network replicates, the estimation-noise regret study, and CSV emission.

Configs are flat ``key=value`` text files whose keys mirror the
ExperimentConfig field names; ``#`` starts a comment.  Replicate k of a run
with root seed s derives its seed as the first 8 bytes (big-endian) of
SHA-256("s:k"), so adding policies or capacities never perturbs the network
draws.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import hashlib
import itertools
import math
import time
from dataclasses import dataclass
from typing import IO, Any, Callable, ClassVar, Mapping, NamedTuple, Optional, Sequence, Union

import numpy as np

from .epidemic import GROUP1, GROUP2, RECOVERED, Population, SirParams
from .graph import ContactGraph, _reals, _unit_count, erdos_renyi
from .objective import (Allocation, ContextPattern, ObjectiveContext, _count,
                        check_submodular, marginal_gain, objective_value)
from .regret import (EstimationNoiseModel, _draw_estimates, decompose_regret,
                     regret_upper_bound)
from .solvers import (RandomAssignmentSummary, SolverResult, _greedy_prefix, brute_force,
                      greedy_capacity, greedy_factor, greedy_targeting,
                      random_assignment, twni)

__all__ = [
    "PARAMETER_SETS",
    "POLICIES",
    "ConfigError",
    "ExperimentConfig",
    "ExperimentRow",
    "RegretStudyConfig",
    "RegretStudyRow",
    "Instance",
    "PolicyOutcome",
    "CheckResult",
    "replicate_seed",
    "draw_instance",
    "instance_on_graph",
    "capacity_budget",
    "run_policy",
    "run_experiment",
    "run_regret_study",
    "emit_csv",
    "emit_regret_csv",
    "parse_experiment_config",
    "parse_regret_config",
    "run_property_checks",
]

PARAMETER_SETS = {
    "set1": SirParams(beta=np.array([[0.7, 0.5], [0.5, 0.6]]),
                      gamma=np.array([0.1, 0.05])),
    "set2": SirParams(beta=np.array([[0.8, 0.5], [0.7, 0.7]]),
                      gamma=np.array([0.1, 0.025])),
}

POLICIES = ("greedy", "greedy_targeting", "brute", "random", "twni")


class ConfigError(ValueError):
    """Raised for unparseable or inconsistent experiment configuration."""


def replicate_seed(root_seed: int, index: int) -> int:
    """Stable per-replicate seed: first 8 bytes of SHA-256("root:index")."""
    digest = hashlib.sha256(f"{root_seed}:{index}".encode("ascii")).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass(frozen=True)
class ExperimentConfig:
    """Settings for one policy-comparison experiment.

    parameter_set names a preset ("set1"/"set2") or carries explicit
    SirParams.  initial_states gives per-group probabilities over
    (susceptible, infected, recovered).  capacity_fractions are converted to
    budgets d = max(1, round(fraction * n_units)).  weights are the per-group
    welfare weights (group 1, group 2).  mode picks the welfare column's
    infection-rate form; the solvers always see the linear objective.
    Random-baseline rows are exact expectations in both modes.
    """

    n_units: int
    density: float
    n_networks: int = 100
    parameter_set: Union[str, SirParams] = "set1"
    group1_probability: float = 0.4
    initial_states: tuple[tuple[float, float, float],
                          tuple[float, float, float]] = ((0.7, 0.2, 0.1),
                                                         (0.7, 0.2, 0.1))
    capacity_fractions: tuple[float, ...] = (0.07, 0.10, 0.20)
    weights: tuple[float, float] = (1.0, 1.0)
    policies: tuple[str, ...] = ("greedy", "random", "twni")
    seed: int = 0
    mode: str = "linear"
    targeting_fractions: Optional[tuple[float, float]] = None

    def __post_init__(self) -> None:
        try:
            _unit_count(self.n_units)
            _count(self.n_networks, "n_networks", 1)
            _count(self.seed, "seed", None)  # replicate_seed hashes str(seed): True is not 1
            _reals(self.density, "density", shape=())
            _population_settings(self.group1_probability, self.initial_states, self.weights)
            fractions = _reals(self.capacity_fractions, "capacity_fractions", low_open=True)
            if fractions.ndim != 1 or not fractions.size:
                raise ValueError("at least one capacity fraction is required")
            if self.targeting_fractions is not None:
                _reals(self.targeting_fractions, "targeting_fractions", shape=(2,))
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        if not self.policies:
            raise ConfigError("at least one policy is required")
        for pol in self.policies:
            if pol not in POLICIES:
                raise ConfigError(f"unknown policy {pol!r}; expected one of {POLICIES}")
        for name in ("capacity_fractions", "policies"):
            entries = getattr(self, name)
            if len(set(entries)) != len(entries):
                # a repeated cell would run twice per network
                raise ConfigError(f"{name} repeats an entry: {entries}")
        if self.mode not in ("linear", "exact"):
            raise ConfigError(f"mode must be 'linear' or 'exact', got {self.mode!r}")
        if isinstance(self.parameter_set, str) and self.parameter_set not in PARAMETER_SETS:
            raise ConfigError(f"unknown parameter set {self.parameter_set!r}")

    def params(self) -> SirParams:
        if isinstance(self.parameter_set, SirParams):
            return self.parameter_set
        return PARAMETER_SETS[self.parameter_set]

    def instance(self, seed: int, graph: Optional[ContactGraph] = None) -> "Instance":
        """This config's instance for seed: draw_instance, or
        instance_on_graph when a network is given."""
        drawn = (self.params(), self.group1_probability, self.initial_states,
                 self.weights, seed)
        if graph is None:
            return draw_instance(self.n_units, self.density, *drawn)
        return instance_on_graph(graph, *drawn)


@dataclass(frozen=True)
class ExperimentRow:
    """A cell's means over the networks; runtime_ms sums the cell's time,
    a greedy policy's one solve counted in its largest-budget cell.
    formats holds each field's CSV format spec, in field order."""

    policy: str
    capacity_fraction: float
    mean_welfare: float
    sd_welfare: float
    mean_f: float
    pct_young_vaccinated: float
    runtime_ms: float
    formats: ClassVar[tuple[str, ...]] = ("", "g", ".6f", ".6f", ".6f", ".2f", ".3f")


@dataclass(frozen=True)
class Instance:
    """One drawn replicate: network, health states, compiled objective, and
    the ContextPattern that compiled it, for refills and welfare blocks."""

    graph: ContactGraph
    pop: Population
    params: SirParams
    ctx: ObjectiveContext
    pattern: ContextPattern

    @functools.cached_property
    def exact_welfare(self) -> Callable[[np.ndarray], float]:
        return self.pattern.welfare(self.params, "exact")  # built once, on first use


def _population_settings(group1_probability: float, initial_states: Sequence[Sequence[float]],
                         weights: Sequence[float]) -> tuple[float, np.ndarray, np.ndarray]:
    """The checked settings a population is drawn from: a probability, one (S, I, R)
    distribution per group summing to 1, and two finite non-negative weights."""
    dists = _reals(initial_states, "initial state probabilities")
    if dists.shape != (2, 3) or np.any(np.abs(dists.sum(axis=1) - 1.0) > 1e-9):
        raise ValueError("initial_states needs two distributions of (S, I, R) probabilities,"
                         f" one per group, that each sum to 1, got {dists.tolist()}")
    return (_reals(group1_probability, "group1_probability", shape=()).item(), dists,
            _reals(weights, "weights", 0.0, np.inf, shape=(2,)))


def draw_instance(n_units: int, density: float, params: SirParams,
                  group1_probability: float,
                  initial_states: Sequence[Sequence[float]],
                  weights: Sequence[float], seed: int) -> Instance:
    """Draw a network, group labels, and health states, then compile."""
    graph_seed = int(np.random.default_rng(seed).integers(0, 2**63 - 1))
    return instance_on_graph(erdos_renyi(n_units, density, graph_seed), params,
                             group1_probability, initial_states, weights, seed)


def instance_on_graph(graph: ContactGraph, params: SirParams,
                      group1_probability: float,
                      initial_states: Sequence[Sequence[float]],
                      weights: Sequence[float], seed: int) -> Instance:
    """Draw group labels and health states on a given network, then compile.

    Skips the graph seed that draw_instance takes first, so for one seed the
    population matches the one draw_instance would put on its own network.
    """
    share, dists, weights = _population_settings(group1_probability, initial_states, weights)
    rng = np.random.default_rng(seed)
    rng.integers(0, 2**63 - 1)
    n_units = graph.n_units
    group = np.where(rng.random(n_units) < share, GROUP1, GROUP2).astype(np.int8)
    cum = np.cumsum(dists[group], axis=1)  # (n, 3), order S/I/R
    u = rng.random(n_units)
    state = (u[:, None] >= cum).sum(axis=1).astype(np.int8)
    state = np.minimum(state, RECOVERED)  # guard against rounding at u ~ 1
    pop = Population(state0=state, group=group, weight=weights[group])
    pattern = ContextPattern(graph, pop)
    return Instance(graph, pop, params, pattern.context(params), pattern)


def capacity_budget(fraction: float, n_units: int) -> int:
    """Dose budget d = max(1, round(fraction * n_units)) for a real fraction
    in (0, 1] and a unit count as graph._unit_count checks it."""
    fraction = float(_reals(fraction, "capacity fraction", low_open=True, shape=()))
    return max(1, round(fraction * _unit_count(n_units)))


def _pct_group1(labels: np.ndarray) -> float:
    """Percent of the group labels that are GROUP1; 0 for no labels."""
    return 100.0 * int((labels == GROUP1).sum()) / labels.size if labels.size else 0.0


class PolicyOutcome(NamedTuple):
    """One policy run on one instance; welfare is in the config's mode.  For
    the random baseline, welfare and f_value are exact means over uniformly
    random allocations and pct_young is the expected share of doses to group 1."""

    result: Union[SolverResult, RandomAssignmentSummary]
    welfare: float
    f_value: float
    pct_young: float


def run_policy(inst: Instance, policy: str, d: int, config: ExperimentConfig,
               solved: Optional[SolverResult] = None) -> PolicyOutcome:
    """Allocate d doses on inst with one policy from POLICIES.

    The random baseline draws nothing: in exact mode its mean welfare is
    inst.pattern.random_welfare, in linear mode F's mean plus the welfare
    constant.  greedy_targeting caps group 1 and group 2 at round(fraction * n)
    from targeting_fractions, or at d when none are configured.  In exact
    mode the welfare is re-evaluated with the exact infection rate on
    inst.pattern; the solvers always see the linear objective.  solved, this
    greedy policy's result on inst at a budget of at least d, gives the
    result as its prefix, with no new solve; other policies ignore it.
    """
    group = inst.pop.group
    exact = config.mode == "exact"
    if policy == "random":
        summary = random_assignment(inst.ctx, d)
        welfare = inst.pattern.random_welfare(inst.params, d) if exact else summary.mean_welfare
        return PolicyOutcome(summary, welfare, summary.mean_f, _pct_group1(group))
    if policy == "greedy":
        res = (greedy_capacity(inst.ctx, d) if solved is None
               else _greedy_prefix(inst.ctx, solved.gain_trace, d, None))
    elif policy == "brute":
        res = brute_force(inst.ctx, d)
    elif policy == "twni":
        res = twni(inst.ctx, d, group)
    elif policy == "greedy_targeting":
        caps = (d, d) if config.targeting_fractions is None else tuple(
            round(frac * inst.graph.n_units) for frac in config.targeting_fractions)
        res = (greedy_targeting(inst.ctx, d, *caps, group) if solved is None
               else _greedy_prefix(inst.ctx, solved.gain_trace, d, caps))
    else:
        raise ConfigError(f"unknown policy {policy!r}; expected one of {POLICIES}")
    units = res.allocation.sorted_units()
    welfare = inst.exact_welfare(units) if exact else res.welfare
    return PolicyOutcome(res, welfare, res.f_value, _pct_group1(group[units]))


def run_experiment(config: ExperimentConfig) -> list[ExperimentRow]:
    """Run every (policy, capacity fraction) cell over the network replicates.

    Per replicate all policies see the same instance, and nothing is drawn
    beyond it.  A greedy policy solves once, in its largest-budget cell, and
    its smaller budgets read prefixes of that run, equal to their own solves.
    Rows come back sorted by (policy, capacity fraction).
    """
    cells = sorted(itertools.product(config.policies, config.capacity_fractions))
    # per cell: welfare, F, group-1 share and milliseconds on each network
    values = np.empty((len(cells), 4, config.n_networks))
    for k in range(config.n_networks):
        inst = config.instance(replicate_seed(config.seed, k))
        solved: dict[str, Any] = {}  # each policy's result at its largest budget
        for cell, (pol, frac) in zip(values[::-1, :, k], cells[::-1]):
            d = capacity_budget(frac, config.n_units)
            start = time.perf_counter()
            out = run_policy(inst, pol, d, config, solved.get(pol))
            solved.setdefault(pol, out.result)
            cell[:] = (out.welfare, out.f_value, out.pct_young,
                       (time.perf_counter() - start) * 1000.0)
    sds = values[:, 0].std(axis=1, ddof=min(1, config.n_networks - 1)).tolist()  # 0 for one
    return [ExperimentRow(pol, frac, welfare, sd, f_value, pct, ms)
            for (pol, frac), (welfare, f_value, pct, _), sd, ms in zip(
                cells, values.mean(axis=2).tolist(), sds, values[:, 3].sum(axis=1).tolist())]


@dataclass(frozen=True)
class RegretStudyConfig:
    """Noise study settings layered on top of a single drawn instance."""

    experiment: ExperimentConfig
    capacity: int = 3
    n_grid: tuple[int, ...] = (100, 1000, 10000)
    replications: int = 200
    use_brute: bool = True

    def __post_init__(self) -> None:
        try:
            for name, value in (("regret capacity", self.capacity),
                                ("regret replications", self.replications),
                                ("regret n grid length", len(self.n_grid)),
                                *(("regret n grid entry", n) for n in self.n_grid)):
                _count(value, name, 1)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        if type(self.use_brute) is not bool:
            raise ConfigError(f"regret use_brute must be a bool, got {self.use_brute!r}")


@dataclass(frozen=True)
class RegretStudyRow:
    """A grid point's means over the replications; formats as in ExperimentRow."""

    n_external: int
    replications: int
    capacity: int
    mean_total: float
    mean_estimation_gap: float
    mean_optimization_gap: float
    mean_evaluation_gap: float
    mean_noise_gap: float
    bound: float
    slack: float
    formats: ClassVar[tuple[str, ...]] = ("", "", "") + (".6f",) * 7


def run_regret_study(config: RegretStudyConfig) -> list[RegretStudyRow]:
    """Sample estimation noise at each external sample size on one fixed
    instance and average the regret decomposition.

    The instance is drawn from replicate_seed(seed, 0), and replication rep
    at grid index gi estimates the parameters from
    replicate_seed(seed, 1_000_000 + gi * replications + rep).  One
    decompose_regret call on the drawn instance's pattern searches the true
    optimum once and measures every estimate as arrays, in blocks whose
    arrays hold at most _BATCH_CELLS values (one estimate's if more), so
    memory beyond the instance grows by about 100 bytes per replication
    (93-97 B measured with tracemalloc at N = 500, 50 to 200 replications).
    Every row equals the mean of the empirical_regret reports over the same
    estimates.

    With use_brute the study makes replications * len(n_grid) + 1
    brute-force searches, which share one solvers.NODE_BUDGET; it raises
    BudgetError once they pass it.
    """
    exp, d, reps = config.experiment, config.capacity, config.replications
    inst = exp.instance(replicate_seed(exp.seed, 0))
    scales = np.repeat([EstimationNoiseModel(n).effective_scale for n in config.n_grid], reps)
    seeds = np.fromiter((replicate_seed(exp.seed, 1_000_000 + i) for i in range(scales.size)),
                        np.uint64, scales.size)
    beta, gamma = _draw_estimates(inst.params, scales, seeds)
    f_star, gaps = decompose_regret(inst.pattern, inst.params, d, config.use_brute, beta, gamma)
    bound_inputs = (inst.graph.n_units, d, int(inst.graph.degree.max()),
                    int(inst.pop.infected.sum()), float(inst.pop.weight.max()))
    # (gap, grid point, replication), the noise gap |gap1| + |gap3| last
    gaps = gaps.reshape(4, len(config.n_grid), reps)
    means = np.concatenate([gaps, [np.abs(gaps[0]) + np.abs(gaps[2])]]).mean(axis=2)
    bounds = [regret_upper_bound(*bound_inputs, n, f_star) for n in config.n_grid]
    return [RegretStudyRow(
        n_external=n_external, replications=reps, capacity=d, mean_total=total,
        mean_estimation_gap=est, mean_optimization_gap=opt, mean_evaluation_gap=evl,
        mean_noise_gap=noise, bound=bound, slack=bound - total)
        for n_external, bound, (est, opt, evl, total, noise)
        in zip(config.n_grid, bounds, means.T.tolist())]


def emit_csv(rows: Sequence[Union[ExperimentRow, RegretStudyRow]], sink: IO[str]) -> None:
    """Write rows of one row class as CSV under its field names, each value
    formatted by the class's formats.  Refuses an empty or mixed row list."""
    if not rows:
        raise ValueError("no rows to emit")
    kind = type(rows[0])
    if any(type(row) is not kind for row in rows):
        raise ValueError(f"rows mix {kind.__name__} with other row classes")
    names = [f.name for f in dataclasses.fields(kind)]
    writer = csv.writer(sink, lineterminator="\n")
    writer.writerow(names)
    writer.writerows([format(getattr(row, name), spec) for name, spec in zip(names, kind.formats)]
                     for row in rows)


emit_regret_csv = emit_csv  # one writer for both row classes, under either name


_PARAM_KEYS = ("beta11", "beta12", "beta21", "beta22", "gamma1", "gamma2")
_DELTA_KEYS = ("delta1", "delta2")


def _float(value: str, key: str) -> float:
    try:
        number = float(value)
    except ValueError:
        raise ConfigError(f"{key} must be a number, got {value!r}") from None
    if not math.isfinite(number):
        raise ConfigError(f"{key} must be a finite number, got {value!r}")
    return number


def _int(value: str, key: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ConfigError(f"{key} must be an integer, got {value!r}") from None


def _bool(value: str, key: str) -> bool:
    text = value.lower()
    if text not in ("true", "false", "1", "0", "yes", "no"):
        raise ConfigError(f"{key} must be boolean, got {text!r}")
    return text in ("true", "1", "yes")


def _text(value: str, key: str) -> str:
    return value


def _list(parse: Callable[[str, str], Any]) -> Callable[[str, str], tuple]:
    """A parser of comma-separated entries, each read by parse; blanks are skipped."""
    return lambda value, key: tuple(parse(part.strip(), key)
                                    for part in value.split(",") if part.strip())


# Every accepted config key and the parser of its value.  regret_<name> sets
# RegretStudyConfig.<name>; random_draws is retired: accepted with any value
# and ignored.
_KNOWN_KEYS: dict[str, Optional[Callable[[str, str], Any]]] = {
    "n_units": _int, "density": _float, "n_networks": _int,
    "parameter_set": _text, "group1_probability": _float,
    "initial_states_g1": _list(_float), "initial_states_g2": _list(_float),
    "capacity_fractions": _list(_float), "weights": _list(_float),
    "policies": _list(_text), "seed": _int, "mode": _text,
    "targeting_fractions": _list(_float),
    **dict.fromkeys(_PARAM_KEYS + _DELTA_KEYS, _float),
    "regret_capacity": _int, "regret_n_grid": _list(_int),
    "regret_replications": _int, "regret_use_brute": _bool,
    "random_draws": None,
}


def _parse_kv(text: str, flags: Optional[Mapping[str, str]]) -> dict[str, Any]:
    """The text's key=value pairs, each value in flags replacing the text's,
    every value parsed by its key's parser."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"expected key=value at line {lineno}: {raw.strip()!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _KNOWN_KEYS:
            raise ConfigError(f"unknown config key {key!r} at line {lineno}")
        if key in out:
            raise ConfigError(f"duplicate config key {key!r} at line {lineno}")
        out[key] = value
    for key in flags or {}:
        if key not in _KNOWN_KEYS:
            raise ConfigError(f"unknown config key {key!r}")
    return {key: parse(value, key) for key, value in {**out, **(flags or {})}.items()
            if (parse := _KNOWN_KEYS[key]) is not None}


def _resolve_params(kv: dict[str, Any]) -> Union[str, SirParams]:
    name = kv.get("parameter_set", ExperimentConfig.parameter_set)
    given = [key for key in _PARAM_KEYS if key in kv]
    if name not in PARAMETER_SETS or not given and not any(key in kv for key in _DELTA_KEYS):
        return name  # ExperimentConfig refuses an unknown name
    if given and len(given) != len(_PARAM_KEYS):
        missing = sorted(set(_PARAM_KEYS) - set(given))
        raise ConfigError(f"explicit parameters are incomplete; missing {missing}")
    base = PARAMETER_SETS[name]
    rates = [kv.get(key, rate) for key, rate in zip(
        _PARAM_KEYS + _DELTA_KEYS, np.concatenate([base.beta.ravel(), base.gamma, base.delta]))]
    try:
        return SirParams(beta=np.reshape(rates[:4], (2, 2)), gamma=np.array(rates[4:6]),
                         delta=np.array(rates[6:]))
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def parse_experiment_config(text: str, flags: Optional[Mapping[str, str]] = None
                            ) -> ExperimentConfig:
    """Build an ExperimentConfig from flat key=value text and flags, config
    keys whose values replace the text's."""
    return _experiment_config(_parse_kv(text, flags))


def _experiment_config(kv: dict[str, Any]) -> ExperimentConfig:
    kwargs = {}
    for field in dataclasses.fields(ExperimentConfig):
        if field.name in kv:
            kwargs[field.name] = kv[field.name]
        elif field.default is dataclasses.MISSING:
            raise ConfigError(f"missing required config key {field.name!r}")
    kwargs["initial_states"] = tuple(kv.get(f"initial_states_g{group}", dist) for group, dist
                                     in enumerate(ExperimentConfig.initial_states, start=1))
    kwargs["parameter_set"] = _resolve_params(kv)
    return ExperimentConfig(**kwargs)


def parse_regret_config(text: str, flags: Optional[Mapping[str, str]] = None
                        ) -> RegretStudyConfig:
    """Regret study settings share the experiment keys plus regret_* ones;
    flags as in parse_experiment_config."""
    kv = _parse_kv(text, flags)
    regret = {key.removeprefix("regret_"): value for key, value in kv.items()
              if key.startswith("regret_")}
    return RegretStudyConfig(_experiment_config(kv), **regret)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def run_property_checks(seed: int = 0, trials: int = 1000) -> list[CheckResult]:
    """Structural invariants on seeded instances; used by the CLI check
    command and exercised directly in the test suite."""
    results = []
    rng = np.random.default_rng(seed)

    for density in (0.1, 0.5, 1.0):
        inst = ExperimentConfig(n_units=16, density=density).instance(
            replicate_seed(seed, int(density * 10)))
        report = check_submodular(inst.ctx, trials=trials, seed=seed)
        results.append(CheckResult(
            f"submodularity_density_{density:g}", report.passed,
            f"{report.trials} chain triples"))

    inst = ExperimentConfig(n_units=16, density=0.5).instance(replicate_seed(seed, 42))
    worst = 0.0
    for _ in range(200):
        size = int(rng.integers(0, inst.ctx.n_units))
        units = rng.permutation(inst.ctx.n_units)[:size]
        alloc = Allocation(units, capacity=inst.ctx.n_units)
        outside = [u for u in range(inst.ctx.n_units) if u not in alloc.selected]
        x = int(rng.choice(outside))
        grown = Allocation(alloc.selected | {x}, capacity=inst.ctx.n_units)
        diff = objective_value(inst.ctx, grown) - objective_value(inst.ctx, alloc)
        worst = max(worst, abs(marginal_gain(inst.ctx, alloc, x) - diff))
    results.append(CheckResult("marginal_gain_consistency", worst <= 1e-12,
                               f"max deviation {worst:.3e}"))

    offsets = []
    welfare = inst.pattern.welfare(inst.params, "linear")
    for _ in range(100):
        size = int(rng.integers(0, inst.ctx.n_units + 1))
        units = rng.permutation(inst.ctx.n_units)[:size]
        alloc = Allocation(units, capacity=inst.ctx.n_units)
        offsets.append(welfare(alloc.sorted_units()) - objective_value(inst.ctx, alloc))
    spread = max(offsets) - min(offsets)
    results.append(CheckResult("welfare_offset_constant", spread <= 1e-12,
                               f"offset spread {spread:.3e}"))

    if inst.ctx.spill_vals.size:
        flip = int(np.argmin(inst.ctx.spill_vals))  # most negative entry
        vals = inst.ctx.spill_vals.copy()
        vals[flip] = -vals[flip]
        broken = ObjectiveContext(inst.ctx.n_units, inst.ctx.direct_gain, inst.ctx.spill_rows,
                                  inst.ctx.spill_cols, vals, inst.ctx.welfare_constant)
        report = check_submodular(broken, trials=max(trials, 2000), seed=seed)
        results.append(CheckResult("mutation_detected", not report.passed,
                                   "flipped spillover weight caught"
                                   if not report.passed else
                                   "flipped spillover weight NOT caught"))

    small = ExperimentConfig(n_units=12, density=0.5).instance(replicate_seed(seed, 7))
    greedy_res = greedy_capacity(small.ctx, 3)
    brute_res = brute_force(small.ctx, 3)
    lo = greedy_factor(3) * brute_res.f_value - 1e-12
    ok = lo <= greedy_res.f_value <= brute_res.f_value + 1e-12
    results.append(CheckResult(
        "greedy_guarantee_sandwich", ok,
        f"greedy {greedy_res.f_value:.6f} vs optimum {brute_res.f_value:.6f}"))
    return results
