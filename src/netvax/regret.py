"""Decision-error diagnostics when disease parameters are estimated.

The allocation chosen by greedy on an estimated objective loses value
against the true optimum through three channels: the estimated optimum
misjudging the true one, the greedy optimization gap, and evaluating the
chosen set with estimated instead of true coefficients.  This module
samples noisy parameter estimates, measures those channels on concrete
instances, and computes the finite-sample upper bound on their total.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy import sparse

from .epidemic import Population, SirParams
from .graph import ContactGraph
from .objective import ObjectiveContext, build_context, objective_value
from .solvers import SolverResult, brute_force, greedy_capacity

__all__ = [
    "UNIVERSAL_CONSTANT",
    "MEAN_DEVIATION_COEF",
    "EstimationNoiseModel",
    "RegretReport",
    "RegretTruth",
    "sample_estimates",
    "compile_truth",
    "decompose_regret",
    "empirical_regret",
    "regret_upper_bound",
    "entry_error_bounds",
]

# sqrt((1 + ln 2) / 2): mean absolute deviation of a rate estimator whose
# tail satisfies P{|err| >= eps} <= 2 exp(-2 n eps^2), scaled by sqrt(n)
MEAN_DEVIATION_COEF = math.sqrt((1.0 + math.log(2.0)) / 2.0)

# (2 + 1/e) * sqrt((1 + ln 2) / 2), the constant of the regret bound
UNIVERSAL_CONSTANT = (2.0 + 1.0 / math.e) * MEAN_DEVIATION_COEF


@dataclass(frozen=True)
class EstimationNoiseModel:
    """Perturbation model standing in for an external estimation study.

    n_external : sample size of the hypothetical study; must be >= 1.
    scale : standard deviation of the additive Gaussian noise before
        clipping.  Defaults to 1 / (2 sqrt(n_external)), which keeps the
        sub-Gaussian tail P{|err| >= eps} <= 2 exp(-2 n eps^2).  Pass 0 for
        the degenerate noiseless model.
    """

    n_external: int
    scale: Optional[float] = None

    def __post_init__(self) -> None:
        if self.n_external < 1:
            raise ValueError(f"n_external must be >= 1, got {self.n_external}")
        if self.scale is not None and self.scale < 0:
            raise ValueError(f"scale must be >= 0, got {self.scale}")

    @property
    def effective_scale(self) -> float:
        if self.scale is not None:
            return float(self.scale)
        return 1.0 / (2.0 * math.sqrt(self.n_external))


def sample_estimates(params: SirParams, noise: EstimationNoiseModel,
                     seed: int) -> SirParams:
    """Draw one set of estimated parameters.

    Perturbs the four transmission rates (row-major) and then the two
    recovery rates with independent Gaussian noise, clipping each rate back
    to [0, 1] (recovery additionally to 1 - delta so the parameter set stays
    valid).  Mortality rates pass through unchanged.  Deterministic for a
    fixed seed; scale 0 reproduces the input exactly.
    """
    rng = np.random.default_rng(seed)
    s = noise.effective_scale
    beta = np.clip(params.beta + rng.normal(0.0, s, size=(2, 2)), 0.0, 1.0)
    gamma = np.clip(params.gamma + rng.normal(0.0, s, size=2),
                    0.0, 1.0 - params.delta)
    return SirParams(beta=beta, gamma=gamma, delta=params.delta.copy())


@dataclass(frozen=True)
class RegretReport:
    """Decomposition of the welfare loss from allocating on estimates.

    estimation_gap : true optimum value minus the estimated objective at the
        estimated optimum.
    optimization_gap : estimated-objective loss of greedy against the
        estimated optimum (zero when greedy is exact).
    evaluation_gap : estimated minus true objective at the chosen set.
    total : true optimum minus true value of the chosen set; equals the sum
        of the three gaps by construction.
    bound : finite-sample upper bound on the expected total (nan when no
        external sample size was supplied).
    approximate : True when the two optima were located by greedy rather
        than exhaustive search, in which case the gaps are heuristic.
    """

    estimation_gap: float
    optimization_gap: float
    evaluation_gap: float
    total: float
    bound: float
    max_degree: int
    n_infected: int
    max_weight: float
    capacity: int
    approximate: bool

    @property
    def noise_gap(self) -> float:
        """Magnitude of the estimation-driven channels, |gap1| + |gap3|."""
        return abs(self.estimation_gap) + abs(self.evaluation_gap)


@dataclass(frozen=True)
class RegretTruth:
    """The true-parameter half of a regret decomposition, shared by every
    estimate drawn for one instance and capacity: the true objective, its
    optimum, and the instance statistics the bound reads."""

    ctx: ObjectiveContext
    optimum: SolverResult
    capacity: int
    use_brute: bool
    max_degree: int
    n_infected: int
    max_weight: float


def _greedy_or_empty(ctx: ObjectiveContext, d: int) -> SolverResult:
    # greedy_capacity refuses d = 0; brute force returns the empty allocation
    return greedy_capacity(ctx, d) if d >= 1 else brute_force(ctx, d)


def compile_truth(graph: ContactGraph, pop: Population, ctx_true: ObjectiveContext,
                  d: int, use_brute: bool) -> RegretTruth:
    """Locate the true optimum on ctx_true, the objective compiled with the
    true parameters (build_context(graph, pop, true_params), or the ctx of
    a drawn Instance), by exhaustive search or, without use_brute, greedy."""
    optimum = brute_force(ctx_true, d) if use_brute else _greedy_or_empty(ctx_true, d)
    return RegretTruth(
        ctx=ctx_true, optimum=optimum, capacity=d, use_brute=use_brute,
        max_degree=int(graph.degree.max()), n_infected=int(pop.infected.sum()),
        max_weight=float(pop.weight.max()))


def decompose_regret(truth: RegretTruth, ctx_est: ObjectiveContext,
                     n_external: Optional[int]) -> RegretReport:
    """Measure the regret decomposition of one estimated objective against
    the compiled truth.  The chosen set is greedy on ctx_est; the estimated
    optimum comes from the same search as the true one, so without use_brute
    it is the chosen set itself."""
    d = truth.capacity
    chosen = _greedy_or_empty(ctx_est, d)
    opt_est = brute_force(ctx_est, d) if truth.use_brute else chosen

    f_true_star = truth.optimum.f_value
    f_est_star = opt_est.f_value
    f_est_chosen = chosen.f_value
    f_true_chosen = objective_value(truth.ctx, chosen.allocation)

    gap1 = f_true_star - f_est_star
    gap2 = f_est_star - f_est_chosen
    gap3 = f_est_chosen - f_true_chosen
    total = f_true_star - f_true_chosen

    if n_external is not None:
        bound = regret_upper_bound(truth.ctx.n_units, d, truth.max_degree,
                                   truth.n_infected, truth.max_weight,
                                   n_external, f_true_star)
    else:
        bound = float("nan")
    return RegretReport(
        estimation_gap=gap1, optimization_gap=gap2, evaluation_gap=gap3,
        total=total, bound=bound, max_degree=truth.max_degree,
        n_infected=truth.n_infected, max_weight=truth.max_weight, capacity=d,
        approximate=not truth.use_brute)


def empirical_regret(graph: ContactGraph, pop: Population,
                     true_params: SirParams, est_params: SirParams,
                     d: int, use_brute: bool = True,
                     n_external: Optional[int] = None) -> RegretReport:
    """Measure the regret decomposition on one instance.

    With use_brute the two optima come from exhaustive search (subject to its
    enumeration budget); otherwise greedy stands in and the report is marked
    approximate.  At d = 0 every gap is 0 in both modes.  When n_external is
    given, the report carries the matching upper bound computed from the
    true optimum's value.  Compiles the truth (compile_truth) and decomposes
    against one estimate (decompose_regret); a study over many estimates on
    one instance compiles the truth once and calls decompose_regret per
    estimate, with the same result.
    """
    truth = compile_truth(graph, pop, build_context(graph, pop, true_params), d,
                          use_brute)
    return decompose_regret(truth, build_context(graph, pop, est_params), n_external)


def regret_upper_bound(n_units: int, d: int, max_degree: int, n_infected: int,
                       max_weight: float, n_external: int,
                       f_star: float) -> float:
    """Finite-sample bound on the expected total regret of estimated greedy.

    Shrinks at rate sqrt(1 / n_external) toward the floor f_star / e left by
    the greedy approximation guarantee.
    """
    if n_units < 1:
        raise ValueError(f"n_units must be >= 1, got {n_units}")
    if n_external < 1:
        raise ValueError(f"n_external must be >= 1, got {n_external}")
    if d < 0 or max_degree < 0 or n_infected < 0 or max_weight < 0:
        raise ValueError("d, max_degree, n_infected, max_weight must be >= 0")
    size_term = (d * min(max_degree, d) + 2 * d * max_degree
                 + min(n_infected, d))
    noise_part = (UNIVERSAL_CONSTANT * max_weight * size_term / n_units
                  * math.sqrt(1.0 / n_external))
    return noise_part + f_star / math.e


def entry_error_bounds(graph: ContactGraph, pop: Population, n_external: int
                       ) -> tuple[sparse.csr_array, np.ndarray]:
    """Per-entry bounds on the mean absolute coefficient errors.

    Returns (spill_bounds, direct_bounds): a sparse (n, n) array bounding
    E|w_hat_ij - w_ij| by coef * A_ij * g_i / n, with one entry per edge
    orientation, and an (n,) array bounding E|c_hat_i - c_i| by
    coef * I_i * g_i / n, with coef = sqrt((1 + ln 2) / (2 n_external)).
    """
    if n_external < 1:
        raise ValueError(f"n_external must be >= 1, got {n_external}")
    n = graph.n_units
    if pop.n_units != n:
        raise ValueError("graph and population sizes differ")
    coef = math.sqrt((1.0 + math.log(2.0)) / (2.0 * n_external))
    e = graph.edges
    rows = np.concatenate([e[:, 0], e[:, 1]])
    cols = np.concatenate([e[:, 1], e[:, 0]])
    spill_bounds = sparse.csr_array((coef * (pop.weight[rows] / n), (rows, cols)),
                                    shape=(n, n))
    direct_bounds = coef * pop.infected * pop.weight / n
    return spill_bounds, direct_bounds
