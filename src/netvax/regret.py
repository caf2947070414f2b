"""Decision-error diagnostics when disease parameters are estimated.

The allocation chosen by greedy on an estimated objective loses value
against the true optimum through three channels: the estimated optimum
misjudging the true one, the greedy optimization gap, and evaluating the
chosen set with estimated instead of true coefficients.  This module
samples noisy parameter estimates, measures those channels on concrete
instances, and computes the finite-sample upper bound on their total.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .epidemic import Population, SirParams
from .graph import ContactGraph, _reals
from .objective import ContextPattern, _count, _f_rows
from .solvers import _optimum

__all__ = [
    "UNIVERSAL_CONSTANT",
    "MEAN_DEVIATION_COEF",
    "EstimationNoiseModel",
    "RegretReport",
    "sample_estimates",
    "decompose_regret",
    "empirical_regret",
    "regret_upper_bound",
]

# sqrt((1 + ln 2) / 2): mean absolute deviation of a rate estimator whose
# tail satisfies P{|err| >= eps} <= 2 exp(-2 n eps^2), scaled by sqrt(n)
MEAN_DEVIATION_COEF = math.sqrt((1.0 + math.log(2.0)) / 2.0)

# (2 + 1/e) * sqrt((1 + ln 2) / 2), the constant of the regret bound
UNIVERSAL_CONSTANT = (2.0 + 1.0 / math.e) * MEAN_DEVIATION_COEF

# SeedSequence's hash constants (NumPy's random/bit_generator.pyx) mod 2**32:
# INIT_A * MULT_A**k for mix_entropy's 16 hashmix calls, INIT_B * MULT_B**k
# for generate_state's 8 words, and mix's two; PCG64's multiplier (pcg64.h)
_HASH_A, _HASH_B = (np.array([init * pow(mult, k, 2**32) % 2**32 for k in range(n + 1)],
                             dtype=np.uint32) for init, mult, n in
                    ((0x43B0D7E5, 0x931E8875, 16), (0x8B51F9DD, 0x58F38DED, 8)))
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_PCG_MULT, _MASK128 = 0x2360ED051FC65DA44385DF649FCCF645, 2**128 - 1

# Values in one array of a block of estimates (or one estimate's, if more),
# as estimates x max(n, 2 nnz)
_BATCH_CELLS = 2**15


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
        _count(self.n_external, "n_external", 1)
        if self.scale is not None:
            object.__setattr__(self, "scale",
                               _reals(self.scale, "scale", 0.0, np.inf, shape=()).item())

    @property
    def effective_scale(self) -> float:
        return 1.0 / (2.0 * math.sqrt(self.n_external)) if self.scale is None else self.scale


def sample_estimates(params: SirParams, noise: EstimationNoiseModel,
                     seed: int) -> SirParams:
    """Draw one set of estimated parameters.

    Perturbs the four transmission rates (row-major) and then the two
    recovery rates with independent Gaussian noise, clipping each rate back
    to [0, 1] (recovery additionally to 1 - delta so the parameter set stays
    valid).  Mortality rates pass through unchanged.  Deterministic for a
    fixed seed in [0, 2**64); scale 0 reproduces the input exactly.  The
    one-seed case of _draw_estimates.
    """
    seed = _count(seed, "seed", 0, 2**64 - 1)
    beta, gamma = _draw_estimates(params, [noise.effective_scale], [seed])
    return SirParams(beta=beta[0], gamma=gamma[0], delta=params.delta)


def _draw_estimates(params: SirParams, scales: Sequence[float],
                    seeds: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """The (R, 2, 2) transmission and (R, 2) recovery rates of the R
    estimates sample_estimates draws, seed r at noise scale scales[r]: bit
    for bit np.random.default_rng(seed).normal(0.0, scale, 6), then one clip
    for all rows.

    default_rng(seed) is PCG64 seeded through SeedSequence(seed) by fixed
    integer arithmetic (NumPy's random/bit_generator.pyx and
    random/src/pcg64/pcg64.h), which _seed_states runs as arrays over all
    seeds; one reused generator is then set to each seed's state.
    - A seed in [0, 2**64) is the uint32 entropy words (lo, hi).  The pool
      has 4 words and mix_entropy fills those past the entropy with
      hashmix(0), so a seed below 2**32, one word long, hashes as (seed, 0).
    - mix_entropy hashes the 4 pool words, then mixes each word into each
      other one, mix(dst, hashmix(src)), 12 times; each hashmix multiplies
      by the next of INIT_A * MULT_A**k.
    - generate_state(4, uint64) hashes pool word i % 4 into output word i
      for 8 words, with INIT_B * MULT_B**k, and reads them '<u4' as '<u8':
      the 128-bit initstate and initseq, high words first.
    - PCG64 seeds by pcg_setseq_128_srandom_r: inc = 2 initseq + 1 and
      state = (inc + initstate) * MULT + inc, mod 2**128.
    """
    draws = np.empty((len(seeds), 6))
    bitgen = np.random.PCG64(0)
    generator = np.random.Generator(bitgen)
    for r, (scale, (s_hi, s_lo, i_hi, i_lo)) in enumerate(zip(scales, _seed_states(seeds))):
        inc = ((i_hi << 64 | i_lo) << 1 | 1) & _MASK128
        state = ((inc + (s_hi << 64 | s_lo)) * _PCG_MULT + inc) & _MASK128
        bitgen.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                        "has_uint32": 0, "uinteger": 0}
        draws[r] = generator.normal(0.0, scale, 6)
    return (np.clip(params.beta + draws[:, :4].reshape(-1, 2, 2), 0.0, 1.0),
            np.clip(params.gamma + draws[:, 4:], 0.0, 1.0 - params.delta))


def _seed_states(seeds: Sequence[int]) -> list[list[int]]:
    """SeedSequence(seed).generate_state(4, np.uint64) of each seed in
    [0, 2**64) as 4 Python ints (see _draw_estimates).  The uint32
    arithmetic runs on arrays, which wrap without an overflow warning."""
    words = np.array(seeds, dtype=np.uint64)
    pool = np.zeros((words.size, 4), dtype=np.uint32)
    pool[:, 0], pool[:, 1] = words & 0xFFFFFFFF, words >> 32
    pool = _hashmix(pool, _HASH_A[:4], _HASH_A[1:5])
    for k, (src, dst) in enumerate(itertools.permutations(range(4), 2), 4):
        mixed = _MIX_L * pool[:, dst] - _MIX_R * _hashmix(pool[:, src], _HASH_A[k], _HASH_A[k + 1])
        pool[:, dst] = mixed ^ (mixed >> 16)
    out = _hashmix(np.tile(pool, 2), _HASH_B[:-1], _HASH_B[1:])
    return out.astype("<u4").view("<u8").astype(np.uint64).tolist()


def _hashmix(value: np.ndarray, xor: np.ndarray, mult: np.ndarray) -> np.ndarray:
    """SeedSequence's hash of uint32 words: (value ^ xor) * mult, then
    xor-shifted right by 16."""
    value = (value ^ xor) * mult
    return value ^ (value >> 16)


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
        than by brute_force's branch and bound, in which case the gaps are
        heuristic.
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


def decompose_regret(pattern: ContextPattern, true_params: SirParams, d: int,
                     use_brute: bool, beta: np.ndarray, gamma: np.ndarray
                     ) -> tuple[float, np.ndarray]:
    """The true optimum's F and the (4, R) estimation, optimization and
    evaluation gaps and totals of R estimates, given as rates beta (R, 2, 2)
    and gamma (R, 2), at capacity d on pattern's instance.  The truth is a
    one-row block searched as each block of estimates is (_optimum); with
    use_brute, all R + 1 searches share one NODE_BUDGET.  A block's
    (rows, max(n, 2 nnz)) arrays hold at most _BATCH_CELLS values, or one
    row's if more; no value depends on the block, so each is bit for bit
    that of the estimate's context, greedy, brute-force search and
    objective_value alone.
    """
    d = _count(d, "d")
    if type(use_brute) is not bool:
        raise ValueError(f"use_brute must be a bool, got {use_brute!r}")
    gamma = _reals(gamma, "gamma", shape=np.shape(gamma)[:1] + (2,))  # (R, 2)
    beta = _reals(beta, "beta", shape=gamma.shape + (2,))  # (R, 2, 2)
    _, true_base, true_sym, _ = pattern.fill(true_params.beta[None], true_params.gamma[None])
    *_, f_star, spent = _optimum(pattern, true_base, true_sym, d, use_brute)
    f_star = float(f_star[0])
    gaps = np.empty((4, len(beta)))
    step = max(1, _BATCH_CELLS // max(pattern.n_units, pattern._sym_rows.size))
    for lo in range(0, len(beta), step):
        _, base, sym, _ = pattern.fill(beta[lo:lo + step], gamma[lo:lo + step])
        chosen, f_est_chosen, _, f_est_star, spent = _optimum(pattern, base, sym, d,
                                                              use_brute, spent)
        f_true_chosen = _f_rows(pattern, np.broadcast_to(true_base, base.shape),
                                np.broadcast_to(true_sym, sym.shape), chosen)
        gaps[:, lo:lo + step] = (f_star - f_est_star, f_est_star - f_est_chosen,
                                 f_est_chosen - f_true_chosen, f_star - f_true_chosen)
    return f_star, gaps


def empirical_regret(graph: ContactGraph, pop: Population,
                     true_params: SirParams, est_params: SirParams,
                     d: int, use_brute: bool = True,
                     n_external: Optional[int] = None) -> RegretReport:
    """Measure the regret decomposition on one instance.

    With use_brute the two optima come from brute_force's branch and bound
    (subject to its node budget); otherwise greedy stands in and the report
    is marked approximate.  At d = 0 every gap is 0 in both modes.  When
    n_external is given, the report carries the matching upper bound
    computed from the true optimum's value.  decompose_regret's one-estimate case: a study
    over many estimates on one instance passes it all its estimates, with
    the same result per estimate.
    """
    f_star, gaps = decompose_regret(ContextPattern(graph, pop), true_params, d, use_brute,
                                    est_params.beta[None], est_params.gamma[None])
    gap1, gap2, gap3, total = gaps[:, 0].tolist()
    max_degree, n_infected = int(graph.degree.max()), int(pop.infected.sum())
    max_weight = float(pop.weight.max())
    bound = (float("nan") if n_external is None else regret_upper_bound(
        graph.n_units, d, max_degree, n_infected, max_weight, n_external, f_star))
    return RegretReport(
        estimation_gap=gap1, optimization_gap=gap2, evaluation_gap=gap3,
        total=total, bound=bound, max_degree=max_degree, n_infected=n_infected,
        max_weight=max_weight, capacity=d, approximate=not use_brute)


def regret_upper_bound(n_units: int, d: int, max_degree: int, n_infected: int,
                       max_weight: float, n_external: int,
                       f_star: float) -> float:
    """Finite-sample bound on the expected total regret of estimated greedy.

    Shrinks at rate sqrt(1 / n_external) toward the floor f_star / e left by
    the greedy approximation guarantee.
    """
    for name, value, low in (("n_units", n_units, 1), ("d", d, 0), ("max_degree", max_degree, 0),
                             ("n_infected", n_infected, 0), ("n_external", n_external, 1)):
        _count(value, name, low)
    max_weight = _reals(max_weight, "max_weight", 0.0, np.inf, shape=()).item()
    f_star = _reals(f_star, "f_star", -np.inf, np.inf, shape=()).item()
    size_term = (d * min(max_degree, d) + 2 * d * max_degree
                 + min(n_infected, d))
    noise_part = (UNIVERSAL_CONSTANT * max_weight * size_term / n_units
                  * math.sqrt(1.0 / n_external))
    return noise_part + f_star / math.e

