"""Allocation policies over a compiled objective context.

All solvers are deterministic for fixed inputs (the random baseline for a
fixed seed).  Ties within 1e-12 break toward the lowest unit index in the
greedy argmax and toward the first subset in brute-force enumeration.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from .epidemic import GROUP2
from .objective import Allocation, ObjectiveContext, objective_value

__all__ = [
    "ENUMERATION_BUDGET",
    "BudgetError",
    "SolverResult",
    "RandomAssignmentSummary",
    "greedy_capacity",
    "greedy_targeting",
    "brute_force",
    "random_assignment",
    "twni",
    "greedy_factor",
    "iter_random_subsets",
]

ENUMERATION_BUDGET = 10**8
_TIE_TOL = 1e-12
_DENSE_LIMIT = 4096
# Cells (rows x units) in one Monte Carlo membership block: 8 MiB of float64
_BLOCK_CELLS = 2**20


class BudgetError(RuntimeError):
    """Raised when brute-force enumeration would exceed the subset budget."""


@dataclass(frozen=True)
class SolverResult:
    """Outcome of one solver run.

    f_value is objective_value(ctx, allocation) recomputed at the end, so it
    agrees exactly with a direct evaluation; welfare adds the cached constant.
    gain_trace records (unit, marginal gain) per greedy round and is empty
    for non-incremental policies.
    """

    allocation: Allocation
    f_value: float
    welfare: float
    rounds: int
    gain_trace: tuple[tuple[int, float], ...] = ()


@dataclass(frozen=True)
class RandomAssignmentSummary:
    """Mean and sd of F and welfare over uniformly random size-d allocations.

    mean_f and sd_f are exact; sd is the population sd over all size-d
    subsets.  mean_welfare and sd_welfare are exact for linear welfare and
    otherwise a Monte Carlo mean and sample sd over `draws` subsets; draws
    is 0 when nothing was drawn.
    """

    mean_f: float
    sd_f: float
    mean_welfare: float
    sd_welfare: float
    draws: int
    capacity: int


def _finish(ctx: ObjectiveContext, alloc: Allocation, rounds: int,
            trace: Sequence[tuple[int, float]] = ()) -> SolverResult:
    f = objective_value(ctx, alloc)
    return SolverResult(alloc, f, f + ctx.welfare_constant, rounds, tuple(trace))


def _pick(gains: np.ndarray, open_: np.ndarray) -> int:
    """Lowest-index open unit whose gain is within the tie window of the best."""
    masked = np.where(open_, gains, -np.inf)
    best = masked.max()
    return int(np.nonzero(open_ & (gains >= best - _TIE_TOL))[0][0])


def _greedy(ctx: ObjectiveContext, d: int, groups: np.ndarray, caps: Sequence[int],
            targeting: Optional[tuple[int, int]]) -> SolverResult:
    """The greedy loop of both greedy solvers.  A unit is open while it is
    unchosen and caps[groups[unit]] has room; a group closes once, when its
    cap fills.  Each round adds the best open unit and updates its
    neighbors' gains in O(deg).  Stops after d rounds or with no unit open.
    """
    gains = ctx.initial_gains()
    room = list(caps)
    open_ = np.isin(groups, [g for g, cap in enumerate(room) if cap > 0])
    trace: list[tuple[int, float]] = []
    while len(trace) < d and open_.any():
        u = _pick(gains, open_)
        trace.append((u, float(gains[u])))
        open_[u] = False
        g = int(groups[u])
        room[g] -= 1
        if room[g] == 0:
            open_[groups == g] = False
        cols, vals = ctx.sym_row(u)
        gains[cols] += vals
    alloc = Allocation(frozenset(u for u, _ in trace), capacity=d, targeting=targeting)
    return _finish(ctx, alloc, len(trace), trace)


def greedy_capacity(ctx: ObjectiveContext, d: int) -> SolverResult:
    """Standard greedy under the cardinality budget d.

    Runs exactly min(d, n) rounds; marginal gains are maintained
    incrementally, so each round costs an argmax plus a neighbor update.
    The value is at least (1 - (1 - 1/d)^d) of the optimum.
    """
    if d < 1:
        raise ValueError(f"capacity must be >= 1, got {d}")
    return _greedy(ctx, d, np.zeros(ctx.n_units, dtype=np.int8), (d,), None)


def greedy_targeting(ctx: ObjectiveContext, d: int, d1: int, d2: int,
                     groups: np.ndarray) -> SolverResult:
    """Greedy under the budget d plus per-group caps d1 (group 1), d2 (group 2).

    Each round adds the best-gain unit whose group cap is still open, which
    matches scanning candidates in decreasing-gain order and taking the first
    feasible one.  Stops early once no feasible candidate remains.  The value
    is at least half the constrained optimum.
    """
    for name, val in (("d", d), ("d1", d1), ("d2", d2)):
        if val < 0:
            raise ValueError(f"{name} must be >= 0, got {val}")
    groups = np.asarray(groups)
    if groups.shape != (ctx.n_units,):
        raise ValueError("groups must have one label per unit")
    return _greedy(ctx, d, groups, (d1, d2), (d1, d2))


def _combo_chunks(n: int, k: int, chunk: int) -> Iterator[np.ndarray]:
    """The size-k subsets of range(n) in lexicographic order, as (rows, k)
    blocks of chunk rows; the last block holds the remainder."""
    flat = itertools.chain.from_iterable(itertools.combinations(range(n), k))
    total = math.comb(n, k)
    for start in range(0, total, chunk):
        rows = min(chunk, total - start)
        yield np.fromiter(flat, dtype=np.int64, count=rows * k).reshape(rows, k)


def _tie_scan(vals: np.ndarray, best_val: float) -> tuple[int, float]:
    """Scan vals in order against an incumbent value: a value replaces the
    incumbent only when it beats it by more than the tie window.  Returns the
    position of the last replacement (-1 if none) and the incumbent value."""
    pos = -1
    # the incumbent stays within the tie window of the running maximum, so
    # only a new running maximum can replace it
    prev = np.maximum.accumulate(np.concatenate(([best_val], vals[:-1])))
    for p in np.flatnonzero(vals > prev):
        if vals[p] > best_val + _TIE_TOL:
            pos, best_val = int(p), float(vals[p])
    return pos, best_val


def brute_force(ctx: ObjectiveContext, d: int) -> SolverResult:
    """Exhaustive search over all allocations of size min(d, n).

    Enumerates subsets in lexicographic order; a later subset replaces the
    incumbent only when its value is higher by more than 1e-12, so among
    maximizers tied within that window the first one wins, as in greedy.
    Refuses instances whose subset count exceeds ENUMERATION_BUDGET.
    """
    if d < 0:
        raise ValueError(f"capacity must be >= 0, got {d}")
    n = ctx.n_units
    k = min(d, n)
    if k == 0:
        return _finish(ctx, Allocation.empty(d), rounds=0)
    count = math.comb(n, k)
    if count > ENUMERATION_BUDGET:
        raise BudgetError(
            f"C({n},{k}) = {count} subsets exceeds the enumeration budget "
            f"of {ENUMERATION_BUDGET}")

    base = ctx.initial_gains()
    if k == 1:
        best_idx, _ = _tie_scan(base, -np.inf)
        alloc = Allocation(frozenset([best_idx]), capacity=d)
        return _finish(ctx, alloc, rounds=count)
    if n > _DENSE_LIMIT:
        raise BudgetError(
            f"C({n},{k}) = {count} is within budget but pairwise evaluation "
            f"is limited to {_DENSE_LIMIT} units")

    pair = ctx.pairwise_dense()
    best_val = -np.inf
    best: Optional[np.ndarray] = None
    chunk = max(1, 2_000_000 // (k * k))
    for combos in _combo_chunks(n, k, chunk):
        vals = base[combos].sum(axis=1)
        vals += 0.5 * pair[combos[:, :, None], combos[:, None, :]].sum(axis=(1, 2))
        local, best_val = _tie_scan(vals, best_val)
        if local >= 0:
            best = combos[local]
    assert best is not None
    alloc = Allocation(frozenset(int(u) for u in best), capacity=d)
    return _finish(ctx, alloc, rounds=count)


def iter_random_subsets(seed: int, n: int, d: int, draws: int,
                        chunk: int = 2000) -> Iterator[np.ndarray]:
    """Yield uniformly random size-d subsets of range(n) in (m, d) blocks of
    at most chunk rows.  Each subset holds the d smallest of n uniform keys
    read in turn from one stream, so the subsets do not depend on chunk."""
    if not 0 < d <= n:
        raise ValueError(f"subset size must lie in [1, {n}], got {d}")
    rng = np.random.default_rng(seed)
    remaining = draws
    while remaining > 0:
        m = min(chunk, remaining)
        keys = rng.random((m, n))
        if d == n:
            yield np.tile(np.arange(n, dtype=np.int64), (m, 1))
        else:
            yield np.argpartition(keys, d, axis=1)[:, :d].astype(np.int64)
        remaining -= m


def _f_moments(ctx: ObjectiveContext, d: int) -> tuple[float, float]:
    """Exact mean and population sd of F(S) over all size-d subsets S of the
    units, in O(nnz + n).

    With b the base gains and s = _sym, F(S) = sum_{i in S} b_i +
    sum_{i<j in S} s_ij and E[F] = (d/n) sum b + d(d-1)/(n(n-1)) sum_{i<j} s_ij.
    For the sd, let r be the row sums of s, u = (r - mean(r)) / (n - 2),
    c = mean(r) / (n - 1), h_ij = s_ij - u_i - u_j - c for every pair i != j
    and g = b - mean(b) + (d - 1) u.  As |S| = d,
    F(S) - E[F] = sum_{i in S} g_i + sum_{i<j in S} h_ij; g sums to zero and
    each row of h sums to zero, so the two parts are uncorrelated and
        Var F = d(n-d)/(n(n-1)) sum g^2
                + d(d-1)(n-d)(n-d-1)/(n(n-1)(n-2)(n-3)) sum_{i<j} h^2.
    Both terms are sums of squares, so a near-constant F gets a near-zero sd
    rather than the square root of a cancellation error.
    """
    n = ctx.n_units
    b = ctx._base_gain
    s = ctx._sym
    if d == n:
        return float(b.sum()) + 0.5 * float(s.data.sum()), 0.0
    i = ctx._sym_rows
    r = np.bincount(i, s.data, minlength=n)
    mean = d / n * float(b.sum()) + d * (d - 1) / (n * (n - 1)) * 0.5 * float(r.sum())
    u = (r - r.mean()) / (n - 2) if n > 2 else np.zeros(n)
    g = b - b.mean() + (d - 1) * u
    var = d * (n - d) / (n * (n - 1)) * float(g @ g)
    pair_coef = d * (d - 1) * (n - d) * (n - d - 1)
    if pair_coef:  # then n >= 4
        c = r.mean() / (n - 1)
        fit = u[i] + u[s.indices] + c  # u_i + u_j + c at s's nonzeros
        # sum_{i<j} h^2 over s's nonzeros, then over the other pairs, where
        # h = -fit: fit^2 over all pairs in closed form, less the nonzeros'
        fit2_all = (n - 2) * float(u @ u) + 0.5 * n * (n - 1) * c * c
        rest = (0.0 if s.nnz == n * (n - 1)
                else max(fit2_all - 0.5 * float(fit @ fit), 0.0))
        h2 = 0.5 * float(((s.data - fit) ** 2).sum()) + rest
        var += pair_coef / (n * (n - 1) * (n - 2) * (n - 3)) * h2
    return mean, math.sqrt(var)


def random_assignment(ctx: ObjectiveContext, d: int, draws: int, seed: int,
                      welfare: Optional[Callable[[np.ndarray], np.ndarray]] = None
                      ) -> RandomAssignmentSummary:
    """Random baseline: mean and sd of F and welfare over uniformly random
    size-d allocations.

    mean_f and sd_f are exact (_f_moments).  By default welfare is F plus
    the context's welfare constant, so it is exact too and nothing is drawn:
    draws is 0 and seed is unused.  Otherwise welfare maps an (m, n) 0/1
    membership block to (m,) values (objective.exact_welfare_evaluator for
    exact mode), and its mean and sample sd are estimated over `draws`
    subsets from iter_random_subsets(seed), in blocks of at most
    _BLOCK_CELLS / n rows.
    """
    if draws < 1:
        raise ValueError(f"draws must be >= 1, got {draws}")
    n = ctx.n_units
    if not 0 < d <= n:
        raise ValueError(f"capacity must lie in [1, {n}], got {d}")
    mean_f, sd_f = _f_moments(ctx, d)
    if welfare is None:
        return RandomAssignmentSummary(
            mean_f=mean_f, sd_f=sd_f, mean_welfare=mean_f + ctx.welfare_constant,
            sd_welfare=sd_f, draws=0, capacity=d)
    w_vals = np.empty(draws)
    pos = 0
    for idx in iter_random_subsets(seed, n, d, draws, chunk=max(1, _BLOCK_CELLS // n)):
        m = idx.shape[0]
        member = np.zeros((m, n))
        member[np.arange(m)[:, None], idx] = 1.0
        w_vals[pos:pos + m] = welfare(member)
        pos += m
    sd_w = float(w_vals.std(ddof=1)) if draws > 1 else 0.0
    return RandomAssignmentSummary(
        mean_f=mean_f, sd_f=sd_f, mean_welfare=float(w_vals.mean()), sd_welfare=sd_w,
        draws=draws, capacity=d)


def twni(ctx: ObjectiveContext, d: int, groups: np.ndarray,
         priority_group: int = GROUP2) -> SolverResult:
    """Targeting With No network Information: fill the priority group in
    ascending unit order, then spill into the other group, up to d doses."""
    if d < 0:
        raise ValueError(f"capacity must be >= 0, got {d}")
    groups = np.asarray(groups)
    n = ctx.n_units
    if groups.shape != (n,):
        raise ValueError("groups must have one label per unit")
    if priority_group not in (0, 1):
        raise ValueError(f"priority_group must be 0 or 1, got {priority_group}")
    first = np.nonzero(groups == priority_group)[0]
    rest = np.nonzero(groups != priority_group)[0]
    order = np.concatenate([first, rest])[:min(d, n)]
    alloc = Allocation(frozenset(int(u) for u in order), capacity=d)
    return _finish(ctx, alloc, rounds=len(alloc.selected))


def greedy_factor(d: int) -> float:
    """Approximation factor 1 - (1 - 1/d)^d of capacity-constrained greedy;
    decreases toward 1 - 1/e."""
    if d < 1:
        raise ValueError(f"capacity must be >= 1, got {d}")
    return 1.0 - (1.0 - 1.0 / d) ** d
