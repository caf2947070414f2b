"""Allocation policies over a compiled objective context.

All solvers are deterministic for fixed inputs.  Ties within 1e-12 break
toward the lowest unit index in the greedy argmax and toward the first
subset in brute-force enumeration.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

import numpy as np

from .epidemic import GROUP1, GROUP2
from .objective import (TOLERANCE, Allocation, ObjectiveContext, _f_moments,
                        objective_value)

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
_DENSE_LIMIT = 4096
_PAIR_CELLS = 2_000_000  # subsets x k(k+1)/2 unit and pair indices in one enumeration block
# Values in one array of a batched search (or one objective's, if more), as
# objectives x max(n, 2 nnz), x max(subsets, n * n) or x subsets
_BATCH_CELLS = 2**15


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
    """Exact mean and population sd of F, and mean linear welfare, over all
    uniformly random size-d allocations.  Nothing is drawn, so draws is 0.
    """

    mean_f: float
    sd_f: float
    mean_welfare: float
    draws: int
    capacity: int


def _finish(ctx: ObjectiveContext, alloc: Allocation, rounds: int,
            trace: Sequence[tuple[int, float]] = ()) -> SolverResult:
    f = objective_value(ctx, alloc)
    return SolverResult(alloc, f, f + ctx.welfare_constant, rounds, tuple(trace))


def _greedy(base: np.ndarray, indptr: np.ndarray, cols: np.ndarray, sym: np.ndarray,
            d: int, groups: np.ndarray, caps: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """The greedy loop of both greedy solvers on R objectives, given as (R, n)
    base gains and (R, nnz) values of w + w^T on the CSR layout (indptr,
    cols).  A unit is open while it is unchosen and caps[groups[unit]] has
    room.  Each round adds, per row, the lowest-index open unit within the
    tie window of the row's best and updates its neighbors' gains in
    O(deg).  Stops after d rounds or with no unit open, which every row
    reaches after sum_g min(caps[g], n_g) picks, n_g the units in group g.
    Returns the (R, rounds) picks and their gains."""
    # a closed unit's gain is -inf, which the neighbor updates keep
    gains = np.where(np.asarray(caps)[groups] > 0, base, -np.inf)
    rounds = min(d, sum(map(min, caps, np.bincount(groups, minlength=len(caps)))))
    picks, picked = np.empty((rounds, len(gains)), dtype=np.int64), np.empty((rounds, len(gains)))
    rooms = [list(caps) for _ in gains]
    for t in range(rounds):
        best = gains.max(axis=1, keepdims=True)
        (gains >= best - TOLERANCE).argmax(axis=1, out=picks[t])
        for r, (gain, vals, room, u) in enumerate(zip(gains, sym, rooms, picks[t].tolist())):
            picked[t, r] = gain[u]
            gain[u] = -np.inf
            g, lo, hi = groups[u], indptr[u], indptr[u + 1]
            room[g] -= 1
            if room[g] == 0:
                gain[groups == g] = -np.inf
            gain[cols[lo:hi]] += vals[lo:hi]
    return picks.T, picked.T


def _greedy_result(ctx: ObjectiveContext, d: int, groups: np.ndarray, caps: Sequence[int],
                   targeting: Optional[tuple[int, int]]) -> SolverResult:
    picks, gains = _greedy(ctx._base_gain[None], ctx._sym_indptr, ctx._sym_cols,
                           ctx._sym_vals[None], d, groups, caps)
    trace = list(zip(picks[0].tolist(), gains[0].tolist()))
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
    return _greedy_result(ctx, d, np.zeros(ctx.n_units, dtype=np.int8), (d,), None)


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
    if not np.all(np.isin(groups, (GROUP1, GROUP2))):
        raise ValueError("group entries must be GROUP1 or GROUP2")
    return _greedy_result(ctx, d, groups, (d1, d2), (d1, d2))


def _combo_chunks(n: int, k: int, chunk: int) -> Iterator[np.ndarray]:
    """The size-k subsets of range(n) in lexicographic order, as (rows, k)
    blocks of chunk rows; the last block holds the remainder."""
    flat = itertools.chain.from_iterable(itertools.combinations(range(n), k))
    total = math.comb(n, k)
    for start in range(0, total, chunk):
        rows = min(chunk, total - start)
        yield np.fromiter(flat, dtype=np.int64, count=rows * k).reshape(rows, k)


def _subset_blocks(n: int, k: int, chunk: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """_combo_chunks' blocks, each with its subsets' k(k-1)/2 pairs u < v as
    flat indices u * n + v; both column-major, so every column is contiguous."""
    u, v = np.triu_indices(k, 1)
    for combos in _combo_chunks(n, k, chunk):
        yield np.asfortranarray(combos), np.asfortranarray(combos[:, u] * n + combos[:, v])


def _tie_scan(vals: np.ndarray, best_val: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Scan each row of vals (R, m) in order against its incumbent in best_val:
    a value replaces the incumbent only when it beats it by more than the tie
    window.  Returns per row the last replacement (-1 if none) and incumbent."""
    # the incumbent stays within the tie window of the running maximum, so
    # only a new running maximum can replace it
    prev = np.concatenate((best_val[:, None], vals[:, :-1]), axis=1)
    np.maximum.accumulate(prev, axis=1, out=prev)
    pos, best = np.full(len(vals), -1), best_val.tolist()
    flat = np.flatnonzero(vals > prev)
    rows, cand = np.divmod(flat, vals.shape[1])
    for r, p, v in zip(rows.tolist(), cand.tolist(), vals.take(flat).tolist()):
        if v > best[r] + TOLERANCE:
            pos[r], best[r] = p, v
    return pos, np.array(best)


def _brute(base: np.ndarray, sym: np.ndarray, sym_rows: np.ndarray,
           sym_cols: np.ndarray, k: int) -> np.ndarray:
    """brute_force's (R, k) picks on R objectives, given as (R, n) base gains
    and (R, 2 nnz) values of w + w^T on the CSR layout (sym_rows, sym_cols).
    A subset adds its k base gains, then its k(k-1)/2 values of w + w^T above
    the diagonal, each by an elementwise take, so no pick depends on the block.
    Subsets come in blocks of _PAIR_CELLS / (k(k+1)/2) rows, built once per
    call if one block holds all and else streamed per block of objectives;
    takes hold _BATCH_CELLS values."""
    n = base.shape[1]
    if k == 0:
        return np.empty((len(base), 0), dtype=np.int64)
    if k == 1:
        return _tie_scan(base, np.full(len(base), -np.inf))[0][:, None]
    count = math.comb(n, k)
    step = max(1, _BATCH_CELLS // max(count, n * n))
    width = max(1, _BATCH_CELLS // step)
    chunk = max(1, _PAIR_CELLS // (k * (k + 1) // 2))
    whole = list(_subset_blocks(n, k, chunk)) if count <= chunk else None
    best = np.empty((len(base), k), dtype=np.int64)
    for lo in range(0, len(base), step):
        gains = base[lo:lo + step]
        pair = np.zeros((len(gains), n * n))
        pair[:, sym_rows * n + sym_cols] = sym[lo:lo + step]
        best_val = np.full(len(gains), -np.inf)
        for combos, pairs in whole or _subset_blocks(n, k, chunk):
            for at in range(0, len(combos), width):
                part = slice(at, at + width)
                vals = np.take(gains, combos[part, 0], axis=1)
                for src, cols in ((gains, combos[part, 1:]), (pair, pairs[part])):
                    for col in cols.T:
                        vals += np.take(src, col, axis=1)
                local, best_val = _tie_scan(vals, best_val)
                hit = np.flatnonzero(local >= 0)
                best[lo + hit] = combos[at + local[hit]]
    return best


def _check_budget(n: int, k: int, searches: int = 1) -> None:
    """Raise BudgetError when searches exhaustive searches over the size-k
    subsets of n units would enumerate more than ENUMERATION_BUDGET subsets
    in all, or when k > 1 and their pairwise values would fill a dense
    n x n block past _DENSE_LIMIT units."""
    count = math.comb(n, k)
    if searches * count > ENUMERATION_BUDGET:
        what = f"C({n},{k}) = {count} subsets"
        if searches > 1:
            what = f"{searches} searches of {what}, {searches * count} in all,"
        raise BudgetError(f"{what} exceed the enumeration budget of {ENUMERATION_BUDGET}")
    if k > 1 and n > _DENSE_LIMIT:
        raise BudgetError(
            f"C({n},{k}) = {count} is within budget but pairwise evaluation "
            f"is limited to {_DENSE_LIMIT} units")


def brute_force(ctx: ObjectiveContext, d: int) -> SolverResult:
    """Exhaustive search over all allocations of size min(d, n).

    Enumerates subsets in lexicographic order; a later subset replaces the
    incumbent only when its value is higher by more than 1e-12, so among
    maximizers tied within that window the first one wins, as in greedy.
    Refuses what _check_budget refuses.  It is _brute's one-objective case;
    f_value is objective_value of the pick.
    """
    if d < 0:
        raise ValueError(f"capacity must be >= 0, got {d}")
    n = ctx.n_units
    k = min(d, n)
    _check_budget(n, k)
    best = _brute(ctx._base_gain[None], ctx._sym_vals[None], ctx._sym_rows,
                  ctx._sym_cols, k)[0]
    alloc = Allocation(frozenset(best.tolist()), capacity=d)
    return _finish(ctx, alloc, rounds=math.comb(n, k) if k else 0)


def iter_random_subsets(seed: int, n: int, d: int, draws: int,
                        chunk: int = 2000) -> Iterator[np.ndarray]:
    """Yield uniformly random size-d subsets of range(n) in (m, d) blocks of
    at most chunk rows.  Each subset holds the d smallest of n uniform keys
    read in turn from one stream, so the subsets do not depend on chunk.
    No policy draws subsets; tests take oracle allocations from here."""
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


def random_assignment(ctx: ObjectiveContext, d: int) -> RandomAssignmentSummary:
    """Random baseline: mean and sd of F and mean linear welfare over
    uniformly random size-d allocations, all exact, so nothing is drawn.

    mean_f and sd_f come from objective._f_moments, and the welfare is F
    plus the context's welfare constant; the exact-mode mean is
    ContextPattern.random_welfare.
    """
    n = ctx.n_units
    if not 0 < d <= n:
        raise ValueError(f"capacity must lie in [1, {n}], got {d}")
    mean_f, sd_f = _f_moments(ctx, d)
    return RandomAssignmentSummary(mean_f=mean_f, sd_f=sd_f,
                                   mean_welfare=mean_f + ctx.welfare_constant,
                                   draws=0, capacity=d)


def twni(ctx: ObjectiveContext, d: int, groups: np.ndarray) -> SolverResult:
    """Targeting With No network Information: fill group 2 in ascending unit
    order, then spill into group 1, up to d doses."""
    if d < 0:
        raise ValueError(f"capacity must be >= 0, got {d}")
    groups = np.asarray(groups)
    n = ctx.n_units
    if groups.shape != (n,):
        raise ValueError("groups must have one label per unit")
    first = np.nonzero(groups == GROUP2)[0]
    rest = np.nonzero(groups != GROUP2)[0]
    order = np.concatenate([first, rest])[:min(d, n)]
    alloc = Allocation(frozenset(int(u) for u in order), capacity=d)
    return _finish(ctx, alloc, rounds=len(alloc.selected))


def greedy_factor(d: int) -> float:
    """Approximation factor 1 - (1 - 1/d)^d of capacity-constrained greedy;
    decreases toward 1 - 1/e."""
    if d < 1:
        raise ValueError(f"capacity must be >= 1, got {d}")
    return 1.0 - (1.0 - 1.0 / d) ** d
