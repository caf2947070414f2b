"""Allocation policies over a compiled objective context.

All solvers are deterministic for fixed inputs (the random baseline for a
fixed seed).  Ties within 1e-12 break toward the lowest unit index in the
greedy argmax and toward the first subset in brute-force enumeration.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from .epidemic import GROUP1, GROUP2
from .objective import (_BLOCK_CELLS, TOLERANCE, Allocation, ObjectiveContext,
                        _f_moments, objective_value)

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
# Pair values gathered per brute-force block: rows * k * k at most
_PAIR_CELLS = 2_000_000


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
    return int(np.nonzero(open_ & (gains >= best - TOLERANCE))[0][0])


def _greedy(ctx: ObjectiveContext, d: int, groups: np.ndarray, caps: Sequence[int],
            targeting: Optional[tuple[int, int]]) -> SolverResult:
    """The greedy loop of both greedy solvers.  A unit is open while it is
    unchosen and caps[groups[unit]] has room; a group closes once, when its
    cap fills.  Each round adds the best open unit and updates its
    neighbors' gains in O(deg).  Stops after d rounds or with no unit open.
    """
    gains = ctx.initial_gains()
    room = list(caps)
    open_ = np.asarray(room)[groups] > 0
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
    if not np.all(np.isin(groups, (GROUP1, GROUP2))):
        raise ValueError("group entries must be GROUP1 or GROUP2")
    return _greedy(ctx, d, groups, (d1, d2), (d1, d2))


def _combo_chunks(n: int, k: int, chunk: int) -> Iterator[np.ndarray]:
    """The size-k subsets of range(n) in lexicographic order, as (rows, k)
    blocks of chunk rows; the last block holds the remainder."""
    flat = itertools.chain.from_iterable(itertools.combinations(range(n), k))
    total = math.comb(n, k)
    for start in range(0, total, chunk):
        rows = min(chunk, total - start)
        yield np.fromiter(flat, dtype=np.int64, count=rows * k).reshape(rows, k)


def _pair_blocks(n: int, k: int, chunk: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """_combo_chunks' blocks, each with the flat index
    combos[:, :, None] * n + combos[:, None, :] of its subsets' k x k pairs
    in an n x n matrix."""
    for combos in _combo_chunks(n, k, chunk):
        yield combos, combos[:, :, None] * n + combos[:, None, :]


@functools.lru_cache(maxsize=4)
def _enumeration(n: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """_pair_blocks' one block holding all size-k subsets of range(n), set
    read-only and kept for the next search with the same (n, k)."""
    block = next(_pair_blocks(n, k, math.comb(n, k)))
    for arr in block:
        arr.setflags(write=False)
    return block


def _tie_scan(vals: np.ndarray, best_val: float) -> tuple[int, float]:
    """Scan vals in order against an incumbent value: a value replaces the
    incumbent only when it beats it by more than the tie window.  Returns the
    position of the last replacement (-1 if none) and the incumbent value."""
    pos = -1
    # the incumbent stays within the tie window of the running maximum, so
    # only a new running maximum can replace it
    prev = np.maximum.accumulate(np.concatenate(([best_val], vals[:-1])))
    for p in np.flatnonzero(vals > prev):
        if vals[p] > best_val + TOLERANCE:
            pos, best_val = int(p), float(vals[p])
    return pos, best_val


def brute_force(ctx: ObjectiveContext, d: int) -> SolverResult:
    """Exhaustive search over all allocations of size min(d, n).

    Enumerates subsets in lexicographic order; a later subset replaces the
    incumbent only when its value is higher by more than 1e-12, so among
    maximizers tied within that window the first one wins, as in greedy.
    Refuses instances whose subset count exceeds ENUMERATION_BUDGET.

    Subsets are scored in blocks of at most _PAIR_CELLS / k^2 rows.  When
    one block holds them all, the block and its pair index are built once
    per (n, k) and reused by later calls (a small LRU cache); longer
    enumerations are streamed block by block and not kept.
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
    chunk = max(1, _PAIR_CELLS // (k * k))
    blocks = [_enumeration(n, k)] if count <= chunk else _pair_blocks(n, k, chunk)
    for combos, pairs in blocks:
        vals = base[combos].sum(axis=1)
        vals += 0.5 * np.take(pair, pairs).sum(axis=(1, 2))
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


def random_assignment(ctx: ObjectiveContext, d: int, draws: int, seed: int,
                      welfare: Optional[Callable[[np.ndarray], np.ndarray]] = None
                      ) -> RandomAssignmentSummary:
    """Random baseline: mean and sd of F and welfare over uniformly random
    size-d allocations.

    mean_f and sd_f are exact (objective._f_moments).  By default welfare
    is F plus the context's welfare constant, so it is exact too and nothing
    is drawn: draws is 0 and seed is unused.  Otherwise welfare maps an
    (m, d) block of unit indices, one allocation per row, to (m,) values
    (objective.ContextPattern.welfare(params, "exact") for exact mode), and
    its mean and sample sd are estimated over `draws` subsets from
    iter_random_subsets(seed), in blocks of at most _BLOCK_CELLS / n rows.
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
    w_vals = np.concatenate([
        welfare(idx)
        for idx in iter_random_subsets(seed, n, d, draws, chunk=max(1, _BLOCK_CELLS // n))])
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
