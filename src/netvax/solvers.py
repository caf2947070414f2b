"""Allocation policies over a compiled objective context.

All solvers are deterministic for fixed inputs.  Ties within 1e-12 break
toward the lowest unit index in the greedy argmax; brute force keeps
greedy's set unless a subset beats it by more than 1e-12.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

import numpy as np

from .epidemic import GROUP2, _labels
from .objective import (TOLERANCE, Allocation, ContextPattern, ObjectiveContext,
                        _count, _f_moments, _f_rows, _members, objective_value)

__all__ = [
    "NODE_BUDGET",
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

NODE_BUDGET = 500_000  # search nodes per brute_force call or regret study


class BudgetError(RuntimeError):
    """Raised when a brute-force search runs past NODE_BUDGET nodes."""


@dataclass(frozen=True)
class SolverResult:
    """Outcome of one solver run.

    f_value is bit for bit objective_value(ctx, allocation), computed once
    for the final set; welfare adds the cached constant.
    rounds counts greedy rounds, brute-force search nodes or twni's picks.
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


def _finish(ctx: ObjectiveContext, alloc: Allocation, f: float, rounds: int,
            trace: Sequence[tuple[int, float]] = ()) -> SolverResult:
    return SolverResult(alloc, f, f + ctx.welfare_constant, rounds, tuple(trace))


def _greedy(layout: ObjectiveContext | ContextPattern, base: np.ndarray, sym: np.ndarray,
            d: int, groups: np.ndarray, caps: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """The greedy loop of both greedy solvers on R objectives, given as (R, n)
    base gains and (R, 2 nnz) values of w + w^T on layout's CSR arrays.  A
    unit is open while it is unchosen and caps[groups[unit]] has room.  Each
    round adds, per row, the lowest-index open unit within the tie window
    of the row's best and updates its neighbors' gains in O(deg): the rows
    that picked one unit share a (rows, deg) update, which adds to each gain
    once, as a CSR row's columns are distinct, so each row is bit for bit its
    one-row run.  The last round only records its gains.  Stops after d
    rounds or with no unit open, which every row reaches after
    sum_g min(caps[g], n_g) picks, n_g the units in group g.  Returns the
    (R, rounds) picks and their gains."""
    indptr, cols = layout._sym_indptr, layout._sym_cols
    # a closed unit's gain is -inf, which the neighbor updates keep
    gains = np.where(np.asarray(caps)[groups] > 0, base, -np.inf)
    rounds = min(d, sum(map(min, caps, np.bincount(groups, minlength=len(caps)))))
    picks, picked = np.empty((rounds, len(gains)), dtype=np.int64), np.empty((rounds, len(gains)))
    rooms, labels, lone = [list(caps) for _ in gains], groups.tolist(), len(gains) == 1
    for t in range(rounds):
        best = gains.max(axis=1, keepdims=True)
        (gains >= best - TOLERANCE).argmax(axis=1, out=picks[t])
        sharing: dict[int, list[int]] = {}
        for r, (gain, room, u) in enumerate(zip(gains, rooms, picks[t].tolist())):
            picked[t, r] = gain[u]
            if t + 1 == rounds:
                continue  # nothing reads the state after the last pick
            gain[u] = -np.inf
            g = labels[u]
            room[g] -= 1
            if room[g] == 0:
                gain[groups == g] = -np.inf
            if lone:  # a 1-D update costs about a quarter of a 2-D one
                lo, hi = indptr[u], indptr[u + 1]
                gain[cols[lo:hi]] += sym[0, lo:hi]
            else:
                sharing.setdefault(u, []).append(r)
        for u, rs in sharing.items():
            rs, lo, hi = np.array(rs), indptr[u], indptr[u + 1]
            gains[rs[:, None], cols[lo:hi]] += sym[rs, lo:hi]
    return picks.T, picked.T


def _greedy_result(ctx: ObjectiveContext, d: int, groups: np.ndarray, caps: Sequence[int],
                   targeting: Optional[tuple[int, int]]) -> SolverResult:
    picks, gains = _greedy(ctx, ctx._base_gain[None], ctx._sym_vals[None], d, groups, caps)
    return _greedy_prefix(ctx, tuple(zip(picks[0].tolist(), gains[0].tolist())), d, targeting)


def _greedy_prefix(ctx: ObjectiveContext, trace: Sequence[tuple[int, float]], d: int,
                   targeting: Optional[tuple[int, int]]) -> SolverResult:
    """The greedy result at budget d from the gain_trace of the same solver on
    ctx at a budget >= d: each pick depends only on the caps and the picks
    before it, and a cap of d never closes before round d."""
    alloc = Allocation(frozenset(u for u, _ in trace[:d]), capacity=d, targeting=targeting)
    return _finish(ctx, alloc, objective_value(ctx, alloc), len(alloc.selected), trace[:d])


def _check_groups(ctx: ObjectiveContext, groups: np.ndarray) -> np.ndarray:
    """groups as an int8 array, checked to hold a GROUP1 or GROUP2 label per unit."""
    groups = _labels(groups, "group")
    if groups.shape != (ctx.n_units,):
        raise ValueError("groups must have one label per unit")
    return groups


def greedy_capacity(ctx: ObjectiveContext, d: int) -> SolverResult:
    """Standard greedy under the cardinality budget d.

    Runs exactly min(d, n) rounds; marginal gains are maintained
    incrementally, so each round costs an argmax plus a neighbor update.
    The value is at least (1 - (1 - 1/d)^d) of the optimum.
    """
    d = _count(d, "capacity", 1)
    return _greedy_result(ctx, d, np.zeros(ctx.n_units, dtype=np.int8), (d,), None)


def greedy_targeting(ctx: ObjectiveContext, d: int, d1: int, d2: int,
                     groups: np.ndarray) -> SolverResult:
    """Greedy under the budget d plus per-group caps d1 (group 1), d2 (group 2).

    Each round adds the best-gain unit whose group cap is still open, which
    matches scanning candidates in decreasing-gain order and taking the first
    feasible one.  Stops early once no feasible candidate remains.  The value
    is at least half the constrained optimum.
    """
    d, d1, d2 = (_count(val, name) for name, val in (("d", d), ("d1", d1), ("d2", d2)))
    return _greedy_result(ctx, d, _check_groups(ctx, groups), (d1, d2), (d1, d2))


def _top_sum(x: np.ndarray, r: int) -> np.ndarray:
    """The sum of the r largest entries along the last axis of x."""
    return np.sort(x, axis=-1)[..., x.shape[-1] - r:].sum(axis=-1)


def _budget_error() -> BudgetError:
    return BudgetError(f"brute-force search passed its budget of {NODE_BUDGET} nodes")


def _exact(layout: ObjectiveContext | ContextPattern, base: np.ndarray, sym: np.ndarray,
           picks: np.ndarray, f: np.ndarray, spent: int = 0) -> tuple[np.ndarray, np.ndarray, int]:
    """brute_force's (R, k) picks and their F on R objectives, given as (R, n)
    base gains and (R, 2 nnz) values of w + w^T on layout's CSR arrays, from
    greedy's (R, k) picks and their F; and spent plus the nodes searched.

    For T disjoint from S, F(S + T) = F(S) + sum_{u in T} g_u(S) +
    1/2 sum_{u, v in T} (w + w^T)_uv <= F(S) + sum_{u in T} (g_u(S) + p_u),
    g the marginal gains and p_u = 1/2 sum_v max(w + w^T, 0)_uv, which is 0
    on every context build_context makes.  So a row whose top k values of
    base + p do not beat greedy's F by more than TOLERANCE is closed at its
    root, one node, and keeps its F; only the other rows are searched, each
    by _branch_and_bound, and given F anew.  Raises BudgetError once spent
    passes NODE_BUDGET."""
    n, k = base.shape[1], picks.shape[1]
    cell = (np.arange(len(base))[:, None] * n + layout._sym_rows).ravel()
    plus = 0.5 * np.bincount(cell, np.maximum(sym, 0).ravel(), base.size).reshape(base.shape)
    search = np.flatnonzero(_top_sum(base + plus, k) > f + TOLERANCE)
    spent += len(base) - len(search)
    if spent > NODE_BUDGET:
        raise _budget_error()
    picks, f = picks.copy(), f.copy()
    for r in search.tolist():
        picks[r], spent = _branch_and_bound(layout, base[r], sym[r], plus[r],
                                            picks[r], f[r], spent)
    if search.size:
        f[search] = _f_rows(layout, base[search], sym[search], _members(picks[search], n))
    return picks, f, spent


def _branch_and_bound(layout: ObjectiveContext | ContextPattern, base: np.ndarray,
                      sym: np.ndarray, plus: np.ndarray, best_units: np.ndarray,
                      best: float, spent: int) -> tuple[np.ndarray, int]:
    """Depth-first search for a size-k allocation of one objective, given as
    (n,) base gains and (2 nnz,) values of w + w^T on layout's CSR arrays,
    that beats best_units, of value best, by more than TOLERANCE; k =
    len(best_units).  A node is a set S with the units from a first open
    unit on still open.  It is closed when F(S) plus the top k - |S| open
    values of g(S) + plus cannot beat the best so far by more than
    TOLERANCE; a size-k S that does becomes the best so far.  An open node
    branches on its first open unit: S with it, then S without it, so sets
    come in lexicographic order.  The gains g(S) follow S along the CSR in
    O(deg), as in _greedy, and are restored exactly on the way back.  The
    path is an explicit stack, since k may pass Python's recursion limit."""
    indptr, cols = layout._sym_indptr, layout._sym_cols
    n, k = len(base), len(best_units)
    gain = base.copy()
    path, undo = [], []
    f, first = 0.0, 0
    while True:
        spent += 1
        if spent > NODE_BUDGET:
            raise _budget_error()
        r = k - len(path)
        if n - first >= r and f + _top_sum(gain[first:] + plus[first:], r) > best + TOLERANCE:
            if r == 0:
                best, best_units = f, np.array(path)
            else:
                lo, hi = indptr[first], indptr[first + 1]
                undo.append((f, gain[cols[lo:hi]]))
                f += gain[first]
                gain[cols[lo:hi]] += sym[lo:hi]
                path.append(first)
                first += 1
                continue
        if not path:
            return best_units, spent
        u = path.pop()
        f, gain[cols[indptr[u]:indptr[u + 1]]] = undo.pop()
        first = u + 1


def _optimum(layout: ObjectiveContext | ContextPattern, base: np.ndarray, sym: np.ndarray,
             d: int, exact: bool, spent: int = 0) -> tuple:
    """The search of brute_force and the regret study on R objectives, as in
    _exact, at capacity d: greedy's (R, n) membership mask and F, the optimum's
    (R, k) picks and F (greedy's, or with exact _exact's), and spent plus nodes searched."""
    picks = _greedy(layout, base, sym, d, np.zeros(layout.n_units, dtype=np.int8), (d,))[0]
    chosen = _members(picks, layout.n_units)
    f_chosen = f = _f_rows(layout, base, sym, chosen)
    if exact:
        picks, f, spent = _exact(layout, base, sym, picks, f_chosen, spent)
    return chosen, f_chosen, picks, f, spent


def brute_force(ctx: ObjectiveContext, d: int) -> SolverResult:
    """The best allocation of size min(d, n), by branch and bound (_exact)
    seeded with greedy's set (_optimum).

    The result is greedy's set unless a subset beats it by more than
    TOLERANCE (1e-12); then it is the first set in lexicographic order that
    beats the best so far by more than that, so its F is within TOLERANCE of
    the optimum.  rounds is the number of search nodes, 1 when greedy's set
    is proved optimal at the root.  Raises BudgetError past NODE_BUDGET
    nodes.  f_value is objective_value of the pick.
    """
    d = _count(d, "capacity")
    *_, picks, f, nodes = _optimum(ctx, ctx._base_gain[None], ctx._sym_vals[None], d, True)
    return _finish(ctx, Allocation(frozenset(picks[0].tolist()), capacity=d), float(f[0]), nodes)


def iter_random_subsets(seed: int, n: int, d: int, draws: int,
                        chunk: int = 2000) -> Iterator[np.ndarray]:
    """Yield uniformly random size-d subsets of range(n) in (m, d) blocks of
    at most chunk rows.  Each subset holds the d smallest of n uniform keys
    read in turn from one stream, so the subsets do not depend on chunk.
    No policy draws subsets; tests take oracle allocations from here."""
    d = _count(d, "subset size", 1, n)
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
    d = _count(d, "capacity", 1, ctx.n_units)
    mean_f, sd_f = _f_moments(ctx, d)
    return RandomAssignmentSummary(mean_f=mean_f, sd_f=sd_f,
                                   mean_welfare=mean_f + ctx.welfare_constant,
                                   draws=0, capacity=d)


def twni(ctx: ObjectiveContext, d: int, groups: np.ndarray) -> SolverResult:
    """Targeting With No network Information: fill group 2 in ascending unit
    order, then spill into group 1, up to d doses."""
    d = _count(d, "capacity")
    groups = _check_groups(ctx, groups)
    order = np.argsort(groups != GROUP2, kind="stable")[:min(d, ctx.n_units)]
    alloc = Allocation(order, capacity=d)
    return _finish(ctx, alloc, objective_value(ctx, alloc), rounds=len(alloc.selected))


def greedy_factor(d: int) -> float:
    """Approximation factor 1 - (1 - 1/d)^d of capacity-constrained greedy;
    decreases toward 1 - 1/e."""
    d = _count(d, "capacity", 1)
    return 1.0 - (1.0 - 1.0 / d) ** d
