"""Expected-welfare objective over vaccine allocations.

``build_context`` compiles a network plus health states into the quadratic
set function

    F(V) = sum_{i,j in V} w_ij + sum_{i in V} c_i
           - sum_{j in V} colsum_j(w) - sum_{i in V} rowsum_i(w),

where ``c_i >= 0`` is the direct welfare gain from vaccinating unit i and
``w_ij <= 0`` is the (signed) spillover weight of infected neighbor j on
susceptible unit i.  F is normalized so F(empty) = 0; next-period expected
welfare under the linearized infection rate is F plus an
allocation-independent constant, cached on the context.

With every off-diagonal weight non-positive, F is monotone non-decreasing
and submodular, which is what the greedy solvers rely on.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .epidemic import Population, SirParams
from .graph import ContactGraph, _unit_count

__all__ = [
    "TOLERANCE",
    "Allocation",
    "ObjectiveContext",
    "ContextPattern",
    "SubmodularityReport",
    "build_context",
    "objective_value",
    "welfare_value",
    "marginal_gain",
    "check_submodular",
]

TOLERANCE = 1e-12
# States in one run of random_welfare: 8 MiB of float64 per array
_BLOCK_CELLS = 2**20


def _count(value: object, name: str, low: int = 0, high: Optional[int] = None) -> int:
    """value as a Python int, checked to be an integer, not a bool, in
    [low, high]: the one check of every count, budget and unit index."""
    try:
        number = operator.index(value)
        if type(value) is not bool and low <= number and (high is None or number <= high):
            return number
    except TypeError:
        pass
    span = "a non-negative integer" if low == 0 else f"an integer >= {low}"
    raise ValueError(f"{name} must be {span}{'' if high is None else f' and <= {high}'},"
                     f" got {value!r}")


def _unit_indices(units: object, n: int, name: str) -> np.ndarray:
    """units as a 1-D int64 array, checked before the cast to hold integers,
    not bools, in [0, n): the one check of every unit-index array.  An empty
    1-D array of any dtype holds no units and passes."""
    units = np.asarray(units)
    if units.ndim != 1 or units.size and units.dtype.kind not in "iu":
        raise ValueError(f"{name} must be 1-D integer unit indices, got {units.dtype}"
                         f" of shape {units.shape}")
    if units.size and (units.min() < 0 or units.max() >= n):
        raise ValueError(f"{name} holds a unit outside the population [0, {n})")
    return units.astype(np.int64, copy=False)


@dataclass(frozen=True)
class Allocation:
    """A set of vaccinated units plus the constraint it was chosen under.

    selected : the vaccinated units, any iterable of non-negative integers.
    capacity : total budget d; len(selected) <= capacity.
    targeting : optional per-group caps (d1, d2) recorded by targeting solvers,
        two non-negative integers.
    """

    selected: frozenset[int]
    capacity: int
    targeting: Optional[tuple[int, int]] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "selected",
                           frozenset(_count(unit, "unit index") for unit in self.selected))
        object.__setattr__(self, "capacity", _count(self.capacity, "capacity"))
        if self.targeting is not None:
            if np.ndim(self.targeting) != 1 or len(self.targeting) != 2:
                raise ValueError(f"targeting must be a pair of caps (d1, d2), got {self.targeting!r}")
            object.__setattr__(self, "targeting",
                               tuple(_count(cap, "targeting cap") for cap in self.targeting))
        if len(self.selected) > self.capacity:
            raise ValueError(
                f"allocation of {len(self.selected)} units exceeds capacity {self.capacity}")

    @classmethod
    def empty(cls, capacity: int = 0) -> "Allocation":
        return cls(frozenset(), capacity)

    def sorted_units(self) -> np.ndarray:
        return np.fromiter(sorted(self.selected), dtype=np.int64, count=len(self.selected))

    def indicator(self, n_units: int) -> np.ndarray:
        """Boolean membership vector of length n_units."""
        out = np.zeros(n_units, dtype=bool)
        out[_unit_indices(self.sorted_units(), n_units, "allocation")] = True
        return out


class ObjectiveContext:
    """Compiled coefficients of the set function F for one instance.

    direct_gain : per-unit non-negative linear coefficients c_i.
    spill_rows/spill_cols/spill_vals : COO triplets of the spillover weights
        w_ij (row = exposed unit, col = infecting neighbor).  Both
        orientations of an edge are stored independently when both apply.
    welfare_constant : next-period expected welfare minus F, constant in the
        allocation under the linearized infection rate.

    The constructor accepts arbitrary weight values so diagnostic code can
    probe broken instances; ``build_context`` is the validated path.
    """

    def __init__(self, n_units: int, direct_gain: np.ndarray,
                 spill_rows: np.ndarray, spill_cols: np.ndarray,
                 spill_vals: np.ndarray, welfare_constant: float) -> None:
        n_units = _unit_count(n_units)
        direct_gain = np.asarray(direct_gain, dtype=float)
        if direct_gain.shape != (n_units,):
            raise ValueError("direct_gain must have one entry per unit")
        rows = _unit_indices(spill_rows, n_units, "spill_rows")
        cols = _unit_indices(spill_cols, n_units, "spill_cols")
        vals = np.asarray(spill_vals, dtype=float)
        if not rows.shape == cols.shape == vals.shape:
            raise ValueError("spill triplets must be parallel 1-D arrays")
        if np.any(rows == cols):
            raise ValueError("spill weights must be off-diagonal")
        # w + w^T with repeated (i, j) entries summed into one, which
        # marginal_gain and _f_moments rely on; its row sums are w's row plus column sums
        sym = _csr(n_units, np.concatenate([rows, cols]), np.concatenate([cols, rows]),
                   np.concatenate([vals, vals]))
        self._fill(n_units, direct_gain, rows, cols, vals, welfare_constant, *sym,
                   direct_gain - _row_sums(sym[0], sym[3]))

    def _fill(self, n_units: int, direct_gain: np.ndarray, rows: np.ndarray,
              cols: np.ndarray, vals: np.ndarray, welfare_constant: float,
              sym_indptr: np.ndarray, sym_rows: np.ndarray, sym_cols: np.ndarray,
              sym_vals: np.ndarray, base_gain: np.ndarray) -> None:
        """Store checked arrays, w + w^T in CSR form, and the base gains;
        every array is set read-only, so contexts may share them."""
        self.n_units = n_units
        self.direct_gain = direct_gain
        self.spill_rows = rows
        self.spill_cols = cols
        self.spill_vals = vals
        self.welfare_constant = float(welfare_constant)
        self._sym_indptr, self._sym_rows = sym_indptr, sym_rows
        self._sym_cols, self._sym_vals = sym_cols, sym_vals
        self._base_gain = base_gain
        for arr in (direct_gain, rows, cols, vals, sym_indptr, sym_rows, sym_cols,
                    sym_vals, self._base_gain):
            arr.setflags(write=False)


def _csr(n: int, rows: np.ndarray, cols: np.ndarray, vals: np.ndarray
         ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """COO triplets of an n x n matrix as CSR arrays (indptr, row, col, value)
    in (row, col) order.  Repeated entries are summed in entry order, others
    kept as they are: scipy's csr_array after sum_duplicates, which may sum
    three or more repeats in another order."""
    keys = rows * n + cols
    order = np.argsort(keys, kind="stable")
    keys, vals = keys[order], vals[order]
    new = np.diff(keys, prepend=-1) != 0
    if not new.all():
        keys, vals = keys[new], np.bincount(np.cumsum(new) - 1, vals)
    rows, cols = np.divmod(keys, n)
    return np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=n)))), rows, cols, vals


def _row_sums(indptr: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """Row sums of a CSR matrix, by np.add.reduceat as scipy sums rows, or of
    R matrices on one layout, vals (R, nnz) C-ordered, each as if alone."""
    out = np.zeros(vals.shape[:-1] + (indptr.size - 1,))
    full = np.flatnonzero(np.diff(indptr))
    out[..., full] = np.add.reduceat(vals, indptr[full], axis=-1)
    return out


def _f_moments(ctx: ObjectiveContext, d: int) -> tuple[float, float]:
    """Exact mean and population sd of F(S) over all size-d subsets S of the
    units, in O(nnz + n).

    With b the base gains and s = w + w^T, F(S) = sum_{i in S} b_i +
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
    i, j, s = ctx._sym_rows, ctx._sym_cols, ctx._sym_vals
    if d == n:
        return float(b.sum()) + 0.5 * float(s.sum()), 0.0
    r = np.bincount(i, s, minlength=n)
    mean = d / n * float(b.sum()) + d * (d - 1) / (n * (n - 1)) * 0.5 * float(r.sum())
    u = (r - r.mean()) / (n - 2) if n > 2 else np.zeros(n)
    g = b - b.mean() + (d - 1) * u
    var = d * (n - d) / (n * (n - 1)) * float(g @ g)
    pair_coef = d * (d - 1) * (n - d) * (n - d - 1)
    if pair_coef:  # then n >= 4
        c = r.mean() / (n - 1)
        fit = u[i] + u[j] + c  # u_i + u_j + c at s's nonzeros
        # sum_{i<j} h^2 over s's nonzeros, then over the other pairs, where
        # h = -fit: fit^2 over all pairs in closed form, less the nonzeros'
        fit2_all = (n - 2) * float(u @ u) + 0.5 * n * (n - 1) * c * c
        rest = (0.0 if s.size == n * (n - 1)
                else max(fit2_all - 0.5 * float(fit @ fit), 0.0))
        h2 = 0.5 * float(((s - fit) ** 2).sum()) + rest
        var += pair_coef / (n * (n - 1) * (n - 2) * (n - 3)) * h2
    return mean, math.sqrt(var)


def _held(pop: Population, params: SirParams) -> np.ndarray:
    """Each unit's weighted chance to be recovered next period with no one vaccinated."""
    return pop.weight * (pop.recovered + params.gamma[pop.group] * pop.infected)


def _healthy_share(pop: Population, params: SirParams, vaccinated: np.ndarray,
                   z: np.ndarray, mode: str) -> float:
    """Weighted mean next-period healthy probability given the vaccinated
    units, ascending, and the exposure z of the susceptible units only (the
    others cannot become infected), in ascending unit order.  z is
    overwritten."""
    sus = pop.susceptible
    held = _held(pop, params)
    escape = (np.subtract(1.0, z, out=z) if mode == "linear"
              else np.exp(np.negative(z, out=z), out=z))
    # zero the escape of vaccinated susceptible units, at their positions
    # among the susceptible units
    escape[(np.cumsum(sus) - 1)[vaccinated[sus[vaccinated]]]] = 0.0
    return float((held.sum() + np.take(pop.weight - held, vaccinated).sum()
                  + np.vecdot(escape, pop.weight[sus])) / pop.n_units)


class ContextPattern:
    """The parameter-free half of build_context for one instance.

    Holds the spillover entries (susceptible unit i, infected neighbor j),
    both orientations of every edge, first (lo, hi) then (hi, lo), in edge
    order, the (g_i, g_j) group pair of each, their -weight_i
    and deg_i * n factors, and the positions of the doubled entries in
    w + w^T as CSR arrays.  The entries come from the graph's edges, so
    they lie in range and off the diagonal.  No (i, j) repeats, since w_ij
    needs i susceptible and j infected, so the CSR form is a permutation of
    the entries.

    context(params) fills in the values only, with build_context's
    arithmetic in its order, so every array it returns is bit-identical to
    a fresh compile; fill(beta, gamma) gives the direct and base gains,
    w + w^T and the spill values of many rate sets at once.  A study that
    compiles many parameter sets on one instance builds the pattern once.
    welfare(params, mode) and random_welfare(params, d) read the same CSR
    arrays, through _exposure, for the welfare of one allocation per call
    and its mean over random allocations.
    """

    def __init__(self, graph: ContactGraph, pop: Population) -> None:
        n = graph.n_units
        if pop.n_units != n:
            raise ValueError(f"graph has {n} units but population has {pop.n_units}")
        e, sus = graph.edges, pop.susceptible
        i = np.concatenate([e[:, 0], e[:, 1]])
        j = np.concatenate([e[:, 1], e[:, 0]])
        keep = sus[i] & pop.infected[j]
        rows, cols = i[keep], j[keep]
        deg = np.maximum(graph.degree, 1).astype(float)
        self.n_units = n
        self._pop = pop
        self._rows, self._cols = rows, cols
        self._pair = 2 * pop.group[rows].astype(np.int64) + pop.group[cols]
        self._neg_weight = -pop.weight[rows]
        self._deg_n = deg[rows] * n
        self._deg = deg
        entry = np.arange(rows.size)  # _entry: the entry at each CSR position
        self._sym_indptr, self._sym_rows, self._sym_cols, self._entry = _csr(
            n, np.concatenate([rows, cols]), np.concatenate([cols, rows]),
            np.concatenate([entry, entry]))
        assert self._entry.size == 2 * rows.size, "a spillover entry repeats"
        for arr in (rows, cols, self._sym_indptr, self._sym_rows, self._sym_cols):
            arr.setflags(write=False)

    def context(self, params: SirParams) -> ObjectiveContext:
        """The objective compiled with params: build_context(graph, pop,
        params), sharing this pattern's index arrays (all read-only); fill's
        one-row case."""
        n, pop, sus = self.n_units, self._pop, self._pop.susceptible
        direct, base, sym, vals = self.fill(params.beta[None], params.gamma[None])
        z = np.bincount(self._rows, np.take(params.beta, self._pair), minlength=n)[sus]
        const = _healthy_share(pop, params, np.arange(0), z / self._deg[sus], "linear")
        ctx = ObjectiveContext.__new__(ObjectiveContext)
        ctx._fill(n, direct[0], self._rows, self._cols, vals[0], const,
                  self._sym_indptr, self._sym_rows, self._sym_cols, sym[0], base[0])
        return ctx

    def fill(self, beta: np.ndarray, gamma: np.ndarray
             ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(R, n) direct gains, (R, n) base gains, (R, 2 nnz) values of
        w + w^T in the CSR layout of the contexts this pattern fills, and
        (R, nnz) spill values in entry order, of R rate sets beta (R, 2, 2)
        and gamma (R, 2); build_context's arithmetic in its order."""
        pop = self._pop
        direct = pop.weight * (1.0 - pop.recovered - gamma[:, pop.group] * pop.infected
                               - pop.susceptible) / self.n_units
        vals = self._neg_weight * beta.reshape(-1, 4)[:, self._pair]
        sym = np.take(np.divide(vals, self._deg_n, out=vals), self._entry, axis=1)
        return direct, direct - _row_sums(self._sym_indptr, sym), sym, vals

    def _exposure(self, params: SirParams) -> tuple[np.ndarray, np.ndarray]:
        """beta[g_i, g_j] / deg_i of each entry (susceptible i, infected j) at
        its CSR positions in w + w^T, and the exposure z0 of each susceptible
        unit with no one vaccinated: its row sums, in ascending unit order."""
        vals = (np.take(params.beta, self._pair) / self._deg[self._rows])[self._entry]
        return vals, _row_sums(self._sym_indptr, vals)[self._pop.susceptible]

    def welfare(self, params: SirParams, mode: str) -> Callable[[np.ndarray], float]:
        """welfare_value in mode ("linear" or "exact") as a function of one
        allocation, given as a 1-D array of distinct unit indices in [0, n).

        Every unit with spillover entries is susceptible or infected, so the
        CSR of w + w^T holds both layouts the evaluation needs: a susceptible
        unit's row lists its infecting neighbors, an infected unit's row the
        units it exposes, each in ascending order.  One call reads each
        entry at most once, so its temporaries are bounded by the pattern's
        size at any density."""
        if mode not in ("linear", "exact"):
            raise ValueError(f"mode must be 'linear' or 'exact', got {mode!r}")
        n, pop, ptr = self.n_units, self._pop, self._sym_indptr
        vals, z_empty = self._exposure(params)
        # only infected rows are read by source, each exposed unit given as
        # its position among the susceptible units
        out_deg = np.where(pop.infected, np.diff(ptr), 0)
        exposed = (np.cumsum(pop.susceptible) - 1)[self._sym_cols]

        def welfare(units: np.ndarray) -> float:
            units = np.sort(_unit_indices(units, n, "allocation"))
            if np.any(units[1:] == units[:-1]):
                raise ValueError("allocation repeats a unit")
            # the entries of each infecting source in turn
            count = out_deg[units]
            src, count = units[count > 0], count[count > 0]
            entry = (np.repeat(ptr[src] - np.cumsum(count) + count, count)
                     + np.arange(count.sum()))
            # each unit sums its sources in ascending order, as a CSR product does
            z = z_empty - np.bincount(exposed[entry], vals[entry], minlength=z_empty.size)
            return _healthy_share(pop, params, units, z, mode)
        return welfare

    def random_welfare(self, params: SirParams, d: int) -> float:
        """Exact expectation of welfare(params, "exact") over uniformly
        random size-d allocations, in O(n + nnz + sum_u k_u^2) for the k_u
        infected neighbors of each susceptible unit u.

        With b_uj = beta[g_u, g_j] / deg_u, x_uj = exp(b_uj), z0_u the sum
        of u's b_uj and held = weight * (R + gamma * I), n times the welfare
        of S is sum held + sum_{v in S} (weight_v - held_v) plus, over the
        susceptible u not in S, weight_u e^{-z0_u} prod_{j in I_u & S} x_uj.
        The middle sum has mean d/n of its total.  The last term's mean over S
        is weight_u e^{-z0_u} sum_c e_c(x_u) C(n-1-k_u, d-c) / C(n, d), e_c
        the elementary symmetric polynomial.  It is summed by drawing u and
        then its neighbors in turn without replacement: a[c] holds
        weight_u e^{-z0_u} times the probability that u is not picked and c
        neighbors are so far, times their product of x, and a neighbor is
        picked with probability (d - c) / (units left).  Every term is non-negative
        and bounded (prod_j x_uj = e^{z0_u} <= e), and no binomial is
        formed.  Units are taken in runs of fewer than _BLOCK_CELLS states.
        """
        n, pop, ptr = self.n_units, self._pop, self._sym_indptr
        d = _count(d, "capacity", 1, n)
        held = _held(pop, params)
        vals, z0 = self._exposure(params)
        x = np.exp(vals)
        units = np.flatnonzero(pop.susceptible)
        k = np.diff(ptr)[units]
        start = (n - d) / n * pop.weight[units] * np.exp(-z0)
        # by decreasing k, so the units still drawing at each step are a prefix
        order = np.argsort(-k, kind="stable")
        units, k, start = units[order], k[order], start[order]
        width = min(int(k.max(initial=0)), d) + 1
        c = np.arange(width)
        step = max(1, _BLOCK_CELLS // width)
        escape = 0.0
        for lo in range(0, units.size, step):
            first, run_k = ptr[units[lo:lo + step]], k[lo:lo + step]
            a = np.zeros((run_k.size, width))
            a[:, 0] = start[lo:lo + step]
            for i in range(1, int(run_k[0]) + 1):
                # draw each unit's i-th neighbor, with n - i units left
                m = np.count_nonzero(run_k >= i)
                live, reach = min(i, d), min(i - 1, d) + 1
                picked = a[:m, :live] * ((d - c[:live]) / (n - i)) * x[first[:m] + i - 1, None]
                a[:m, :reach] *= (n - i - d + c[:reach]) / (n - i)
                a[:m, 1:live + 1] += picked
            escape += float(a.sum())
        return float(held.sum() + d / n * (pop.weight - held).sum() + escape) / n


def build_context(graph: ContactGraph, pop: Population, params: SirParams) -> ObjectiveContext:
    """Compile the objective coefficients for one instance:
    ContextPattern(graph, pop).context(params).

    Every spillover weight comes out non-positive and every direct gain
    non-negative, so the resulting F is monotone submodular by construction.
    """
    return ContextPattern(graph, pop).context(params)


def objective_value(ctx: ObjectiveContext, alloc: Allocation) -> float:
    """Evaluate F at an allocation.  F(empty) = 0.

    Sums the base gains of the allocated units and half of w + w^T over the
    nonzeros whose row and column are both allocated, each in ascending
    order, so the value does not depend on how the allocation was built:
    _f_rows' one-row case."""
    member = alloc.indicator(ctx.n_units)[None]
    return float(_f_rows(ctx, ctx._base_gain[None], ctx._sym_vals[None], member)[0])


def _f_rows(layout: ObjectiveContext | ContextPattern, base: np.ndarray, sym: np.ndarray,
            member: np.ndarray) -> np.ndarray:
    """F of R allocations of one size, given as the rows of an (R, n)
    membership mask, on R objectives given as (R, n) base gains and (R, 2 nnz)
    values of w + w^T on layout's CSR arrays.  The base part sums a C-ordered
    (R, size) block, the spill part one C-ordered (rows, c) block per count c
    of nonzeros with both ends allocated, so each row's value is bit for bit
    its value alone."""
    own = base[member].reshape(len(member), -1).sum(axis=1)
    rows, cols = layout._sym_rows, layout._sym_cols
    if len(member) == 1:  # one row: 1-D gathers cost less than 2-D ones
        return own + 0.5 * sym[0][member[0][rows] & member[0][cols]].sum()
    both = member.take(rows, axis=1) & member.take(cols, axis=1)
    vals, count = sym[both], np.count_nonzero(both, axis=1)
    start, spill = np.cumsum(count) - count, np.empty(len(member))
    for c in set(count.tolist()):
        group = np.flatnonzero(count == c)
        spill[group] = vals[start[group, None] + np.arange(c)].sum(axis=1)
    return own + 0.5 * spill


def _members(units: np.ndarray, n: int) -> np.ndarray:
    """The (R, n) membership mask of the allocations in the rows of units."""
    member = np.zeros((len(units), n), dtype=bool)
    np.put_along_axis(member, units, True, axis=1)
    return member


def welfare_value(graph: ContactGraph, pop: Population, params: SirParams,
                  alloc: Allocation, mode: str = "linear") -> float:
    """Weighted expected share of units healthy (susceptible, recovered, or
    vaccinated) next period, in [0, max weight].

    mode picks the infection-rate form; "exact" is a diagnostic and is never
    fed to the solvers.  Compiles a ContextPattern per call: a caller that
    evaluates many allocations on one instance holds the function
    pattern.welfare(params, mode) returns and calls it once per allocation.
    """
    return ContextPattern(graph, pop).welfare(params, mode)(alloc.sorted_units())


def marginal_gain(ctx: ObjectiveContext, alloc: Allocation, candidate: int) -> float:
    """F(V + candidate) - F(V), computed incrementally in O(deg + |V| log |V|)."""
    candidate = _count(candidate, "candidate", 0, ctx.n_units - 1)
    if candidate in alloc.selected:
        raise ValueError(f"candidate {candidate} already allocated")
    gain = float(ctx._base_gain[candidate])
    if alloc.selected:
        units = _unit_indices(alloc.sorted_units(), ctx.n_units, "allocation")
        lo, hi = ctx._sym_indptr[candidate], ctx._sym_indptr[candidate + 1]
        gain += float(ctx._sym_vals[lo:hi][np.isin(ctx._sym_cols[lo:hi], units)].sum())
    return gain


@dataclass(frozen=True)
class SubmodularityReport:
    passed: bool
    trials: int
    counterexample: Optional[dict] = None


def check_submodular(ctx: ObjectiveContext, trials: int = 1000,
                     seed: int = 0) -> SubmodularityReport:
    """Randomized check of diminishing returns and monotonicity.

    Samples ``trials`` chains A subset-of B with a candidate x outside B and
    verifies gain(A, x) >= gain(B, x) and F(A) <= F(B), both to TOLERANCE.
    Returns the first violation found, if any.
    """
    trials = _count(trials, "trials", 1)
    rng = np.random.default_rng(seed)
    n = ctx.n_units
    for t in range(trials):
        perm = rng.permutation(n)
        a_size = int(rng.integers(0, n))
        b_extra = int(rng.integers(0, n - a_size))
        x = int(perm[a_size + b_extra])
        alloc_a = Allocation(perm[:a_size], capacity=n)
        alloc_b = Allocation(perm[:a_size + b_extra], capacity=n)
        gain_a = marginal_gain(ctx, alloc_a, x)
        gain_b = marginal_gain(ctx, alloc_b, x)
        f_a = objective_value(ctx, alloc_a)
        f_b = objective_value(ctx, alloc_b)
        for prop, broken, gap in (
                ("diminishing_returns", gain_a < gain_b - TOLERANCE, gain_b - gain_a),
                ("monotonicity", f_a > f_b + TOLERANCE, f_a - f_b)):
            if broken:
                return SubmodularityReport(False, t + 1, {
                    "property": prop,
                    "small": sorted(alloc_a.selected),
                    "large": sorted(alloc_b.selected),
                    "candidate": x,
                    "gap": gap,
                })
    return SubmodularityReport(True, trials, None)
