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

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy import sparse

from .epidemic import Population, SirParams
from .graph import ContactGraph

__all__ = [
    "TOLERANCE",
    "Allocation",
    "ObjectiveContext",
    "SubmodularityReport",
    "build_context",
    "objective_value",
    "welfare_value",
    "exact_welfare_evaluator",
    "marginal_gain",
    "check_submodular",
]

TOLERANCE = 1e-12


@dataclass(frozen=True)
class Allocation:
    """A set of vaccinated units plus the constraint it was chosen under.

    selected : the vaccinated units (any iterable; stored as a frozenset).
    capacity : total budget d; len(selected) <= capacity.
    targeting : optional per-group caps (d1, d2) recorded by targeting solvers.
    """

    selected: frozenset[int]
    capacity: int
    targeting: Optional[tuple[int, int]] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "selected", frozenset(int(u) for u in self.selected))
        if self.capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {self.capacity}")
        if len(self.selected) > self.capacity:
            raise ValueError(
                f"allocation of {len(self.selected)} units exceeds capacity {self.capacity}")
        if any(u < 0 for u in self.selected):
            raise ValueError("unit indices must be non-negative")

    @classmethod
    def empty(cls, capacity: int = 0) -> "Allocation":
        return cls(frozenset(), capacity)

    def sorted_units(self) -> np.ndarray:
        return np.fromiter(sorted(self.selected), dtype=np.int64, count=len(self.selected))

    def indicator(self, n_units: int) -> np.ndarray:
        """Boolean membership vector of length n_units."""
        out = np.zeros(n_units, dtype=bool)
        idx = self.sorted_units()
        if idx.size and idx[-1] >= n_units:
            raise ValueError("allocation contains a unit outside the population")
        out[idx] = True
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
        n_units = int(n_units)
        if n_units < 1:
            raise ValueError(f"n_units must be >= 1, got {n_units}")
        direct_gain = np.asarray(direct_gain, dtype=float)
        if direct_gain.shape != (n_units,):
            raise ValueError("direct_gain must have one entry per unit")
        rows = np.asarray(spill_rows, dtype=np.int64)
        cols = np.asarray(spill_cols, dtype=np.int64)
        vals = np.asarray(spill_vals, dtype=float)
        if not (rows.shape == cols.shape == vals.shape) or rows.ndim != 1:
            raise ValueError("spill triplets must be parallel 1-D arrays")
        if rows.size and (rows.min() < 0 or rows.max() >= n_units
                          or cols.min() < 0 or cols.max() >= n_units):
            raise ValueError("spill indices out of range")
        if np.any(rows == cols):
            raise ValueError("spill weights must be off-diagonal")

        self.n_units = n_units
        self.direct_gain = direct_gain
        self.spill_rows = rows
        self.spill_cols = cols
        self.spill_vals = vals
        self.welfare_constant = float(welfare_constant)
        for arr in (direct_gain, rows, cols, vals):
            arr.setflags(write=False)

        # w + w^T; its row sums are w's row plus column sums.  Repeated (i, j)
        # entries are summed into one, which sym_row's callers and
        # solvers._f_moments rely on.
        self._sym = sparse.csr_array(
            (np.concatenate([vals, vals]),
             (np.concatenate([rows, cols]), np.concatenate([cols, rows]))),
            shape=(n_units, n_units))
        self._sym.sum_duplicates()
        # row index of each nonzero of _sym, aligned with _sym.indices/data
        self._sym_rows = np.repeat(np.arange(n_units), np.diff(self._sym.indptr))
        self._base_gain = direct_gain - np.asarray(self._sym.sum(axis=1)).ravel()

    def initial_gains(self) -> np.ndarray:
        """Marginal gain of each unit at the empty allocation (fresh copy)."""
        return self._base_gain.copy()

    def sym_row(self, unit: int) -> tuple[np.ndarray, np.ndarray]:
        """Nonzero columns and values of row ``unit`` of w + w^T."""
        s = self._sym
        lo, hi = s.indptr[unit], s.indptr[unit + 1]
        return s.indices[lo:hi], s.data[lo:hi]

    def pairwise_dense(self) -> np.ndarray:
        """Dense w + w^T; intended for small instances (brute-force search)."""
        return self._sym.toarray()


def _exposure_triplets(graph: ContactGraph, pop: Population, params: SirParams
                       ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The exposure matrix B[i, j] = beta[g_i, g_j] * A_ij * I_j / deg_i as
    COO triplets (i, j, rate) plus the row divisor deg = max(degree, 1), so
    B[i, j] = rate / deg[i] and the linear exposure of unit i under
    allocation v is sum_j B[i, j] (1 - v_j).

    Holds both orientations of every edge whose source j is infected, first
    (lo, hi) then (hi, lo).  Callers divide by deg last, which keeps every
    derived quantity bit-for-bit stable.
    """
    e = graph.edges
    i = np.concatenate([e[:, 0], e[:, 1]])
    j = np.concatenate([e[:, 1], e[:, 0]])
    keep = pop.infected[j]
    i, j = i[keep], j[keep]
    rate = params.beta[pop.group[i], pop.group[j]]
    return i, j, rate, np.maximum(graph.degree, 1).astype(float)


def _healthy_share(pop: Population, params: SirParams, v: np.ndarray,
                   z: np.ndarray, mode: str) -> float | np.ndarray:
    """Weighted mean next-period healthy probability given the vaccination
    indicator v over all units and the exposure z of the susceptible units
    only (the others cannot become infected), in ascending unit order: v
    of shape (n,) and z of shape (s,) for one allocation, or (m, n) and
    C-ordered (m, s) for a block of m allocations."""
    sus = np.flatnonzero(pop.susceptible)
    held = pop.weight * (pop.recovered + params.gamma[pop.group] * pop.infected)
    # v and escape are C-ordered, so vecdot takes one BLAS dot over each
    # allocation's contiguous row: a row's value depends neither on the rest
    # of the block nor on the BLAS thread count, as with a matrix product.
    escape = (1.0 - z) if mode == "linear" else np.exp(-z)
    escape *= 1.0 - np.take(v, sus, axis=-1)
    return (held.sum() + np.vecdot(v, pop.weight - held)
            + np.vecdot(escape, pop.weight[sus])) / pop.n_units


def build_context(graph: ContactGraph, pop: Population, params: SirParams) -> ObjectiveContext:
    """Compile the objective coefficients for one instance.

    Every spillover weight comes out non-positive and every direct gain
    non-negative, so the resulting F is monotone submodular by construction.
    """
    n = graph.n_units
    if pop.n_units != n:
        raise ValueError(f"graph has {n} units but population has {pop.n_units}")

    gamma_own = params.gamma[pop.group]
    c = pop.weight * (1.0 - pop.recovered - gamma_own * pop.infected - pop.susceptible) / n

    i, j, rate, deg = _exposure_triplets(graph, pop, params)
    sus = pop.susceptible[i]
    rows = i[sus]
    vals = -pop.weight[rows] * rate[sus] / (deg[rows] * n)
    z = np.bincount(i, rate, minlength=n) / deg
    const = _healthy_share(pop, params, np.zeros(n), z[pop.susceptible], "linear")
    return ObjectiveContext(n, c, rows, j[sus], vals, const)


def objective_value(ctx: ObjectiveContext, alloc: Allocation) -> float:
    """Evaluate F at an allocation.  F(empty) = 0.

    Sums the base gains of the allocated units and half of w + w^T over the
    nonzeros whose row and column are both allocated, each in ascending
    order, so the value does not depend on how the allocation was built.
    """
    member = alloc.indicator(ctx.n_units)
    s = ctx._sym
    inside = member[ctx._sym_rows] & member[s.indices]
    return float(ctx._base_gain[member].sum()) + 0.5 * float(s.data[inside].sum())


def welfare_value(graph: ContactGraph, pop: Population, params: SirParams,
                  alloc: Allocation, mode: str = "linear") -> float:
    """Weighted expected share of units healthy (susceptible, recovered, or
    vaccinated) next period, in [0, max weight].

    mode picks the infection-rate form; "exact" is a diagnostic and is never
    fed to the solvers.
    """
    if mode not in ("linear", "exact"):
        raise ValueError(f"mode must be 'linear' or 'exact', got {mode!r}")
    n = graph.n_units
    if pop.n_units != n:
        raise ValueError("graph and population sizes differ")
    v = alloc.indicator(n).astype(float)
    i, j, rate, deg = _exposure_triplets(graph, pop, params)
    z = np.bincount(i, rate * (1.0 - v[j]), minlength=n) / deg
    return float(_healthy_share(pop, params, v, z[pop.susceptible], mode))


def exact_welfare_evaluator(graph: ContactGraph, pop: Population, params: SirParams
                            ) -> Callable[[np.ndarray], np.ndarray]:
    """Exact-mode welfare_value for blocks of allocations: compiles the
    exposure matrix once and returns a function mapping an (m, n) 0/1
    membership block to its (m,) welfare values."""
    n = graph.n_units
    if pop.n_units != n:
        raise ValueError("graph and population sizes differ")
    i, j, rate, deg = _exposure_triplets(graph, pop, params)
    # rows of the susceptible units only, the exposure _healthy_share reads
    exposure = sparse.csr_array((rate / deg[i], (i, j)), shape=(n, n))[
        np.flatnonzero(pop.susceptible)]
    z_empty = np.asarray(exposure.sum(axis=1)).ravel()

    def welfare(member: np.ndarray) -> np.ndarray:
        # scipy multiplies by a C-ordered (n, m) operand without a copy of
        # its own; the subtraction writes z in the C order vecdot needs, and
        # the product is freed before _healthy_share's temporaries exist
        z = np.subtract(z_empty, (exposure @ np.ascontiguousarray(member.T)).T,
                        order="C")
        return _healthy_share(pop, params, member, z, "exact")
    return welfare


def marginal_gain(ctx: ObjectiveContext, alloc: Allocation, candidate: int) -> float:
    """F(V + candidate) - F(V), computed incrementally in O(deg)."""
    if not 0 <= candidate < ctx.n_units:
        raise ValueError(f"candidate {candidate} out of range")
    if candidate in alloc.selected:
        raise ValueError(f"candidate {candidate} already allocated")
    gain = float(ctx._base_gain[candidate])
    cols, vals = ctx.sym_row(candidate)
    if cols.size and alloc.selected:
        inside = np.isin(cols, alloc.sorted_units())
        gain += float(vals[inside].sum())
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
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    rng = np.random.default_rng(seed)
    n = ctx.n_units
    for t in range(trials):
        perm = rng.permutation(n)
        a_size = int(rng.integers(0, n))
        b_extra = int(rng.integers(0, n - a_size))
        a_units = perm[:a_size]
        b_units = perm[:a_size + b_extra]
        x = int(perm[a_size + b_extra])
        alloc_a = Allocation(frozenset(int(u) for u in a_units), capacity=n)
        alloc_b = Allocation(frozenset(int(u) for u in b_units), capacity=n)
        gain_a = marginal_gain(ctx, alloc_a, x)
        gain_b = marginal_gain(ctx, alloc_b, x)
        if gain_a < gain_b - TOLERANCE:
            return SubmodularityReport(False, t + 1, {
                "property": "diminishing_returns",
                "small": sorted(int(u) for u in a_units),
                "large": sorted(int(u) for u in b_units),
                "candidate": x,
                "gap": gain_b - gain_a,
            })
        f_a = objective_value(ctx, alloc_a)
        f_b = objective_value(ctx, alloc_b)
        if f_a > f_b + TOLERANCE:
            return SubmodularityReport(False, t + 1, {
                "property": "monotonicity",
                "small": sorted(int(u) for u in a_units),
                "large": sorted(int(u) for u in b_units),
                "candidate": x,
                "gap": f_a - f_b,
            })
    return SubmodularityReport(True, trials, None)
