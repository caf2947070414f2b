"""Independent reference implementations used to cross-check the package.

Everything here recomputes quantities from their definitions (dense matrix
algebra, exhaustive enumeration, per-unit transition sums) without touching
the package's incremental code paths.
"""

import itertools
import math

import numpy as np

from netvax import (Allocation, PARAMETER_SETS, draw_instance, objective_value,
                    replicate_seed, transition_probabilities, welfare_value)

DEFAULT_DIST = ((0.7, 0.2, 0.1), (0.7, 0.2, 0.1))


def small_instance(seed, n=12, density=0.5, pset="set1", weights=(1.0, 1.0)):
    return draw_instance(n, density, PARAMETER_SETS[pset], 0.4,
                         DEFAULT_DIST, weights, seed)


def grid_instances(count=50):
    """The seeded instance grid of the small-scale optimality criterion:
    N in {10, 15, 20}, density in {0.1, 0.5, 1.0}, d in {1..4}, both
    parameter sets.  The axes cycle at coprime-ish periods so every value of
    every axis shows up many times in 50 instances; instance i is seeded as
    replicate_seed(1000, i)."""
    sizes = (10, 15, 20)
    densities = (0.1, 0.5, 1.0)
    out = []
    for i in range(count):
        n = sizes[i % 3]
        density = densities[(i // 3) % 3]
        d = 1 + i % 4
        pset = ("set1", "set2")[i % 2]
        inst = draw_instance(n, density, PARAMETER_SETS[pset], 0.4,
                             DEFAULT_DIST, (1.0, 1.0), replicate_seed(1000, i))
        out.append((inst, d, f"N={n} density={density} d={d} {pset}"))
    return out


def dense_coefficients(ctx):
    """Dense spillover matrix and linear coefficients straight from the
    context's raw triplets."""
    w = np.zeros((ctx.n_units, ctx.n_units))
    np.add.at(w, (ctx.spill_rows, ctx.spill_cols), ctx.spill_vals)
    return w, ctx.direct_gain.copy()


def objective_dense(ctx, units):
    """F via the quadratic matrix form v'Wv + c'v - 1'Wv - v'W1."""
    w, c = dense_coefficients(ctx)
    v = np.zeros(ctx.n_units)
    v[list(units)] = 1.0
    ones = np.ones(ctx.n_units)
    return float(v @ w @ v + c @ v - ones @ w @ v - v @ w @ ones)


def objective_sliced(ctx, alloc):
    """F as base gains plus half the w + w^T block sliced out of the
    context's sparse matrix by scipy, rows then columns, in ascending unit
    order; objective_value must equal it bit for bit without slicing."""
    idx = alloc.sorted_units()
    if idx.size == 0:
        return 0.0
    return float(ctx._base_gain[idx].sum()) + 0.5 * float(ctx._sym[idx][:, idx].sum())


def objective_edge_sum(ctx, units):
    """F via the per-entry sum c'v - sum_ij w_ij (v_i + v_j - v_i v_j)."""
    v = np.zeros(ctx.n_units)
    v[list(units)] = 1.0
    total = float(ctx.direct_gain @ v)
    for i, j, w in zip(ctx.spill_rows, ctx.spill_cols, ctx.spill_vals):
        total -= w * (v[i] + v[j] - v[i] * v[j])
    return total


def welfare_from_transitions(graph, pop, params, alloc, mode="linear"):
    """Welfare as the weighted mean next-period healthy probability,
    accumulated unit by unit from the transition distribution."""
    total = 0.0
    for unit in range(pop.n_units):
        p_s, _, p_r, _ = transition_probabilities(unit, graph, pop, params,
                                                  alloc, mode)
        total += pop.weight[unit] * (p_s + p_r)
    return total / pop.n_units


def matroid_brute(ctx, d, d1, d2, groups):
    """Exhaustive optimum under |V| <= d, |V ∩ G1| <= d1, |V ∩ G2| <= d2.

    Evaluates every feasible subset from the dense triplet reconstruction,
    vectorized per size so 30-instance acceptance sweeps stay fast."""
    groups = np.asarray(groups)
    w, c = dense_coefficients(ctx)
    base = c - w.sum(axis=1) - w.sum(axis=0)
    pair = w + w.T
    best_units = frozenset()
    best_val = 0.0
    for size in range(1, min(d, ctx.n_units) + 1):
        combos = np.asarray(list(itertools.combinations(range(ctx.n_units), size)))
        in_g1 = (groups[combos] == 0).sum(axis=1)
        combos = combos[(in_g1 <= d1) & (size - in_g1 <= d2)]
        if not combos.size:
            continue
        vals = base[combos].sum(axis=1)
        vals += 0.5 * pair[combos[:, :, None], combos[:, None, :]].sum(axis=(1, 2))
        local = int(np.argmax(vals))
        if vals[local] > best_val:
            best_val = float(vals[local])
            best_units = frozenset(int(u) for u in combos[local])
    return best_units, best_val


def all_subsets_objective(ctx, d):
    """F at every size-d subset, one entry per subset."""
    return np.array([objective_value(ctx, Allocation(combo, capacity=d))
                     for combo in itertools.combinations(range(ctx.n_units), d)])


def all_subsets_welfare(inst, d, mode="linear"):
    """Welfare at every size-d subset of an instance, one entry per subset."""
    return np.array([welfare_value(inst.graph, inst.pop, inst.params,
                                   Allocation(combo, capacity=d), mode)
                     for combo in itertools.combinations(range(inst.graph.n_units), d)])


def beta_from_contacts(kappa: float, contact_prob: float) -> float:
    """Effective contact rate from an average contact count and a per-contact
    transmission probability: ``-kappa * ln(1 - contact_prob)``.

    The result can exceed 1 for large kappa; callers clamp as needed.
    """
    if kappa < 0:
        raise ValueError(f"kappa must be >= 0, got {kappa}")
    if not 0.0 <= contact_prob < 1.0:
        raise ValueError(f"contact_prob must lie in [0, 1), got {contact_prob}")
    return -kappa * math.log1p(-contact_prob)


def beta_from_r0(r0: float, gamma: float) -> float:
    """Effective contact rate from a reproduction number: ``r0 * gamma``."""
    if r0 < 0:
        raise ValueError(f"r0 must be >= 0, got {r0}")
    if gamma <= 0:
        raise ValueError(f"gamma must be > 0, got {gamma}")
    return r0 * gamma
