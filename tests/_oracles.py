"""Independent reference implementations used to cross-check the package.

Everything here recomputes quantities from their definitions (dense matrix
algebra, exhaustive enumeration, per-unit transition sums) without touching
the package's incremental code paths.  infection_rate and
transition_probabilities are the per-unit one-period SIR model, kept here
as the reference that welfare_from_transitions sums.
regret_study_by_estimate is the regret study one estimate at a time, the
reference for the array pass of harness.run_regret_study.
streamed_optimum enumerates every subset, the reference for brute_force's
branch and bound.
"""

import itertools
import math

import numpy as np
from scipy import sparse

from netvax import (GROUP1, GROUP2, INFECTED, RECOVERED, SUSCEPTIBLE,
                    Allocation, EstimationNoiseModel, ObjectiveContext,
                    PARAMETER_SETS, Population, RegretStudyRow, SirParams,
                    brute_force, build_context, draw_instance, greedy_capacity,
                    objective_value, regret_upper_bound, replicate_seed,
                    sample_estimates, welfare_value)
from netvax.objective import _csr, _healthy_share, _row_sums

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


def initial_gains(ctx):
    """Marginal gain of each unit at the empty allocation (fresh copy)."""
    return ctx._base_gain.copy()


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


def scipy_sym(ctx):
    """w + w^T as scipy builds it from the context's doubled raw triplets,
    with repeated entries summed."""
    sym = sparse.csr_array(
        (np.concatenate([ctx.spill_vals, ctx.spill_vals]),
         (np.concatenate([ctx.spill_rows, ctx.spill_cols]),
          np.concatenate([ctx.spill_cols, ctx.spill_rows]))),
        shape=(ctx.n_units, ctx.n_units))
    sym.sum_duplicates()
    return sym


def objective_sliced(ctx, alloc):
    """F as base gains plus half the w + w^T block sliced out of the
    context's CSR arrays by scipy, rows then columns, in ascending unit
    order; objective_value must equal it bit for bit without slicing."""
    idx = alloc.sorted_units()
    if idx.size == 0:
        return 0.0
    sym = sparse.csr_array((ctx._sym_vals, ctx._sym_cols, ctx._sym_indptr),
                           shape=(ctx.n_units, ctx.n_units))
    return float(ctx._base_gain[idx].sum()) + 0.5 * float(sym[idx][:, idx].sum())


def objective_edge_sum(ctx, units):
    """F via the per-entry sum c'v - sum_ij w_ij (v_i + v_j - v_i v_j)."""
    v = np.zeros(ctx.n_units)
    v[list(units)] = 1.0
    total = float(ctx.direct_gain @ v)
    for i, j, w in zip(ctx.spill_rows, ctx.spill_cols, ctx.spill_vals):
        total -= w * (v[i] + v[j] - v[i] * v[j])
    return total


def neighbors(graph, unit):
    """Sorted array of units adjacent to ``unit``, read from the adjacency
    that graph_arrays builds from the graph's edges."""
    if not 0 <= unit < graph.n_units:
        raise ValueError(f"unit {unit} out of range")
    _, adj, _, indptr = graph_arrays(graph.n_units, graph.edges)
    return adj[indptr[unit]:indptr[unit + 1]]


def _infection_load(unit: int, graph: "ContactGraph", pop: Population,
                    params: SirParams, vaccinated: np.ndarray) -> float:
    """Degree-normalized exposure of ``unit`` to infected unvaccinated neighbors."""
    nbrs = neighbors(graph, unit)
    if nbrs.size == 0:
        return 0.0
    live = pop.infected[nbrs] & ~vaccinated[nbrs]
    if not live.any():
        return 0.0
    src_groups = pop.group[nbrs[live]]
    own = int(pop.group[unit])
    count1 = int(np.count_nonzero(src_groups == GROUP1))
    count2 = int(src_groups.size - count1)
    denom = max(1, int(graph.degree[unit]))
    return (params.beta[own, GROUP1] * count1 + params.beta[own, GROUP2] * count2) / denom


def infection_rate(unit: int, graph: "ContactGraph", pop: Population,
                   params: SirParams, alloc: "Allocation",
                   mode: str = "linear") -> float:
    """One-period infection probability of ``unit`` given the allocation.

    mode="linear" returns the degree-normalized exposure itself; mode="exact"
    returns ``1 - exp(-exposure)``.  Defined for any unit regardless of its
    own state; vaccinated neighbors contribute nothing.
    """
    if mode not in ("linear", "exact"):
        raise ValueError(f"mode must be 'linear' or 'exact', got {mode!r}")
    if graph.n_units != pop.n_units:
        raise ValueError("graph and population sizes differ")
    z = float(_infection_load(unit, graph, pop, params, alloc.indicator(pop.n_units)))
    if mode == "linear":
        return z
    return -math.expm1(-z)


def transition_probabilities(unit: int, graph: "ContactGraph", pop: Population,
                             params: SirParams, alloc: "Allocation",
                             mode: str = "linear") -> tuple[float, float, float, float]:
    """One-period transition distribution (P_S, P_I, P_R, P_D) for ``unit``.

    A vaccinated unit moves to recovered with probability one.  Otherwise a
    susceptible unit is infected with the mode-dependent infection rate, an
    infected unit recovers/dies at its group's gamma/delta, and recovered
    units stay recovered.  The four probabilities sum to 1.
    """
    q = infection_rate(unit, graph, pop, params, alloc, mode)
    v = 1.0 if unit in alloc.selected else 0.0
    g = int(pop.group[unit])
    gamma = float(params.gamma[g])
    delta = float(params.delta[g])
    s = 1.0 if pop.state0[unit] == SUSCEPTIBLE else 0.0
    i = 1.0 if pop.state0[unit] == INFECTED else 0.0
    r = 1.0 if pop.state0[unit] == RECOVERED else 0.0
    stay_infected = 1.0 - gamma - delta

    p_s = (1.0 - v - q * (1.0 - v)) * s
    p_i = s * q * (1.0 - v) + i * stay_infected * (1.0 - v)
    p_r = v + (r + i * gamma) * (1.0 - v)
    p_d = i * delta * (1.0 - v)
    return (p_s, p_i, p_r, p_d)


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


def entry_error_bounds(graph, pop, n_external):
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


def er_row_scan(n_units, density, seed):
    """G(n, p) edges by the row-by-row pair scan: one ``rng.random`` call and
    one ``np.nonzero`` per row i, over the pairs (i, i+1 .. n-1)."""
    rng = np.random.default_rng(seed)
    srcs = []
    dsts = []
    for i in range(n_units - 1):
        draws = rng.random(n_units - 1 - i)
        hit = np.nonzero(draws < density)[0]
        if hit.size:
            srcs.append(np.full(hit.size, i, dtype=np.int64))
            dsts.append(hit.astype(np.int64) + i + 1)
    if srcs:
        return np.column_stack([np.concatenate(srcs), np.concatenate(dsts)])
    return np.empty((0, 2), dtype=np.int64)


def er_skip_by_gap(n_units, density, seed):
    """G(n, p) edges by geometric skipping, one scalar ``rng.geometric`` call
    per gap, with each flat pair index mapped to its (i, j) by walking the
    rows; density 0 draws nothing."""
    rng = np.random.default_rng(seed)
    edges = []
    i, row_start, flat = 0, 0, -1  # row_start: flat index of (i, i + 1)
    while density > 0:
        flat += int(rng.geometric(density))
        while i < n_units - 1 and flat >= row_start + n_units - 1 - i:
            row_start += n_units - 1 - i
            i += 1
        if i >= n_units - 1:
            break
        edges.append((i, flat - row_start + i + 1))
    return np.array(edges, dtype=np.int64).reshape(-1, 2)


def graph_arrays(n_units, edges):
    """(edges, adjacency, degree, indptr) of a graph built by pair dedup with
    ``np.unique(axis=0)`` and an adjacency ``np.lexsort`` on (src, dst)."""
    arr = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    lo = np.minimum(arr[:, 0], arr[:, 1])
    hi = np.maximum(arr[:, 0], arr[:, 1])
    pairs = np.unique(np.column_stack([lo, hi]), axis=0) if arr.size else arr
    src = np.concatenate([pairs[:, 0], pairs[:, 1]])
    dst = np.concatenate([pairs[:, 1], pairs[:, 0]])
    adj = dst[np.lexsort((dst, src))]
    degree = np.bincount(src, minlength=n_units)
    return pairs, adj, degree, np.concatenate([[0], np.cumsum(degree)])


def _infected_exposures(graph, pop):
    """Both orientations (i, j) of every edge whose source j is infected,
    first (lo, hi) then (hi, lo): the nonzeros of the exposure matrix."""
    e = graph.edges
    i = np.concatenate([e[:, 0], e[:, 1]])
    j = np.concatenate([e[:, 1], e[:, 0]])
    keep = pop.infected[j]
    return i[keep], j[keep]


def build_context_direct(graph, pop, params):
    """The objective compiled in one pass through the public, validating
    ObjectiveContext constructor, which sorts the doubled triplets itself."""
    n = graph.n_units
    if pop.n_units != n:
        raise ValueError(f"graph has {n} units but population has {pop.n_units}")
    gamma_own = params.gamma[pop.group]
    c = pop.weight * (1.0 - pop.recovered - gamma_own * pop.infected - pop.susceptible) / n
    i, j = _infected_exposures(graph, pop)
    rate = params.beta[pop.group[i], pop.group[j]]
    deg = np.maximum(graph.degree, 1).astype(float)
    sus = pop.susceptible[i]
    rows = i[sus]
    vals = -pop.weight[rows] * rate[sus] / (deg[rows] * n)
    z = np.bincount(i, rate, minlength=n) / deg
    const = _healthy_share(pop, params, np.arange(0), z[pop.susceptible], "linear")
    return ObjectiveContext(n, c, rows, j[sus], vals, const)


def exact_welfare_evaluator(graph, pop, params):
    """Exact-mode welfare_value for blocks of allocations, with its own two
    CSR layouts of the exposure entries: one sorted by exposed unit, one by
    infecting source.  Returns a function mapping an (m, k) block of
    vaccinated unit indices to its (m,) welfare values: one bincount over
    the block's (allocation, infecting source, exposed unit) entries, then
    the healthy share of each row alone."""
    n = graph.n_units
    i, j = _infected_exposures(graph, pop)
    rate = params.beta[pop.group[i], pop.group[j]]
    deg = np.maximum(graph.degree, 1).astype(float)
    keep = pop.susceptible[i]
    i, j, b = i[keep], j[keep], (rate / deg[i])[keep]
    ptr, _, _, by_row = _csr(n, i, j, b)
    z_empty = _row_sums(ptr, by_row)[pop.susceptible]
    src_ptr, _, exposed, by_src = _csr(n, j, i, b)
    exposed = (np.cumsum(pop.susceptible) - 1)[exposed]
    s, out_deg = z_empty.size, np.diff(src_ptr)

    def welfare(idx):
        idx = np.sort(idx, axis=1)
        m, k = idx.shape
        flat = idx.ravel()
        count = out_deg[flat]
        pair = np.flatnonzero(count)
        count = count[pair]
        entry = (np.repeat(src_ptr[flat[pair]] - np.cumsum(count) + count, count)
                 + np.arange(count.sum()))
        cell = np.repeat(pair // k * s, count) + exposed[entry]
        z = np.bincount(cell, by_src[entry], minlength=m * s).reshape(m, s)
        z = np.subtract(z_empty, z, out=z.astype(float, copy=False))
        return np.array([_healthy_share(pop, params, row, z_row, "exact")
                         for row, z_row in zip(idx, z)])
    return welfare


def pairwise_dense(ctx):
    """Dense w + w^T from the context's CSR arrays."""
    out = np.zeros((ctx.n_units, ctx.n_units))
    out[ctx._sym_rows, ctx._sym_cols] = ctx._sym_vals
    return out


def _combo_chunks(n, k, chunk):
    """The size-k subsets of range(n) in lexicographic order, as (rows, k)
    blocks of chunk rows; the last block holds the remainder."""
    flat = itertools.chain.from_iterable(itertools.combinations(range(n), k))
    total = math.comb(n, k)
    for start in range(0, total, chunk):
        rows = min(chunk, total - start)
        yield np.fromiter(flat, dtype=np.int64, count=rows * k).reshape(rows, k)


def streamed_optimum(ctx, d):
    """The maximum of F over the size-min(d, n) subsets, enumerated in
    streamed blocks of 2,000,000 / k^2 rows, with pair values gathered by
    fancy indexing from the dense w + w^T."""
    k = min(d, ctx.n_units)
    pair = pairwise_dense(ctx)
    best = -np.inf
    for combos in _combo_chunks(ctx.n_units, k, max(1, 2_000_000 // max(k * k, 1))):
        vals = ctx._base_gain[combos].sum(axis=1)
        vals += 0.5 * pair[combos[:, :, None], combos[:, None, :]].sum(axis=(1, 2))
        best = max(best, vals.max())
    return float(best)


def save_edge_list_by_line(graph, sink):
    """The edge-list format written one edge, one sink.write at a time."""
    sink.write(f"n_units={graph.n_units}\n")
    for i, j in graph.edges:
        sink.write(f"{i} {j}\n")


def regret_study_by_estimate(config):
    """harness.run_regret_study one estimate at a time: for each replication,
    sample_estimates, a fresh build_context, greedy_capacity (and brute_force
    with use_brute) on it and objective_value of its choice on the truth,
    then the means of the gaps in Python floats."""
    exp, d = config.experiment, config.capacity
    params = exp.params()
    inst = draw_instance(exp.n_units, exp.density, params, exp.group1_probability,
                         exp.initial_states, exp.weights, replicate_seed(exp.seed, 0))
    search = brute_force if config.use_brute else greedy_capacity
    f_true_star = search(inst.ctx, d).f_value
    rows = []
    for gi, n_external in enumerate(config.n_grid):
        noise = EstimationNoiseModel(n_external)
        gaps = []
        for rep in range(config.replications):
            est = sample_estimates(params, noise, replicate_seed(
                exp.seed, 1_000_000 + gi * config.replications + rep))
            ctx = build_context(inst.graph, inst.pop, est)
            chosen = greedy_capacity(ctx, d)
            f_est_star = search(ctx, d).f_value if config.use_brute else chosen.f_value
            f_true_chosen = objective_value(inst.ctx, chosen.allocation)
            gaps.append((f_true_star - f_est_star, f_est_star - chosen.f_value,
                         chosen.f_value - f_true_chosen, f_true_star - f_true_chosen))
        gap1, gap2, gap3, total = (list(column) for column in zip(*gaps))
        bound = regret_upper_bound(exp.n_units, d, int(inst.graph.degree.max()),
                                   int(inst.pop.infected.sum()),
                                   float(inst.pop.weight.max()), n_external, f_true_star)
        mean_total = float(np.mean(total))
        rows.append(RegretStudyRow(
            n_external=n_external, replications=config.replications, capacity=d,
            mean_total=mean_total, mean_estimation_gap=float(np.mean(gap1)),
            mean_optimization_gap=float(np.mean(gap2)),
            mean_evaluation_gap=float(np.mean(gap3)),
            mean_noise_gap=float(np.mean([abs(a) + abs(b) for a, b in zip(gap1, gap3)])),
            bound=bound, slack=bound - mean_total))
    return rows
