"""End-to-end acceptance checks.

One test per numbered criterion; each prints a single pass/fail line
(visible with pytest -s, or in captured output on failure).  The heavy
fixtures are module-scoped so the 50-instance grid and the 100-network
experiment run once.
"""

import time

import numpy as np
import pytest

from netvax import (
    GROUP1,
    PARAMETER_SETS,
    Allocation,
    ExperimentConfig,
    EstimationNoiseModel,
    ObjectiveContext,
    brute_force,
    check_submodular,
    draw_instance,
    empirical_regret,
    greedy_capacity,
    greedy_factor,
    greedy_targeting,
    objective_value,
    replicate_seed,
    run_experiment,
    sample_estimates,
    welfare_value,
)

from _oracles import DEFAULT_DIST, grid_instances, matroid_brute


def report(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def grid_records():
    start = time.perf_counter()
    records = []
    for inst, d, label in grid_instances(50):
        g = greedy_capacity(inst.ctx, d)
        b = brute_force(inst.ctx, d)
        records.append((label, d, g.f_value, b.f_value))
    return records, time.perf_counter() - start


@pytest.fixture(scope="module")
def density_grid():
    out = []
    for j, density in enumerate((0.1, 0.5, 1.0)):
        inst = draw_instance(20, density, PARAMETER_SETS["set1"], 0.4,
                             DEFAULT_DIST, (1.0, 1.0), replicate_seed(2000, j))
        out.append((density, inst))
    return out


@pytest.fixture(scope="module")
def desk_scale():
    start = time.perf_counter()
    rows = run_experiment(ExperimentConfig(n_units=500, density=0.1))
    return rows, time.perf_counter() - start


def test_criterion_1_greedy_is_optimal_at_small_scale(grid_records):
    records, elapsed = grid_records
    worst = max(abs(g - b) for _, _, g, b in records)
    ok = worst <= 1e-12 and elapsed < 10.0
    report(1, ok, f"greedy equals brute force on all 50 instances "
                  f"(max gap {worst:.2e}, {elapsed:.2f}s)")


def test_criterion_2_approximation_sandwich(grid_records):
    records, _ = grid_records
    ok = True
    worst_label = ""
    for label, d, g, b in records:
        factor = greedy_factor(d)
        if d == 1 and factor != 1.0:
            ok, worst_label = False, f"factor at d=1 is {factor}"
            break
        if factor < 0.6321:
            ok, worst_label = False, f"factor {factor} below 1 - 1/e at {label}"
            break
        if not (factor * b - 1e-12 <= g <= b + 1e-12):
            ok, worst_label = False, f"sandwich broken at {label}"
            break
    report(2, ok, worst_label or
           "factor * optimum <= greedy <= optimum on all 50 instances, "
           "factor 1 at d=1, always above 0.6321")


def test_criterion_3_targeting_half_guarantee():
    sizes = (12, 14, 16)
    densities = (0.1, 0.5, 1.0)
    caps = ((4, 2, 2), (3, 1, 2), (5, 2, 3), (4, 1, 3), (6, 3, 3))
    worst_ratio = np.inf
    ok = True
    for i in range(30):
        n = sizes[i % 3]
        density = densities[(i // 3) % 3]
        d, d1, d2 = caps[i % 5]
        pset = ("set1", "set2")[i % 2]
        inst = draw_instance(n, density, PARAMETER_SETS[pset], 0.4,
                             DEFAULT_DIST, (1.0, 1.0), replicate_seed(3000, i))
        res = greedy_targeting(inst.ctx, d, d1, d2, inst.pop.group)
        _, opt = matroid_brute(inst.ctx, d, d1, d2, inst.pop.group)
        if res.f_value < 0.5 * opt - 1e-12:
            ok = False
        if opt > 0:
            worst_ratio = min(worst_ratio, res.f_value / opt)
    report(3, ok, f"targeting greedy kept >= 1/2 of the constrained optimum "
                  f"on all 30 instances (worst ratio {worst_ratio:.4f})")


def test_criterion_4_submodularity_suite_and_mutant(density_grid):
    ok = True
    detail = []
    for density, inst in density_grid:
        clean = check_submodular(inst.ctx, trials=1000, seed=41)
        if not clean.passed:
            ok = False
            detail.append(f"violation at density {density:g}: {clean.counterexample}")
            continue
        vals = inst.ctx.spill_vals.copy()
        vals[int(np.argmin(vals))] *= -1.0
        broken = ObjectiveContext(inst.ctx.n_units, inst.ctx.direct_gain.copy(),
                                  inst.ctx.spill_rows.copy(),
                                  inst.ctx.spill_cols.copy(), vals,
                                  inst.ctx.welfare_constant)
        mutant = check_submodular(broken, trials=2000, seed=41)
        if mutant.passed:
            ok = False
            detail.append(f"flipped weight NOT caught at density {density:g}")
    report(4, ok, "; ".join(detail) or
           "1000 chain triples per density clean at 1e-12; flipped spillover "
           "weight detected at every density")


def test_criterion_5_welfare_offset_identity(density_grid):
    rng = np.random.default_rng(55)
    worst = 0.0
    for density, inst in density_grid:
        n = inst.pop.n_units
        offsets = []
        for _ in range(100):
            k = int(rng.integers(0, n + 1))
            units = frozenset(rng.choice(n, size=k, replace=False).tolist())
            alloc = Allocation(units, n)
            offsets.append(
                welfare_value(inst.graph, inst.pop, inst.params, alloc)
                - objective_value(inst.ctx, alloc))
        worst = max(worst, max(offsets) - min(offsets))
    report(5, worst <= 1e-12,
           f"W - F constant over 100 allocations per instance "
           f"(max spread {worst:.2e})")


def test_criterion_6_baseline_improvement_band(desk_scale):
    rows, elapsed = desk_scale
    by = {(r.policy, r.capacity_fraction): r for r in rows}
    ok = elapsed < 120.0
    parts = [f"{elapsed:.0f}s"]
    for frac in (0.07, 0.10, 0.20):
        g = by[("greedy", frac)].mean_welfare
        for baseline in ("random", "twni"):
            gap = 100.0 * (g - by[(baseline, frac)].mean_welfare)
            parts.append(f"d={frac:g} vs {baseline}: +{gap:.1f}pts")
            if not (gap > 0.0 and 2.0 <= gap <= 20.0):
                ok = False
    report(6, ok, "greedy beats both baselines at every capacity inside the "
                  "2-20 point band (" + ", ".join(parts) + ")")


def test_criterion_7_weights_steer_doses_to_young():
    # initial prevalence 0.3: at the default 0.2 only ~40 young units are
    # infected, too few for the top 35 gains to all land in the young group
    dist = ((0.6, 0.3, 0.1), (0.6, 0.3, 0.1))
    params = PARAMETER_SETS["set1"]
    d = 35  # 7% of 500
    weak = full = 0
    reps = 100
    for k in range(reps):
        seed_k = replicate_seed(0, k)
        base = draw_instance(500, 0.1, params, 0.4, dist, (1.0, 1.0), seed_k)
        lifted = draw_instance(500, 0.1, params, 0.4, dist, (1.5, 1.0), seed_k)

        def pct_young(inst):
            idx = greedy_capacity(inst.ctx, d).allocation.sorted_units()
            return 100.0 * int((inst.pop.group[idx] == GROUP1).sum()) / idx.size

        p_equal, p_lifted = pct_young(base), pct_young(lifted)
        weak += p_lifted >= p_equal - 1e-9
        full += p_lifted == 100.0
    ok = weak == reps and full >= 0.9 * reps
    report(7, ok, f"raising g1 to 1.5 weakly lifted the young share on "
                  f"{weak}/{reps} replicates and saturated at 100% on "
                  f"{full}/{reps}")


def test_criterion_8_regret_decay():
    """Regret of greedy on estimated parameters: zero without noise, each
    grid point's mean total under the finite-sample bound, each total the
    sum of its three gaps, and the noise part decaying at a slope near -0.5
    in log n.

    EstimationNoiseModel sets the noise sd to 1 / (2 sqrt(n)), so a slope
    near -0.5 is largely an input, not a finding.  What carries information
    is that every row stays under the bound, that the gaps telescope to the
    total within 1e-12, and how much slack the bound leaves (the report
    prints both sides)."""
    params = PARAMETER_SETS["set1"]
    inst = draw_instance(20, 0.5, params, 0.4, DEFAULT_DIST, (1.0, 1.0),
                         replicate_seed(0, 0))

    zero = sample_estimates(params, EstimationNoiseModel(1000, scale=0.0), seed=1)
    zero_report = empirical_regret(inst.graph, inst.pop, params, zero, 3)
    ok = zero_report.total == 0.0
    parts = [f"zero-noise total {zero_report.total:g}"]

    replications = 200
    grid = (100, 1000, 10000)
    log_gaps = []
    for gi, n_external in enumerate(grid):
        noise = EstimationNoiseModel(n_external)
        totals, noise_gaps, bound = [], [], float("nan")
        for rep in range(replications):
            seed = replicate_seed(0, 1_000_000 + gi * replications + rep)
            est = sample_estimates(params, noise, seed)
            rpt = empirical_regret(inst.graph, inst.pop, params, est, 3,
                                   n_external=n_external)
            gap_sum = rpt.estimation_gap + rpt.optimization_gap + rpt.evaluation_gap
            if abs(gap_sum - rpt.total) > 1e-12:
                ok = False
            totals.append(rpt.total)
            noise_gaps.append(rpt.noise_gap)
            bound = rpt.bound
        mean_total = float(np.mean(totals))
        if not mean_total <= bound:
            ok = False
        log_gaps.append(np.log(np.mean(noise_gaps)))
        parts.append(f"n={n_external}: mean total {mean_total:.5f} <= bound {bound:.3f}")
    slope = float(np.polyfit(np.log(grid), log_gaps, 1)[0])
    if not -0.7 <= slope <= -0.3:
        ok = False
    parts.append(f"noise-part slope {slope:.3f}")
    report(8, ok, "; ".join(parts))


def test_criterion_9_greedy_speed():
    inst = draw_instance(800, 0.5, PARAMETER_SETS["set1"], 0.4,
                         DEFAULT_DIST, (1.0, 1.0), replicate_seed(0, 0))
    start = time.perf_counter()
    res = greedy_capacity(inst.ctx, 160)
    elapsed = time.perf_counter() - start
    ok = elapsed < 1.0 and len(res.allocation.selected) == 160
    report(9, ok, f"greedy at N=800, d=160, density 0.5 took {elapsed*1000:.0f}ms")
