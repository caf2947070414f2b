import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netvax import (
    MEAN_DEVIATION_COEF,
    UNIVERSAL_CONSTANT,
    Allocation,
    BudgetError,
    ContactGraph,
    ContextPattern,
    EstimationNoiseModel,
    ExperimentConfig,
    Population,
    RegretStudyConfig,
    SirParams,
    brute_force,
    build_context,
    empirical_regret,
    greedy_capacity,
    greedy_targeting,
    objective_value,
    regret_upper_bound,
    replicate_seed,
    run_regret_study,
    sample_estimates,
)
from netvax import solvers
from netvax.harness import instance_on_graph
from netvax.regret import decompose_regret

from _oracles import entry_error_bounds, er_row_scan, matroid_brute, small_instance

SET1 = SirParams(beta=[[0.7, 0.5], [0.5, 0.6]], gamma=[0.1, 0.05], delta=[0.0, 0.0])


def test_constants_frozen():
    assert MEAN_DEVIATION_COEF == 0.9200943377067227
    assert UNIVERSAL_CONSTANT == 2.1786724661940027


def test_constants_against_high_precision_oracle():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40
    coef = mpmath.sqrt((1 + mpmath.log(2)) / 2)
    assert abs(MEAN_DEVIATION_COEF - float(coef)) < 1e-15
    assert abs(UNIVERSAL_CONSTANT - float((2 + mpmath.exp(-1)) * coef)) < 1e-15


def test_noise_model_validation():
    with pytest.raises(ValueError):
        EstimationNoiseModel(0)
    with pytest.raises(ValueError):
        EstimationNoiseModel(100, scale=-0.1)
    assert EstimationNoiseModel(100).effective_scale == 0.05
    assert EstimationNoiseModel(100, scale=0.2).effective_scale == 0.2
    assert EstimationNoiseModel(400).effective_scale == 0.025


def test_zero_scale_reproduces_parameters():
    noise = EstimationNoiseModel(100, scale=0.0)
    est = sample_estimates(SET1, noise, seed=5)
    assert np.array_equal(est.beta, SET1.beta)
    assert np.array_equal(est.gamma, SET1.gamma)
    assert np.array_equal(est.delta, SET1.delta)


def test_sample_estimates_deterministic():
    noise = EstimationNoiseModel(100)
    a = sample_estimates(SET1, noise, seed=3)
    b = sample_estimates(SET1, noise, seed=3)
    c = sample_estimates(SET1, noise, seed=4)
    assert np.array_equal(a.beta, b.beta) and np.array_equal(a.gamma, b.gamma)
    assert not np.array_equal(a.beta, c.beta)


def test_sample_estimates_clip_to_valid_ranges():
    params = SirParams(beta=[[0.95, 0.05], [0.5, 0.9]], gamma=[0.9, 0.05],
                       delta=[0.1, 0.0])
    noise = EstimationNoiseModel(1, scale=2.0)
    for seed in range(50):
        est = sample_estimates(params, noise, seed=seed)
        assert np.all(est.beta >= 0.0) and np.all(est.beta <= 1.0)
        assert np.all(est.gamma >= 0.0)
        assert np.all(est.gamma + est.delta <= 1.0 + 1e-15)
        assert np.array_equal(est.delta, params.delta)


def test_sub_gaussian_tail_frequency():
    # P{|beta_hat - beta| >= 0.1} <= 2 exp(-2 * 100 * 0.01) at n = 100
    noise = EstimationNoiseModel(100)
    hits = 0
    draws = 2000
    for seed in range(draws):
        est = sample_estimates(SET1, noise, seed=seed)
        if abs(est.beta[0, 0] - 0.7) >= 0.1:
            hits += 1
    assert hits / draws <= 0.2706705664732254


def test_entry_error_bounds_frozen_value():
    graph = ContactGraph(10, [(0, 1)])
    state = np.zeros(10, dtype=np.int8)
    state[1] = 1
    pop = Population(state0=state, group=np.zeros(10, dtype=np.int8),
                     weight=np.ones(10))
    spill_bounds, direct_bounds = entry_error_bounds(graph, pop, 100)
    spill_bounds = spill_bounds.toarray()
    assert abs(spill_bounds[0, 1] - 0.009200943377067226) < 5e-18
    assert spill_bounds[1, 0] == spill_bounds[0, 1]
    assert spill_bounds.sum() == spill_bounds[0, 1] + spill_bounds[1, 0]
    assert direct_bounds[1] == spill_bounds[0, 1]
    assert np.all(direct_bounds[2:] == 0.0)
    with pytest.raises(ValueError):
        entry_error_bounds(graph, pop, 0)


def test_entry_error_bounds_dominate_monte_carlo_means():
    inst = small_instance(1, n=10, density=0.6)
    n_external = 100
    noise = EstimationNoiseModel(n_external)
    spill_bounds, direct_bounds = entry_error_bounds(inst.graph, inst.pop, n_external)
    spill_bounds = spill_bounds.toarray()

    n = inst.pop.n_units
    spill_err = np.zeros((n, n))
    direct_err = np.zeros(n)
    draws = 400
    for seed in range(draws):
        est = sample_estimates(inst.params, noise, seed=seed)
        ctx_est = build_context(inst.graph, inst.pop, est)
        w_est = np.zeros((n, n))
        np.add.at(w_est, (ctx_est.spill_rows, ctx_est.spill_cols), ctx_est.spill_vals)
        w_true = np.zeros((n, n))
        np.add.at(w_true, (inst.ctx.spill_rows, inst.ctx.spill_cols), inst.ctx.spill_vals)
        spill_err += np.abs(w_est - w_true)
        direct_err += np.abs(ctx_est.direct_gain - inst.ctx.direct_gain)
    assert np.all(spill_err / draws <= spill_bounds + 1e-12)
    assert np.all(direct_err / draws <= direct_bounds + 1e-12)


def test_regret_decomposition_telescopes():
    noise = EstimationNoiseModel(100)
    for seed in range(10):
        inst = small_instance(seed, n=12, density=0.5)
        est = sample_estimates(inst.params, noise, seed=seed + 100)
        report = empirical_regret(inst.graph, inst.pop, inst.params, est, d=3)
        gaps = report.estimation_gap + report.optimization_gap + report.evaluation_gap
        assert abs(gaps - report.total) <= 1e-12
        assert report.capacity == 3
        assert not report.approximate
        assert math.isnan(report.bound)
        assert report.noise_gap >= 0.0


def test_zero_noise_regret_is_exactly_zero():
    noise = EstimationNoiseModel(1000, scale=0.0)
    for seed in range(5):
        inst = small_instance(seed, n=12, density=0.5)
        est = sample_estimates(inst.params, noise, seed=seed)
        report = empirical_regret(inst.graph, inst.pop, inst.params, est, d=3)
        assert report.total == 0.0
        assert report.optimization_gap == 0.0


def test_regret_report_carries_bound_when_sample_size_given():
    inst = small_instance(0, n=12, density=0.5)
    noise = EstimationNoiseModel(100)
    est = sample_estimates(inst.params, noise, seed=9)
    report = empirical_regret(inst.graph, inst.pop, inst.params, est, d=3,
                              n_external=100)
    assert report.bound > 0.0
    assert report.total <= report.bound
    assert report.max_degree == int(inst.graph.degree.max())
    assert report.n_infected == int(inst.pop.infected.sum())


def test_approximate_flag_with_greedy_optima():
    inst = small_instance(0, n=12, density=0.5)
    est = sample_estimates(inst.params, EstimationNoiseModel(100), seed=1)
    report = empirical_regret(inst.graph, inst.pop, inst.params, est, d=3,
                              use_brute=False)
    assert report.approximate


@pytest.mark.parametrize("use_brute", [True, False])
def test_zero_capacity_regret_is_zero_in_both_modes(use_brute):
    inst = small_instance(3, n=12, density=0.5)
    est = sample_estimates(inst.params, EstimationNoiseModel(100), seed=4)
    report = empirical_regret(inst.graph, inst.pop, inst.params, est, d=0,
                              use_brute=use_brute, n_external=100)
    assert (report.estimation_gap, report.optimization_gap, report.evaluation_gap,
            report.total) == (0.0, 0.0, 0.0, 0.0)
    assert report.capacity == 0
    assert report.approximate is (not use_brute)
    assert report.bound == regret_upper_bound(12, 0, report.max_degree,
                                              report.n_infected, report.max_weight,
                                              100, 0.0)


@pytest.mark.parametrize("seed, n, density", [(0, 6, 0.5), (1, 9, 0.3), (2, 12, 0.8),
                                              (3, 10, 1.0), (4, 1, 0.0)])
def test_true_optimum_is_that_of_the_public_solvers(seed, n, density):
    inst = small_instance(seed, n=n, density=density)
    pattern = ContextPattern(inst.graph, inst.pop)
    ctx = pattern.context(inst.params)
    est = sample_estimates(inst.params, EstimationNoiseModel(100), seed)
    for d in range(n + 2):
        for use_brute in (True, False):
            f_star, gaps = decompose_regret(pattern, inst.params, d, use_brute,
                                            est.beta[None], est.gamma[None])
            assert gaps.shape == (4, 1)
            if d == 0:
                assert f_star.hex() == (0.0).hex()
            elif use_brute:
                assert f_star.hex() == brute_force(ctx, d).f_value.hex()
            else:
                assert f_star.hex() == greedy_capacity(ctx, d).f_value.hex()


def test_empirical_regret_refuses_past_node_budget(monkeypatch):
    # outside the dominance regime (beta = 1 > 1 - gamma) greedy falls short
    # of the optimum, and the truth's and the estimate's searches run past
    # their roots; their nodes count against one budget
    # the pair scan's G(12, 0.5) network on draw_instance's graph seed for seed
    # 2; on erdos_renyi's network for that seed greedy is optimal at the root
    params = SirParams(beta=np.ones((2, 2)), gamma=[0.9, 0.9], delta=[0.0, 0.0])
    graph_seed = int(np.random.default_rng(2).integers(0, 2**63 - 1))
    graph = ContactGraph(12, er_row_scan(12, 0.5, graph_seed))
    inst = instance_on_graph(graph, params, 0.4, ((0.5, 0.5, 0.0),) * 2, (1.0, 1.0), 2)
    est = sample_estimates(params, EstimationNoiseModel(100), 2)
    truth = brute_force(inst.ctx, 3)
    assert truth.f_value > greedy_capacity(inst.ctx, 3).f_value + 1e-3
    estimate = brute_force(build_context(inst.graph, inst.pop, est), 3)
    assert truth.rounds > 1 and estimate.rounds > 1
    nodes = truth.rounds + estimate.rounds
    report = empirical_regret(inst.graph, inst.pop, params, est, d=3, n_external=100)
    monkeypatch.setattr(solvers, "NODE_BUDGET", nodes)
    assert empirical_regret(inst.graph, inst.pop, params, est, d=3, n_external=100) == report
    monkeypatch.setattr(solvers, "NODE_BUDGET", nodes - 1)
    with pytest.raises(BudgetError, match=f"budget of {nodes - 1} nodes"):
        empirical_regret(inst.graph, inst.pop, params, est, d=3)
    # greedy mode searches nothing
    monkeypatch.setattr(solvers, "NODE_BUDGET", 0)
    assert empirical_regret(inst.graph, inst.pop, params, est, d=3, use_brute=False).approximate


def test_bound_floor_and_monotonicity():
    f_star = 0.8
    floor = regret_upper_bound(20, 0, 5, 4, 1.0, 100, f_star)
    assert floor == f_star / math.e
    prev = float("inf")
    for n_external in (10, 100, 1000, 10000):
        b = regret_upper_bound(20, 3, 5, 4, 1.0, n_external, f_star)
        assert b < prev
        assert b > f_star / math.e
        prev = b
    # noise part scales as sqrt(1/n): quadrupling n halves the gap to the floor
    g1 = regret_upper_bound(20, 3, 5, 4, 1.0, 100, f_star) - f_star / math.e
    g2 = regret_upper_bound(20, 3, 5, 4, 1.0, 400, f_star) - f_star / math.e
    assert abs(g2 - g1 / 2) < 1e-12


def test_bound_validation():
    with pytest.raises(ValueError):
        regret_upper_bound(0, 1, 1, 1, 1.0, 100, 0.5)
    with pytest.raises(ValueError):
        regret_upper_bound(10, 1, 1, 1, 1.0, 0, 0.5)
    with pytest.raises(ValueError):
        regret_upper_bound(10, -1, 1, 1, 1.0, 100, 0.5)


def test_mean_total_regret_within_bound():
    inst = small_instance(2, n=12, density=0.5)
    d = 2
    n_external = 100
    noise = EstimationNoiseModel(n_external)
    totals = []
    bound = None
    for rep in range(60):
        est = sample_estimates(inst.params, noise, seed=500 + rep)
        report = empirical_regret(inst.graph, inst.pop, inst.params, est, d,
                                  n_external=n_external)
        totals.append(report.total)
        bound = report.bound
    assert float(np.mean(totals)) <= bound


def test_targeted_choice_on_estimates_stays_near_constrained_optimum():
    # the half-approximation survives estimation error: the true value lost
    # by targeting on estimates is at most half the constrained optimum plus
    # a multiple of the worst feasible-set evaluation error
    import itertools

    noise = EstimationNoiseModel(200)
    for seed in range(5):
        inst = small_instance(seed, n=10, density=0.5)
        groups = inst.pop.group
        d, d1, d2 = 4, 2, 2
        _, opt = matroid_brute(inst.ctx, d, d1, d2, groups)
        est = sample_estimates(inst.params, noise, seed=seed + 50)
        ctx_est = build_context(inst.graph, inst.pop, est)
        chosen = greedy_targeting(ctx_est, d, d1, d2, groups)
        achieved = objective_value(inst.ctx, chosen.allocation)

        sup_err = 0.0
        n = inst.pop.n_units
        for size in range(0, d + 1):
            for combo in itertools.combinations(range(n), size):
                picked = np.asarray(combo, dtype=int)
                if picked.size and int((groups[picked] == 0).sum()) > d1:
                    continue
                if picked.size and int((groups[picked] == 1).sum()) > d2:
                    continue
                alloc = Allocation(frozenset(combo), d)
                err = abs(objective_value(ctx_est, alloc) - objective_value(inst.ctx, alloc))
                sup_err = max(sup_err, err)
        assert opt - achieved <= 2.5 * sup_err + 0.5 * opt + 1e-9


@settings(max_examples=40, deadline=None)
@given(density=st.floats(0.1, 0.9), infected=st.floats(0.05, 0.6),
       n=st.integers(8, 20), pset=st.sampled_from(["set1", "set2"]),
       seed=st.integers(0, 2**32 - 1))
def test_regret_bound_and_rate_across_network_riskiness(density, infected, n, pset, seed):
    # criterion 8's checks on networks of every riskiness: sparse to dense,
    # few to many infected units
    dist = (0.9 - infected, infected, 0.1)
    exp = ExperimentConfig(n_units=n, density=density, parameter_set=pset,
                           initial_states=(dist, dist), seed=seed)
    grid = (100, 1000, 10000)
    rows = run_regret_study(RegretStudyConfig(exp, capacity=3, n_grid=grid,
                                              replications=100, use_brute=True))
    for row in rows:
        assert row.mean_total <= row.bound
        assert abs(row.mean_estimation_gap + row.mean_optimization_gap
                   + row.mean_evaluation_gap - row.mean_total) <= 1e-12
        assert row.mean_optimization_gap >= -1e-12
    if not exp.instance(replicate_seed(seed, 0)).pop.infected.any():
        # with no infected unit F is 0 for every rate set: no regret
        assert all(gap == 0.0 for row in rows
                   for gap in (row.mean_total, row.mean_estimation_gap,
                               row.mean_optimization_gap, row.mean_evaluation_gap,
                               row.mean_noise_gap))
    noise = [row.mean_noise_gap for row in rows]
    if all(gap > 0 for gap in noise):
        slope = float(np.polyfit(np.log(grid), np.log(noise), 1)[0])
        assert -0.7 <= slope <= -0.3
