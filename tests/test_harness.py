import dataclasses
import hashlib
import io
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netvax import (
    GROUP1,
    GROUP2,
    PARAMETER_SETS,
    BudgetError,
    ConfigError,
    ContactGraph,
    ContextPattern,
    EstimationNoiseModel,
    ExperimentConfig,
    Population,
    RegretStudyConfig,
    RegretStudyRow,
    SirParams,
    draw_instance,
    empirical_regret,
    emit_csv,
    emit_regret_csv,
    erdos_renyi,
    parse_experiment_config,
    parse_regret_config,
    replicate_seed,
    run_experiment,
    run_property_checks,
    run_regret_study,
    sample_estimates,
)
from netvax import harness, objective, regret, solvers
from netvax.harness import instance_on_graph, run_policy

from _oracles import DEFAULT_DIST, experiment_by_cell, regret_study_by_estimate
from test_properties import CONTEXT_ARRAYS


def test_replicate_seed_matches_direct_hash():
    for root, index in ((0, 0), (7, 3), (123456, 999)):
        digest = hashlib.sha256(f"{root}:{index}".encode()).digest()
        want = int.from_bytes(digest[:8], "big")
        assert replicate_seed(root, index) == want


def test_replicate_seed_spreads():
    seeds = {replicate_seed(0, k) for k in range(200)}
    assert len(seeds) == 200
    assert replicate_seed(0, 1) != replicate_seed(1, 0)


def test_parameter_set_values():
    set1 = PARAMETER_SETS["set1"]
    assert set1.beta.tolist() == [[0.7, 0.5], [0.5, 0.6]]
    assert set1.gamma.tolist() == [0.1, 0.05]
    assert set1.delta.tolist() == [0.0, 0.0]
    set2 = PARAMETER_SETS["set2"]
    assert set2.beta.tolist() == [[0.8, 0.5], [0.7, 0.7]]
    assert set2.gamma.tolist() == [0.1, 0.025]


def test_draw_instance_deterministic():
    params = PARAMETER_SETS["set1"]
    a = draw_instance(30, 0.3, params, 0.4, DEFAULT_DIST, (1.0, 1.0), 5)
    b = draw_instance(30, 0.3, params, 0.4, DEFAULT_DIST, (1.0, 1.0), 5)
    c = draw_instance(30, 0.3, params, 0.4, DEFAULT_DIST, (1.0, 1.0), 6)
    assert a.graph == b.graph
    assert np.array_equal(a.pop.state0, b.pop.state0)
    assert np.array_equal(a.pop.group, b.pop.group)
    assert not (a.graph == c.graph and np.array_equal(a.pop.state0, c.pop.state0))


def test_draw_instance_marginals_within_three_sigma():
    params = PARAMETER_SETS["set1"]
    inst = draw_instance(2000, 0.01, params, 0.4, DEFAULT_DIST, (1.0, 1.0), 17)
    n_young = int((inst.pop.group == GROUP1).sum())
    # Binomial(2000, 0.4): sd ~ 21.9
    assert abs(n_young - 800) <= 66
    n_sus = int(inst.pop.susceptible.sum())
    n_inf = int(inst.pop.infected.sum())
    # Binomial(2000, 0.7): sd ~ 20.5; Binomial(2000, 0.2): sd ~ 17.9
    assert abs(n_sus - 1400) <= 62
    assert abs(n_inf - 400) <= 54


def test_draw_instance_group_weights():
    params = PARAMETER_SETS["set1"]
    inst = draw_instance(50, 0.2, params, 0.5, DEFAULT_DIST, (1.5, 1.0), 3)
    young = inst.pop.group == GROUP1
    assert np.all(inst.pop.weight[young] == 1.5)
    assert np.all(inst.pop.weight[~young] == 1.0)


def test_draw_instance_state_distribution_per_group():
    params = PARAMETER_SETS["set1"]
    dist = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0))
    inst = draw_instance(200, 0.1, params, 0.5, dist, (1.0, 1.0), 9)
    young = inst.pop.group == GROUP1
    assert np.all(inst.pop.susceptible[young])
    assert np.all(inst.pop.infected[~young])


def test_parse_minimal_config_applies_defaults():
    config = parse_experiment_config("n_units=30\ndensity=0.2\n")
    assert config.n_units == 30
    assert config.density == 0.2
    assert config.n_networks == 100
    assert config.parameter_set == "set1"
    assert config.group1_probability == 0.4
    assert config.initial_states == ((0.7, 0.2, 0.1), (0.7, 0.2, 0.1))
    assert config.capacity_fractions == (0.07, 0.1, 0.2)
    assert config.weights == (1.0, 1.0)
    assert config.policies == ("greedy", "random", "twni")
    assert config.seed == 0
    assert config.mode == "linear"
    assert config.targeting_fractions is None


def test_parse_full_config():
    text = """
# comparison run
n_units = 40
density = 0.5
n_networks = 7
parameter_set = set2
group1_probability = 0.3
initial_states_g1 = 0.6,0.3,0.1
initial_states_g2 = 0.8,0.1,0.1
capacity_fractions = 0.05,0.15
weights = 1.5,1
policies = greedy,brute
random_draws = 500
seed = 11
mode = exact
targeting_fractions = 0.1,0.2
"""
    config = parse_experiment_config(text)
    assert config.n_networks == 7
    assert config.parameter_set == "set2"
    assert config.initial_states == ((0.6, 0.3, 0.1), (0.8, 0.1, 0.1))
    assert config.capacity_fractions == (0.05, 0.15)
    assert config.weights == (1.5, 1.0)
    assert config.policies == ("greedy", "brute")
    assert config.mode == "exact"
    assert config.targeting_fractions == (0.1, 0.2)


@pytest.mark.parametrize("value", ["1", "200", "0", "-5", "ten", ""])
def test_parse_ignores_retired_random_draws(value):
    text = "n_units=10\ndensity=0.5\nmode=exact\n"
    with_key = parse_experiment_config(text + f"random_draws = {value}\n")
    assert with_key == parse_experiment_config(text)
    assert not hasattr(with_key, "random_draws")


def test_parse_explicit_parameters():
    text = ("n_units=10\ndensity=0.5\n"
            "beta11=0.6\nbeta12=0.4\nbeta21=0.3\nbeta22=0.5\n"
            "gamma1=0.2\ngamma2=0.1\ndelta1=0.05\ndelta2=0.0\n")
    config = parse_experiment_config(text)
    params = config.params()
    assert isinstance(config.parameter_set, SirParams)
    assert params.beta.tolist() == [[0.6, 0.4], [0.3, 0.5]]
    assert params.gamma.tolist() == [0.2, 0.1]
    assert params.delta.tolist() == [0.05, 0.0]


def test_parse_delta_override_keeps_preset_rates():
    config = parse_experiment_config(
        "n_units=10\ndensity=0.5\nparameter_set=set2\ndelta2=0.01\n")
    params = config.params()
    assert params.beta.tolist() == [[0.8, 0.5], [0.7, 0.7]]
    assert params.delta.tolist() == [0.0, 0.01]


def test_parse_errors_name_the_problem():
    with pytest.raises(ConfigError, match="missing required config key 'n_units'"):
        parse_experiment_config("density=0.5\n")
    with pytest.raises(ConfigError, match="unknown config key 'n' at line 1"):
        parse_experiment_config("n=10\ndensity=0.5\n")
    with pytest.raises(ConfigError, match="duplicate config key 'density' at line 3"):
        parse_experiment_config("n_units=10\ndensity=0.5\ndensity=0.6\n")
    with pytest.raises(ConfigError, match="expected key=value at line 2"):
        parse_experiment_config("n_units=10\ndensity\n")
    with pytest.raises(ConfigError, match="n_units must be an integer"):
        parse_experiment_config("n_units=ten\ndensity=0.5\n")
    with pytest.raises(ConfigError, match="incomplete"):
        parse_experiment_config("n_units=10\ndensity=0.5\nbeta11=0.5\n")
    with pytest.raises(ConfigError, match="unknown parameter set"):
        parse_experiment_config("n_units=10\ndensity=0.5\nparameter_set=set3\n")
    with pytest.raises(ConfigError, match="unknown policy"):
        parse_experiment_config("n_units=10\ndensity=0.5\npolicies=greedy,optimal\n")
    with pytest.raises(ConfigError, match="sum to 1"):
        parse_experiment_config("n_units=10\ndensity=0.5\ninitial_states_g1=0.5,0.2,0.1\n")
    with pytest.raises(ConfigError, match="targeting_fractions"):
        parse_experiment_config("n_units=10\ndensity=0.5\ntargeting_fractions=0.1\n")
    # set1's gamma1 = 0.1, so a delta1 of 0.95 leaves no valid rate set
    with pytest.raises(ConfigError, match="gamma \\+ delta"):
        parse_experiment_config("n_units = 10\ndensity = 0.5\ndelta1 = 0.95\n")


def test_config_validation():
    with pytest.raises(ConfigError):
        ExperimentConfig(n_units=0, density=0.5)
    with pytest.raises(ConfigError, match="whole number"):
        ExperimentConfig(n_units=12.7, density=0.5)
    with pytest.raises(ConfigError):
        ExperimentConfig(n_units=10, density=1.5)
    with pytest.raises(ConfigError):
        ExperimentConfig(n_units=10, density=0.5, capacity_fractions=())
    with pytest.raises(ConfigError):
        ExperimentConfig(n_units=10, density=0.5, capacity_fractions=(0.0,))
    with pytest.raises(ConfigError):
        ExperimentConfig(n_units=10, density=0.5, policies=("optimal",))
    with pytest.raises(ConfigError):
        ExperimentConfig(n_units=10, density=0.5, mode="both")
    with pytest.raises(ConfigError):
        ExperimentConfig(n_units=10, density=0.5, weights=(1.0, -1.0))
    with pytest.raises(ConfigError, match="two distributions"):
        ExperimentConfig(n_units=10, density=0.5, n_networks=1,
                         initial_states=((0.7, 0.2, 0.1),))


def test_config_rejects_repeated_cells():
    # a repeated policy or fraction would run its cell twice per network
    with pytest.raises(ConfigError, match="policies repeats an entry"):
        ExperimentConfig(n_units=10, density=0.5, policies=("greedy", "random", "greedy"))
    with pytest.raises(ConfigError, match="capacity_fractions repeats an entry"):
        parse_experiment_config("n_units=10\ndensity=0.5\ncapacity_fractions=0.1,0.2,0.10\n")


def tiny_config(**kw):
    base = dict(n_units=12, density=0.5, n_networks=3,
                capacity_fractions=(0.1, 0.25), seed=4)
    base.update(kw)
    return ExperimentConfig(**base)


def test_run_experiment_greedy_matches_brute():
    rows = run_experiment(tiny_config(policies=("greedy", "brute")))
    by_key = {(r.policy, r.capacity_fraction): r for r in rows}
    for frac in (0.1, 0.25):
        g = by_key[("greedy", frac)]
        b = by_key[("brute", frac)]
        # values agree; the chosen sets may differ when optima tie
        assert abs(g.mean_f - b.mean_f) < 1e-12
        assert abs(g.mean_welfare - b.mean_welfare) < 1e-12


def test_run_experiment_rows_sorted_and_complete():
    config = tiny_config(policies=("twni", "greedy", "random"))
    rows = run_experiment(config)
    keys = [(r.policy, r.capacity_fraction) for r in rows]
    assert keys == sorted(keys)
    assert len(rows) == 6
    for row in rows:
        assert row.sd_welfare >= 0.0
        assert 0.0 <= row.pct_young_vaccinated <= 100.0
        assert row.runtime_ms >= 0.0


def test_run_experiment_deterministic_up_to_runtime():
    config = tiny_config(policies=("greedy", "random", "twni"))

    def rendered(rows):
        sink = io.StringIO()
        emit_csv(rows, sink)
        lines = sink.getvalue().splitlines()
        return [line.rsplit(",", 1)[0] for line in lines]

    assert rendered(run_experiment(config)) == rendered(run_experiment(config))


def test_run_experiment_welfare_increases_with_capacity():
    config = ExperimentConfig(n_units=60, density=0.3, n_networks=2,
                              capacity_fractions=(0.05, 0.1, 0.2),
                              policies=("greedy",), seed=2)
    rows = run_experiment(config)
    welfare = [r.mean_welfare for r in rows]
    assert welfare[0] < welfare[1] < welfare[2]


def test_run_experiment_random_pct_is_group_share():
    config = tiny_config(policies=("random",), n_networks=2)
    rows = run_experiment(config)
    # analytic share of group 1 in the drawn populations, not a sample mean
    for row in rows:
        assert 0.0 <= row.pct_young_vaccinated <= 100.0
    assert rows[0].pct_young_vaccinated == rows[1].pct_young_vaccinated


def test_run_experiment_all_group1_population():
    config = tiny_config(policies=("greedy", "twni", "random"),
                         group1_probability=1.0, n_networks=2)
    rows = run_experiment(config)
    for row in rows:
        assert row.pct_young_vaccinated == 100.0


@settings(max_examples=20, deadline=None)
@given(st.one_of(st.just(12), st.integers(2, 14)), st.floats(0.1, 0.9), st.integers(0, 2**32))
@pytest.mark.parametrize("n_networks", [1, 4])
@pytest.mark.parametrize("mode", ["linear", "exact"])
def test_run_experiment_equals_the_per_cell_loop(mode, n_networks, n, density, seed):
    def without_runtime(rows):
        return [dataclasses.astuple(row)[:-1] for row in rows]

    # policies and fractions listed out of sorted order, the second list
    # largest first, with 0.12 and 0.1 rounding to one budget at n = 12;
    # without targeting fractions greedy_targeting's caps (d, d) vary with d
    for fractions in ((0.3, 0.1, 0.2), (0.5, 0.25, 0.12, 0.1)):
        for targeting in (None, (0.2, 0.5)):
            config = ExperimentConfig(
                n_units=n, density=density, n_networks=n_networks, seed=seed, mode=mode,
                policies=("twni", "random", "greedy_targeting", "greedy", "brute"),
                capacity_fractions=fractions, targeting_fractions=targeting)
            assert (without_runtime(run_experiment(config))
                    == without_runtime(experiment_by_cell(config)))


def test_exact_mode_keeps_objective_and_lifts_welfare():
    kw = dict(policies=("greedy", "random", "twni"), n_networks=2, seed=9)
    linear = {(r.policy, r.capacity_fraction): r
              for r in run_experiment(tiny_config(**kw))}
    exact = {(r.policy, r.capacity_fraction): r
             for r in run_experiment(tiny_config(mode="exact", **kw))}
    assert linear.keys() == exact.keys()
    for key in linear:
        # the solvers and the f column never see the exact-rate welfare
        assert linear[key].mean_f == exact[key].mean_f
        # exp(-z) >= 1 - z pointwise, so the exact welfare dominates
        assert exact[key].mean_welfare >= linear[key].mean_welfare - 1e-12


def test_emit_csv_format():
    rows = run_experiment(tiny_config(policies=("greedy",), n_networks=2))
    sink = io.StringIO()
    emit_csv(rows, sink)
    lines = sink.getvalue().splitlines()
    assert lines[0] == ("policy,capacity_fraction,mean_welfare,sd_welfare,"
                        "mean_f,pct_young_vaccinated,runtime_ms")
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[0] == "greedy"
    assert first[1] == "0.1"
    assert len(first[2].split(".")[1]) == 6
    assert len(first[5].split(".")[1]) == 2
    with pytest.raises(ValueError):
        emit_csv([], io.StringIO())


def test_regret_config_parsing():
    text = ("n_units=14\ndensity=0.5\nn_networks=1\nseed=3\n"
            "regret_capacity=2\nregret_n_grid=50,200\n"
            "regret_replications=10\nregret_use_brute=false\n")
    study = parse_regret_config(text)
    assert study.capacity == 2
    assert study.n_grid == (50, 200)
    assert study.replications == 10
    assert not study.use_brute
    assert study.experiment.n_units == 14
    with pytest.raises(ConfigError, match="regret_use_brute"):
        parse_regret_config("n_units=10\ndensity=0.5\nregret_use_brute=maybe\n")
    with pytest.raises(ConfigError):
        parse_regret_config("n_units=10\ndensity=0.5\nregret_capacity=0\n")
    with pytest.raises(ConfigError):
        parse_regret_config("n_units=10\ndensity=0.5\nregret_n_grid=\n")


def test_flags_replace_config_values_and_parse_once(monkeypatch):
    text = "n_units=14\ndensity=0.5\nseed=3\nregret_capacity=2\n"
    flags = {"seed": "8", "regret_capacity": "4", "mode": "exact"}
    want = text.replace("seed=3", "seed=8").replace("regret_capacity=2",
                                                    "regret_capacity=4") + "mode=exact\n"
    parses, parse_kv = [], harness._parse_kv

    def counted(text, flags):
        parses.append(text)
        return parse_kv(text, flags)

    monkeypatch.setattr(harness, "_parse_kv", counted)
    assert parse_regret_config(text, flags) == parse_regret_config(want)
    assert parses == [text, want]
    assert parse_experiment_config(text, flags) == parse_experiment_config(want)
    assert parse_experiment_config(text, {}) == parse_experiment_config(text)
    with pytest.raises(ConfigError, match="unknown config key 'fanout'"):
        parse_experiment_config(text, {"fanout": "3"})
    with pytest.raises(ConfigError, match="seed must be an integer"):
        parse_regret_config(text, {"seed": "3.5"})


def test_run_regret_study_small():
    study = RegretStudyConfig(
        experiment=ExperimentConfig(n_units=12, density=0.5, seed=6),
        capacity=2, n_grid=(100, 400), replications=12)
    rows = run_regret_study(study)
    assert [r.n_external for r in rows] == [100, 400]
    for row in rows:
        assert row.replications == 12
        assert row.capacity == 2
        gaps = (row.mean_estimation_gap + row.mean_optimization_gap
                + row.mean_evaluation_gap)
        assert abs(gaps - row.mean_total) < 1e-9
        assert row.mean_noise_gap >= abs(row.mean_total) - 1e-9
        assert abs(row.slack - (row.bound - row.mean_total)) < 1e-12
        assert row.mean_total <= row.bound
    # repeat run is identical
    again = run_regret_study(study)
    assert again == rows


@pytest.mark.parametrize("use_brute", [True, False])
def test_regret_study_rows_are_means_of_empirical_regret(use_brute, monkeypatch):
    exp = ExperimentConfig(n_units=12, density=0.5, seed=6)
    study = RegretStudyConfig(experiment=exp, capacity=3, n_grid=(30, 300),
                              replications=6, use_brute=use_brute)
    params = exp.params()
    inst = draw_instance(12, 0.5, params, exp.group1_probability,
                         exp.initial_states, exp.weights, replicate_seed(exp.seed, 0))
    blocks, exact = [], solvers._exact

    def counted_search(layout, base, *args):
        blocks.append(len(base))
        return exact(layout, base, *args)
    monkeypatch.setattr(solvers, "_exact", counted_search)
    rows = run_regret_study(study)
    # the true optimum is searched once per study, as a one-row block; the
    # twelve estimates of both grid points are searched together, in one block
    assert blocks == ([1, 12] if use_brute else [])
    for gi, (row, n_external) in enumerate(zip(rows, study.n_grid)):
        noise = EstimationNoiseModel(n_external)
        reports = [empirical_regret(
            inst.graph, inst.pop, params,
            sample_estimates(params, noise, replicate_seed(exp.seed, 1_000_000 + gi * 6 + rep)),
            3, use_brute=use_brute, n_external=n_external) for rep in range(6)]
        assert all(r.approximate is (not use_brute) for r in reports)
        mean_total = float(np.mean([r.total for r in reports]))
        assert row == RegretStudyRow(
            n_external=n_external, replications=6, capacity=3,
            mean_total=mean_total,
            mean_estimation_gap=float(np.mean([r.estimation_gap for r in reports])),
            mean_optimization_gap=float(np.mean([r.optimization_gap for r in reports])),
            mean_evaluation_gap=float(np.mean([r.evaluation_gap for r in reports])),
            mean_noise_gap=float(np.mean([r.noise_gap for r in reports])),
            bound=reports[-1].bound, slack=reports[-1].bound - mean_total)


def test_regret_study_shares_one_node_budget(monkeypatch):
    # outside the dominance regime (beta = 1 > 1 - gamma) the searches run
    # past their roots; all 2 * 5 + 1 of them count against one budget
    params = SirParams(beta=np.ones((2, 2)), gamma=[0.9, 0.9], delta=[0.0, 0.0])
    study = RegretStudyConfig(
        experiment=ExperimentConfig(n_units=12, density=0.5, parameter_set=params,
                                    initial_states=((0.5, 0.5, 0.0),) * 2, seed=1),
        capacity=3, n_grid=(30, 3000), replications=5)
    spent, exact = [], solvers._exact

    def counted_search(*args):
        picks, f, nodes = exact(*args)
        spent.append(nodes)
        return picks, f, nodes
    monkeypatch.setattr(solvers, "_exact", counted_search)
    rows = run_regret_study(study)
    nodes = spent[-1]
    assert len(spent) == 2 and nodes > 11
    monkeypatch.setattr(solvers, "NODE_BUDGET", nodes)
    assert run_regret_study(study) == rows
    monkeypatch.setattr(solvers, "NODE_BUDGET", nodes - 1)
    with pytest.raises(BudgetError, match=f"budget of {nodes - 1} nodes"):
        run_regret_study(study)
    # greedy mode searches nothing
    monkeypatch.setattr(solvers, "NODE_BUDGET", 0)
    assert len(run_regret_study(dataclasses.replace(study, use_brute=False))) == 2


def _count_patterns(monkeypatch):
    built = []

    class CountingPattern(ContextPattern):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    # build_context and welfare_value construct theirs in objective
    for module in (harness, objective):
        monkeypatch.setattr(module, "ContextPattern", CountingPattern)
    return built


def test_exact_experiment_compiles_each_network_once(monkeypatch):
    built = _count_patterns(monkeypatch)
    rows = run_experiment(tiny_config(n_networks=2, policies=("greedy", "random"),
                                      capacity_fractions=(0.1, 0.25, 0.5),
                                      mode="exact"))
    assert len(rows) == 6
    assert len(built) == 2


def test_exact_experiment_draws_no_subsets(monkeypatch):
    shapes = []
    evaluators = ContextPattern.welfare

    def recording(self, params, mode):
        evaluate = evaluators(self, params, mode)
        return lambda units: shapes.append(units.shape) or evaluate(units)

    monkeypatch.setattr(ContextPattern, "welfare", recording)
    # random rows are exact expectations, so the retired random_draws key
    # plays no part, and only the policies' own picks are evaluated
    text = "n_units=12\ndensity=0.5\nn_networks=2\ncapacity_fractions=0.1,0.25\nmode=exact\n"
    one, many = ([dataclasses.astuple(row)[:-1] for row in run_experiment(
        parse_experiment_config(f"{text}random_draws={draws}\nseed=4\n"))]
        for draws in (1, 500))
    assert len(one) == 6 and one == many
    # greedy and twni at two capacities on two networks, in two runs
    assert len(shapes) == 16 and all(len(shape) == 1 for shape in shapes)


def test_regret_study_compiles_its_instance_once(monkeypatch):
    built = _count_patterns(monkeypatch)
    run_regret_study(RegretStudyConfig(
        experiment=ExperimentConfig(n_units=12, density=0.6, seed=1),
        capacity=2, n_grid=(10, 100), replications=3))
    assert len(built) == 1


def test_regret_study_output_is_frozen():
    study = RegretStudyConfig(
        experiment=ExperimentConfig(n_units=12, density=0.6, seed=1),
        capacity=2, n_grid=(10, 100), replications=8)
    rows = run_regret_study(study)
    assert [(r.mean_total, r.mean_estimation_gap, r.mean_optimization_gap,
             r.mean_evaluation_gap, r.mean_noise_gap, r.bound, r.slack)
            for r in rows] == [
        (0.006276041666666673, -0.008230012414876784, 0.0, 0.014506054081543457,
         0.03633957853777972, 2.273786598759933, 2.2675105570932663),
        (0.0, 0.0007406051607558306, 0.0, -0.0007406051607558306,
         0.009226346609018166, 0.7820032446427736, 0.7820032446427736)]
    sink = io.StringIO()
    emit_regret_csv(rows, sink)
    assert sink.getvalue() == (
        "n_external,replications,capacity,mean_total,mean_estimation_gap,"
        "mean_optimization_gap,mean_evaluation_gap,mean_noise_gap,bound,slack\n"
        "10,8,2,0.006276,-0.008230,0.000000,0.014506,0.036340,2.273787,2.267511\n"
        "100,8,2,0.000000,0.000741,0.000000,-0.000741,0.009226,0.782003,0.782003\n")


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 20), st.floats(0.1, 0.9), st.integers(0, 4), st.booleans(),
       st.integers(1, 9), st.integers(0, 2**32))
def test_regret_study_equals_the_per_estimate_loop(n, density, cap, use_brute, reps, seed):
    capacity = (1, 2, n - 1, n, n + 2)[cap]
    study = RegretStudyConfig(
        experiment=ExperimentConfig(n_units=n, density=density, seed=seed),
        capacity=capacity, n_grid=(30, 3000), replications=reps,
        use_brute=use_brute)
    assert run_regret_study(study) == regret_study_by_estimate(study)


@pytest.mark.parametrize("use_brute", [True, False])
def test_regret_study_split_into_blocks_equals_the_per_estimate_loop(use_brute, monkeypatch):
    # 100 cells: a few estimates per block
    monkeypatch.setattr(regret, "_BATCH_CELLS", 100)
    study = RegretStudyConfig(
        experiment=ExperimentConfig(n_units=12, density=0.4, seed=3),
        capacity=2, n_grid=(10, 1000), replications=7, use_brute=use_brute)
    assert run_regret_study(study) == regret_study_by_estimate(study)


def test_greedy_regret_study_at_n200_equals_the_per_estimate_loop():
    # greedy rows, base sums and spill sums run past 8 entries
    study = RegretStudyConfig(
        experiment=ExperimentConfig(n_units=200, density=0.3, seed=5),
        capacity=20, n_grid=(50, 5000), replications=6, use_brute=False)
    assert run_regret_study(study) == regret_study_by_estimate(study)


def test_greedy_regret_study_memory_is_bounded():
    def peak(replications):
        tracemalloc.start()
        run_regret_study(RegretStudyConfig(
            experiment=ExperimentConfig(n_units=500, density=0.1, seed=0),
            replications=replications, use_brute=False))
        _, top = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        return top

    peak(1)  # one-time allocations
    small, large = peak(50), peak(200)
    assert large < 4 * 2**20
    # a few floats per replication beyond the blocks
    assert large - small < 64 * 2**10


def test_emit_regret_csv_format():
    study = RegretStudyConfig(
        experiment=ExperimentConfig(n_units=10, density=0.5, seed=1),
        capacity=2, n_grid=(100,), replications=5)
    rows = run_regret_study(study)
    sink = io.StringIO()
    emit_regret_csv(rows, sink)
    lines = sink.getvalue().splitlines()
    assert lines[0].startswith("n_external,replications,capacity,mean_total")
    assert lines[1].split(",")[0] == "100"
    with pytest.raises(ValueError):
        emit_regret_csv([], io.StringIO())


def test_one_writer_for_both_row_classes():
    # each row class carries its formats; emit_csv once wrote regret rows
    # under the 10-column header with 7 values each
    experiment = run_experiment(tiny_config(policies=("greedy",), n_networks=2))
    regret_rows = run_regret_study(RegretStudyConfig(
        experiment=ExperimentConfig(n_units=10, density=0.5, seed=1),
        capacity=2, n_grid=(100,), replications=5))
    for rows in (experiment, regret_rows):
        written = []
        for emit in (emit_csv, emit_regret_csv):
            sink = io.StringIO()
            emit(rows, sink)
            written.append(sink.getvalue())
        assert written[0] == written[1]
        lines = [line.split(",") for line in written[0].splitlines()]
        assert lines[0] == [f.name for f in dataclasses.fields(rows[0])]
        assert {len(line) for line in lines} == {len(lines[0])}
    with pytest.raises(ValueError, match="mix"):
        emit_csv(experiment + regret_rows, io.StringIO())


def test_run_property_checks_all_pass():
    results = run_property_checks(seed=0, trials=300)
    names = [r.name for r in results]
    assert "marginal_gain_consistency" in names
    assert "welfare_offset_constant" in names
    assert any(name.startswith("submodularity_density_") for name in names)
    assert any(name.startswith("mutation") or "detect" in name for name in names)
    for result in results:
        assert result.passed, f"{result.name}: {result.detail}"


NON_FINITE_CONFIGS = (
    "weights=nan,1\n",
    "weights=inf,1\n",
    "initial_states_g1=nan,0.5,0.5\n",
    "beta11=nan\nbeta12=0.5\nbeta21=0.5\nbeta22=0.6\ngamma1=0.1\ngamma2=0.05\n",
)


@pytest.mark.parametrize("extra", NON_FINITE_CONFIGS)
def test_parser_rejects_non_finite_numbers(extra):
    with pytest.raises(ConfigError, match="finite"):
        parse_experiment_config("n_units=10\ndensity=0.5\n" + extra)


def test_constructors_reject_non_finite_numbers():
    nan, inf = float("nan"), float("inf")
    for weights in ((nan, 1.0), (inf, 1.0)):
        with pytest.raises(ValueError):
            ExperimentConfig(n_units=10, density=0.5, weights=weights)
        with pytest.raises(ValueError):
            Population(state0=[0, 1], group=[0, 1], weight=list(weights))
    with pytest.raises(ValueError):
        ExperimentConfig(n_units=10, density=0.5,
                         initial_states=((nan, 0.5, 0.5), (0.7, 0.2, 0.1)))
    with pytest.raises(ValueError):
        ExperimentConfig(n_units=10, density=0.5, targeting_fractions=(nan, 0.1))
    with pytest.raises(ValueError):
        SirParams(beta=[[nan, 0.5], [0.5, 0.6]], gamma=[0.1, 0.05])


def test_parsed_defaults_match_dataclass_defaults():
    parsed = parse_experiment_config("n_units=10\ndensity=0.5\n")
    assert parsed == ExperimentConfig(n_units=10, density=0.5)
    study = parse_regret_config("n_units=10\ndensity=0.5\n")
    assert study == RegretStudyConfig(experiment=parsed)


def test_instance_on_graph_matches_draw_instance_population():
    params = PARAMETER_SETS["set1"]
    drawn = draw_instance(25, 0.3, params, 0.4, DEFAULT_DIST, (1.0, 2.0), 11)
    placed = instance_on_graph(ContactGraph(25), params, 0.4, DEFAULT_DIST,
                               (1.0, 2.0), 11)
    assert np.array_equal(placed.pop.state0, drawn.pop.state0)
    assert np.array_equal(placed.pop.group, drawn.pop.group)
    assert np.array_equal(placed.pop.weight, drawn.pop.weight)
    assert placed.graph.n_edges == 0


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 30), st.floats(0.0, 1.0), st.sampled_from(sorted(PARAMETER_SETS)),
       st.floats(0.0, 1.0),
       st.sampled_from([DEFAULT_DIST, ((0.5, 0.3, 0.2), (0.9, 0.0, 0.1))]),
       st.tuples(st.floats(0.0, 5.0), st.floats(0.0, 5.0)), st.integers(0, 2**64 - 1),
       st.booleans())
def test_config_instance_equals_spelled_out_draw(n, density, pset, share, dist, weights,
                                                 seed, on_graph):
    config = ExperimentConfig(n_units=n, density=density, parameter_set=pset,
                              group1_probability=share, initial_states=dist,
                              weights=weights)
    params = PARAMETER_SETS[pset]
    if on_graph:
        graph = erdos_renyi(n, 1.0 - density, seed)
        got = config.instance(seed, graph)
        want = instance_on_graph(graph, params, share, dist, weights, seed)
    else:
        got = config.instance(seed)
        want = draw_instance(n, density, params, share, dist, weights, seed)
    pairs = [(got.graph, want.graph, ("edges", "degree")),
             (got.pop, want.pop, ("state0", "group", "weight")),
             (got.ctx, want.ctx, CONTEXT_ARRAYS)]
    for a, b, names in pairs:
        for name in names:
            x, y = getattr(a, name), getattr(b, name)
            assert x.dtype == y.dtype and x.shape == y.shape, name
            assert x.tobytes() == y.tobytes(), name
    assert got.ctx.welfare_constant == want.ctx.welfare_constant
    assert got.params is params


def test_run_policy_targeting_caps_and_pct_young():
    config = ExperimentConfig(n_units=40, density=0.2, targeting_fractions=(0.05, 0.5))
    inst = draw_instance(40, 0.2, config.params(), 0.4, DEFAULT_DIST, (1.0, 1.0), 2)
    out = run_policy(inst, "greedy_targeting", 10, config)
    picked = out.result.allocation.sorted_units()
    young = int((inst.pop.group[picked] == GROUP1).sum())
    assert out.result.allocation.targeting == (2, 20)
    assert young <= 2
    assert out.pct_young == 100.0 * young / picked.size
    with pytest.raises(ConfigError, match="unknown policy"):
        run_policy(inst, "optimal", 10, config)


def test_run_policy_random_welfare_per_mode():
    # the solvers are mode-free: exact mode reads the pattern's mean, linear
    # mode the summary's F mean plus the welfare constant
    config = ExperimentConfig(n_units=15, density=0.3)
    inst = config.instance(replicate_seed(2, 0))
    exact = run_policy(inst, "random", 4, dataclasses.replace(config, mode="exact"))
    linear = run_policy(inst, "random", 4, config)
    assert exact.welfare == inst.pattern.random_welfare(inst.params, 4)
    assert linear.welfare == linear.result.mean_f + inst.ctx.welfare_constant
    assert exact.f_value == linear.f_value
    assert exact.result == linear.result
    assert exact.welfare != linear.welfare
