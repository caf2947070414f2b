import math

import numpy as np
import pytest

from netvax import (
    GROUP1,
    GROUP2,
    INFECTED,
    PARAMETER_SETS,
    RECOVERED,
    SUSCEPTIBLE,
    Allocation,
    ConfigError,
    ContactGraph,
    EstimationNoiseModel,
    ExperimentConfig,
    ObjectiveContext,
    Population,
    RegretStudyConfig,
    SirParams,
    brute_force,
    build_context,
    check_submodular,
    draw_instance,
    greedy_capacity,
    greedy_factor,
    greedy_targeting,
    iter_random_subsets,
    marginal_gain,
    objective_value,
    random_assignment,
    regret_upper_bound,
    replicate_seed,
    sample_estimates,
    twni,
    welfare_value,
)

from _oracles import (
    DEFAULT_DIST,
    grid_instances,
    initial_gains,
    objective_dense,
    objective_edge_sum,
    small_instance,
    welfare_from_transitions,
)

SET1 = SirParams(beta=[[0.7, 0.5], [0.5, 0.6]], gamma=[0.1, 0.05], delta=[0.0, 0.0])


def two_unit_instance():
    # unit 0 susceptible, unit 1 infected, both group 1, one edge
    graph = ContactGraph(2, [(0, 1)])
    pop = Population(
        state0=np.array([SUSCEPTIBLE, INFECTED], dtype=np.int8),
        group=np.array([GROUP1, GROUP1], dtype=np.int8),
        weight=np.ones(2),
    )
    return graph, pop


def test_two_unit_coefficients():
    graph, pop = two_unit_instance()
    ctx = build_context(graph, pop, SET1)
    assert ctx.direct_gain[0] == 0.0
    assert abs(ctx.direct_gain[1] - 0.45) < 1e-15
    assert ctx.spill_rows.tolist() == [0]
    assert ctx.spill_cols.tolist() == [1]
    assert abs(ctx.spill_vals[0] - (-0.35)) < 1e-15


def test_two_unit_objective_values():
    graph, pop = two_unit_instance()
    ctx = build_context(graph, pop, SET1)
    assert objective_value(ctx, Allocation.empty()) == 0.0
    assert abs(objective_value(ctx, Allocation(frozenset({0}), 1)) - 0.35) < 1e-12
    assert abs(objective_value(ctx, Allocation(frozenset({1}), 1)) - 0.80) < 1e-12
    assert abs(objective_value(ctx, Allocation(frozenset({0, 1}), 2)) - 0.80) < 1e-12


def test_two_unit_welfare_values():
    graph, pop = two_unit_instance()
    ctx = build_context(graph, pop, SET1)
    assert abs(welfare_value(graph, pop, SET1, Allocation.empty()) - 0.2) < 1e-12
    assert welfare_value(graph, pop, SET1, Allocation(frozenset({1}), 1)) == 1.0
    assert abs(ctx.welfare_constant - 0.2) < 1e-12


def test_two_unit_marginal_gains():
    graph, pop = two_unit_instance()
    ctx = build_context(graph, pop, SET1)
    empty = Allocation.empty()
    assert abs(marginal_gain(ctx, empty, 0) - 0.35) < 1e-12
    assert abs(marginal_gain(ctx, empty, 1) - 0.80) < 1e-12
    # vaccinating the source first makes protecting the receiver worthless
    assert marginal_gain(ctx, Allocation(frozenset({1}), 1), 0) == 0.0


def test_marginal_gain_input_validation():
    graph, pop = two_unit_instance()
    ctx = build_context(graph, pop, SET1)
    with pytest.raises(ValueError):
        marginal_gain(ctx, Allocation(frozenset({1}), 1), 1)
    with pytest.raises(ValueError):
        marginal_gain(ctx, Allocation.empty(), 2)
    for candidate in (0.0, 1.5, True):
        with pytest.raises(ValueError, match="must be a non-negative integer"):
            marginal_gain(ctx, Allocation.empty(), candidate)
    with pytest.raises(ValueError, match="outside the population"):
        marginal_gain(ctx, Allocation(frozenset({40}), 1), 0)


def test_all_recovered_population():
    graph = ContactGraph(4, [(0, 1), (1, 2), (2, 3)])
    pop = Population(
        state0=np.full(4, RECOVERED, dtype=np.int8),
        group=np.array([0, 1, 0, 1], dtype=np.int8),
        weight=np.ones(4),
    )
    ctx = build_context(graph, pop, SET1)
    assert ctx.spill_vals.size == 0
    assert np.all(ctx.direct_gain == 0.0)
    for units in ((), (0,), (0, 2), (0, 1, 2, 3)):
        assert objective_value(ctx, Allocation(frozenset(units), 4)) == 0.0
    assert welfare_value(graph, pop, SET1, Allocation.empty()) == 1.0


def test_full_vaccination_welfare_is_exactly_one():
    for seed in (0, 3):
        inst = small_instance(seed, n=15)
        full = Allocation(frozenset(range(15)), 15)
        assert welfare_value(inst.graph, inst.pop, inst.params, full) == 1.0


def test_direct_gain_single_infected():
    # one infected group-1 unit among 100, gamma 0.1: direct gain 0.9 / 100
    graph = ContactGraph(100, [])
    state = np.full(100, RECOVERED, dtype=np.int8)
    state[0] = INFECTED
    pop = Population(state0=state, group=np.zeros(100, dtype=np.int8), weight=np.ones(100))
    ctx = build_context(graph, pop, SET1)
    assert abs(ctx.direct_gain[0] - 0.009) < 1e-15
    assert np.all(ctx.direct_gain[1:] == 0.0)


def test_spill_weight_cross_group():
    # susceptible group-1 unit exposed to an infected group-2 neighbor,
    # degree 1, ten units total: weight -0.5 / 10
    graph = ContactGraph(10, [(0, 1)])
    state = np.full(10, RECOVERED, dtype=np.int8)
    state[0] = SUSCEPTIBLE
    state[1] = INFECTED
    group = np.zeros(10, dtype=np.int8)
    group[1] = GROUP2
    pop = Population(state0=state, group=group, weight=np.ones(10))
    ctx = build_context(graph, pop, SET1)
    assert ctx.spill_rows.tolist() == [0]
    assert ctx.spill_cols.tolist() == [1]
    assert ctx.spill_vals[0] == -0.05


def test_context_invariants_on_random_instances():
    for seed in range(8):
        inst = small_instance(seed, n=20, density=0.4, pset="set2")
        ctx = inst.ctx
        assert np.all(ctx.spill_vals <= 0.0)
        assert np.all(ctx.direct_gain >= 0.0)
        assert np.all(initial_gains(ctx) >= 0.0)
        # spill entries only run from susceptible units to infected ones
        assert np.all(inst.pop.susceptible[ctx.spill_rows])
        assert np.all(inst.pop.infected[ctx.spill_cols])


def test_objective_matches_dense_and_edge_sum_forms():
    rng = np.random.default_rng(0)
    for seed in range(6):
        inst = small_instance(seed, n=14, density=0.5)
        n = inst.pop.n_units
        for _ in range(50):
            k = int(rng.integers(0, n + 1))
            units = frozenset(rng.choice(n, size=k, replace=False).tolist())
            got = objective_value(inst.ctx, Allocation(units, n))
            assert abs(got - objective_dense(inst.ctx, units)) < 1e-12
            assert abs(got - objective_edge_sum(inst.ctx, units)) < 1e-12


def test_marginal_gain_matches_value_difference():
    rng = np.random.default_rng(42)
    checked = 0
    for inst, _, _ in grid_instances(12):
        n = inst.pop.n_units
        for _ in range(100):
            k = int(rng.integers(0, n))
            base = rng.choice(n, size=k, replace=False).tolist()
            outside = sorted(set(range(n)) - set(base))
            x = int(rng.choice(outside))
            alloc = Allocation(frozenset(base), n)
            bigger = Allocation(frozenset(base) | {x}, n)
            diff = objective_value(inst.ctx, bigger) - objective_value(inst.ctx, alloc)
            assert abs(marginal_gain(inst.ctx, alloc, x) - diff) < 1e-12
            checked += 1
    assert checked == 1200


def test_additivity_across_components():
    # two disconnected halves: the objective splits
    graph = ContactGraph(6, [(0, 1), (1, 2), (3, 4), (4, 5)])
    state = np.array([0, 1, 0, 0, 1, 0], dtype=np.int8)
    group = np.array([0, 0, 1, 1, 0, 1], dtype=np.int8)
    pop = Population(state0=state, group=group, weight=np.ones(6))
    ctx = build_context(graph, pop, SET1)
    left = Allocation(frozenset({0, 1}), 6)
    right = Allocation(frozenset({4}), 6)
    both = Allocation(frozenset({0, 1, 4}), 6)
    lhs = objective_value(ctx, both)
    rhs = objective_value(ctx, left) + objective_value(ctx, right)
    assert abs(lhs - rhs) < 1e-12


def test_subadditive_on_disjoint_sets():
    rng = np.random.default_rng(7)
    inst = small_instance(3, n=16, density=0.6)
    n = inst.pop.n_units
    for _ in range(200):
        perm = rng.permutation(n)
        a = frozenset(perm[:4].tolist())
        b = frozenset(perm[4:8].tolist())
        fa = objective_value(inst.ctx, Allocation(a, n))
        fb = objective_value(inst.ctx, Allocation(b, n))
        fab = objective_value(inst.ctx, Allocation(a | b, n))
        assert fab <= fa + fb + 1e-12


def test_welfare_offset_constant_under_linear_rate():
    rng = np.random.default_rng(11)
    for seed in range(5):
        inst = small_instance(seed, n=18, density=0.3, pset="set2")
        n = inst.pop.n_units
        offsets = []
        for _ in range(100):
            k = int(rng.integers(0, n + 1))
            units = frozenset(rng.choice(n, size=k, replace=False).tolist())
            alloc = Allocation(units, n)
            w = welfare_value(inst.graph, inst.pop, inst.params, alloc)
            f = objective_value(inst.ctx, alloc)
            offsets.append(w - f)
        assert max(offsets) - min(offsets) <= 1e-12
        assert abs(offsets[0] - inst.ctx.welfare_constant) < 1e-12


def test_welfare_matches_transition_oracle():
    rng = np.random.default_rng(23)
    for seed in range(4):
        inst = small_instance(seed, n=12, density=0.5)
        n = inst.pop.n_units
        for mode in ("linear", "exact"):
            for _ in range(20):
                k = int(rng.integers(0, n + 1))
                units = frozenset(rng.choice(n, size=k, replace=False).tolist())
                alloc = Allocation(units, n)
                got = welfare_value(inst.graph, inst.pop, inst.params, alloc, mode)
                want = welfare_from_transitions(inst.graph, inst.pop, inst.params, alloc, mode)
                assert abs(got - want) < 1e-12


def test_welfare_mode_validation():
    graph, pop = two_unit_instance()
    with pytest.raises(ValueError):
        welfare_value(graph, pop, SET1, Allocation.empty(), mode="quadratic")


@pytest.mark.parametrize("units", [
    [[0, 1]],                     # a 2-D block of allocations
    [1, 1],                       # a repeated unit, which would count twice
    list(range(20)) + [0, 1, 2],  # every unit, three of them twice
    [20], [-1], [-5],             # outside [0, n); negatives would wrap
    [3.0, 7.0], [0.5], [True] * 20,  # not integer unit indices
    np.array([1, 2**64 - 1], dtype=np.uint64),  # wraps to -1 if cast before the range check
], ids=["block", "repeat", "all_plus_three", "n", "minus_one", "minus_five",
        "float", "fraction", "bool_mask", "uint64_wrap"])
def test_welfare_rejects_malformed_allocations(units):
    # unchecked, each gives a wrong welfare or an IndexError from the indexing
    inst = small_instance(3, n=20, density=0.5)
    for mode in ("linear", "exact"):
        with pytest.raises(ValueError):
            inst.pattern.welfare(inst.params, mode)(np.array(units))


def test_welfare_takes_an_empty_array_of_any_dtype():
    inst = small_instance(3, n=20, density=0.5)
    for mode in ("linear", "exact"):
        evaluate = inst.pattern.welfare(inst.params, mode)
        empty = evaluate(np.array([], dtype=np.int64))
        assert empty == welfare_value(inst.graph, inst.pop, inst.params,
                                      Allocation.empty(), mode)
        for dtype in (float, bool, np.int32, np.uint8, object):
            assert evaluate(np.array([], dtype=dtype)) == empty
        assert evaluate(np.array([3, 7], dtype=np.int32)) == evaluate(np.array([3, 7]))


def test_random_welfare_within_four_se_of_sampled_mean_at_5k():
    # the seed-0 exact5k benchmark instance: N=5,000, mean degree 20
    inst = draw_instance(5000, 0.004, PARAMETER_SETS["set1"], 0.4, DEFAULT_DIST,
                         (1.0, 1.0), replicate_seed(0, 0))
    evaluate = inst.pattern.welfare(inst.params, "exact")
    for seed, fraction in enumerate((0.07, 0.1, 0.2)):
        d = round(fraction * 5000)
        sample = np.array([evaluate(units) for idx in
                           iter_random_subsets(seed, 5000, d, 2000, chunk=200)
                           for units in idx])
        assert sample.size == 2000
        se = sample.std(ddof=1) / math.sqrt(sample.size)
        assert abs(sample.mean() - inst.pattern.random_welfare(inst.params, d)) <= 4 * se
    for d in (0, 5001):
        with pytest.raises(ValueError):
            inst.pattern.random_welfare(inst.params, d)


def test_check_submodular_passes_on_built_contexts():
    for density in (0.1, 0.5, 1.0):
        inst = small_instance(2, n=15, density=density)
        report = check_submodular(inst.ctx, trials=500, seed=1)
        assert report.passed
        assert report.trials == 500
        assert report.counterexample is None


def test_check_submodular_catches_flipped_spill_sign():
    inst = small_instance(2, n=15, density=0.5)
    ctx = inst.ctx
    assert ctx.spill_vals.size > 0
    vals = ctx.spill_vals.copy()
    worst = int(np.argmin(vals))
    vals[worst] = -vals[worst]
    broken = ObjectiveContext(ctx.n_units, ctx.direct_gain.copy(),
                              ctx.spill_rows.copy(), ctx.spill_cols.copy(),
                              vals, ctx.welfare_constant)
    report = check_submodular(broken, trials=1000, seed=1)
    assert not report.passed
    assert report.counterexample is not None


def test_allocation_validation():
    with pytest.raises(ValueError):
        Allocation(frozenset({0, 1}), 1)
    with pytest.raises(ValueError):
        Allocation(frozenset({-1}), 1)
    with pytest.raises(ValueError):
        Allocation(frozenset(), -1)
    # unit indices are integers, never truncated or parsed
    for unit in (1.5, np.float64(2.7), "3", True):
        with pytest.raises(ValueError, match="must be a non-negative integer"):
            Allocation([unit], 12)
    numpy_units = Allocation([np.int64(2), np.uint8(5)], 2).selected
    assert numpy_units == {2, 5} and all(type(u) is int for u in numpy_units)
    alloc = Allocation([3, 1], 4)
    assert alloc.sorted_units().tolist() == [1, 3]
    assert alloc.indicator(5).tolist() == [False, True, False, True, False]
    with pytest.raises(ValueError):
        alloc.indicator(3)


def test_objective_rejects_foreign_units():
    graph, pop = two_unit_instance()
    ctx = build_context(graph, pop, SET1)
    with pytest.raises(ValueError):
        objective_value(ctx, Allocation(frozenset({5}), 6))


def test_context_rejects_bad_triplets():
    with pytest.raises(ValueError):
        ObjectiveContext(2, np.zeros(3), np.empty(0, dtype=int),
                         np.empty(0, dtype=int), np.empty(0), 0.0)
    with pytest.raises(ValueError):
        ObjectiveContext(2, np.zeros(2), np.array([0]), np.array([0]),
                         np.array([-0.1]), 0.0)
    with pytest.raises(ValueError):
        ObjectiveContext(2, np.zeros(2), np.array([0]), np.array([2]),
                         np.array([-0.1]), 0.0)
    with pytest.raises(ValueError):  # unchecked, truncated to the entry (0, 1)
        ObjectiveContext(3, np.zeros(3), [0.7], [1.2], [-0.1], 0.0)


def _scalar_kinds(low, high=None):
    """Malformed values of a count in [low, high]: a fraction, a whole float,
    a bool and one below the range; a uint64 past 2**63 too when high bounds
    it, since it is otherwise a valid count."""
    kinds = {"fraction": low + 0.5, "whole_float": float(low + 1), "bool": True,
             "out_of_range": low - 1}
    if high is not None:
        kinds["uint64"] = np.uint64(2**64 - 1)
    return kinds


def _array_kinds(out_of_range, fraction=(0.7, 1.3)):
    """Malformed two-entry unit-index or label arrays: fractions, whole
    floats, bools, a uint64 past 2**63 and an integer out of range."""
    return {"fraction": np.array(fraction), "whole_float": np.array([1.0, 0.0]),
            "bool": np.array([True, False]), "uint64": np.array([2**64 - 1, 0], dtype=np.uint64),
            "out_of_range": np.array([out_of_range, 0])}


def _upper_bound(position, value):
    """regret_upper_bound with value as its argument at position."""
    args = [20, 3, 5, 4, 1.0, 100, 0.1]
    args[position] = value
    return regret_upper_bound(*args)


N = 20
EXPERIMENT = ExperimentConfig(12, 0.5)
# (entry point, call(instance, value), error, malformed values by kind)
ENTRY_POINTS = [
    ("greedy_capacity", lambda i, v: greedy_capacity(i.ctx, v), ValueError, _scalar_kinds(1)),
    ("greedy_targeting_d", lambda i, v: greedy_targeting(i.ctx, v, 4, 4, i.pop.group),
     ValueError, _scalar_kinds(0)),
    ("greedy_targeting_d1", lambda i, v: greedy_targeting(i.ctx, 4, v, 4, i.pop.group),
     ValueError, _scalar_kinds(0)),
    ("greedy_targeting_d2", lambda i, v: greedy_targeting(i.ctx, 4, 4, v, i.pop.group),
     ValueError, _scalar_kinds(0)),
    ("brute_force", lambda i, v: brute_force(i.ctx, v), ValueError, _scalar_kinds(0)),
    ("twni", lambda i, v: twni(i.ctx, v, i.pop.group), ValueError, _scalar_kinds(0)),
    ("random_assignment", lambda i, v: random_assignment(i.ctx, v), ValueError,
     _scalar_kinds(1, N)),
    ("greedy_factor", lambda i, v: greedy_factor(v), ValueError, _scalar_kinds(1)),
    ("allocation_capacity", lambda i, v: Allocation(frozenset(), v), ValueError,
     _scalar_kinds(0)),
    ("allocation_unit", lambda i, v: Allocation([v], N), ValueError, _scalar_kinds(0)),
    ("allocation_targeting_cap", lambda i, v: Allocation(frozenset(), 4, (v, 1)), ValueError,
     _scalar_kinds(0)),
    ("allocation_targeting", lambda i, v: Allocation(frozenset(), 4, v), ValueError,
     {"wrong_length": (1, 2, 3), "one_cap": (1,), "scalar": 2}),
    # a whole float is a whole number of units
    ("contact_graph_n_units", lambda i, v: ContactGraph(v), ValueError,
     {"fraction": 1.5, "bool": True, "out_of_range": 0}),
    ("experiment_n_units", lambda i, v: ExperimentConfig(v, 0.5), ConfigError,
     {"fraction": 1.5, "bool": True, "out_of_range": 0}),
    # default_rng's seed domain, [0, 2**64)
    ("sample_estimates_seed", lambda i, v: sample_estimates(i.params, EstimationNoiseModel(100), v),
     ValueError, {"fraction": 1.5, "whole_float": 1.0, "bool": True, "out_of_range": -1,
                  "past_uint64": 2**64, "none": None}),
    ("marginal_gain_candidate", lambda i, v: marginal_gain(i.ctx, Allocation.empty(), v),
     ValueError, _scalar_kinds(0, N - 1)),
    ("random_welfare", lambda i, v: i.pattern.random_welfare(i.params, v), ValueError,
     _scalar_kinds(1, N)),
    ("check_submodular_trials", lambda i, v: check_submodular(i.ctx, trials=v), ValueError,
     _scalar_kinds(1)),
    ("n_external", lambda i, v: EstimationNoiseModel(v), ValueError, _scalar_kinds(1)),
    *((f"regret_upper_bound_{name}", lambda i, v, k=k: _upper_bound(k, v), ValueError,
       _scalar_kinds(low)) for name, k, low in (
           ("n_units", 0, 1), ("d", 1, 0), ("max_degree", 2, 0), ("n_infected", 3, 0),
           ("n_external", 5, 1))),
    ("n_networks", lambda i, v: ExperimentConfig(12, 0.5, n_networks=v), ConfigError,
     _scalar_kinds(1)),
    *((f"regret_{name}", lambda i, v, name=name: RegretStudyConfig(EXPERIMENT, **{name: v}),
       ConfigError, _scalar_kinds(1)) for name in ("capacity", "replications")),
    ("regret_n_grid", lambda i, v: RegretStudyConfig(EXPERIMENT, n_grid=(v,)), ConfigError,
     _scalar_kinds(1)),
    *((f"welfare_{mode}", lambda i, v, mode=mode: i.pattern.welfare(i.params, mode)(v),
       ValueError, _array_kinds(N)) for mode in ("linear", "exact")),
    ("context_rows", lambda i, v: ObjectiveContext(N, np.zeros(N), v, [2, 3], [-0.1] * 2, 0.0),
     ValueError, _array_kinds(N)),
    ("context_cols", lambda i, v: ObjectiveContext(N, np.zeros(N), [2, 3], v, [-0.1] * 2, 0.0),
     ValueError, _array_kinds(N)),
    ("allocation_indicator", lambda i, v: Allocation(v, 30).indicator(N), ValueError,
     {"out_of_range": [25]}),
    ("marginal_gain_allocation", lambda i, v: marginal_gain(i.ctx, Allocation(v, 30), 0),
     ValueError, {"out_of_range": [25]}),
    ("state0", lambda i, v: Population(state0=v, group=[0, 0], weight=[1.0, 1.0]), ValueError,
     _array_kinds(RECOVERED + 1, fraction=(1.9, 0.2))),
    ("group", lambda i, v: Population(state0=[0, 0], group=v, weight=[1.0, 1.0]), ValueError,
     _array_kinds(GROUP2 + 1)),
    ("twni_groups", lambda i, v: twni(i.ctx, 2, np.resize(v, N)), ValueError,
     _array_kinds(GROUP2 + 1)),
    ("greedy_targeting_groups", lambda i, v: greedy_targeting(i.ctx, 4, 4, 4, np.resize(v, N)),
     ValueError, _array_kinds(GROUP2 + 1)),
]


@pytest.mark.parametrize("call, error, value", [
    pytest.param(call, error, value, id=f"{name}-{kind}")
    for name, call, error, kinds in ENTRY_POINTS for kind, value in kinds.items()])
def test_every_entry_point_refuses_malformed_integers(call, error, value):
    # every entry point calls the one check of its input kind; unchecked, a
    # cap of 1.5 was never reached, a uint64 index wrapped to -1 before its
    # range check, and float triplets and labels were truncated
    with pytest.raises(error):
        call(small_instance(0, n=N), value)
