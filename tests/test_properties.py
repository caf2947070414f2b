"""Property tests on random small instances and fuzzed parser input.

Instances have at most 15 units with random edges, health states, groups,
welfare weights and disease parameters; every compiled quantity is checked
against the independent references in ``_oracles``.
"""

import io
import itertools
from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from netvax import (
    INFECTED,
    SUSCEPTIBLE,
    Allocation,
    ConfigError,
    ContactGraph,
    ContextPattern,
    EdgeListError,
    ObjectiveContext,
    PARAMETER_SETS,
    Population,
    SirParams,
    build_context,
    draw_instance,
    greedy_capacity,
    greedy_targeting,
    iter_random_subsets,
    load_edge_list,
    objective_value,
    parse_experiment_config,
    random_assignment,
    sampled_welfare_sd,
    welfare_value,
)
from netvax import objective
from netvax.harness import _KNOWN_KEYS

from _oracles import (DEFAULT_DIST, all_subsets_objective, build_context_direct,
                      exact_welfare_evaluator, initial_gains, objective_dense,
                      objective_sliced, scipy_sym, welfare_from_transitions)

unit_interval = st.floats(0.0, 1.0)


@st.composite
def sir_params(draw):
    beta = [[draw(unit_interval) for _ in range(2)] for _ in range(2)]
    gamma = [draw(unit_interval) for _ in range(2)]
    delta = [draw(st.floats(0.0, 1.0 - g)) for g in gamma]
    return SirParams(beta=beta, gamma=gamma, delta=delta)


@st.composite
def instances(draw, max_units=15):
    n = draw(st.integers(1, max_units))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    density = draw(unit_interval)
    edges = [pair for pair in pairs if draw(st.floats(0.0, 1.0)) < density]
    pop = Population(
        state0=draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)),
        group=draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)),
        weight=draw(st.lists(st.floats(0.0, 10.0), min_size=n, max_size=n)))
    selected = draw(st.sets(st.integers(0, n - 1)))
    other = draw(st.sets(st.integers(0, n - 1)))
    return (ContactGraph(n, edges), pop, draw(sir_params()),
            Allocation(selected, n), Allocation(other, n))


@settings(max_examples=150, deadline=None)
@given(instances(), st.data())
def test_welfare_matches_per_unit_transitions(case, data):
    graph, pop, params, alloc, _ = case
    n = graph.n_units
    # a block of equal-size allocations, one per row, evaluated in one call
    k = data.draw(st.integers(0, n))
    rows = data.draw(st.lists(st.permutations(range(n)).map(lambda perm: sorted(perm[:k])),
                              min_size=1, max_size=6))
    block = np.array(rows, dtype=np.int64).reshape(len(rows), k)
    pattern = ContextPattern(graph, pop)
    for mode in ("linear", "exact"):
        want = welfare_from_transitions(graph, pop, params, alloc, mode)
        assert abs(welfare_value(graph, pop, params, alloc, mode) - want) <= 1e-12
        got = pattern.welfare(params, mode)(block)
        want = [welfare_from_transitions(graph, pop, params, Allocation(row, n), mode)
                for row in block]
        assert got.shape == (len(rows),)
        assert np.all(np.abs(got - want) <= 1e-12)


@settings(max_examples=150, deadline=None)
@given(instances())
def test_linear_welfare_minus_objective_is_constant(case):
    graph, pop, params, alloc, other = case
    ctx = build_context(graph, pop, params)
    offsets = [welfare_value(graph, pop, params, a, "linear") - objective_value(ctx, a)
               for a in (alloc, other, Allocation.empty())]
    assert max(offsets) - min(offsets) <= 1e-12
    assert abs(offsets[0] - ctx.welfare_constant) <= 1e-12


@settings(max_examples=150, deadline=None)
@given(instances())
def test_objective_matches_dense_quadratic_form(case):
    graph, pop, params, alloc, _ = case
    ctx = build_context(graph, pop, params)
    assert np.all(ctx.spill_vals <= 0.0) and np.all(ctx.direct_gain >= 0.0)
    want = objective_dense(ctx, alloc.selected)
    assert abs(objective_value(ctx, alloc) - want) <= 1e-12


@st.composite
def raw_contexts(draw, max_units=8):
    """Contexts built straight from triplets, unlike build_context: pairs may
    appear in both orientations and the same (i, j) may repeat."""
    n = draw(st.integers(2, max_units))
    unit = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(unit, unit).filter(lambda p: p[0] != p[1]),
                          max_size=12))
    mirrored = [(j, i) for i, j in pairs[:draw(st.integers(0, len(pairs)))]]
    repeated = pairs[:draw(st.integers(0, len(pairs)))]
    pairs = pairs + mirrored + repeated
    vals = draw(st.lists(st.floats(-1.0, 1.0), min_size=len(pairs),
                         max_size=len(pairs)))
    rows = np.array([i for i, _ in pairs], dtype=np.int64)
    cols = np.array([j for _, j in pairs], dtype=np.int64)
    direct = draw(st.lists(unit_interval, min_size=n, max_size=n))
    ctx = ObjectiveContext(n, direct, rows, cols, vals, 0.0)
    return ctx, draw(st.sets(unit))


@settings(max_examples=200, deadline=None)
@given(raw_contexts())
def test_raw_triplet_context_matches_dense_quadratic_form(case):
    ctx, units = case
    want = objective_dense(ctx, units)
    assert abs(objective_value(ctx, Allocation(units, ctx.n_units)) - want) <= 1e-12
    singles = [objective_dense(ctx, {u}) for u in range(ctx.n_units)]
    assert np.max(np.abs(initial_gains(ctx) - singles)) <= 1e-12


@settings(max_examples=200, deadline=None)
@given(st.one_of(raw_contexts(max_units=10).map(
                     lambda case: (case[0], Allocation(case[1], case[0].n_units))),
                 instances(max_units=12).map(
                     lambda case: (build_context(*case[:3]), case[3]))))
def test_objective_value_equals_sliced_formula_bit_for_bit(case):
    ctx, alloc = case
    assert objective_value(ctx, alloc) == objective_sliced(ctx, alloc)


@settings(max_examples=300, deadline=None)
@given(st.one_of(raw_contexts(max_units=10).map(lambda case: (case[0], False)),
                 instances(max_units=12).map(
                     lambda case: (build_context(*case[:3]), True))))
def test_context_arrays_equal_scipy_csr(case):
    ctx, compiled = case
    sym = scipy_sym(ctx)
    assert np.array_equal(ctx._sym_indptr, sym.indptr)
    assert np.array_equal(ctx._sym_cols, sym.indices)
    assert np.array_equal(ctx._sym_rows,
                          np.repeat(np.arange(ctx.n_units), np.diff(sym.indptr)))
    base = ctx.direct_gain - sym.sum(axis=1)
    if compiled:
        # build_context repeats no entry, so every value is scipy's bit for bit
        assert ctx._sym_vals.tobytes() == sym.data.tobytes()
        assert ctx._base_gain.tobytes() == base.tobytes()
    else:
        # scipy may sum the repeats of an entry in another order, and two
        # orders differ in proportion to the magnitudes summed
        tol = 1e-15 * max(1.0, float(np.abs(ctx.spill_vals).sum()))
        assert np.max(np.abs(ctx._sym_vals - sym.data), initial=0.0) <= tol
        assert np.max(np.abs(ctx._base_gain - base)) <= tol


CONTEXT_ARRAYS = ("direct_gain", "spill_rows", "spill_cols", "spill_vals",
                  "_sym_indptr", "_sym_rows", "_sym_cols", "_sym_vals", "_base_gain")


@settings(max_examples=150, deadline=None)
@given(instances(), st.sampled_from(["drawn", "none_infected", "all_infected"]),
       st.lists(sir_params(), min_size=1, max_size=4))
def test_context_pattern_fills_match_direct_compile(case, states, param_sets):
    graph, pop, _, _, _ = case
    if states != "drawn":
        state0 = (np.where(pop.state0 == INFECTED, SUSCEPTIBLE, pop.state0)
                  if states == "none_infected" else np.full(pop.n_units, INFECTED))
        pop = Population(state0=state0, group=pop.group, weight=pop.weight)
    pattern = ContextPattern(graph, pop)
    contexts = [pattern.context(params) for params in param_sets]
    # every context is checked after the last fill, so reusing the pattern
    # must leave the earlier ones as they were
    for ctx, params in zip(contexts, param_sets):
        want = build_context_direct(graph, pop, params)
        assert ctx.n_units == want.n_units
        assert ctx.welfare_constant == want.welfare_constant
        for name in CONTEXT_ARRAYS:
            got, ref = getattr(ctx, name), getattr(want, name)
            assert got.dtype == ref.dtype and got.shape == ref.shape, name
            assert got.tobytes() == ref.tobytes(), name
            assert not got.flags.writeable, name


@settings(max_examples=100, deadline=None)
@given(instances(), st.integers(1, 16))
def test_targeting_with_loose_caps_replays_capacity_greedy(case, d):
    graph, pop, params, _, _ = case
    ctx = build_context(graph, pop, params)
    plain = greedy_capacity(ctx, d)
    capped = greedy_targeting(ctx, d, d, d, pop.group)
    assert capped.gain_trace == plain.gain_trace
    assert capped.allocation.selected == plain.allocation.selected


@st.composite
def baseline_instances(draw):
    """instances() of at most 11 units, some made all susceptible, all
    infected, edgeless or weightless."""
    graph, pop, params, _, _ = draw(instances(max_units=11))
    n, edges = graph.n_units, graph.edges
    state0, weight = pop.state0, pop.weight
    shape = draw(st.sampled_from(["drawn", "all_susceptible", "all_infected",
                                  "edgeless", "zero_weights"]))
    if shape == "all_susceptible":
        state0 = np.full(n, SUSCEPTIBLE)
    elif shape == "all_infected":
        state0 = np.full(n, INFECTED)
    elif shape == "edgeless":
        edges = []
    elif shape == "zero_weights":
        weight = np.zeros(n)
    return ContactGraph(n, edges), Population(state0, pop.group, weight), params


@settings(max_examples=150, deadline=None)
@given(baseline_instances())
def test_random_welfare_matches_enumeration(case):
    graph, pop, params = case
    n = graph.n_units
    pattern = ContextPattern(graph, pop)
    evaluate = exact_welfare_evaluator(graph, pop, params)
    for d in range(1, n + 1):
        subsets = np.array(list(itertools.combinations(range(n), d)))
        assert abs(pattern.random_welfare(params, d) - evaluate(subsets).mean()) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(instances(), st.data())
def test_exact_random_baseline_matches_welfare_over_its_subsets(case, data):
    graph, pop, params, _, _ = case
    n = graph.n_units
    d = data.draw(st.integers(1, n))
    draws = data.draw(st.integers(1, 40))
    seed = data.draw(st.integers(0, 2**32))
    sd = sampled_welfare_sd(seed, n, d, draws, ContextPattern(graph, pop).welfare(params, "exact"))
    subsets = np.concatenate(list(iter_random_subsets(seed, n, d, draws)))
    allocs = [Allocation(row, d) for row in subsets]
    welfare = np.array([welfare_value(graph, pop, params, a, "exact") for a in allocs])
    assert abs((welfare.std(ddof=1) if draws > 1 else 0.0) - sd) <= 1e-12


@st.composite
def drawn_instances(draw, max_units=80):
    """Seeded G(n, p) instances larger than instances() draws, so that
    rows hold many (infected source, exposed unit) entries."""
    inst = draw_instance(draw(st.integers(1, max_units)), draw(unit_interval),
                         draw(st.sampled_from(list(PARAMETER_SETS.values()))), 0.4,
                         DEFAULT_DIST, (draw(st.floats(0.0, 10.0)), 1.0),
                         draw(st.integers(0, 2**32)))
    return inst.graph, inst.pop, inst.params


@settings(max_examples=150, deadline=None)
@given(st.one_of(instances().map(lambda case: case[:3]), drawn_instances()), st.data())
def test_exact_welfare_equals_two_layout_evaluator(case, data):
    graph, pop, params = case
    n = graph.n_units
    d = data.draw(st.integers(1, n))
    draws = data.draw(st.integers(1, 30))
    idx = next(iter_random_subsets(data.draw(st.integers(0, 2**32)), n, d, draws,
                                   chunk=draws))
    want = exact_welfare_evaluator(graph, pop, params)(idx)
    # runs of one row, a few rows, or the whole block
    cap = data.draw(st.sampled_from([1, 5, 40, objective._BLOCK_CELLS]))
    with mock.patch.object(objective, "_BLOCK_CELLS", cap):
        got = ContextPattern(graph, pop).welfare(params, "exact")(idx)
    assert np.array_equal(got, want)


@settings(max_examples=150, deadline=None)
@given(st.one_of(raw_contexts(max_units=10).map(lambda case: case[0]),
                 instances(max_units=10).map(lambda case: build_context(*case[:3]))))
# F = 5.668 on every size-5 subset, where the oracle's sums round apart
# to a std of 1.26e-15 while the exact sd is 0
@example(ObjectiveContext(
    6, np.full(6, 0.124), np.array([1, 1, 0, 0, 0, 1, 4, 3, 5]),
    np.array([5, 4, 3, 3, 3, 5, 1, 4, 4]),
    np.array([-0.143, -0.966, -0.27, -0.824, -0.137, -0.459, -0.7, -0.577, -0.972]), 0.0))
def test_random_baseline_moments_match_all_subsets(ctx):
    # the oracle sums F's summands per subset, rounding apart by a few ulps
    # of their size even when F is constant
    tol = 1e-15 * max(1.0, float(np.abs(ctx.direct_gain).sum()
                                 + np.abs(ctx.spill_vals).sum()))
    for d in range(1, ctx.n_units + 1):
        summary = random_assignment(ctx, d)
        values = all_subsets_objective(ctx, d)
        assert abs(summary.mean_f - values.mean()) <= 1e-12
        assert abs(summary.sd_f - values.std()) <= 1e-9 * values.std() + tol
        assert summary.mean_welfare == summary.mean_f + ctx.welfare_constant
        assert summary.draws == 0
    assert summary.sd_f == 0.0


# Values that stress number parsing: non-finite, out of range, malformed.
config_values = st.one_of(
    st.sampled_from(["nan", "inf", "-inf", "-1", "0", "1", "0.5", "1e400", "",
                     "0.7,0.2,0.1", "nan,0.5,0.5", "1,1", "nan,1", "inf,1",
                     "greedy,random", "brute", "set1", "set3", "exact", "true"]),
    st.integers(-5, 50).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.text(max_size=12))
config_lines = st.one_of(
    st.tuples(st.sampled_from(sorted(_KNOWN_KEYS)), config_values).map("=".join),
    st.text(max_size=20))


@settings(max_examples=300, deadline=None)
@given(st.lists(config_lines, max_size=12))
def test_config_parser_raises_only_config_error(lines):
    text = "\n".join(["n_units=10", "density=0.5"] + lines)
    try:
        config = parse_experiment_config(text)
    except ConfigError:
        return
    assert all(np.isfinite(config.weights))
    assert np.all(np.isfinite(config.params().beta))


# Header values stay below 10^5 units so a parsed graph stays small.
edge_tokens = st.one_of(st.integers(-2, 20).map(str), st.text(max_size=4))
edge_lines = st.one_of(
    st.tuples(edge_tokens, edge_tokens).map(" ".join),
    st.sampled_from(["", "# comment", "1 2 3", "0 0"]),
    st.text(max_size=8))


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.integers(-2, 20).map(str), st.text(max_size=5)),
       st.lists(edge_lines, max_size=10))
def test_edge_list_parser_raises_only_edge_list_error(header, lines):
    text = "\n".join([f"n_units={header}"] + lines)
    try:
        graph = load_edge_list(io.StringIO(text))
    except EdgeListError:
        return
    assert graph.n_units >= 1
