"""Property tests on random small instances and fuzzed parser input.

Instances have at most 15 units with random edges, health states, groups,
welfare weights and disease parameters; every compiled quantity is checked
against the independent references in ``_oracles``.
"""

import io

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from netvax import (
    Allocation,
    ConfigError,
    ContactGraph,
    EdgeListError,
    Population,
    SirParams,
    build_context,
    load_edge_list,
    objective_value,
    parse_experiment_config,
    welfare_value,
)
from netvax.harness import _KNOWN_KEYS

from _oracles import objective_dense, welfare_from_transitions

unit_interval = st.floats(0.0, 1.0)


@st.composite
def sir_params(draw):
    beta = [[draw(unit_interval) for _ in range(2)] for _ in range(2)]
    gamma = [draw(unit_interval) for _ in range(2)]
    delta = [draw(st.floats(0.0, 1.0 - g)) for g in gamma]
    return SirParams(beta=beta, gamma=gamma, delta=delta)


@st.composite
def instances(draw):
    n = draw(st.integers(1, 15))
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
@given(instances())
def test_welfare_matches_per_unit_transitions(case):
    graph, pop, params, alloc, _ = case
    for mode in ("linear", "exact"):
        want = welfare_from_transitions(graph, pop, params, alloc, mode)
        assert abs(welfare_value(graph, pop, params, alloc, mode) - want) <= 1e-12


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
