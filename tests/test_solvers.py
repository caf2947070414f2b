import itertools
import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netvax import (
    GROUP1,
    GROUP2,
    INFECTED,
    PARAMETER_SETS,
    SUSCEPTIBLE,
    Allocation,
    BudgetError,
    ContactGraph,
    ObjectiveContext,
    Population,
    SirParams,
    brute_force,
    build_context,
    draw_instance,
    greedy_capacity,
    greedy_factor,
    greedy_targeting,
    objective_value,
    random_assignment,
    twni,
    welfare_value,
)
from netvax import solvers
from netvax.objective import TOLERANCE, _f_rows, _members
from netvax.solvers import iter_random_subsets

from _oracles import (DEFAULT_DIST, _combo_chunks, all_subsets_objective,
                      grid_instances, matroid_brute, small_instance, streamed_optimum)

SET1 = SirParams(beta=[[0.7, 0.5], [0.5, 0.6]], gamma=[0.1, 0.05], delta=[0.0, 0.0])


def two_unit_ctx():
    graph = ContactGraph(2, [(0, 1)])
    pop = Population(
        state0=np.array([SUSCEPTIBLE, INFECTED], dtype=np.int8),
        group=np.array([GROUP1, GROUP1], dtype=np.int8),
        weight=np.ones(2),
    )
    return build_context(graph, pop, SET1)


def test_greedy_two_unit():
    ctx = two_unit_ctx()
    res = greedy_capacity(ctx, 1)
    assert res.allocation.selected == frozenset({1})
    assert res.rounds == 1
    assert len(res.gain_trace) == 1
    unit, gain = res.gain_trace[0]
    assert unit == 1
    assert abs(gain - 0.80) < 1e-12
    assert abs(res.f_value - 0.80) < 1e-12
    assert abs(res.welfare - 1.0) < 1e-12


def test_greedy_fills_to_capacity():
    inst = small_instance(0, n=10)
    res = greedy_capacity(inst.ctx, 10)
    assert res.allocation.selected == frozenset(range(10))
    # capacity above n still selects everyone
    res2 = greedy_capacity(inst.ctx, 25)
    assert res2.allocation.selected == frozenset(range(10))
    with pytest.raises(ValueError):
        greedy_capacity(inst.ctx, 0)


def test_greedy_gain_trace_weakly_decreasing():
    # up to the tie window: the tie-break may take an index whose stored gain
    # sits a cancellation residue below an exact peer's
    for seed in range(5):
        inst = small_instance(seed, n=20, density=0.6, pset="set2")
        res = greedy_capacity(inst.ctx, 20)
        gains = [g for _, g in res.gain_trace]
        for a, b in zip(gains, gains[1:]):
            assert b <= a + 1e-12


def test_greedy_f_value_matches_objective_exactly():
    for seed in range(5):
        inst = small_instance(seed, n=18, density=0.4)
        res = greedy_capacity(inst.ctx, 6)
        assert res.f_value == objective_value(inst.ctx, res.allocation)
        assert res.welfare == res.f_value + inst.ctx.welfare_constant


def test_greedy_deterministic():
    inst = small_instance(4, n=25, density=0.3)
    a = greedy_capacity(inst.ctx, 8)
    b = greedy_capacity(inst.ctx, 8)
    assert a.allocation == b.allocation
    assert a.gain_trace == b.gain_trace


def test_greedy_tie_break_lowest_index():
    # two isolated infected units with identical coefficients tie; the
    # lower index must win each round
    graph = ContactGraph(3, [])
    pop = Population(
        state0=np.array([INFECTED, INFECTED, SUSCEPTIBLE], dtype=np.int8),
        group=np.array([GROUP1, GROUP1, GROUP1], dtype=np.int8),
        weight=np.ones(3),
    )
    ctx = build_context(graph, pop, SET1)
    res = greedy_capacity(ctx, 2)
    assert [u for u, _ in res.gain_trace] == [0, 1]


def test_greedy_matches_brute_on_grid_sample():
    for inst, d, label in grid_instances(12):
        g = greedy_capacity(inst.ctx, d)
        b = brute_force(inst.ctx, d)
        assert abs(g.f_value - b.f_value) < 1e-12, label


def test_greedy_sandwich_against_brute():
    for inst, d, label in grid_instances(12):
        g = greedy_capacity(inst.ctx, d)
        b = brute_force(inst.ctx, d)
        factor = greedy_factor(d)
        assert g.f_value <= b.f_value + 1e-12, label
        assert g.f_value >= factor * b.f_value - 1e-12, label


def test_greedy_factor_values():
    assert greedy_factor(1) == 1.0
    assert greedy_factor(2) == 0.75
    # approaches 1 - 1/e from above at rate ~1/(2 e d)
    assert abs(greedy_factor(10**6) - 0.6321205588285577) < 1e-6
    prev = 2.0
    for d in (1, 2, 3, 5, 10, 100):
        assert greedy_factor(d) < prev
        assert greedy_factor(d) > 1.0 - 1.0 / np.e
        prev = greedy_factor(d)
    with pytest.raises(ValueError):
        greedy_factor(0)


def test_brute_force_small_cases():
    ctx = two_unit_ctx()
    res = brute_force(ctx, 1)
    assert res.allocation.selected == frozenset({1})
    # greedy's set is proved optimal at the root: one search node
    assert res.rounds == 1
    res0 = brute_force(ctx, 0)
    assert res0.allocation.selected == frozenset()
    assert res0.f_value == 0.0
    assert res0.rounds == 1
    # d >= n collapses to the full set
    resn = brute_force(ctx, 5)
    assert resn.allocation.selected == frozenset({0, 1})


def test_brute_force_prefers_first_lexicographic_maximizer():
    graph = ContactGraph(3, [])
    pop = Population(
        state0=np.array([INFECTED, INFECTED, INFECTED], dtype=np.int8),
        group=np.zeros(3, dtype=np.int8),
        weight=np.ones(3),
    )
    ctx = build_context(graph, pop, SET1)
    res = brute_force(ctx, 2)
    assert sorted(res.allocation.selected) == [0, 1]


def test_brute_force_breaks_rounding_ties_like_greedy():
    # 0.3 + nextafter(0.3) rounds above 0.6, so a strict comparison would
    # let the last bit pick {0, 2} over {0, 1}
    a = 0.3
    ctx = ObjectiveContext(3, [a, a, np.nextafter(a, 1.0)], [], [], [], 0.0)
    for d in (1, 2):
        res = brute_force(ctx, d)
        assert res.allocation.selected == frozenset(range(d))
        assert res.allocation.selected == greedy_capacity(ctx, d).allocation.selected


def test_brute_force_beats_greedy_just_past_the_tie_window():
    # greedy takes unit 2 first (gain 1 + eps), which costs units 0 and 1
    # 2 eps each, so it ends eps short of {0, 1}, whose value is 2
    eps = 1e-9
    # base gain = direct gain - row sum of w + w^T
    ctx = ObjectiveContext(3, [1 - 2 * eps, 1 - 2 * eps, 1 - 3 * eps], [2, 2], [0, 1],
                           [-2 * eps, -2 * eps], 0.0)
    assert np.allclose(ctx._base_gain, [1.0, 1.0, 1.0 + eps], rtol=0, atol=1e-15)
    greedy = greedy_capacity(ctx, 2)
    assert greedy.allocation.selected == frozenset({0, 2})
    res = brute_force(ctx, 2)
    assert res.allocation.selected == frozenset({0, 1})
    assert res.f_value == 2.0
    assert res.f_value - greedy.f_value > 100 * TOLERANCE


def uniform_pairs_ctx(n):
    """Equal base gains and one small negative spill on every pair: every
    size-k set ties, yet the root bound of k base gains beats them all by
    more than TOLERANCE, so the search visits every size-k set."""
    rows, cols = np.nonzero(~np.eye(n, dtype=bool))
    return ObjectiveContext(n, np.ones(n), rows, cols, np.full(rows.size, -1e-3), 0.0)


def test_brute_force_budget_error_names_count(monkeypatch):
    ctx = uniform_pairs_ctx(8)
    res = brute_force(ctx, 4)
    assert res.allocation.selected == greedy_capacity(ctx, 4).allocation.selected
    assert res.rounds > math.comb(8, 4)
    # the budget bounds the nodes of one call
    monkeypatch.setattr(solvers, "NODE_BUDGET", res.rounds)
    assert brute_force(ctx, 4) == res
    monkeypatch.setattr(solvers, "NODE_BUDGET", res.rounds - 1)
    with pytest.raises(BudgetError, match=f"budget of {res.rounds - 1} nodes"):
        brute_force(ctx, 4)
    with pytest.raises(ValueError):
        brute_force(ctx, -1)


def test_brute_force_searches_past_recursion_and_dense_limits():
    # 4,200 units, past the old 4,096-unit limit.  Units k.. have base gain 1,
    # so greedy takes them for F = k; units 0..k-1 have base gain 0 and form
    # a chain of spill 2, worth 2(k - 1).  The search reaches depth k, past
    # the recursion limit, and the bound, with each chain unit's p = 1/2 sum
    # of its positive entries, closes everything else.
    k = 2100
    assert k > sys.getrecursionlimit()
    n = 2 * k
    chain = np.arange(k - 1)
    # base gain = direct gain - row sum of w + w^T
    direct = np.r_[2.0, np.full(k - 2, 4.0), 2.0, np.ones(k)]
    ctx = ObjectiveContext(n, direct, chain, chain + 1, np.full(k - 1, 2.0), 0.0)
    assert ctx._base_gain.tolist() == [0.0] * k + [1.0] * k
    assert greedy_capacity(ctx, k).f_value == k
    res = brute_force(ctx, k)
    assert res.allocation.selected == frozenset(range(k))
    assert res.f_value == 2.0 * (k - 1)
    assert res.rounds < 3 * k


def random_contexts(seed):
    """A drawn instance and a raw-triplet context with arbitrary values."""
    rng = np.random.default_rng(seed)
    n = 6 + seed % 5
    yield small_instance(seed, n=n, density=0.6, weights=(1.5, 0.5)).ctx
    rows, cols = np.nonzero(rng.random((n, n)) < 0.4)
    off = rows != cols
    yield ObjectiveContext(n, rng.random(n), rows[off], cols[off],
                           -rng.random(int(off.sum())), 0.25)


# rounding between the search's running sums, objective_value and the
# oracle's dense sums, which add the same terms in other orders
SUM_ROUNDING = 1e-14


def assert_exact(got, ctx, d):
    """No size-min(d, n) subset of ctx beats got by more than TOLERANCE, got's
    F is objective_value's, bit for bit, and got is greedy's set unless a
    subset beats greedy's by more than TOLERANCE."""
    best = streamed_optimum(ctx, d)
    assert best <= got.f_value + TOLERANCE + SUM_ROUNDING
    assert got.f_value == objective_value(ctx, got.allocation)
    assert got.welfare == got.f_value + ctx.welfare_constant
    if min(d, ctx.n_units):
        greedy = greedy_capacity(ctx, d)
        if best <= greedy.f_value + TOLERANCE - SUM_ROUNDING:
            assert got.allocation.selected == greedy.allocation.selected


@pytest.mark.parametrize("seed", range(4))
def test_brute_force_matches_streamed_search(seed):
    for ctx in random_contexts(seed):
        n = ctx.n_units
        for d in (1, 2, n // 2, n - 1, n, n + 2):
            assert_exact(brute_force(ctx, d), ctx, d)


def assert_exact_searches(ctxs, k):
    """brute_force on each of ctxs, all on one layout, is exact; the R-row
    search of _exact equals the R one-row searches, node for node; and the F
    _exact returns is objective_value of each row's picks, bit for bit,
    whether the row closed at its root or was searched."""
    layout = ctxs[0]
    assert all(np.array_equal(c._sym_cols, layout._sym_cols) for c in ctxs)
    base = np.stack([c._base_gain for c in ctxs])
    sym = np.stack([c._sym_vals for c in ctxs])
    n = base.shape[1]
    greedy = solvers._greedy(layout, base, sym, k, np.zeros(n, dtype=np.int8), (k,))[0]
    picks, f, nodes = solvers._exact(layout, base, sym, greedy,
                                     _f_rows(layout, base, sym, _members(greedy, n)))
    searches = [brute_force(c, k) for c in ctxs]
    assert [frozenset(p.tolist()) for p in picks] == [s.allocation.selected for s in searches]
    assert nodes == sum(s.rounds for s in searches)
    assert f.tolist() == [objective_value(c, Allocation(p.tolist(), capacity=k))
                          for c, p in zip(ctxs, picks)]
    for ctx, search in zip(ctxs, searches):
        assert_exact(search, ctx, k)


@st.composite
def tied_searches(draw):
    """R objectives on one spill layout and a subset size k.  Units fall into
    classes of exchangeable copies: a copy has its original's direct gain
    and mirrors its spill entries, so swapping copies ties two subsets
    exactly; some layouts have no spill at all."""
    n = draw(st.integers(1, 12))
    k = draw(st.integers(1, min(5, n)))
    cls = []
    for u in range(n):
        src = draw(st.integers(0, u))
        cls.append(cls[src] if src < u else u)
    reps = sorted(set(cls))
    links = [] if draw(st.booleans()) else draw(st.lists(
        st.tuples(st.sampled_from(reps), st.sampled_from(reps)).filter(
            lambda p: p[0] != p[1]), unique=True, max_size=12))
    entries = [(i, j, links.index((cls[i], cls[j]))) for i in range(n) for j in range(n)
               if (cls[i], cls[j]) in links]
    rows = np.array([i for i, _, _ in entries], dtype=np.int64)
    cols = np.array([j for _, j, _ in entries], dtype=np.int64)
    value = st.one_of(st.sampled_from([0.0, 0.25, 0.5]), st.floats(0.0, 1.0))
    ctxs = []
    for _ in range(draw(st.integers(1, 3))):
        gain = dict(zip(reps, draw(st.lists(value, min_size=len(reps), max_size=len(reps)))))
        spill = draw(st.lists(value, min_size=len(links), max_size=len(links)))
        ctxs.append(ObjectiveContext(n, [gain[c] for c in cls], rows, cols,
                                     [-spill[e] for _, _, e in entries], 0.0))
    return ctxs, k


@settings(max_examples=200, deadline=None)
@given(tied_searches())
def test_brute_picks_equal_streamed_search_with_planted_ties(case):
    assert_exact_searches(*case)


@st.composite
def drawn_searches(draw):
    """R objectives on one layout and a subset size k: a generated instance
    under up to three parameter sets, or raw triplets whose spill values are
    all negative or of mixed sign, so F may be neither submodular nor
    monotone."""
    kind = draw(st.sampled_from(["generated", "negative", "mixed"]))
    n = draw(st.integers(1, 11))
    k = draw(st.integers(1, n))
    count = draw(st.integers(1, 3))
    if kind == "generated":
        inst = small_instance(draw(st.integers(0, 2**16)), n=n,
                              density=draw(st.floats(0.1, 1.0)),
                              weights=draw(st.sampled_from([(1.0, 1.0), (10.0, 1.0), (1.0, 4.0)])))
        psets = draw(st.lists(st.sampled_from(sorted(PARAMETER_SETS)), min_size=count,
                              max_size=count))
        return [inst.pattern.context(PARAMETER_SETS[p]) for p in psets], k
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda p: p[0] != p[1]), unique=True, max_size=3 * n))
    rows = np.array([i for i, _ in pairs], dtype=np.int64)
    cols = np.array([j for _, j in pairs], dtype=np.int64)
    high = 0.0 if kind == "negative" else 1.0
    ctxs = []
    for _ in range(count):
        gain = draw(st.lists(st.floats(-0.5, 1.0), min_size=n, max_size=n))
        spill = draw(st.lists(st.floats(-1.0, high), min_size=len(pairs), max_size=len(pairs)))
        ctxs.append(ObjectiveContext(n, gain, rows, cols, spill, 0.0))
    return ctxs, k


@settings(max_examples=300, deadline=None)
@given(drawn_searches())
def test_brute_force_is_exact_on_generated_and_raw_contexts(case):
    assert_exact_searches(*case)


@pytest.mark.parametrize("n, k, chunk", [(7, 3, 4), (7, 3, 34), (9, 2, 5),
                                          (6, 6, 4), (5, 4, 2), (8, 5, 1000)])
def test_combo_chunks_match_itertools_order(n, k, chunk):
    blocks = list(_combo_chunks(n, k, chunk))
    count = math.comb(n, k)
    assert [b.shape for b in blocks] == (
        [(chunk, k)] * (count // chunk) + ([(count % chunk, k)] if count % chunk else []))
    assert all(b.dtype == np.int64 for b in blocks)
    assert np.concatenate(blocks).tolist() == [list(c) for c in
                                               itertools.combinations(range(n), k)]


def test_targeting_respects_caps():
    for seed in range(6):
        inst = small_instance(seed, n=20, density=0.5)
        groups = inst.pop.group
        res = greedy_targeting(inst.ctx, 6, 2, 3, groups)
        chosen = np.fromiter(res.allocation.selected, dtype=int)
        assert len(chosen) <= 6
        assert int((groups[chosen] == 0).sum()) <= 2
        assert int((groups[chosen] == 1).sum()) <= 3
        assert res.allocation.targeting == (2, 3)


def test_targeting_loose_caps_match_capacity_greedy():
    inst = small_instance(3, n=18, density=0.5)
    res = greedy_targeting(inst.ctx, 5, 18, 18, inst.pop.group)
    plain = greedy_capacity(inst.ctx, 5)
    assert res.allocation.selected == plain.allocation.selected


def test_targeting_zero_caps_select_nothing():
    inst = small_instance(3, n=10)
    res = greedy_targeting(inst.ctx, 4, 0, 0, inst.pop.group)
    assert res.allocation.selected == frozenset()
    assert res.f_value == 0.0


def test_targeting_stops_when_caps_bind():
    graph = ContactGraph(4, [])
    pop = Population(
        state0=np.array([INFECTED] * 4, dtype=np.int8),
        group=np.array([GROUP1, GROUP1, GROUP2, GROUP2], dtype=np.int8),
        weight=np.ones(4),
    )
    ctx = build_context(graph, pop, SET1)
    res = greedy_targeting(ctx, 4, 1, 1, pop.group)
    chosen = res.allocation.selected
    assert len(chosen) == 2
    assert len(chosen & {0, 1}) == 1
    assert len(chosen & {2, 3}) == 1


def test_targeting_validation():
    inst = small_instance(0, n=6)
    for d, d1, d2 in ((-1, 2, 2), (2, -1, 2), (2, 2, -1)):
        with pytest.raises(ValueError):
            greedy_targeting(inst.ctx, d, d1, d2, inst.pop.group)
    with pytest.raises(ValueError):
        greedy_targeting(inst.ctx, 2, 2, 2, inst.pop.group[:-1])
    # a label outside {GROUP1, GROUP2} would otherwise index another group's cap
    for label in (-1, 2):
        groups = inst.pop.group.copy()
        groups[0] = label
        with pytest.raises(ValueError):
            greedy_targeting(inst.ctx, 2, 2, 2, groups)


def test_targeting_at_least_half_of_matroid_optimum():
    for seed in range(10):
        inst = small_instance(seed, n=12, density=0.5, pset="set2")
        groups = inst.pop.group
        res = greedy_targeting(inst.ctx, 4, 2, 2, groups)
        _, opt = matroid_brute(inst.ctx, 4, 2, 2, groups)
        assert res.f_value >= 0.5 * opt - 1e-12


def test_random_assignment_full_capacity_has_zero_spread():
    inst = small_instance(2, n=10)
    summary = random_assignment(inst.ctx, 10)
    full_val = objective_value(inst.ctx, Allocation(frozenset(range(10)), 10))
    assert abs(summary.mean_f - full_val) < 1e-12
    assert summary.sd_f == 0.0
    assert summary.draws == 0


def test_random_assignment_matches_exhaustive_expectation():
    inst = small_instance(5, n=10, density=0.5)
    exact = all_subsets_objective(inst.ctx, 2).mean()
    summary = random_assignment(inst.ctx, 2)
    assert abs(summary.mean_f - exact) < 1e-12
    assert abs(summary.mean_welfare - (summary.mean_f + inst.ctx.welfare_constant)) < 1e-12


def test_random_assignment_deterministic_in_seed():
    inst = small_instance(2, n=15)
    # the baseline is exact in both modes, so it takes no seed
    linear = random_assignment(inst.ctx, 4)
    assert linear == random_assignment(inst.ctx, 4)


def test_exact_evaluator_bounds_its_temporaries():
    # N=600 at density 0.5: one call reads each (susceptible unit, infected
    # neighbor) entry at most once, so its temporaries stay within a small
    # multiple of the pattern's CSR of w + w^T (2 nnz positions, n + 1
    # offsets), while one dense (n, n) array would be ~7x that
    inst = draw_instance(600, 0.5, PARAMETER_SETS["set1"], 0.4, DEFAULT_DIST,
                         (2.0, 0.5), 3)
    evaluate = inst.pattern.welfare(inst.params, "exact")
    units = next(iter_random_subsets(0, 600, 120, 1, chunk=1))[0]
    pattern_bytes = 8 * (2 * inst.ctx.spill_vals.size + 600)
    tracemalloc.start()
    value = evaluate(units)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert value == welfare_value(inst.graph, inst.pop, inst.params,
                                  Allocation(units, 600), "exact")
    assert peak < 2 * pattern_bytes


def test_random_assignment_validation():
    inst = small_instance(2, n=8)
    with pytest.raises(ValueError):
        random_assignment(inst.ctx, 0)
    with pytest.raises(ValueError):
        random_assignment(inst.ctx, 9)


def test_twni_fills_priority_group_first():
    graph = ContactGraph(6, [])
    pop = Population(
        state0=np.array([SUSCEPTIBLE] * 6, dtype=np.int8),
        group=np.array([GROUP1, GROUP2, GROUP1, GROUP2, GROUP2, GROUP1], dtype=np.int8),
        weight=np.ones(6),
    )
    ctx = build_context(graph, pop, SET1)
    assert twni(ctx, 2, pop.group).allocation.selected == frozenset({1, 3})
    assert twni(ctx, 3, pop.group).allocation.selected == frozenset({1, 3, 4})
    # spills into group 1 in ascending order once the priority group is full
    assert twni(ctx, 4, pop.group).allocation.selected == frozenset({1, 3, 4, 0})
    assert twni(ctx, 6, pop.group).allocation.selected == frozenset(range(6))


def test_twni_validation():
    inst = small_instance(0, n=6)
    with pytest.raises(ValueError):
        twni(inst.ctx, -1, inst.pop.group)
    with pytest.raises(ValueError):
        twni(inst.ctx, 2, inst.pop.group[:-1])
    with pytest.raises(ValueError, match="group entries must be GROUP1 or GROUP2"):
        twni(inst.ctx, 2, np.full(6, 7))
