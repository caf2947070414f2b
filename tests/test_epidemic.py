import numpy as np
import pytest

from netvax import (
    GROUP1,
    GROUP2,
    INFECTED,
    RECOVERED,
    SUSCEPTIBLE,
    Allocation,
    ContactGraph,
    Population,
    SirParams,
)

from _oracles import (DEFAULT_DIST, beta_from_contacts, beta_from_r0, infection_rate,
                      small_instance, transition_probabilities)


def make_params(**kw):
    base = dict(beta=[[0.7, 0.5], [0.5, 0.6]], gamma=[0.1, 0.05], delta=[0.0, 0.0])
    base.update(kw)
    return SirParams(**base)


def test_params_validation():
    with pytest.raises(ValueError):
        make_params(beta=[[0.7, 0.5]])
    with pytest.raises(ValueError, match="gamma and delta must each have length 2"):
        make_params(gamma=[0.1])
    with pytest.raises(ValueError):
        make_params(beta=[[1.2, 0.5], [0.5, 0.6]])
    with pytest.raises(ValueError):
        make_params(gamma=[0.1, -0.05])
    with pytest.raises(ValueError):
        make_params(gamma=[0.9, 0.1], delta=[0.2, 0.0])
    # boundary: gamma + delta == 1 allowed
    make_params(gamma=[0.9, 0.1], delta=[0.1, 0.0])


def test_params_arrays_read_only():
    p = make_params()
    with pytest.raises(ValueError):
        p.beta[0, 0] = 0.9


def _assert_copied(held, given):
    """Each given array is still writable and a write to it does not reach held."""
    for name, array in given.items():
        kept = array.copy()
        array[...] = 0
        assert getattr(held, name).tolist() == kept.tolist(), name


def test_params_copy_the_callers_arrays():
    # freezing the caller's own arrays made them read-only, and a later
    # write to them would have reached the parameters
    given = {"beta": np.full((2, 2), 0.5), "gamma": np.array([0.1, 0.1]),
             "delta": np.array([0.1, 0.0])}
    _assert_copied(SirParams(**given), given)


def test_population_copies_the_callers_arrays():
    given = {"state0": np.array([0, 1], dtype=np.int8),
             "group": np.array([0, 1], dtype=np.int8), "weight": np.ones(2)}
    _assert_copied(Population(**given), given)


def test_population_validation():
    with pytest.raises(ValueError):
        Population(state0=np.array([0, 3], dtype=np.int8), group=np.zeros(2, dtype=np.int8), weight=np.ones(2))
    with pytest.raises(ValueError):
        Population(state0=np.zeros(2, dtype=np.int8), group=np.array([0, 2], dtype=np.int8), weight=np.ones(2))
    with pytest.raises(ValueError):
        Population(state0=np.zeros(2, dtype=np.int8), group=np.zeros(2, dtype=np.int8), weight=np.ones(3))
    with pytest.raises(ValueError, match="at least one unit"):
        Population(state0=[], group=[], weight=[])


def test_population_masks():
    pop = Population(
        state0=np.array([0, 1, 2, 1], dtype=np.int8),
        group=np.array([0, 1, 0, 0], dtype=np.int8),
        weight=np.ones(4),
    )
    assert pop.n_units == 4
    assert pop.susceptible.tolist() == [True, False, False, False]
    assert pop.infected.tolist() == [False, True, False, True]
    assert pop.recovered.tolist() == [False, False, True, False]
    for name, code in (("susceptible", SUSCEPTIBLE), ("infected", INFECTED),
                       ("recovered", RECOVERED)):
        mask = getattr(pop, name)
        assert np.array_equal(mask, pop.state0 == code)
        assert not mask.flags.writeable
        # computed once: every read returns the same array
        assert getattr(pop, name) is mask


def test_beta_from_contacts_frozen():
    # 2 contacts per step, 30% transmission each: -2*log(0.7)
    assert beta_from_contacts(2.0, 0.3) == 0.7133498878774647
    assert beta_from_contacts(0.0, 0.5) == 0.0
    assert beta_from_contacts(1.0, 0.0) == 0.0


def test_beta_from_contacts_oracle():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40
    want = float(-2 * mpmath.log(mpmath.mpf("0.7")))
    assert abs(beta_from_contacts(2.0, 0.3) - want) < 1e-15


def test_beta_from_contacts_validation():
    with pytest.raises(ValueError):
        beta_from_contacts(-1.0, 0.3)
    with pytest.raises(ValueError):
        beta_from_contacts(2.0, 1.0)


def test_beta_from_r0():
    assert beta_from_r0(7.0, 0.1) == 0.7000000000000001
    with pytest.raises(ValueError):
        beta_from_r0(-1.0, 0.1)
    with pytest.raises(ValueError):
        beta_from_r0(2.0, 0.0)


def line_instance():
    # 0 - 1 - 2, unit 1 infected, others susceptible
    graph = ContactGraph(3, [(0, 1), (1, 2)])
    pop = Population(
        state0=np.array([SUSCEPTIBLE, INFECTED, SUSCEPTIBLE], dtype=np.int8),
        group=np.array([GROUP1, GROUP2, GROUP2], dtype=np.int8),
        weight=np.ones(3),
    )
    return graph, pop


def test_infection_rate_linear():
    graph, pop = line_instance()
    params = make_params()
    empty = Allocation.empty(3)
    # unit 0: one infected neighbor of group 2, degree 1 -> beta[0,1] = 0.5
    assert infection_rate(0, graph, pop, params, empty) == 0.5
    # unit 2 is group 2: beta[1,1] = 0.6
    assert infection_rate(2, graph, pop, params, empty) == 0.6
    # vaccinating the source removes the exposure
    alloc = Allocation(selected=frozenset({1}), capacity=1)
    assert infection_rate(0, graph, pop, params, alloc) == 0.0


def test_infection_rate_degree_normalized():
    graph = ContactGraph(3, [(0, 1), (0, 2)])
    pop = Population(
        state0=np.array([SUSCEPTIBLE, INFECTED, INFECTED], dtype=np.int8),
        group=np.array([GROUP1, GROUP1, GROUP1], dtype=np.int8),
        weight=np.ones(3),
    )
    params = make_params()
    z = infection_rate(0, graph, pop, params, Allocation.empty(3))
    # two infected neighbors over degree 2: just beta[0,0]
    assert z == 0.7


def test_infection_rate_exact_mode_frozen():
    graph, pop = line_instance()
    pop2 = Population(state0=pop.state0, group=np.zeros(3, dtype=np.int8), weight=pop.weight)
    params = make_params()
    z = infection_rate(0, graph, pop2, params, Allocation.empty(3), mode="exact")
    # 1 - exp(-0.7)
    assert z == 0.5034146962085905


def test_infection_rate_exact_below_linear():
    rng = np.random.default_rng(5)
    inst = small_instance(7)
    empty = Allocation.empty(inst.pop.n_units)
    for unit in range(inst.pop.n_units):
        lin = infection_rate(unit, inst.graph, inst.pop, inst.params, empty)
        ex = infection_rate(unit, inst.graph, inst.pop, inst.params, empty, mode="exact")
        assert ex <= lin + 1e-15
        assert 0.0 <= ex <= 1.0


def test_infection_rate_isolated_unit():
    graph = ContactGraph(2, [])
    pop = Population(
        state0=np.array([SUSCEPTIBLE, INFECTED], dtype=np.int8),
        group=np.zeros(2, dtype=np.int8),
        weight=np.ones(2),
    )
    assert infection_rate(0, graph, pop, make_params(), Allocation.empty(2)) == 0.0


def test_transitions_vaccinated_unit():
    graph, pop = line_instance()
    params = make_params()
    alloc = Allocation(selected=frozenset({0, 1}), capacity=2)
    for unit in (0, 1):
        probs = transition_probabilities(unit, graph, pop, params, alloc)
        assert probs == (0.0, 0.0, 1.0, 0.0)


def test_transitions_recovered_unit():
    graph = ContactGraph(2, [(0, 1)])
    pop = Population(
        state0=np.array([RECOVERED, INFECTED], dtype=np.int8),
        group=np.zeros(2, dtype=np.int8),
        weight=np.ones(2),
    )
    probs = transition_probabilities(0, graph, pop, make_params(), Allocation.empty(2))
    assert probs == (0.0, 0.0, 1.0, 0.0)


def test_transitions_infected_unit_with_mortality():
    graph = ContactGraph(2, [(0, 1)])
    pop = Population(
        state0=np.array([INFECTED, SUSCEPTIBLE], dtype=np.int8),
        group=np.array([GROUP2, GROUP2], dtype=np.int8),
        weight=np.ones(2),
    )
    params = make_params(gamma=[0.1, 0.05], delta=[0.0, 0.01])
    p_s, p_i, p_r, p_d = transition_probabilities(0, graph, pop, params, Allocation.empty(2))
    assert p_s == 0.0
    assert abs(p_i - 0.94) < 1e-12
    assert abs(p_r - 0.05) < 1e-12
    assert abs(p_d - 0.01) < 1e-12


def test_transitions_susceptible_unit():
    graph, pop = line_instance()
    params = make_params()
    p_s, p_i, p_r, p_d = transition_probabilities(0, graph, pop, params, Allocation.empty(3))
    assert abs(p_s - 0.5) < 1e-12
    assert abs(p_i - 0.5) < 1e-12
    assert p_r == 0.0
    assert p_d == 0.0


def test_transition_probabilities_sum_to_one():
    for seed in range(10):
        inst = small_instance(seed, pset="set2")
        rng = np.random.default_rng(seed)
        n = inst.pop.n_units
        chosen = frozenset(rng.choice(n, size=3, replace=False).tolist())
        alloc = Allocation(selected=chosen, capacity=3)
        for mode in ("linear", "exact"):
            for unit in range(n):
                probs = transition_probabilities(unit, inst.graph, inst.pop, inst.params, alloc, mode=mode)
                assert all(p >= -1e-15 for p in probs)
                assert abs(sum(probs) - 1.0) < 1e-12


def test_relabeling_symmetry():
    # swapping two susceptible units with identical neighborhoods swaps nothing
    graph = ContactGraph(4, [(0, 2), (1, 2), (0, 3), (1, 3)])
    pop = Population(
        state0=np.array([SUSCEPTIBLE, SUSCEPTIBLE, INFECTED, INFECTED], dtype=np.int8),
        group=np.array([GROUP1, GROUP1, GROUP2, GROUP2], dtype=np.int8),
        weight=np.ones(4),
    )
    params = make_params()
    empty = Allocation.empty(4)
    assert transition_probabilities(0, graph, pop, params, empty) == transition_probabilities(
        1, graph, pop, params, empty
    )
