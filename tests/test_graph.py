import hashlib
import io
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from netvax import ContactGraph, EdgeListError, erdos_renyi, graph, load_edge_list, save_edge_list

from _oracles import er_skip_by_gap, graph_arrays, neighbors, save_edge_list_by_line


def test_complete_graph():
    g = erdos_renyi(4, 1.0, seed=0)
    assert g.n_edges == 6
    assert g.degree.tolist() == [3, 3, 3, 3]
    assert neighbors(g, 2).tolist() == [0, 1, 3]


def test_empty_graph():
    g = erdos_renyi(5, 0.0, seed=0)
    assert g.n_edges == 0
    assert g.degree.tolist() == [0] * 5
    assert neighbors(g, 0).size == 0


def test_single_unit():
    g = erdos_renyi(1, 1.0, seed=3)
    assert g.n_edges == 0


def test_seed_determinism():
    a = erdos_renyi(40, 0.3, seed=9)
    b = erdos_renyi(40, 0.3, seed=9)
    c = erdos_renyi(40, 0.3, seed=10)
    assert a == b
    assert a != c


def test_edge_count_within_three_sigma():
    # Binomial(C(500,2), 0.1): mean 12475, sd ~105.96
    g = erdos_renyi(500, 0.1, seed=11)
    assert abs(g.n_edges - 12475) <= 318


def test_degree_sum_is_twice_edge_count():
    for seed in range(6):
        g = erdos_renyi(30, 0.4, seed=seed)
        assert int(g.degree.sum()) == 2 * g.n_edges


def test_duplicate_and_reversed_edges_collapse():
    g = ContactGraph(3, [(0, 1), (1, 0), (0, 1), (2, 1)])
    assert g.n_edges == 2
    assert g.edges.tolist() == [[0, 1], [1, 2]]


def test_self_loop_rejected():
    with pytest.raises(ValueError, match="self-loop"):
        ContactGraph(3, [(1, 1)])


def test_out_of_range_rejected():
    with pytest.raises(ValueError, match="out of range"):
        ContactGraph(3, [(0, 3)])
    with pytest.raises(ValueError):
        ContactGraph(0, [])
    with pytest.raises(ValueError, match="whole number"):
        ContactGraph(12.7)


def test_density_validation():
    with pytest.raises(ValueError, match="density"):
        erdos_renyi(5, 1.2, seed=0)
    with pytest.raises(ValueError, match="density"):
        erdos_renyi(5, -0.1, seed=0)


def test_round_trip_identity():
    for seed in range(5):
        g = erdos_renyi(25, 0.3, seed=seed)
        buf = io.StringIO()
        save_edge_list(g, buf)
        buf.seek(0)
        assert load_edge_list(buf) == g


def test_save_writes_each_edge_once():
    g = ContactGraph(4, [(2, 0), (3, 1)])
    buf = io.StringIO()
    save_edge_list(g, buf)
    assert buf.getvalue() == "n_units=4\n0 2\n1 3\n"


@pytest.mark.parametrize("g", [ContactGraph(5), ContactGraph(1), erdos_renyi(300, 0.05, 11),
                               erdos_renyi(900, 0.1, 4)],
                         ids=["empty", "one_unit", "generated", "several_writes"])
def test_save_matches_line_by_line_writer(g):
    sink, want = io.StringIO(), io.StringIO()
    with mock.patch.object(sink, "write", wraps=sink.write) as write:
        save_edge_list(g, sink)
    save_edge_list_by_line(g, want)
    assert sink.getvalue().encode() == want.getvalue().encode()
    # the header, then one write per block of at most _SAVE_EDGES edges
    assert write.call_count == 1 + -(-g.n_edges // graph._SAVE_EDGES)
    assert g.n_units != 900 or write.call_count == 4


def test_load_skips_comments_and_blanks():
    text = "# generated\n\nn_units=3\n0 1\n# middle comment\n1 2\n"
    g = load_edge_list(io.StringIO(text))
    assert g.n_units == 3
    assert g.n_edges == 2


def test_load_error_names_line_number():
    with pytest.raises(EdgeListError, match="index out of range at line 2"):
        load_edge_list(io.StringIO("n_units=3\n0 3\n"))
    with pytest.raises(EdgeListError, match="self-loop at line 3"):
        load_edge_list(io.StringIO("n_units=3\n0 1\n2 2\n"))
    with pytest.raises(EdgeListError, match="malformed edge at line 2"):
        load_edge_list(io.StringIO("n_units=3\n0 1 2\n"))
    with pytest.raises(EdgeListError, match="missing n_units header"):
        load_edge_list(io.StringIO("0 1\n"))
    with pytest.raises(EdgeListError, match="invalid n_units header"):
        load_edge_list(io.StringIO("n_units=zero\n"))
    with pytest.raises(EdgeListError, match="missing n_units header"):
        load_edge_list(io.StringIO("# only comments\n"))


def test_size_whose_keys_overflow_is_rejected():
    with pytest.raises(ValueError, match=r"n_units\*\*2 < 2\*\*63"):
        ContactGraph(2**32, [(2**32 - 2, 2**32 - 1)])
    # refused before any of its ~2^63 pairs is drawn
    with pytest.raises(ValueError, match=r"n_units\*\*2 < 2\*\*63"):
        erdos_renyi(2**32, 0.0, 0)
    with pytest.raises(EdgeListError, match="invalid n_units header"):
        load_edge_list(io.StringIO("n_units=4294967296\n4294967294 4294967295\n"))


def test_neighbors_validates_unit():
    g = erdos_renyi(5, 0.5, seed=1)
    with pytest.raises(ValueError):
        neighbors(g, 5)


def test_float_endpoints_must_be_whole_numbers():
    for bad in ([(0.0, 1.9)], [(0, float("nan"))], [(0, float("inf"))]):
        with pytest.raises(ValueError, match="whole numbers"):
            ContactGraph(3, bad)
    with pytest.raises(ValueError, match="whole numbers"):
        ContactGraph(3, np.array([[0.5, 2.0]]))
    g = ContactGraph(3, [(0.0, 1.0), (2.0, 1.0)])
    assert g.edges.dtype == np.int64
    assert g.edges.tolist() == [[0, 1], [1, 2]]
    assert ContactGraph(3, np.array([[2.0, 0.0]])) == ContactGraph(3, [(0, 2)])


def assert_graph_arrays(g, expected):
    edges, _, degree, _ = expected
    for name, want in (("edges", edges), ("degree", degree)):
        got = getattr(g, name)
        assert got.dtype == want.dtype, name
        assert got.shape == want.shape, name
        assert np.array_equal(got, want), name


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 300),
       st.one_of(st.sampled_from([0.0, 1.0, 1e-300]),
                 st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)),
       st.integers(0, 2**64 - 1),
       st.one_of(st.none(), st.integers(1, 64)))
def test_erdos_renyi_matches_skip_by_gap(n, density, seed, chunk):
    if chunk is None:
        g = erdos_renyi(n, density, seed)
    else:  # erdos_renyi's one min() sizes its chunks: cap them at `chunk` gaps
        with mock.patch.object(graph, "min", lambda *sizes: chunk, create=True):
            g = erdos_renyi(n, density, seed)
    assert_graph_arrays(g, graph_arrays(n, er_skip_by_gap(n, density, seed)))


def flat_pair_index(n, edges):
    """Position of each pair (i, j), i < j, in the ascending order of pairs."""
    i, j = edges.T
    return i * (2 * n - i - 1) // 2 + (j - i - 1)


# Seeded distribution checks.  Each threshold was fixed before the first run:
# 4 sd for edge counts and the 0.999 chi-square quantile for the histograms.
# Densities on both sides of 1/3 reach both of NumPy's geometric samplers.
@pytest.mark.parametrize("n, density, seed", [
    (2000, 0.01, 1), (5000, 0.0004, 2), (300, 0.6, 3), (1000, 1 / 3, 4), (60, 0.999, 5),
])
def test_edge_count_within_binomial_bounds(n, density, seed):
    pairs = n * (n - 1) // 2
    sd = (pairs * density * (1 - density)) ** 0.5
    assert abs(erdos_renyi(n, density, seed).n_edges - pairs * density) <= 4 * sd


@pytest.mark.parametrize("n, density, seed", [
    (2000, 0.01, 1), (5000, 0.0004, 2), (300, 0.6, 3), (1000, 1 / 3, 4),
])
def test_pair_positions_are_uniform(n, density, seed):
    bins = 50  # divides n(n - 1)/2 for every case
    pairs = n * (n - 1) // 2
    g = erdos_renyi(n, density, seed)
    counts = np.bincount(flat_pair_index(n, g.edges) // (pairs // bins), minlength=bins)
    expected = g.n_edges / bins
    assert np.sum((counts - expected) ** 2 / expected) <= stats.chi2.ppf(0.999, bins - 1)


@pytest.mark.parametrize("n, density, seed", [(5000, 0.002, 6), (300, 0.6, 7), (2000, 0.1, 8)])
def test_degrees_follow_binomial(n, density, seed):
    degree = erdos_renyi(n, density, seed).degree
    expected = n * stats.binom.pmf(np.arange(n), n - 1, density)
    lo, hi = np.flatnonzero(expected >= 5)[[0, -1]]
    # degrees below lo and above hi pool into one bin each
    observed = np.bincount(np.clip(degree, lo - 1, hi + 1) - (lo - 1), minlength=hi - lo + 3)
    want = np.concatenate([[expected[:lo].sum()], expected[lo:hi + 1], [expected[hi + 1:].sum()]])
    stat = np.sum((observed - want) ** 2 / want)
    assert stat <= stats.chi2.ppf(0.999, want.size - 1)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 40).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                         .filter(lambda e: e[0] != e[1]), max_size=120))))
def test_contact_graph_matches_unique_build(case):
    n, edges = case
    assert_graph_arrays(ContactGraph(n, edges), graph_arrays(n, edges))
    assert_graph_arrays(ContactGraph(n, np.array(edges, dtype=np.int64).reshape(-1, 2)),
                        graph_arrays(n, edges))


@pytest.mark.parametrize("n, density, seed, digest", [
    (1, 1.0, 0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (2, 1.0, 3, "9d34149fbd1fe777eb238799054c8cbfbce372255f219f8740838def9bfd02db"),
    (50, 0.3, 9, "6cd5228e169dbf22cdbc0acc092d170dc5879e65c5f1508efd1bc92bdaf8c380"),
    (500, 0.1, 11, "5e71daca6fd6f91a8dd5660c8fc7e9d8dd749e3d5ff15b8c2c361537b08e1e00"),
    (1200, 0.05, 7, "d305aafde9cf6aae5d1c9fd54175d244d76d5246559f12b2b67490a2fb769c4f"),
    # density >= 1/3: NumPy draws these gaps by search, not by inversion
    (300, 0.6, 5, "e98cded8cd4fff04b32696f03a491da631b080f0e8e2cd973d718190b53f2b20"),
])
def test_generator_stream_is_pinned(n, density, seed, digest):
    edges = erdos_renyi(n, density, seed).edges
    assert edges.dtype == np.int64
    assert hashlib.sha256(edges.tobytes()).hexdigest() == digest
