"""Parameter enumeration, the term matrices, and probability maps."""

import numpy as np
import pytest

from admgfit.graph import Admg
from admgfit.moebius import (
    enumerate_params,
    parametrization,
    prob_direct,
    prob_vector,
    q_from_p,
    state_index,
)

from util import (
    graph_one,
    graph_two,
    markov_joint,
    random_admg,
    random_interior_q,
    subsets,
)


def test_param_names_and_order_on_reference_graphs():
    names1 = [p.name for p in enumerate_params(graph_one()).params]
    assert names1 == [
        "q[1]", "q[2|1=0]", "q[2|1=1]", "q[3]",
        "q[2,3|1=0]", "q[2,3|1=1]", "q[4|2=0]", "q[4|2=1]",
        "q[3,4|1,2=00]", "q[3,4|1,2=01]", "q[3,4|1,2=10]", "q[3,4|1,2=11]",
    ]
    names2 = [p.name for p in enumerate_params(graph_two()).params]
    assert names2 == [
        "q[1]", "q[2|1=0]", "q[2|1=1]", "q[3]",
        "q[1,3]", "q[2,3|1=0]", "q[2,3|1=1]",
    ]


def test_param_table_index_lookup():
    table = enumerate_params(graph_one())
    j = table.index(("3", "4"), (1, 0))
    assert table.params[j].name == "q[3,4|1,2=10]"
    with pytest.raises(KeyError):
        table.index(("2", "4"), ())


def test_state_index_is_big_endian():
    assert state_index((0, 0, 0)) == 0
    assert state_index((0, 0, 1)) == 1
    assert state_index((1, 0, 1)) == 5
    assert state_index((1, 1, 1)) == 7


# the three-vertex reference graph has a single district {1, 2, 3} with
# twelve inclusion-exclusion terms and seven parameters; these matrices
# are checked entry for entry
P_EXPECTED = np.array([
    # q1 q2|1=0 q2|1=1 q3 q13 q23|1=0 q23|1=1
    [0, 0, 0, 0, 0, 0, 0],  # empty product
    [1, 0, 0, 0, 0, 0, 0],  # {1}
    [0, 1, 0, 0, 0, 0, 0],  # {2}, i1=0
    [0, 0, 1, 0, 0, 0, 0],  # {2}, i1=1
    [1, 1, 0, 0, 0, 0, 0],  # {1,2}, i1=0
    [1, 0, 1, 0, 0, 0, 0],  # {1,2}, i1=1
    [0, 0, 0, 1, 0, 0, 0],  # {3}
    [0, 0, 0, 0, 1, 0, 0],  # {1,3}
    [0, 0, 0, 0, 0, 1, 0],  # {2,3}, i1=0
    [0, 0, 0, 0, 0, 0, 1],  # {2,3}, i1=1
    [1, 0, 0, 0, 0, 1, 0],  # {1,2,3}, i1=0
    [1, 0, 0, 0, 0, 0, 1],  # {1,2,3}, i1=1
])

M_ROW_101 = np.array([0, 0, 0, 1, 0, -1, 0, 0, 0, -1, 0, 1])


def test_term_matrix_p_matches_reference():
    par = parametrization(graph_two())
    assert len(par.maps) == 1
    P = par.maps[0].P.toarray().astype(int)
    assert P.shape == (12, 7)
    assert (P == P_EXPECTED).all()


def test_sign_matrix_m_row_matches_reference():
    par = parametrization(graph_two())
    M = par.maps[0].M.toarray().astype(int)
    assert M.shape == (8, 12)
    row = M[state_index((1, 0, 1))]
    assert (row == M_ROW_101).all()


def test_term_count_is_sum_over_subsets_of_tail_states():
    """One term per subset C of the district and per assignment to the
    union of the tails of C's head partition."""
    from admgfit.heads import head_partition, tail

    rng = np.random.default_rng(31)
    for _ in range(20):
        g = random_admg(rng, n_max=5)
        par = parametrization(g)
        for dm in par.maps:
            want = 0
            for c in subsets(dm.district):
                tails = set()
                for block in head_partition(g, c):
                    tails |= set(tail(g, block))
                want += 2 ** len(tails)
            assert dm.M.shape[1] == dm.P.shape[0] == len(dm.terms) == want


def test_factored_probability_identity():
    """For the four-vertex reference graph the probability of state
    (1,1,0,1) collapses to a short product; check both the raw eight
    term expansion and the factored form."""
    g = graph_one()
    rng = np.random.default_rng(32)
    for _ in range(60):
        q = random_interior_q(g, rng)
        q1, q2_1, q3 = q[0], q[2], q[3]
        q23_1 = q[5]
        q34_11 = q[11]
        factored = (1 - q1) * (q3 - q23_1 - q34_11 + q34_11 * q2_1)
        expanded = (
            q3 - q1 * q3 - q23_1 - q34_11 + q23_1 * q1
            + q34_11 * q1 + q34_11 * q2_1 - q34_11 * q2_1 * q1
        )
        p = prob_vector(g, q)[state_index((1, 1, 0, 1))]
        assert abs(p - factored) < 1e-12
        assert abs(p - expanded) < 1e-12


def test_prob_vector_agrees_with_direct_sum():
    import itertools

    rng = np.random.default_rng(33)
    for _ in range(12):
        g = random_admg(rng, n_max=4)
        q = random_interior_q(g, rng)
        pv = prob_vector(g, q)
        states = itertools.product((0, 1), repeat=len(g.vertices))
        pd = np.array([prob_direct(g, q, s) for s in states])
        assert np.max(np.abs(pv - pd)) < 1e-10
        assert abs(pv.sum() - 1.0) < 1e-12


def test_district_maps_live_on_the_district_and_its_parents():
    """Each district's M has one row per state of D with pa(D), in
    counting order over those vertices, and 3^|D| 2^|pa(D) - D| entries."""
    import itertools

    from admgfit.cli import _bench_graph

    rng = np.random.default_rng(35)
    graphs = [_bench_graph("fixed", 7)]
    while len(graphs) < 13:
        g = random_admg(rng, n_min=3, n_max=7, p_dir=0.3)
        if len(g.districts()) >= 2:
            graphs.append(g)
    for g in graphs:
        n = len(g.vertices)
        states = np.array(list(itertools.product((0, 1), repeat=n)))
        for dm in parametrization(g).maps:
            d, pa = set(dm.district), set(g.parents(dm.district))
            scope = tuple(k for k, v in enumerate(g.vertices) if v in d | pa)
            assert dm.scope == scope
            assert dm.M.shape[0] == 2 ** len(scope)
            assert dm.M.nnz == 3 ** len(d) * 2 ** len(pa - d)
            assert dm.rows.tolist() == [state_index(s[list(scope)]) for s in states]
        if n <= 6:
            q = random_interior_q(g, rng)
            pd = np.array([prob_direct(g, q, s) for s in states])
            assert np.max(np.abs(prob_vector(g, q) - pd)) < 1e-10


def test_round_trip_through_probabilities():
    """Head conditionals of a distribution in the model reproduce it,
    and mapping those conditionals back to probabilities is exact."""
    rng = np.random.default_rng(34)
    for _ in range(30):
        g = random_admg(rng, n_max=5)
        p = markov_joint(g, rng)
        q = q_from_p(g, p)
        assert np.max(np.abs(prob_vector(g, q) - p)) < 1e-12
        assert np.max(np.abs(q_from_p(g, prob_vector(g, q)) - q)) < 1e-12


def test_conditional_extraction_is_a_retraction():
    """An interior parameter vector need not be realizable even when
    its probabilities are a distribution; extracting conditionals from
    those probabilities always lands on a realizable vector, and doing
    it twice changes nothing."""
    rng = np.random.default_rng(35)
    for _ in range(20):
        g = random_admg(rng, n_max=5)
        q = random_interior_q(g, rng)
        p = prob_vector(g, q)
        q1 = q_from_p(g, p)
        p1 = prob_vector(g, q1)
        assert p1.min() > 0
        q2 = q_from_p(g, p1)
        assert np.max(np.abs(q2 - q1)) < 1e-10


def test_independence_model_probabilities_factorize():
    g = Admg(["a", "b", "c"])
    q = np.array([0.3, 0.6, 0.45])
    p = prob_vector(g, q)
    for s in range(8):
        bits = [(s >> (2 - i)) & 1 for i in range(3)]
        want = 1.0
        for qv, bit in zip(q, bits):
            want *= (1 - qv) if bit else qv
        assert abs(p[s] - want) < 1e-14


def test_marginal_parameter_meaning():
    """q for a singleton head with empty tail is the probability that
    the variable equals zero."""
    rng = np.random.default_rng(35)
    g = graph_one()
    q = random_interior_q(g, rng)
    p = prob_vector(g, q)
    # vertex 1 is first in the order, so its bit is the top bit
    p_zero = p[:8].sum()
    assert abs(p_zero - q[0]) < 1e-12


def test_q_from_p_rejects_impossible_conditioning():
    g = graph_one()
    p = np.zeros(16)
    p[0] = 1.0  # all mass on one cell: conditioning events have mass zero
    with pytest.raises(ValueError):
        q_from_p(g, p)


def test_vertex_limit_enforced():
    names = [f"v{i}" for i in range(21)]
    with pytest.raises(ValueError):
        parametrization(Admg(names))
