"""Parameter enumeration, the term matrices, and probability maps."""

import functools
import operator
import re

import numpy as np
import pytest

from admgfit.graph import Admg, format_graph
from admgfit.moebius import (
    DistrictMaps,
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
    strong_params_graph_one,
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
    # a tail state has one 0 or 1 per tail vertex
    table = enumerate_params(Admg(["a", "b", "c"], directed=[("a", "c"), ("b", "c")]))
    assert table.params[table.index(("c",), (0, 1))].name == "q[c|a,b=01]"
    assert table.params[table.index(("c",), (True, 0))].name == "q[c|a,b=10]"
    for state in ((1,), (0, 1, 1), (2, 0), (0, 0.5), (0, -1)):
        with pytest.raises(KeyError, match="tail state"):
            table.index(("c",), state)
    with pytest.raises(KeyError, match="tail state"):
        table.index(("a",), (0,))


def test_param_table_runs_cover_the_parameters_head_by_head():
    """Each run is one head's parameters over its tail assignments, in
    order, and the runs tile the parameter vector."""
    rng = np.random.default_rng(39)
    for g in [graph_one(), graph_two()] + [random_admg(rng, n_max=6) for _ in range(20)]:
        table = enumerate_params(g)
        nxt = 0
        for h_mask, t_mask, j in table.runs:
            assert j == nxt
            nxt = j + (1 << t_mask.bit_count())
            head, tail = g._labels(h_mask), g._labels(t_mask)
            assert [(p.head, p.tail) for p in table.params[j:nxt]] == [(head, tail)] * (nxt - j)
            assert table.index(head, (0,) * len(tail)) == j
        assert nxt == len(table)


def test_district_maps_never_read_the_parameter_table(monkeypatch):
    """A district's maps are built from its own head record, not from
    the graph's parameter enumeration; a vertex set that is not a
    district is refused."""
    import admgfit.moebius as moebius

    rng = np.random.default_rng(40)
    graphs = [graph_one(), graph_two()]
    graphs += [random_admg(rng, n_min=3, n_max=6, p_bi=0.4) for _ in range(10)]
    want = [[(dm.M.toarray(), dm.P.toarray()) for dm in parametrization(g).maps]
            for g in graphs]

    def refuse(g):
        raise AssertionError("the parameter table was enumerated")

    monkeypatch.setattr(moebius, "enumerate_params", refuse)
    for g, ref in zip(graphs, want):
        g = Admg(g.vertices, g.directed_edges, g.bidirected_edges)  # a fresh memo
        for d, (M, P) in zip(g.districts(), ref):
            dm = moebius.DistrictMaps(g, d)
            assert np.array_equal(dm.M.toarray(), M) and np.array_equal(dm.P.toarray(), P)
    g = graph_one()
    with pytest.raises(KeyError, match="not a district"):
        moebius.DistrictMaps(g, ("2", "4"))
    with pytest.raises(KeyError, match="not a district"):
        moebius.DistrictMaps(g, ())


def test_state_index_is_big_endian():
    assert state_index((0, 0, 0)) == 0
    assert state_index((0, 0, 1)) == 1
    assert state_index((1, 0, 1)) == 5
    assert state_index((1, 1, 1)) == 7


def test_states_other_than_zero_and_one_are_refused():
    """``state_index`` and ``prob_direct`` name a state value that is
    not 0 or 1 instead of reading its lowest bit."""
    g = graph_one()
    q = strong_params_graph_one()
    for bad in (2, -1, 0.5):
        with pytest.raises(ValueError, match=re.escape(f"0 or 1, got {bad!r}")):
            state_index([bad, 0, 0, 0])
        with pytest.raises(ValueError, match=re.escape(f"0 or 1, got {bad!r}")):
            prob_direct(g, q, [0, 0, bad, 0])
    assert state_index(np.array([1, 0, 1])) == 5


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


def test_m_entries_follow_their_term_records():
    """M[r, k] is (-1)^{|C - O(r)|} for C = terms[k].c when the zeros
    O(r) of the district lie in C and r agrees with terms[k] on its
    tail, and 0 otherwise; the records are built only when read."""
    import itertools

    from admgfit.cli import _bench_graph
    from admgfit.moebius import DistrictMaps

    rng = np.random.default_rng(37)
    graphs = [_bench_graph("large", 4)]
    while len(graphs) < 16:
        g = random_admg(rng, n_min=3, n_max=7, p_dir=0.3, p_bi=0.4)
        if max(len(d) for d in g.districts()) >= 3:
            graphs.append(g)
    for g in graphs:
        for d in g.districts():
            dm = DistrictMaps(g, d)
            assert "terms" not in dm.__dict__
            M = dm.M.toarray()
            assert M.shape[1] == len(dm.terms)
            states = np.array(list(itertools.product((0, 1), repeat=len(dm.scope))))
            value = {g.vertices[p]: states[:, j] for j, p in enumerate(dm.scope)}
            for k, t in enumerate(dm.terms):
                zeros_in_c = np.all([value[v] == 1 for v in d if v not in t.c], axis=0)
                on_tail = np.all([value[v] == b for v, b in zip(t.tail, t.tail_state)], axis=0)
                sign = (-1) ** sum(value[v] for v in t.c)
                want = np.where(zeros_in_c & on_tail, sign, 0)
                assert np.array_equal(M[:, k], want)


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
            local = np.arange(2 ** len(scope))
            assert dm.joint(local).tolist() == [state_index(s[list(scope)]) for s in states]
        if n <= 6:
            q = random_interior_q(g, rng)
            pd = np.array([prob_direct(g, q, s) for s in states])
            assert np.max(np.abs(prob_vector(g, q) - pd)) < 1e-10


def test_marginal_and_joint_follow_the_local_state_index():
    """``marginal`` adds each joint entry into the local row of its
    state and ``joint`` gives each joint state the row of its local
    state, for a matrix as for a vector."""
    import itertools

    rng = np.random.default_rng(37)
    for _ in range(12):
        g = random_admg(rng, n_min=2, n_max=7, p_dir=0.3)
        n = len(g.vertices)
        states = np.array(list(itertools.product((0, 1), repeat=n)))
        x = rng.integers(0, 50, size=2**n).astype(float)
        for dm in parametrization(g).maps:
            local_of = [state_index(s[list(dm.scope)]) for s in states]
            R = dm.M.shape[0]
            want = np.zeros(R)
            for i, r in enumerate(local_of):
                want[r] += x[i]
            assert np.array_equal(dm.marginal(x), want)
            local = rng.normal(size=(R, 3))
            full = dm.joint(local)
            assert full.shape == (2**n, 3)
            for i, r in enumerate(local_of):
                assert np.array_equal(full[i], local[r])


def test_parametrization_allocates_nothing_of_joint_size():
    """The maps of a 20-vertex chain are built without an array over its
    2^20 joint states: the build peaks far below one such vector of
    float64 (8 MiB)."""
    import tracemalloc

    from admgfit.cli import _bench_graph

    g = _bench_graph("fixed", 19)
    tracemalloc.start()
    try:
        parametrization(g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


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


def test_maps_and_evaluations_refuse_malformed_input():
    g = Admg(["a", "b"], bidirected=[("a", "b")])
    with pytest.raises(ValueError, match="district must be in canonical order"):
        DistrictMaps(g, ("b", "a"))
    table = enumerate_params(g)
    assert list(table) == list(table.params) and len(list(table)) == 3
    with pytest.raises(ValueError, match="state length mismatch"):
        prob_direct(g, np.full(3, 0.4), (0, 1, 1))
    with pytest.raises(ValueError, match="probability vector has wrong length"):
        q_from_p(g, np.full(8, 0.125))


def test_vertex_limit_enforced():
    names = [f"v{i}" for i in range(21)]
    with pytest.raises(ValueError):
        parametrization(Admg(names))


def _dense_affine(dm, q_d, vertex):
    """(A, b) of one vertex block from the dense M and P: each term is
    its theta factor times the product r of its other parameters."""
    M, P = dm.M.toarray(), dm.P.toarray().astype(bool)
    theta = dm.plans[vertex].theta_cols
    mine = np.zeros(P.shape[1], dtype=bool)
    mine[theta] = True
    r = np.where(P & ~mine, q_d, 1.0).prod(axis=1)
    carries = P[:, theta]
    A = M @ (carries * r[:, None])
    b = -(M @ (r * ~carries.any(axis=1)))
    return A, b


def test_affine_matches_a_dense_reference():
    rng = np.random.default_rng(36)
    for _ in range(25):
        g = random_admg(rng, n_max=6, p_bi=0.4)
        par = parametrization(g)
        q = random_interior_q(g, rng)
        for dm, sl in zip(par.maps, par.slices):
            for vertex in dm.members:
                A, b, theta = dm.affine(q[sl], vertex)
                A_ref, b_ref = _dense_affine(dm, q[sl], vertex)
                assert np.max(np.abs(A - A_ref), initial=0.0) < 1e-14
                assert np.max(np.abs(b - b_ref)) < 1e-14
                assert np.max(np.abs(A @ q[sl][theta] - b - dm.factor(q[sl]))) < 1e-14


def _same_local_arrays(shared, fresh, rng):
    """Equal arrays in scope-local coordinates: M, P, the vertex plans
    of the members in ascending order and the affine blocks."""
    assert shared.saturated == fresh.saturated
    for attr in ("M", "P"):
        a, b = getattr(shared, attr), getattr(fresh, attr)
        assert a.shape == b.shape
        for part in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(a, part), getattr(b, part))
    for attr in ("M_row", "M_col", "M_sign", "P_indptr", "P_indices", "term_of"):
        assert np.array_equal(getattr(shared, attr), getattr(fresh, attr))
    assert len(shared.members) == len(fresh.members)
    for vertex, ref in zip(shared.members, fresh.members):
        plan, other = fresh.plans[ref], shared.plans[vertex]
        assert other.width == plan.width
        for a, b in ((other.theta_cols, plan.theta_cols), (other.slot, plan.slot),
                     *zip(other.rest, plan.rest)):
            assert np.array_equal(a, b)
    q_d = rng.uniform(0.05, 0.95, fresh.P.shape[1])
    for vertex, ref in zip(shared.members, fresh.members):
        A, b, theta = shared.affine(q_d, vertex)
        A_ref, b_ref, theta_ref = fresh.affine(q_d, ref)
        assert np.array_equal(theta, theta_ref)
        assert np.array_equal(A, A_ref) and np.array_equal(b, b_ref)


def _same_maps(shared, fresh, rng):
    """Equal maps of one district: its placement (scope, heads, plans
    keyed by position, term labels) and its local arrays."""
    assert shared.district == fresh.district
    assert shared.scope == fresh.scope
    assert shared.heads == fresh.heads
    R = fresh.M.shape[0]
    assert np.array_equal(shared.joint(np.arange(R)), fresh.joint(np.arange(R)))
    assert shared.terms == fresh.terms
    assert shared.plans.keys() == fresh.plans.keys()
    _same_local_arrays(shared, fresh, rng)


def test_search_shares_maps_that_equal_fresh_builds(monkeypatch):
    """Every map a structure search hands out equals a map built for
    that graph alone, and each district request is either a build or
    a reuse."""
    import admgfit.select as select
    from admgfit.moebius import DistrictMaps

    real_fit = select.fit
    fitted = []

    def recording_fit(g, counts, opts, **kw):
        fitted.append(g)
        return real_fit(g, counts, opts, **kw)

    monkeypatch.setattr(select, "fit", recording_fit)
    rng = np.random.default_rng(37)
    for _ in range(4):
        g0 = random_admg(rng, n_min=4, n_max=6, p_dir=0.3, p_bi=0.3)
        counts = np.round(markov_joint(g0, rng) * 5000) + 1
        fitted.clear()
        res = select.stepwise(counts, g0, max_steps=2)
        requests = 0
        for g in fitted:
            par = parametrization(g)
            requests += len(par.maps)
            for dm, d in zip(par.maps, g.districts()):
                assert dm.district == d
                _same_maps(dm, DistrictMaps(g, d), rng)
        assert res.maps_built + res.maps_reused == requests
        assert res.maps_reused > 0
        assert res.maps_built < requests


def test_search_reuses_the_maps_of_a_parametrized_start(monkeypatch):
    """A start graph parametrized before the search brings its maps
    along: no district shape is built twice within the search, and
    only the shapes the search built count as built."""
    import admgfit.select as select
    from admgfit.data import counts_for, simulate
    from admgfit.moebius import DistrictMaps, _shape_key

    real_init = DistrictMaps.__init__
    built = []

    def counting_init(self, g, district):
        real_init(self, g, district)
        built.append(_shape_key(g, self.d_mask, self.scope))

    real_fit = select.fit
    fitted = []

    def recording_fit(g, counts, opts, **kw):
        fitted.append(g)
        return real_fit(g, counts, opts, **kw)

    g1 = graph_one()
    counts = counts_for(g1, simulate(g1, strong_params_graph_one(), 20000, seed=3))
    starts = [Admg(["1", "2", "3", "4"]), Admg(["1", "2", "3", "4"], directed=[("1", "2")])]
    for start in starts:
        start_keys = {_shape_key(start, dm.d_mask, dm.scope) for dm in parametrization(start).maps}
        built.clear()
        fitted.clear()
        monkeypatch.setattr(DistrictMaps, "__init__", counting_init)
        monkeypatch.setattr(select, "fit", recording_fit)
        res = select.stepwise(counts, start, max_steps=2)
        monkeypatch.undo()
        assert len(set(built)) == len(built)
        assert not start_keys & set(built)
        requests = sum(len(parametrization(g).maps) for g in fitted)
        assert res.maps_built == len(built)
        assert res.maps_built + res.maps_reused == requests


def test_q_from_p_matches_the_masked_reference():
    """The marginal-table extraction against the direct definition:
    each q(H | T = t) as a ratio of sums over masked joint states."""
    rng = np.random.default_rng(38)
    for _ in range(15):
        g = random_admg(rng, n_max=6)
        p = markov_joint(g, rng)
        n = len(g.vertices)
        bits = (np.arange(1 << n)[:, None] >> np.arange(n - 1, -1, -1)) & 1
        want = []
        for prm in enumerate_params(g).params:
            hpos = [g.vertices.index(v) for v in prm.head]
            tpos = [g.vertices.index(v) for v in prm.tail]
            sel = (bits[:, tpos] == prm.tail_state).all(axis=1)
            want.append(p[sel & (bits[:, hpos] == 0).all(axis=1)].sum() / p[sel].sum())
        assert np.max(np.abs(q_from_p(g, p) - want)) < 1e-14


def test_district_derivatives_match_finite_differences():
    """The district factor's Jacobian, and the score and observed
    information of sum(n log f) over its local states, against central
    differences: of the factor and the log-likelihood for the first
    derivatives, of the analytic score for the information."""
    rng = np.random.default_rng(60)
    h = 1e-6
    for _ in range(20):
        g = random_admg(rng, n_min=3, n_max=7, p_dir=0.3, p_bi=0.35)
        q = random_interior_q(g, rng, min_p=1e-4)
        par = parametrization(g)
        for dm, sl in zip(par.maps, par.slices):
            q_d = q[sl]
            counts = rng.integers(1, 50, size=dm.M.shape[0]).astype(float)

            def ll(x):
                return counts @ np.log(dm.factor(x))

            f, J = dm.jacobian(q_d)
            f2, score, info = dm.observed_information(q_d, counts)
            assert np.array_equal(f, f2) and np.array_equal(f, dm.factor(q_d))
            m = len(q_d)
            J_fd = np.empty_like(J)
            score_fd = np.empty(m)
            info_fd = np.empty((m, m))
            for j in range(m):
                up, dn = q_d.copy(), q_d.copy()
                up[j] += h
                dn[j] -= h
                J_fd[:, j] = (dm.factor(up) - dm.factor(dn)) / (2 * h)
                score_fd[j] = (ll(up) - ll(dn)) / (2 * h)
                s_up = dm.observed_information(up, counts)[1]
                s_dn = dm.observed_information(dn, counts)[1]
                info_fd[:, j] = -(s_up - s_dn) / (2 * h)
            for got, want in ((J, J_fd), (score, score_fd), (info, info_fd)):
                assert np.max(np.abs(got - want)) <= 1e-6 * max(1.0, np.abs(want).max())
            assert np.array_equal(info, info.T)


def _chain(n):
    """The n-vertex chain v1 -> ... -> vn with v1 <-> v2, v3 <-> v4, ...:
    every district {v2i-1, v2i} but the first has the one parent
    v2i-2, so its districts have two shapes."""
    names = [f"v{i}" for i in range(1, n + 1)]
    return Admg(names, directed=list(zip(names, names[1:])),
                bidirected=[(names[i], names[i + 1]) for i in range(0, n - 1, 2)])


def test_equal_maps_keys_give_equal_maps(monkeypatch):
    """The shape key is read off per-member masks: computing it, and
    placing the shapes a dict holds, computes no head partition.
    Equal placements have equal maps, and districts with equal shape
    keys equal local arrays, on every candidate of the golden and
    criterion-11 searches, and on random graphs and some of their
    single-edge neighbours.  Every map that a search or a
    parametrization hands out equals a fresh build for its district,
    and the 14-vertex chain builds 2 shapes for its 7 districts.  The
    searches' bound is off, so that they fit every candidate."""
    import importlib

    import admgfit.moebius as moebius
    import admgfit.select as select
    from admgfit.graph import _bits, _union
    from admgfit.moebius import DistrictMaps, Parametrization, _shape_key

    from util import criterion_11_search_inputs, golden_search_inputs

    # the package exports a function named ``heads``, which hides the
    # module from ``import admgfit.heads as ...``
    heads = importlib.import_module("admgfit.heads")

    def refuse(*args):
        raise AssertionError("a key or a placement computed a head partition")

    g = graph_one()
    d_masks = g._district_masks(g.full_mask)
    shapes = {}
    built = Parametrization(g, shapes)
    with monkeypatch.context() as m:
        for module, name in ((heads, "_partition_masks"), (heads, "_partition"),
                             (moebius, "_partition_masks")):
            m.setattr(module, name, refuse)
        shape_keys = [_shape_key(g, d, tuple(_bits(d | _union(g._pa, d)))) for d in d_masks]
        again = Parametrization(graph_one(), shapes)
    assert len(set(shape_keys)) == len(d_masks) == len(shapes)
    assert again.maps == built.maps

    chain = _chain(14)
    shapes = {}
    par = Parametrization(chain, shapes)
    assert len(par.maps) == 7 and len(shapes) == 2
    assert len({dm._shape for dm in par.maps}) == 2
    rng = np.random.default_rng(62)
    for dm, d in zip(par.maps, chain.districts()):
        _same_maps(dm, DistrictMaps(chain, d), rng)

    graphs = {}
    real_fit = select.fit

    def recording_fit(g, counts, opts, **kw):
        graphs.setdefault((g.vertices, g._pa, g._sp), g)
        return real_fit(g, counts, opts, **kw)

    monkeypatch.setattr(select, "fit", recording_fit)
    monkeypatch.setattr(select, "_bound", lambda *args: -np.inf)
    for counts, start, criterion in golden_search_inputs() + criterion_11_search_inputs():
        select.stepwise(counts, start, criterion=criterion)
    searched = len(graphs)
    for k in range(200):
        g = random_admg(rng, n_min=2, n_max=6, p_dir=0.3, p_bi=0.3)
        moves = select.neighbors(g)
        picks = rng.choice(len(moves), size=min(2, len(moves)), replace=False)
        for h in [g] + [moves[i][4] for i in picks]:
            graphs.setdefault((k, h.vertices, h._pa, h._sp), h)

    # every graph placed through one dict of shapes, so that equal
    # placements are those of one district
    shapes = {}
    first, first_shape = {}, {}
    checked = set()
    shared = placed = 0
    for g in graphs.values():
        # a searched graph's memo holds the maps its search handed out
        handed = parametrization(g).maps
        for dm, hand, d in zip(Parametrization(g, shapes).maps, handed, g.districts()):
            fresh = DistrictMaps(g, d)
            if hand not in checked:
                _same_maps(hand, fresh, rng)
                checked.add(hand)
            shape_key = _shape_key(g, fresh.d_mask, fresh.scope)
            if dm in first:
                _same_maps(first[dm], fresh, rng)
                shared += 1
            elif shape_key in first_shape:
                _same_local_arrays(first_shape[shape_key], fresh, rng)
                placed += 1
            first.setdefault(dm, fresh)
            first_shape.setdefault(shape_key, fresh)
    assert searched > 100 and shared > 1000 and placed > 100


def test_shape_heads_are_the_district_heads():
    """A shape reads its head record off the head partitions of the
    district's subsets: on random districts it is the record that
    ``_district_heads`` enumerates, every head's tail is the graph's
    ``_tail``, and every ``subsets`` record holds the graph's
    ``_partition_masks`` of C with the union of its blocks' tails, all
    in scope-local masks."""
    import importlib

    from admgfit.graph import _bits, _union
    from admgfit.moebius import _local_mask, _Shape, _shape_key

    heads = importlib.import_module("admgfit.heads")
    rng = np.random.default_rng(63)
    checked = 0
    while checked < 500:
        g = random_admg(rng, n_min=2, n_max=7, p_dir=0.3, p_bi=0.4)
        for d in g._district_masks(g.full_mask):
            scope = tuple(_bits(d | _union(g._pa, d)))

            def local(mask):
                return _local_mask(mask, scope)

            shape = _Shape(_shape_key(g, d, scope))
            want = tuple((local(h), local(t)) for h, t in heads._district_heads(g, d))
            assert shape.heads == want
            assert [t for _, t in shape.heads] == [local(heads._tail(g._an, g._sp, g._pa, h))
                                                   for h, _ in heads._district_heads(g, d)]
            tails = {h: t for h, t in shape.heads}
            members = list(_bits(d))
            assert len(shape.subsets) == 1 << len(members)
            for c_local, (c, blocks, t_union) in zip(heads._subsets(members), shape.subsets):
                assert c == local(c_local)
                assert blocks == tuple(map(local, heads._partition_masks(g, c_local)))
                assert t_union == functools.reduce(operator.or_, (tails[b] for b in blocks), 0)
            checked += 1


def test_a_shape_is_built_from_its_key_alone(monkeypatch):
    """A shape build computes no head, tail or partition through the
    graph and leaves the graph's memo empty; it reads its key's masks.
    A district of more than ``MAX_DISTRICT`` members raises before any
    table over its subsets is allocated."""
    import importlib
    import tracemalloc

    import admgfit.moebius as moebius
    from admgfit.graph import _bits, _union
    from admgfit.moebius import _Shape, _shape_key

    heads = importlib.import_module("admgfit.heads")

    def refuse(*args):
        raise AssertionError("a shape build went through the graph's head functions")

    def graphs():
        rng = np.random.default_rng(64)
        names = [f"x{i}" for i in range(5)]
        complete = Admg(names, bidirected=[(a, b) for a in names for b in names if a < b])
        return [graph_one(), graph_two(), _chain(8), complete] + [
            random_admg(rng, n_min=5, n_max=7, p_dir=0.3, p_bi=0.5) for _ in range(20)]

    def build(g):
        return [_Shape(_shape_key(g, d, tuple(_bits(d | _union(g._pa, d)))))
                for d in g._district_masks(g.full_mask)]

    built = [shape for g in graphs() for shape in build(g)]
    with monkeypatch.context() as m:
        for name in ("_partition_masks", "_is_head_mask"):
            m.setattr(heads, name, refuse)
        m.setattr(moebius, "_partition_masks", refuse)
        again = []
        for g in graphs():
            again.extend(build(g))
            assert g._memo == {}
    assert len(again) == len(built) > 30
    for a, b in zip(built, again):
        assert a.heads == b.heads and a.subsets == b.subsets
        assert np.array_equal(a.M_col, b.M_col) and np.array_equal(a.P_indices, b.P_indices)

    names = [f"v{i}" for i in range(heads.MAX_DISTRICT + 1)]
    big = Admg(names, bidirected=list(zip(names, names[1:])))
    d = big.full_mask
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="too large"):
            _Shape(_shape_key(big, d, tuple(_bits(d))))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_a_shape_miss_computes_its_key_once(monkeypatch):
    """Placing districts through a dict of shapes computes each
    district's ``_shape_key`` once, a miss included: the build reads
    the key of the lookup.  Each miss builds through ``DistrictMaps``,
    once per shape entered, and a fresh ``DistrictMaps(g, d)`` computes
    its key once too."""
    import admgfit.moebius as moebius
    from admgfit.moebius import DistrictMaps, Parametrization

    keys, builds = [], []
    real_key, real_init = moebius._shape_key, DistrictMaps.__init__

    def counting_key(g, d_mask, scope):
        keys.append(d_mask)
        return real_key(g, d_mask, scope)

    def counting_init(self, g, district):
        builds.append(district)
        real_init(self, g, district)

    monkeypatch.setattr(moebius, "_shape_key", counting_key)
    monkeypatch.setattr(DistrictMaps, "__init__", counting_init)
    rng = np.random.default_rng(66)
    graphs = [graph_one(), graph_two(), _chain(8)] + [
        random_admg(rng, n_min=3, n_max=6, p_dir=0.3, p_bi=0.4) for _ in range(30)]
    shapes = {}
    misses = hits = 0
    for g in graphs:
        keys.clear()
        builds.clear()
        before = len(shapes)
        par = Parametrization(g, shapes)
        assert sorted(keys) == sorted(dm.d_mask for dm in par.maps)
        assert len(builds) == len(shapes) - before
        misses += len(builds)
        hits += len(par.maps) - len(builds)
    assert misses > 10 and hits > 10

    g = graph_two()
    for d in g.districts():
        keys.clear()
        DistrictMaps(g, d)
        assert keys == [g._as_mask(d)]


def test_a_shape_counts_its_entries_before_building():
    """M has 3^|D| 2^|pa(D)| nonzeros; P has, for each subset C of the
    district, its blocks times the 2^|tail of C| tail assignments; the
    Jacobian pairs number 2^|pa(D)| times the sum over C of 2^|C| times
    its blocks.  These are the counts that the size budget reads
    before a build."""
    rng = np.random.default_rng(300)
    seen = 0
    for _ in range(300):
        g = random_admg(rng, n_min=6, n_max=6, p_dir=0.3, p_bi=0.4)
        for dm in parametrization(g).maps:
            n_parents = len(dm.scope) - len(dm.members)
            assert len(dm.M_row) == 3 ** len(dm.members) * 2 ** n_parents
            subsets = dm._shape.subsets
            assert len(dm.P_indices) == sum(len(b) << t.bit_count() for _, b, t in subsets)
            pairs = sum(len(b) << c.bit_count() for c, b, _ in subsets) << n_parents
            assert len(dm._jac_pairs[0]) == pairs
            seen += 1
    assert seen > 400


def test_a_shape_over_the_budget_is_refused_before_its_arrays(tmp_path, capsys):
    """A complete bidirected district of 16 members (3^16 nonzeros of
    M) raises before anything of its size is allocated, and ``fit`` on
    it exits 2.  A directed chain of 12 members within a bidirected
    path has 3^12 nonzeros of M but 35 million entries of P, and raises
    once its subsets are counted, before M or P is built."""
    import tracemalloc

    from admgfit.cli import main
    from admgfit.graph import GraphError, _bits
    from admgfit.moebius import MAX_SHAPE_ENTRIES, _Shape, _shape_key

    names = [f"v{i}" for i in range(16)]
    big = Admg(names, bidirected=[(a, b) for i, a in enumerate(names) for b in names[i + 1:]])
    chain = Admg(names[:12], directed=list(zip(names[:11], names[1:12])),
                bidirected=list(zip(names[:11], names[1:12])))
    for g, peak_bound in ((big, 1 << 20), (chain, 4 << 20)):
        d = g.full_mask
        tracemalloc.start()
        try:
            with pytest.raises(GraphError, match=f"too large to build: .* over the budget of "
                                                 f"{MAX_SHAPE_ENTRIES} entries"):
                _Shape(_shape_key(g, d, tuple(_bits(d))))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < peak_bound
    with pytest.raises(GraphError, match=f"{3 ** 16} nonzeros of M"):
        parametrization(big)
    with pytest.raises(GraphError, match="40201536 entries of M, P and the Jacobian pairs"):
        parametrization(chain)

    gpath, dpath = tmp_path / "g.txt", tmp_path / "d.csv"
    gpath.write_text(format_graph(big))
    rows = np.random.default_rng(16).integers(0, 2, size=(50, 16))
    dpath.write_text(",".join(names) + "\n" + "".join(",".join(map(str, r)) + "\n" for r in rows))
    assert main(["fit", str(gpath), str(dpath), "--allow-zero-counts"]) == 2
    assert "too large to build" in capsys.readouterr().err


def test_placements_of_one_shape_on_one_scope_are_equal(monkeypatch):
    """The district that graphs of one search have in common is one
    key: its placements in those graphs are distinct objects that
    compare equal and hash alike.  Placements of one shape on
    different scopes, as on the 14-vertex chain, are not equal, and
    neither are maps built from separate shapes.  The search's bound is
    off, so that it fits every candidate."""
    import itertools

    import admgfit.select as select
    from admgfit.moebius import DistrictMaps

    from util import golden_search_inputs

    real_fit = select.fit
    fitted = []

    def recording_fit(g, counts, opts, **kw):
        fitted.append(g)
        return real_fit(g, counts, opts, **kw)

    monkeypatch.setattr(select, "fit", recording_fit)
    monkeypatch.setattr(select, "_bound", lambda *args: -np.inf)
    counts, start, criterion = golden_search_inputs()[0]
    select.stepwise(counts, start, criterion=criterion)
    groups = {}
    for g in fitted:
        for dm in parametrization(g).maps:
            groups.setdefault((id(dm._shape), dm.scope), []).append((g, dm))
    repeated = [group for group in groups.values() if len(group) > 1]
    assert len(repeated) > 10
    for group in repeated:
        assert len({id(g) for g, _ in group}) == len(group)
        dm0 = group[0][1]
        assert all(dm == dm0 and hash(dm) == hash(dm0) for _, dm in group)
    firsts = [group[0][1] for group in groups.values()]
    assert len(set(firsts)) == len(firsts)

    chain = _chain(14)
    maps = parametrization(chain).maps
    six = [dm for dm in maps if dm._shape is maps[1]._shape]
    assert len(six) == 6 and len(set(six)) == 6
    assert all(a != b for a, b in itertools.combinations(six, 2))
    d = chain.districts()[1]
    assert DistrictMaps(chain, d) != DistrictMaps(chain, d)
