"""Derivatives, standard errors, fit statistics, and the report bundle."""

import warnings

import numpy as np
import pytest

import admgfit.inference as inference

from admgfit.fitting import FitOptions, FitResult, fit
from admgfit.graph import Admg
from admgfit.inference import (
    COND_WARN,
    deviance,
    dp_dq,
    fisher_information,
    information_criteria,
    report,
    standard_errors,
)
from admgfit.moebius import DistrictMaps, enumerate_params, prob_vector

from util import graph_one, graph_two, random_admg, random_interior_q


def fd_jacobian(g, q, h=1e-6):
    J = np.empty((1 << len(g.vertices), len(q)))
    for j in range(len(q)):
        up, dn = q.copy(), q.copy()
        up[j] += h
        dn[j] -= h
        J[:, j] = (prob_vector(g, up) - prob_vector(g, dn)) / (2 * h)
    return J


def test_jacobian_matches_finite_differences():
    rng = np.random.default_rng(41)
    for _ in range(20):
        g = random_admg(rng, n_max=5)
        q = random_interior_q(g, rng)
        J = dp_dq(g, q)
        F = fd_jacobian(g, q)
        scale = max(1.0, np.abs(F).max())
        assert np.max(np.abs(J - F)) / scale < 1e-5


def test_jacobian_columns_sum_to_zero():
    rng = np.random.default_rng(42)
    for _ in range(10):
        g = random_admg(rng, n_max=5)
        q = random_interior_q(g, rng)
        assert np.max(np.abs(dp_dq(g, q).sum(axis=0))) < 1e-12


def test_jacobian_input_validation():
    g = graph_two()
    with pytest.raises(ValueError, match="expected 7 parameters"):
        dp_dq(g, np.full(5, 0.5))
    q = random_interior_q(g, np.random.default_rng(0))
    q[2] = 0.0
    with pytest.raises(ValueError, match="strictly positive"):
        dp_dq(g, q)


def test_fisher_information_is_symmetric_positive_definite():
    rng = np.random.default_rng(43)
    for _ in range(15):
        g = random_admg(rng, n_max=4)
        q = random_interior_q(g, rng)
        I = fisher_information(g, q)
        assert np.array_equal(I, I.T)
        eig = np.linalg.eigvalsh(I)
        assert eig.min() > -1e-8 * max(1.0, eig.max())


def test_fisher_information_refuses_a_zero_cell():
    g = Admg(["a", "b"], bidirected=[("a", "b")])
    table = enumerate_params(g)
    q = np.full(3, 0.5)  # q_a = q_ab leaves no mass on a = 0, b = 1
    assert q[table.index(["a"])] == q[table.index(["a", "b"])]
    assert prob_vector(g, q)[1] == 0.0
    with pytest.raises(ValueError, match="strictly positive distribution"):
        fisher_information(g, q)


def test_single_vertex_standard_error_is_exact():
    g = Admg(["a"])
    for qv in (0.2, 0.5, 0.73):
        for n in (10.0, 250.0):
            se = standard_errors(g, np.array([qv]), n)
            assert abs(se[0] - np.sqrt(qv * (1 - qv) / n)) < 1e-12


def test_standard_errors_shrink_like_one_over_sqrt_n():
    rng = np.random.default_rng(44)
    g = graph_two()
    q = random_interior_q(g, rng)
    se1 = standard_errors(g, q, 100.0)
    se2 = standard_errors(g, q, 400.0)
    assert np.max(np.abs(se2 * 2 - se1)) < 1e-12


def dag_with_parent_sizes(sizes):
    """A DAG on len(sizes) vertices where vertex k has sizes[k] parents,
    drawn from the earlier vertices."""
    names = [f"v{k}" for k in range(len(sizes))]
    directed = []
    for k, m in enumerate(sizes):
        assert m <= k
        directed += [(names[j], names[k]) for j in range(m)]
    return Admg(names, directed=directed)


def test_degrees_of_freedom_arithmetic():
    rng = np.random.default_rng(45)
    for sizes, n_params, df_expect in [
        ((0, 0, 0, 1, 1, 2, 3), 19, 108),
        ((0, 0, 0, 2, 2, 3, 5), 51, 76),
    ]:
        g = dag_with_parent_sizes(sizes)
        assert len(enumerate_params(g)) == n_params
        counts = rng.integers(1, 30, size=1 << 7).astype(float)
        res = fit(g, counts, FitOptions(tol=1e-6))
        dev, df, p = deviance(res, counts)
        assert df == df_expect == (1 << 7) - 1 - n_params
        assert dev >= 0
        assert 0.0 <= p <= 1.0


def test_saturated_model_has_zero_deviance_and_no_p_value():
    rng = np.random.default_rng(46)
    g = Admg(["a", "b"], bidirected=[("a", "b")])
    counts = rng.integers(5, 40, size=4).astype(float)
    res = fit(g, counts, FitOptions(tol=1e-12))
    dev, df, p = deviance(res, counts)
    assert df == 0
    assert 0 <= dev < 1e-8
    assert np.isnan(p)


def test_deviance_matches_twice_the_loglik_gap():
    rng = np.random.default_rng(47)
    g = graph_one()
    counts = rng.integers(1, 50, size=16).astype(float)
    res = fit(g, counts)
    phat = counts / counts.sum()
    sat = float(counts @ np.log(phat))
    dev, df, p = deviance(res, counts)
    assert abs(dev - 2 * (sat - res.loglik)) < 1e-9
    from scipy.stats import chi2

    assert abs(p - chi2.sf(dev, df)) < 1e-12


def test_chi2_tail_matches_scipy_on_a_grid():
    """The closed-form tail against ``scipy.stats.chi2.sf`` over df 1-59
    and four large df, from 0.01 df to 3 df and at df + k sqrt(2 df).
    Where scipy's value is below 1e-300, only smallness is compared,
    and the tail must be 0 wherever scipy's is."""
    from scipy.stats import chi2

    rtol = 1e-10
    for df in [*range(1, 60), 101, 1000, 16344, 65000, 2**20]:
        xs = np.concatenate([np.linspace(0.01 * df, 3 * df, 100),
                             df + np.arange(-3, 7) * np.sqrt(2 * df)])
        want = chi2.sf(xs, df)
        got = np.array([inference._chi2_sf(float(x), df) for x in xs])
        normal = want >= 1e-300
        np.testing.assert_allclose(got[normal], want[normal], rtol=rtol, atol=0,
                                   err_msg=f"df={df}")
        assert (got[~normal] <= 1e-300).all(), df
        assert (got[want == 0] == 0).all(), df


def test_chi2_tail_edge_cases():
    from scipy.stats import chi2

    sf = inference._chi2_sf
    for df in (1, 2, 7, 16344):
        assert sf(0.0, df) == 1.0
        assert sf(np.inf, df) == 0.0
        assert np.isnan(sf(np.nan, df))
    # the deep tail: tiny normal values agree, and it underflows to 0
    # where scipy's does
    for df, x in [(1, 1370.0), (3, 1380.0), (1000, 3600.0), (16344, 24000.0),
                  (65000, 79000.0), (2**20, 1.1e6)]:
        assert 0 < chi2.sf(x, df) < 1e-266
        assert sf(x, df) == pytest.approx(chi2.sf(x, df), rel=1e-10, abs=0)
    for df, x in [(1, 1500.0), (3, 1e5), (1000, 3900.0), (16344, 24300.0), (2**20, 3.0 * 2**20)]:
        assert chi2.sf(x, df) == 0.0
        assert sf(x, df) == 0.0


def test_deviance_p_value_at_the_ends():
    """p is 1 at a zero deviance, 0 at an infinite one, NaN for a NaN
    deviance, and NaN whenever df is not positive."""
    g = Admg(["x", "y"])
    counts = np.array([10.0, 20, 30, 40])
    res = fit(g, counts)

    def at(loglik, graph=g, q=res.q):
        return deviance(FitResult(graph=graph, q=q, loglik=loglik, cycles=1,
                                  converged=True, n=res.n), counts)

    assert at(inference._saturated_loglik(counts)) == (0.0, 1, 1.0)
    assert at(-np.inf) == (np.inf, 1, 0.0)
    dev, df, p = at(np.nan)
    assert np.isnan(dev) and df == 1 and np.isnan(p)
    saturated = Admg(["x", "y"], bidirected=[("x", "y")])
    for loglik in (res.loglik, -np.inf, np.nan):
        dev, df, p = at(loglik, saturated, np.full(3, 0.5))
        assert df == 0 and np.isnan(p)


def test_deviance_and_report_refuse_counts_of_another_fit():
    g = Admg(["x", "y"], directed=[("x", "y")])
    counts = np.array([10.0, 20, 30, 40])
    res = fit(g, counts)
    for other, message in [(np.ones(8), "expected 4 counts"), ([1, 2], "expected 4 counts"),
                           (counts * 2, "but the fit has n = 100"),
                           (counts + [0, 0, 0, 1e-6], "but the fit has n = 100")]:
        with pytest.raises(ValueError, match=message):
            deviance(res, other)
        with pytest.raises(ValueError, match=message):
            report(res, other)
    # roundoff in the total is no difference
    assert deviance(res, counts * (1 + 1e-13))[0] == pytest.approx(deviance(res, counts)[0])


def test_information_criteria_formulas():
    rng = np.random.default_rng(48)
    g = graph_two()
    counts = rng.integers(1, 50, size=8).astype(float)
    res = fit(g, counts)
    bic, aic = information_criteria(res)
    k = res.n_params
    assert abs(bic - (-2 * res.loglik + k * np.log(res.n))) < 1e-9
    assert abs(aic - (-2 * res.loglik + 2 * k)) < 1e-9
    assert bic > aic  # log n > 2 whenever n > 7


def test_report_contents_and_schema():
    rng = np.random.default_rng(49)
    g = graph_two()
    counts = rng.integers(1, 50, size=8).astype(float)
    res = fit(g, counts)
    rep = report(res, counts)
    assert rep.notes == ()
    assert rep.std_errors is not None and len(rep.std_errors) == res.n_params
    d = rep.to_dict()
    assert d["schema_version"] == 1
    assert d["graph"]["vertices"] == ["1", "2", "3"]
    assert d["graph"]["directed"] == [["1", "2"]]
    assert sorted(d["graph"]["bidirected"]) == [["1", "3"], ["2", "3"]]
    assert len(d["parameters"]) == 7
    first = d["parameters"][0]
    assert set(first) == {"head", "tail", "tail_state", "estimate", "std_error"}
    assert d["df"] == 0
    assert d["p_value"] is None
    assert d["converged"] is True
    rep2 = report(res, counts, with_se=False)
    assert rep2.std_errors is None
    assert all(e["std_error"] is None for e in rep2.to_dict()["parameters"])


def test_report_notes_on_failure_paths():
    g = graph_two()
    counts = np.full(8, 5.0)
    res = fit(g, counts)
    broken = FitResult(
        graph=g,
        q=np.where(np.arange(7) == 3, 0.0, res.q),
        loglik=res.loglik,
        cycles=res.cycles,
        converged=False,
        n=res.n,
    )
    rep = report(broken, counts)
    assert any(n.startswith("standard errors unavailable") for n in rep.notes)
    assert any("did not converge" in n for n in rep.notes)
    assert rep.std_errors is None


def test_report_names_the_parameters_a_zero_count_fit_leaves_unidentified():
    """A parameter whose conditioning event has fitted probability zero
    takes any value for the same p: the report says so in one note and
    keeps the estimate."""
    opts = FitOptions(allow_zero_counts=True)
    cases = [
        (Admg(["a", "b"], directed=[("a", "b")]), [5, 7, 0, 0], ["q[b|a=1]"]),
        (Admg(["a", "b", "c"], directed=[("a", "c"), ("b", "c")], bidirected=[("a", "b")]),
         [1, 2, 3, 4, 0, 0, 7, 8], ["q[c|a,b=10]"]),
    ]
    for g, counts, names in cases:
        counts = np.array(counts, dtype=float)
        res = fit(g, counts, opts)
        rep = report(res, counts)
        notes = [n for n in rep.notes if n.startswith("not identified")]
        assert notes == ["not identified (conditioning event of fitted mass 0): "
                         + ", ".join(names)]
        assert np.array_equal(rep.estimates, res.q)
    # a zero count that leaves every conditioning event positive adds no note
    g = graph_two()
    counts = np.arange(1.0, 9.0)
    counts[5] = 0
    rep = report(fit(g, counts, opts), counts, with_se=False)
    assert rep.notes == ()


def test_fisher_information_matches_the_dense_reference(monkeypatch):
    """The district-block information against (J/p)'J - uu' over all
    joint states from the dense Jacobian; entries between districts are
    exactly zero and the standard errors agree.  The information takes
    each district's factor from its Jacobian, evaluating none again."""
    rng = np.random.default_rng(50)
    checked = 0
    while checked < 20:
        g = random_admg(rng, n_min=3, n_max=8)
        if len(g.districts()) < 2:
            continue
        checked += 1
        q = random_interior_q(g, rng)
        J = dp_dq(g, q)
        p = prob_vector(g, q)
        u = J.sum(axis=0)
        ref = (J / p[:, None]).T @ J - np.outer(u, u)
        ref = (ref + ref.T) / 2.0
        with monkeypatch.context() as m:
            m.setattr(DistrictMaps, "factor", None)
            I = fisher_information(g, q)
        # entries reach 1e3 at interior points near the boundary, where
        # summing 2^n rows in another order moves the last digits
        assert np.max(np.abs(I - ref)) <= 1e-12 * max(1.0, np.abs(ref).max())
        block = np.zeros(I.shape, dtype=bool)
        for sl in enumerate_params(g).district_slices:
            block[sl[1], sl[1]] = True
        assert np.all(I[~block] == 0.0)
        for n in (50.0, 1e4):
            se_ref = np.sqrt(np.diag(np.linalg.inv(ref)) / n)
            se = standard_errors(g, q, n)
            assert np.max(np.abs(se - se_ref) / se_ref) < 1e-10


def chain_with_pair_districts(n):
    """x1 -> x2 -> ... -> xn with x1 <-> x2, x3 <-> x4, ...: n/2
    two-vertex districts."""
    names = [f"x{i}" for i in range(1, n + 1)]
    return Admg(
        names,
        directed=[(names[i], names[i + 1]) for i in range(n - 1)],
        bidirected=[(names[2 * i], names[2 * i + 1]) for i in range(n // 2)],
    )


def test_report_never_forms_the_dense_jacobian(monkeypatch):
    def refuse(g, q):
        raise AssertionError("dense Jacobian formed")

    monkeypatch.setattr(inference, "dp_dq", refuse)
    g = chain_with_pair_districts(14)
    counts = np.random.default_rng(51).integers(1, 50, size=1 << 14).astype(float)
    rep = report(fit(g, counts), counts, with_se=True)
    assert rep.notes == ()
    assert rep.std_errors is not None
    assert len(rep.std_errors) == len(enumerate_params(g))
    assert np.all(np.isfinite(rep.std_errors)) and rep.std_errors.min() > 0


def test_standard_errors_warn_on_an_ill_conditioned_information():
    """Two independent vertices have I = diag(1 / (q (1 - q))); q near
    0 makes its condition number about 2.5e11."""
    g = Admg(["a", "b"])
    q = np.array([1e-12, 0.5])
    assert np.linalg.cond(fisher_information(g, q)) > COND_WARN
    with pytest.warns(UserWarning, match="condition number"):
        se = standard_errors(g, q, 100.0)
    assert np.allclose(se, np.sqrt(q * (1 - q) / 100.0), rtol=1e-6, atol=0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        standard_errors(g, np.array([0.3, 0.5]), 100.0)


def test_standard_errors_by_block_keep_the_whole_matrix_behaviour(monkeypatch):
    """Condition number, singular information and the negative-diagonal
    check, block by block, as for the whole matrix: two independent
    vertices give two one-parameter blocks."""
    g = Admg(["a", "b"])
    q = np.array([0.3, 0.5])

    def information(diag):
        monkeypatch.setattr(inference, "fisher_information", lambda g, q: np.diag(diag))

    information([4.0, 1e-11])
    assert np.linalg.cond(np.diag([4.0, 1e-11])) > COND_WARN
    with pytest.warns(UserWarning, match="condition number 4.00e"):
        se = standard_errors(g, q, 4.0)
    assert np.allclose(se, [0.25, np.sqrt(1e11 / 4.0)], rtol=1e-12, atol=0)
    information([4.0, 0.0])
    with pytest.warns(UserWarning, match="condition number inf"):
        with pytest.raises(np.linalg.LinAlgError):
            standard_errors(g, q, 4.0)
    information([4.0, -1.0])
    with pytest.raises(np.linalg.LinAlgError, match="negative diagonal"):
        standard_errors(g, q, 4.0)
    # roundoff-sized negative entries of the inverse are clipped to 0
    information([4.0, -1e9])
    assert np.array_equal(standard_errors(g, q, 4.0), [0.25, 0.0])
