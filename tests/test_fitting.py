"""Block coordinate ascent fitting: anchors, invariants, and error paths."""

import numpy as np
import pytest

import admgfit.fitting as fitting

from admgfit.cli import _bench_graph, main
from admgfit.fitting import (
    FitError,
    FitOptions,
    fit,
    initialize,
    loglik,
    update_vertex,
    vertex_block,
)
from admgfit.graph import Admg, format_graph
from admgfit.inference import report
from admgfit.moebius import (
    Parametrization, enumerate_params, parametrization, prob_vector, q_from_p,
)

from util import (
    dag_loglik_closed_form,
    graph_one,
    graph_two,
    random_admg,
    random_interior_q,
)


def random_counts(rng, k, low=1, high=60):
    return rng.integers(low, high, size=1 << k).astype(float)


def test_count_vector_validation():
    g = graph_two()
    with pytest.raises(FitError, match="length 8"):
        fit(g, np.ones(4))
    with pytest.raises(FitError, match="finite and nonnegative"):
        fit(g, [1, 2, 3, 4, 5, 6, 7, -1])
    with pytest.raises(FitError, match="finite and nonnegative"):
        fit(g, [1, 2, 3, 4, 5, 6, 7, np.nan])
    with pytest.raises(FitError, match="sum to zero"):
        fit(g, np.zeros(8))


def test_zero_cells_need_explicit_permission():
    g = graph_two()
    counts = np.array([5.0, 4, 3, 2, 1, 2, 3, 0])
    with pytest.raises(FitError, match="allow_zero_counts"):
        fit(g, counts)
    res = fit(g, counts, FitOptions(allow_zero_counts=True))
    assert np.isfinite(res.loglik)
    assert res.p[counts > 0].min() > 0


def test_loglik_minus_infinity_outside_the_simplex():
    g = Admg(["1", "2"], bidirected=[("1", "2")])
    # q[1] - q[1,2] is the probability of (0, 1); make it negative
    q = np.array([0.5, 0.5, 0.6])
    assert loglik(g, q, np.ones(4)) == -np.inf


def test_initialize_is_the_independence_fit():
    rng = np.random.default_rng(11)
    g = graph_one()
    counts = random_counts(rng, 4)
    q0 = initialize(g, counts)
    p0 = prob_vector(g, q0)
    marg = np.empty((4, 2))
    states = [(a, b, c, d) for a in (0, 1) for b in (0, 1)
              for c in (0, 1) for d in (0, 1)]
    for k in range(4):
        for val in (0, 1):
            marg[k, val] = sum(
                c for s, c in zip(states, counts) if s[k] == val
            ) / counts.sum()
    expect = np.array([np.prod([marg[k, s[k]] for k in range(4)]) for s in states])
    assert np.max(np.abs(p0 - expect)) < 1e-12


def test_vertex_block_affine_identity():
    rng = np.random.default_rng(12)
    for _ in range(25):
        g = random_admg(rng, n_max=5)
        q = random_interior_q(g, rng)
        p = prob_vector(g, q)
        for v in g.vertices:
            A, b, idx = vertex_block(g, q, v)
            assert np.max(np.abs(A @ q[idx] - b - p)) < 1e-12
            heads_of_v = [
                j for j, prm in enumerate(enumerate_params(g).params)
                if v in prm.head
            ]
            assert list(idx) == heads_of_v


def test_update_vertex_never_decreases_the_likelihood():
    rng = np.random.default_rng(13)
    for _ in range(20):
        g = random_admg(rng, n_max=5)
        counts = random_counts(rng, len(g.vertices))
        q = random_interior_q(g, rng)
        before = loglik(g, q, counts)
        for v in g.vertices:
            q2 = update_vertex(g, q, v, counts)
            after = loglik(g, q2, counts)
            assert after >= before - 1e-9
            q, before = q2, after


def test_fit_matches_closed_form_on_random_dags():
    rng = np.random.default_rng(14)
    checked = 0
    while checked < 10:
        g = random_admg(rng, n_min=3, n_max=4, p_dir=0.4, p_bi=0.0)
        counts = random_counts(rng, len(g.vertices))
        res = fit(g, counts)
        assert res.converged
        target = dag_loglik_closed_form(g, counts)
        assert abs(res.loglik - target) < 1e-6
        checked += 1


def test_fit_reaches_the_saturated_likelihood():
    rng = np.random.default_rng(15)
    g = Admg(["a", "b", "c"], bidirected=[("a", "b"), ("b", "c"), ("a", "c")])
    assert len(enumerate_params(g)) == 7
    counts = random_counts(rng, 3)
    res = fit(g, counts, FitOptions(tol=1e-12))
    phat = counts / counts.sum()
    saturated = float(counts @ np.log(phat))
    assert abs(res.loglik - saturated) < 1e-8
    assert np.max(np.abs(res.p - phat)) < 1e-6


def test_edgeless_fit_is_the_product_of_margins():
    rng = np.random.default_rng(16)
    g = Admg(["a", "b", "c"])
    counts = random_counts(rng, 3)
    res = fit(g, counts)
    q0 = initialize(g, counts)
    assert abs(res.loglik - loglik(g, q0, counts)) < 1e-10
    assert np.max(np.abs(res.p - prob_vector(g, q0))) < 1e-8


def test_fit_result_bookkeeping():
    rng = np.random.default_rng(17)
    g = graph_two()
    counts = random_counts(rng, 3)
    res = fit(g, counts)
    assert res.graph is g
    assert res.n == counts.sum()
    assert res.n_params == len(enumerate_params(g)) == 7
    assert abs(res.p.sum() - 1.0) < 1e-12
    assert abs(loglik(g, res.q, counts) - res.loglik) < 1e-9


def test_restarts_are_reproducible_and_never_worse():
    rng = np.random.default_rng(18)
    g = graph_one()
    counts = random_counts(rng, 4)
    plain = fit(g, counts)
    multi1 = fit(g, counts, FitOptions(starts=4, seed=7))
    multi2 = fit(g, counts, FitOptions(starts=4, seed=7))
    assert np.array_equal(multi1.q, multi2.q)
    assert multi1.loglik >= plain.loglik - 1e-9


def test_restarts_run_district_by_district(monkeypatch):
    """A fit with restarts builds no whole-graph start and forms no
    joint table: each district starts and restarts on its local
    counts."""

    def refuse(*args):
        raise AssertionError("the fit worked on the whole graph")

    rng = np.random.default_rng(19)
    g = graph_one()
    counts = random_counts(rng, 4)
    with monkeypatch.context() as m:
        m.setattr(Parametrization, "prob", refuse)
        m.setattr(fitting, "initialize", refuse)
        res = fit(g, counts, FitOptions(starts=3, seed=2))
    assert res.converged
    assert abs(res.loglik - loglik(g, res.q, counts)) < 1e-9


def test_restarts_never_lower_a_district_term():
    """Every district keeps its best start, and its first start is the
    one a single-start fit takes, so with restarts no district's term
    of the likelihood is lower than with one start."""
    rng = np.random.default_rng(29)
    checked = 0
    while checked < 6:
        g = random_admg(rng, n_min=3, n_max=6, p_dir=0.3, p_bi=0.4)
        if len(g.districts()) < 2:
            continue
        counts = random_counts(rng, len(g.vertices))
        one, four = {}, {}
        fit(g, counts, FitOptions(seed=5), district_fits=one)
        fit(g, counts, FitOptions(starts=4, seed=5), district_fits=four)
        assert one.keys() == four.keys() == set(parametrization(g).maps)
        for dm, (_, ll, *_) in one.items():
            assert four[dm][1] >= ll
        checked += 1


def test_tight_cycle_budget_reports_nonconvergence():
    rng = np.random.default_rng(20)
    g = graph_one()
    counts = random_counts(rng, 4)
    res = fit(g, counts, FitOptions(max_cycles=1, tol=1e-14))
    assert res.cycles == 1
    assert not res.converged
    assert np.isfinite(res.loglik)


def test_multi_district_fits_are_stationary_and_consistent():
    rng = np.random.default_rng(21)
    opts = FitOptions(tol=1e-10)
    checked = 0
    for _ in range(12):
        g = random_admg(rng, n_min=3, n_max=5)
        if len(g.districts()) < 2:
            continue
        counts = random_counts(rng, len(g.vertices))
        res = fit(g, counts, opts)
        assert res.converged
        assert res.kkt < opts.tol
        # the summed district log-likelihoods are the joint one
        assert abs(res.loglik - loglik(g, res.q, counts)) < 1e-9
        assert np.max(np.abs(res.q - q_from_p(g, res.p))) < 1e-10
        checked += 1
    assert checked >= 4


def test_zero_counts_across_districts():
    """Districts fit on marginal counts; a local state stays feasible
    exactly when one of its joint cells has a positive count."""
    rng = np.random.default_rng(22)
    opts = FitOptions(tol=1e-10, allow_zero_counts=True)
    checked = 0
    while checked < 8:
        g = random_admg(rng, n_min=3, n_max=6, p_dir=0.3)
        if len(g.districts()) < 2:
            continue
        counts = random_counts(rng, len(g.vertices))
        counts[rng.random(len(counts)) < 0.3] = 0.0
        res = fit(g, counts, opts)
        assert abs(res.loglik - loglik(g, res.q, counts)) < 1e-9
        assert res.p[counts > 0].min() > 0
        assert np.max(np.abs(res.q - q_from_p(g, res.p))) < 1e-10
        checked += 1


def test_fit_options_are_validated(tmp_path, capsys):
    for bad in (
        {"tol": 0.0},
        {"tol": -1e-8},
        {"tol": float("nan")},
        {"tol": float("inf")},
        {"max_cycles": 0},
        {"starts": 0},
    ):
        with pytest.raises(ValueError):
            FitOptions(**bad)
    # tol=True used to pass as 1.0, and a string failed in numpy
    for bad in (True, "1e-8", None, 1j):
        with pytest.raises(ValueError, match="tol must be a real number"):
            FitOptions(tol=bad)
    assert FitOptions(tol=np.float32(1e-6)).tol > 0
    # a count that is not an integer used to pass here and fail in fit
    # with a TypeError
    for bad in ({"max_cycles": 1.5}, {"starts": 2.5}, {"max_cycles": True},
                {"starts": True}, {"starts": 2.0}, {"max_cycles": "3"},
                {"seed": 1.5}, {"seed": True}, {"seed": "3"}):
        with pytest.raises(ValueError, match="must be an integer"):
            FitOptions(**bad)
    with pytest.raises(ValueError, match="seed must be at least 0"):
        FitOptions(seed=-1)
    opts = FitOptions(max_cycles=np.int64(3), starts=np.int32(2), seed=np.int64(5))
    assert fit(Admg(["a", "b"], [], [("a", "b")]), np.arange(1.0, 5.0), opts).converged
    # on a saturated model a zero cycle budget would report a
    # stationarity certificate for a point that was never ascended
    gpath = tmp_path / "graph.txt"
    gpath.write_text(format_graph(Admg(["a", "b"], [], [("a", "b")])))
    dpath = tmp_path / "data.csv"
    dpath.write_text("a,b,count\n0,0,10\n0,1,20\n1,0,30\n1,1,40\n")
    for flags in (["--max-cycles", "0"], ["--tol", "nan"], ["--starts", "0"],
                  ["--seed", "-1"]):
        assert main(["fit", str(gpath), str(dpath), *flags]) == 2
        assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_large_family_reaches_the_saturated_likelihood(k):
    # complete bidirected graphs on k + 1 vertices are saturated models;
    # the district Newton phase ends them at the maximum itself
    rng = np.random.default_rng(22 + k)
    g = _bench_graph("large", k)
    counts = random_counts(rng, k + 1, high=50)
    opts = FitOptions()
    res = fit(g, counts, opts)
    saturated = float(counts @ np.log(counts / counts.sum()))
    assert res.converged and res.cycles <= 20
    assert abs(res.loglik - saturated) < 1e-10
    assert 0.0 <= res.kkt < opts.tol
    assert report(res, counts, with_se=False).to_dict()["kkt"] == res.kkt
    # the fitted parameters are the conditional probabilities of res.p
    assert np.max(np.abs(res.q - q_from_p(g, res.p))) < 1e-10


def test_zero_count_block_with_singular_hessian():
    g = _bench_graph("large", 2)
    counts = np.array([7.0, 0, 0, 12, 0, 0, 9, 0])
    opts = FitOptions(allow_zero_counts=True)
    q = initialize(g, counts)
    A, b, idx = vertex_block(g, q, "x2")
    f = A @ q[idx] - b
    pos = counts > 0
    Apos = A[pos]
    hess = (Apos * (counts[pos] / f[pos] ** 2)[:, None]).T @ Apos
    assert np.linalg.matrix_rank(hess) < len(idx)
    with pytest.raises(FitError, match="allow_zero_counts"):
        update_vertex(g, q, "x2", counts)
    before = loglik(g, q, counts)
    for v in ["x2", "x1", "x3", "x2"]:
        q = update_vertex(g, q, v, counts, opts)
        after = loglik(g, q, counts)
        p = prob_vector(g, q)
        assert p[pos].min() > 0 and p.min() >= 0
        assert after >= before - 1e-9
        before = after


def test_converged_fits_carry_a_stationarity_certificate(monkeypatch):
    """With positive counts every district stops within two block
    cycles or on a Newton decrement below the inner tolerance, so the
    reported certificate is below tol and a much tighter fit gains
    nothing."""
    certified = []
    phase = fitting._newton_phase

    def spy(*args):
        out = phase(*args)
        certified.append(out[1] is not None)
        return out

    monkeypatch.setattr(fitting, "_newton_phase", spy)
    rng = np.random.default_rng(23)
    opts = FitOptions()
    tight = FitOptions(tol=1e-13, max_cycles=100_000)
    checked = 0
    while checked < 15:
        g = random_admg(rng, n_min=3, n_max=6, p_dir=0.3, p_bi=0.4)
        if len(g.districts()) < 2:
            continue
        counts = random_counts(rng, len(g.vertices))
        res = fit(g, counts, opts)
        assert res.converged
        assert 0.0 <= res.kkt < opts.tol
        assert abs(res.loglik - fit(g, counts, tight).loglik) < 1e-9
        checked += 1
    assert sum(certified) >= 5


def test_zero_count_fits_never_end_below_their_start():
    rng = np.random.default_rng(24)
    opts = FitOptions(allow_zero_counts=True)
    graphs = [_bench_graph("large", k) for k in (2, 3, 4)]
    graphs += [random_admg(rng, n_min=3, n_max=6, p_dir=0.3, p_bi=0.4) for _ in range(12)]
    for g in graphs:
        counts = random_counts(rng, len(g.vertices))
        counts[rng.random(len(counts)) < 0.3] = 0.0
        if counts.sum() == 0:
            continue
        res = fit(g, counts, opts)
        assert res.loglik >= loglik(g, initialize(g, counts), counts)
        assert abs(res.loglik - loglik(g, res.q, counts)) < 1e-9
        assert res.p[counts > 0].min() > 0
