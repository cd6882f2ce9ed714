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
    DistrictMaps, Parametrization, enumerate_params, parametrization, prob_vector, q_from_p,
)

from util import (
    dag_loglik_closed_form,
    graph_one,
    graph_one_zero_counts,
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


def test_arrays_of_the_wrong_length_are_refused():
    g = graph_two()  # 3 vertices, 7 parameters
    q = initialize(g, np.ones(8))
    with pytest.raises(ValueError, match="expected 8 counts"):
        loglik(g, q, np.ones(3))
    with pytest.raises(ValueError, match="expected 7 parameters, got 2"):
        update_vertex(g, q[:2], "1", np.ones(8))
    with pytest.raises(ValueError, match="expected 7 parameters, got 8"):
        update_vertex(g, np.append(q, 0.5), "3", np.ones(8))
    with pytest.raises(ValueError, match="expected 7 parameters, got 2"):
        vertex_block(g, q[:2], "2")
    xy = Admg(["x", "y"], directed=[("x", "y")])  # 3 parameters
    with pytest.raises(ValueError, match="expected 3 parameters, got 2"):
        update_vertex(xy, [0.5, 0.5], "x", np.ones(4))


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


def _parents_observed(g, counts):
    """Whether every vertex sees each assignment of its parents in a
    cell with a positive count."""
    k = len(g.vertices)
    bits = (np.arange(1 << k)[:, None] >> np.arange(k - 1, -1, -1)) & 1
    for v in g.vertices:
        pa = [g.vertices.index(u) for u in g.parents(v)]
        code = bits[:, pa] @ (1 << np.arange(len(pa)))
        if np.bincount(code, weights=counts, minlength=1 << len(pa)).min() == 0:
            return False
    return True


def test_zero_count_dags_are_fitted_in_closed_form():
    """On random DAGs with 30% of the cells zero but every parent
    configuration observed, every district is saturated with all of
    its conditioning events observed: the fit is in closed form, at
    the conditional-proportion maximum."""
    rng = np.random.default_rng(43)
    checked = 0
    while checked < 20:
        g = random_admg(rng, n_min=4, n_max=7, p_dir=0.4, p_bi=0.0)
        k = len(g.vertices)
        counts = random_counts(rng, k)
        counts[rng.random(1 << k) < 0.3] = 0.0
        if not _parents_observed(g, counts):
            continue
        res = fit(g, counts, FitOptions(allow_zero_counts=True))
        assert res.cycles == 0 and res.converged and res.kkt == 0.0
        assert abs(res.loglik - dag_loglik_closed_form(g, counts)) < 1e-9
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


def _kernel(dm, counts_d):
    """The empirical kernel n(x_D, x_pa(D)) / n(x_pa(D)) of a district
    over its local states."""
    table = counts_d.reshape((2,) * len(dm.scope))
    members = tuple(k for k, p in enumerate(dm.scope) if dm.d_mask >> p & 1)
    return (table / table.sum(axis=members, keepdims=True)).ravel()


def test_saturated_districts_are_those_the_closed_form_fits():
    """The dimension count marks a district saturated exactly where the
    closed form's factor is the empirical kernel: there the kernel is
    unconstrained, elsewhere the closed form misses it."""
    rng = np.random.default_rng(40)
    seen = {True: 0, False: 0}
    for _ in range(150):
        g = random_admg(rng, n_min=2, n_max=6, p_dir=0.3, p_bi=0.4)
        counts = random_counts(rng, len(g.vertices))
        for dm in parametrization(g).maps:
            counts_d = dm.marginal(counts)
            f = dm.factor(fitting._closed_form(dm, counts_d))
            assert np.allclose(f, _kernel(dm, counts_d), rtol=1e-9, atol=0) == dm.saturated
            seen[dm.saturated] += 1
    assert min(seen.values()) > 50


def test_saturated_districts_are_solved_in_closed_form():
    """A saturated district's term is its local saturated
    log-likelihood, which a tightly converged block ascent from its
    start reaches too; it is reported with no cycle, converged and a
    zero certificate."""
    rng = np.random.default_rng(41)
    tight = FitOptions(tol=1e-13)
    checked = 0
    while checked < 30:
        g = random_admg(rng, n_min=2, n_max=5, p_dir=0.3, p_bi=0.4)
        counts = random_counts(rng, len(g.vertices))
        fits = {}
        fit(g, counts, district_fits=fits)
        for dm, (q_d, ll, cycles, converged, kkt) in fits.items():
            if not dm.saturated:
                continue
            counts_d = dm.marginal(counts)
            bound = float(counts_d @ np.log(_kernel(dm, counts_d)))
            assert ll == pytest.approx(bound, rel=1e-9, abs=0)
            assert (cycles, converged, kkt) == (0, True, 0.0)
            q_asc = fitting._district_start(dm, counts_d)
            ll_asc = fitting._fit_district(dm, q_asc, counts_d, tight)[0]
            assert ll_asc == pytest.approx(ll, rel=1e-9, abs=0)
            assert np.max(np.abs(q_asc - q_d)) < 1e-5
            checked += 1


def test_fully_saturated_fits_reach_the_maximum_over_nine_decades():
    """On graphs whose districts are all saturated, with counts spread
    uniformly in log10 over nine decades, every fit is converged at the
    sum of the districts' local saturated log-likelihoods.  The block
    ascent stopped some of these fits unconverged, millions of nats
    short."""
    rng = np.random.default_rng(42)
    checked = 0
    while checked < 150:
        g = random_admg(rng, n_min=2, n_max=6, p_dir=0.3, p_bi=0.4)
        maps = parametrization(g).maps
        if not all(dm.saturated for dm in maps):
            continue
        counts = 10.0 ** rng.uniform(0, 9, 1 << len(g.vertices))
        res = fit(g, counts)
        bound = sum(float(c @ np.log(_kernel(dm, c))) for dm in maps for c in [dm.marginal(counts)])
        assert res.converged and res.cycles == 0
        assert res.loglik == pytest.approx(bound, rel=1e-9, abs=0)
        checked += 1


def test_saturated_districts_fall_back_to_the_ascent(monkeypatch):
    """A saturated district with a zero local count but every
    conditioning event observed is solved in closed form.  One with an
    unobserved conditioning event, or whose closed form rounds a factor
    to zero, is fitted by the block ascent."""
    ascents = []
    real = fitting._fit_district

    def recording(dm, *args):
        ascents.append(dm)
        return real(dm, *args)

    monkeypatch.setattr(fitting, "_fit_district", recording)
    zeros = FitOptions(allow_zero_counts=True)
    g = Admg(["a", "b"], bidirected=[("a", "b")])
    dm = parametrization(g).maps[0]
    assert dm.saturated
    counts = np.array([5.0, 0.0, 7.0, 3.0])
    res = fit(g, counts, zeros)
    pos = counts > 0
    saturated = float(counts[pos] @ np.log(counts[pos] / counts.sum()))
    assert ascents == [] and res.cycles == 0 and res.converged and res.kkt == 0.0
    assert res.loglik == pytest.approx(saturated, rel=1e-12, abs=0)
    # c = 1 is never observed, so a's parameter given c = 1 has no
    # closed form; c's district, with an empty tail, still has one
    h = Admg(["c", "a"], directed=[("c", "a")])
    res = fit(h, np.array([5.0, 7.0, 0.0, 0.0]), zeros)
    assert [d.district for d in ascents] == [("a",)] and res.cycles >= 1 and res.converged
    # the cell with count 1 has factor 1 - q[a] - q[b] + q[a,b] = 1e-17 / 3,
    # which the closed form's roundoff takes to 0
    wide = np.array([1e17, 1e17, 1.0, 1e17])
    assert fitting._district_ll(dm, fitting._closed_form(dm, wide), wide) == -np.inf
    res = fit(g, wide)
    assert ascents[1:] == [dm] and res.cycles >= 1 and np.isfinite(res.loglik)


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


def test_district_fits_stay_per_placed_district():
    """On an 8-vertex graph whose three non-saturated districts share
    one shape, every district is fitted on its own local counts: with
    restarts, each district's fit equals, bitwise, a fit of that
    district alone on freshly built maps."""
    names = [f"v{i}" for i in range(8)]
    g = Admg(names, directed=[(names[i], names[i + 2]) for i in range(6)],
             bidirected=[(names[2 * i], names[2 * i + 1]) for i in range(4)])
    par = parametrization(g)
    shapes = [dm._shape for dm in par.maps if not dm.saturated]
    assert len(shapes) == 3 and len(set(shapes)) == 1
    opts = FitOptions(starts=3, seed=8)
    counts = random_counts(np.random.default_rng(31), 8)
    fits = {}
    res = fit(g, counts, opts, district_fits=fits)
    for dm, sl, d in zip(par.maps, par.slices, g.districts()):
        fresh = DistrictMaps(g, d)
        want = fitting._fit_district_starts(fresh, fresh.marginal(counts), opts)
        got = fits[dm]
        assert np.array_equal(got[0], want[0]) and got[1:] == want[1:]
        assert np.array_equal(res.q[sl], want[0])


def test_a_fit_without_district_fits_hashes_no_maps(monkeypatch):
    """Without a dict of district fits nothing is looked up, so no
    district's maps are hashed, and the fit is the same."""
    g = graph_one()
    counts = random_counts(np.random.default_rng(4), 4)
    want = fit(g, counts)

    def refuse(self):
        raise AssertionError("district maps hashed")

    monkeypatch.setattr(DistrictMaps, "__hash__", refuse)
    got = fit(g, counts)
    assert np.array_equal(got.q, want.q) and got.loglik == want.loglik


def test_tight_cycle_budget_reports_nonconvergence():
    """Zero counts keep the Newton phase from certifying these fits
    within their one cycle."""
    g = graph_one()
    opts = FitOptions(max_cycles=1, allow_zero_counts=True)
    for seed in range(20, 34):
        res = fit(g, graph_one_zero_counts(seed), opts)
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
    """With positive counts every district stops on a block cycle that
    gains less than tol or on a Newton decrement below the inner
    tolerance, so the reported certificate is below tol and a much
    tighter fit gains nothing."""
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


def _chain_district():
    """The one district of a <-> b <-> c, which has no closed form, at
    its independence start on positive local counts."""
    g = Admg(["a", "b", "c"], bidirected=[("a", "b"), ("b", "c")])
    counts = np.random.default_rng(31).integers(5, 60, 8).astype(float)
    (dm,) = parametrization(g).maps
    counts_d = dm.marginal(counts)
    q_d = fitting._district_start(dm, counts_d)
    return g, counts, dm, q_d, counts_d


@pytest.mark.parametrize("cause", ["parameter", "not_positive_definite", "nan", "inf"])
def test_newton_phase_hands_back_unchanged(monkeypatch, cause):
    """A parameter at or below 0, an information matrix that is not
    positive definite and a decrement that is not finite each hand the
    district back to the block cycles with its parameters untouched."""
    _, _, dm, q_d, counts_d = _chain_district()
    ll = fitting._district_ll(dm, q_d, counts_d)
    opts = FitOptions()
    # from this start the phase takes a step
    moved = q_d.copy()
    assert fitting._newton_phase(dm, moved, counts_d, ll, opts)[0] > ll
    assert not np.array_equal(moved, q_d)

    if cause == "parameter":
        q_d[1] = 0.0
    else:
        real = DistrictMaps.observed_information

        def bent(self, q_local, counts):
            f, g, H = real(self, q_local, counts)
            if cause == "not_positive_definite":
                return f, g, -H
            return f, np.full_like(g, np.nan if cause == "nan" else np.inf), H

        monkeypatch.setattr(DistrictMaps, "observed_information", bent)
    before = q_d.copy()
    assert fitting._newton_phase(dm, q_d, counts_d, ll, opts) == (ll, None)
    assert np.array_equal(q_d, before)


def test_a_fit_whose_newton_phase_hands_back_converges_on_its_cycles(monkeypatch):
    """With the Newton phase always handing back, a district runs block
    cycles until one gains less than tol, and its certificate is the
    largest block decrement of that last cycle."""
    g, counts, dm, _, _ = _chain_district()
    plain = fit(g, counts)
    decrements = []
    ascend = fitting._ascend_vertex

    def spy(*args):
        out = ascend(*args)
        decrements.append(out[2])
        return out

    monkeypatch.setattr(fitting, "_newton_phase", lambda dm, q_d, c, ll, opts: (ll, None))
    monkeypatch.setattr(fitting, "_ascend_vertex", spy)
    res = fit(g, counts)
    assert res.converged and res.cycles > plain.cycles == 1
    assert len(decrements) == res.cycles * len(dm.members)
    assert res.kkt == max(decrements[-len(dm.members):])
    assert abs(res.loglik - plain.loglik) < 1e-8


def test_a_positive_count_district_certifies_in_its_first_cycle(monkeypatch):
    """On positive counts the Newton phase that follows the first block
    cycle stops an ascended district on its decrement, so the fit takes
    one cycle and reports that decrement as its certificate."""
    decrements = []
    phase = fitting._newton_phase

    def spy(*args):
        out = phase(*args)
        decrements.append(out[1])
        return out

    monkeypatch.setattr(fitting, "_newton_phase", spy)
    g, counts, _, _, _ = _chain_district()
    res = fit(g, counts)
    assert res.cycles == 1 and res.converged
    assert len(decrements) == 1 and decrements[0] is not None
    assert res.kkt == decrements[0] <= 0.01 * FitOptions().tol
