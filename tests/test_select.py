"""Greedy stepwise structure search and its move enumeration."""

from collections import Counter

import numpy as np
import pytest

import admgfit.fitting as fitting
import admgfit.select as select
from admgfit.fitting import FitError, FitOptions, fit
from admgfit.graph import Admg, GraphError
from admgfit.moebius import Parametrization, parametrization, prob_vector
from admgfit.select import TIE_TOL, neighbors, stepwise

from util import criterion_11_search_inputs, golden_search_inputs, random_admg


def product_counts(margins, n):
    """Exact expected counts for independent binary margins; margins[k]
    is the probability of state 1 for variable k."""
    k = len(margins)
    out = np.empty(1 << k)
    for s in range(1 << k):
        p = 1.0
        for i, m in enumerate(margins):
            bit = (s >> (k - 1 - i)) & 1
            p *= m if bit else 1 - m
        out[s] = p * n
    return out


def pair_counts(n):
    """Exact counts on three variables where the first two are strongly
    dependent and the third is independent of both."""
    joint12 = {(0, 0): 0.4, (0, 1): 0.1, (1, 0): 0.1, (1, 1): 0.4}
    out = np.empty(8)
    for s in range(8):
        i, j, k = (s >> 2) & 1, (s >> 1) & 1, s & 1
        out[s] = joint12[(i, j)] * 0.5 * n
    return out


def test_neighbors_of_the_empty_graph():
    g = Admg(["a", "b", "c"])
    moves = neighbors(g)
    assert len(moves) == 9
    assert all(m[0] == "add" for m in moves)
    assert [m[1] for m in moves] == ["->"] * 6 + ["<->"] * 3
    assert [(m[2], m[3]) for m in moves if m[1] == "<->"] == [
        ("a", "b"), ("a", "c"), ("b", "c"),
    ]


def test_neighbors_lists_removals_first_and_skips_adjacent_pairs():
    g = Admg(["1", "2", "3"], directed=[("1", "2")])
    moves = neighbors(g)
    assert moves[0][:4] == ("remove", "->", "1", "2")
    added_dir = [(m[2], m[3]) for m in moves if m[:2] == ("add", "->")]
    assert ("1", "2") not in added_dir and ("2", "1") not in added_dir
    assert set(added_dir) == {("1", "3"), ("3", "1"), ("2", "3"), ("3", "2")}
    # a bidirected edge alongside an existing directed one is a legal move
    assert ("add", "<->", "1", "2") in [m[:4] for m in moves]


def test_neighbors_never_propose_a_cycle():
    g = Admg(["a", "b", "c"], directed=[("a", "b"), ("b", "c")])
    moves = [m[:4] for m in moves_list] if (moves_list := neighbors(g)) else []
    assert ("add", "->", "c", "a") not in moves
    assert ("add", "->", "a", "c") in moves
    for m in moves_list:
        assert isinstance(m[4], Admg)


def _reference_neighbors(g):
    """Every single-edge move built through the constructor: all
    removals, then every addition of a non-adjacent pair, omitting those
    the constructor refuses as cyclic."""
    vs, d, b = g.vertices, list(g.directed_edges), list(g.bidirected_edges)
    out = [("remove", "->", x, y, Admg(vs, [e for e in d if e != (x, y)], b)) for x, y in d]
    out += [("remove", "<->", x, y, Admg(vs, d, [e for e in b if e != (x, y)])) for x, y in b]
    for x in vs:
        for y in vs:
            if x != y and (x, y) not in d and (y, x) not in d:
                try:
                    out.append(("add", "->", x, y, Admg(vs, d + [(x, y)], b)))
                except GraphError:
                    pass
    for i, x in enumerate(vs):
        out += [("add", "<->", x, y, Admg(vs, d, b + [(x, y)]))
                for y in vs[i + 1:] if (x, y) not in b]
    return out


def test_neighbors_match_building_every_addition():
    rng = np.random.default_rng(71)
    n_moves = 0
    for _ in range(250):
        g = random_admg(rng, n_min=2, n_max=7, p_dir=rng.uniform(0.0, 0.5),
                        p_bi=rng.uniform(0.0, 0.5))
        moves, want = neighbors(g), _reference_neighbors(g)
        assert [m[:4] for m in moves] == [m[:4] for m in want]
        for m, w in zip(moves, want):
            assert m[4] == w[4] and hash(m[4]) == hash(w[4])
            assert m[4].directed_edges == w[4].directed_edges
            assert m[4].bidirected_edges == w[4].bidirected_edges
        n_moves += len(moves)
    assert n_moves > 5000


def test_neighbors_build_no_cyclic_addition(monkeypatch):
    """A directed addition that would close a cycle is skipped before
    any graph is built for it."""
    calls = []
    real = Admg.with_edge

    def recording(self, a, b, kind):
        calls.append((a, b, kind))
        return real(self, a, b, kind)

    monkeypatch.setattr(Admg, "with_edge", recording)
    g = Admg(["a", "b", "c", "d"], directed=[("a", "b"), ("b", "c"), ("c", "d")])
    moves = neighbors(g)
    added = [m[1:4] for m in moves if m[0] == "add"]
    assert calls == [(a, b, kind) for kind, a, b in added]
    assert [(a, b) for kind, a, b in added if kind == "->"] == [
        ("a", "c"), ("a", "d"), ("b", "d"),
    ]


def test_invalid_criterion_is_rejected():
    with pytest.raises(ValueError, match="criterion must be one of"):
        stepwise(np.ones(2), Admg(["a"]), criterion="hqc")


def test_independent_data_keep_the_empty_graph():
    counts = product_counts([0.3, 0.6, 0.5], 400)
    res = stepwise(counts, Admg(["1", "2", "3"]))
    assert res.steps == ()
    assert res.graph == Admg(["1", "2", "3"])
    assert res.value == res.start_value
    assert res.evaluated == 10  # start plus nine single-edge candidates


def test_single_dependence_is_found_and_ties_prefer_bidirected():
    counts = pair_counts(500)
    res = stepwise(counts, Admg(["1", "2", "3"]))
    assert len(res.steps) == 1
    step = res.steps[0]
    assert (step.action, step.kind, step.a, step.b) == ("add", "<->", "1", "2")
    assert res.graph == Admg(["1", "2", "3"], bidirected=[("1", "2")])
    assert step.describe() == "add 1 <-> 2"


def test_spurious_edges_are_removed():
    counts = product_counts([0.3, 0.6, 0.5], 400)
    start = Admg(["1", "2", "3"], directed=[("1", "2")], bidirected=[("2", "3")])
    res = stepwise(counts, start)
    assert res.graph == Admg(["1", "2", "3"])
    assert all(s.action == "remove" for s in res.steps)
    assert len(res.steps) == 2


def test_accepted_criteria_decrease_strictly():
    counts = pair_counts(500)
    res = stepwise(counts, Admg(["1", "2", "3"]), criterion="aic")
    values = [res.start_value] + [s.criterion for s in res.steps]
    for prev, cur in zip(values, values[1:]):
        assert cur < prev - TIE_TOL
    assert res.value == values[-1]


def test_search_is_deterministic():
    counts = pair_counts(500)
    g0 = Admg(["1", "2", "3"])
    a = stepwise(counts, g0)
    b = stepwise(counts, g0)
    assert [s.describe() for s in a.steps] == [s.describe() for s in b.steps]
    assert a.graph == b.graph
    assert a.evaluated == b.evaluated


def test_transcript_values_match_cold_refits():
    counts = pair_counts(500)
    res = stepwise(counts, Admg(["1", "2", "3"]))
    g = Admg(["1", "2", "3"])
    for step in res.steps:
        g = g.with_edge(step.a, step.b, step.kind)
        cold = fit(g, counts, FitOptions(tol=1e-10))
        bic = -2 * cold.loglik + cold.n_params * np.log(cold.n)
        assert abs(bic - step.criterion) < 1e-4


def test_max_steps_caps_the_search():
    counts = pair_counts(500)
    full = stepwise(counts, Admg(["1", "2", "3"]))
    capped = stepwise(counts, Admg(["1", "2", "3"]), max_steps=0)
    assert capped.steps == ()
    with pytest.raises(ValueError, match="max_steps must be at least 0"):
        stepwise(counts, Admg(["1", "2", "3"]), max_steps=-1)
    for bad in (1.5, True, "3", None):
        with pytest.raises(ValueError, match="max_steps must be an integer"):
            stepwise(counts, Admg(["1", "2", "3"]), max_steps=bad)
    assert stepwise(counts, Admg(["1", "2", "3"]), max_steps=np.int64(0)).steps == ()
    assert capped.graph == Admg(["1", "2", "3"])
    if full.steps:
        one = stepwise(counts, Admg(["1", "2", "3"]), max_steps=1)
        assert len(one.steps) == 1
        assert one.steps[0] == full.steps[0]


def test_failing_candidates_are_skipped_with_a_warning(monkeypatch):
    counts = pair_counts(500)
    bad = Admg(["1", "2", "3"], directed=[("1", "2")])
    real_fit = select.fit

    def flaky(g, counts_, opts=FitOptions(), **kw):
        if g == bad:
            raise FitError("synthetic failure")
        return real_fit(g, counts_, opts, **kw)

    monkeypatch.setattr(select, "fit", flaky)
    with pytest.warns(UserWarning, match="skipping candidate"):
        res = stepwise(counts, Admg(["1", "2", "3"]))
    assert res.graph != bad


def test_a_search_whose_candidates_all_fail_stays_at_the_start(monkeypatch):
    """With no candidate scored the search ends at its start graph, and
    only the start's districts count as fitted or reused."""
    counts = pair_counts(500)
    start = Admg(["1", "2", "3"])
    real_fit = select.fit

    def only_the_start(g, counts_, opts=FitOptions(), **kw):
        if g != start:
            raise FitError("synthetic failure")
        return real_fit(g, counts_, opts, **kw)

    monkeypatch.setattr(select, "fit", only_the_start)
    with pytest.warns(UserWarning, match="skipping candidate"):
        res = stepwise(counts, start)
    moves = neighbors(start)
    assert res.graph == start and res.steps == () and res.evaluated == 1 + len(moves)
    assert res.districts_fitted + res.districts_reused == len(start.districts())
    assert res.maps_built + res.maps_reused == sum(len(m[4].districts()) for m in moves) + 3


def test_counts_are_checked_once_before_the_first_fit(monkeypatch):
    """Bad counts fail the search with the fit's own error before any
    candidate is fitted, and without a skipped-candidate warning."""
    import warnings

    calls = []
    real_fit = select.fit

    def counting(g, counts_, opts=FitOptions(), **kw):
        calls.append(g)
        return real_fit(g, counts_, opts, **kw)

    monkeypatch.setattr(select, "fit", counting)
    counts = np.arange(8.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FitError, match="zero cell counts"):
            stepwise(counts, Admg(["1", "2", "3"]))
        with pytest.raises(FitError, match="length 8"):
            stepwise(np.ones(4), Admg(["1", "2", "3"]))
    assert calls == []
    res = stepwise(counts, Admg(["1", "2", "3"]), opts=FitOptions(allow_zero_counts=True),
                   max_steps=1)
    assert res.evaluated == len(calls) > 1


def test_unfittable_start_raises(monkeypatch):
    def broken(g, counts_, opts=FitOptions(), **kw):
        raise FitError("synthetic failure")

    monkeypatch.setattr(select, "fit", broken)
    with pytest.warns(UserWarning, match="skipping candidate"):
        with pytest.raises(FitError, match="starting graph cannot be fitted"):
            stepwise(np.ones(8), Admg(["1", "2", "3"]))


# Two searches recorded before district maps were shared within a
# search: start criterion, accepted moves with their criteria, and the
# number of candidate fits.
GOLDEN_BIC = (
    110941.08322179216,
    [
        ("add 1 <-> 2", 105742.08245339495),
        ("add 2 -> 4", 104002.1571524876),
        ("add 3 <-> 4", 102345.36249905216),
        ("add 2 <-> 3", 101228.58669780324),
    ],
    81,
)
GOLDEN_AIC = (
    34192.712349972055,
    [
        ("add d <-> e", 34087.73688360254),
        ("add c <-> d", 33651.55396821318),
        ("add b <-> c", 33537.04757218995),
        ("add c -> b", 33247.47821444975),
    ],
    137,
)


def _assert_transcript(res, golden):
    start, steps, evaluated = golden
    assert res.start_value == pytest.approx(start, rel=0, abs=1e-9)
    assert [s.describe() for s in res.steps] == [m for m, _ in steps]
    for step, (_, value) in zip(res.steps, steps):
        assert step.criterion == pytest.approx(value, rel=0, abs=1e-9)
    assert res.evaluated == evaluated
    assert res.maps_reused > 0


def test_golden_transcripts():
    (bic_counts, bic_start, _), (aic_counts, aic_start, _) = golden_search_inputs()
    _assert_transcript(stepwise(bic_counts, bic_start), GOLDEN_BIC)
    _assert_transcript(stepwise(aic_counts, aic_start, criterion="aic"), GOLDEN_AIC)


def _record_district_fits(monkeypatch, name="_fit_district_starts") -> list:
    """The maps of every district that reaches ``fitting.<name>``, one
    entry per call, in call order: by default one per district fit,
    and with ``_fit_district`` one per start of a block ascent."""
    calls = []
    real = getattr(fitting, name)

    def recording(dm, *args):
        calls.append(dm)
        return real(dm, *args)

    monkeypatch.setattr(fitting, name, recording)
    return calls


def test_a_search_fits_each_district_structure_once(monkeypatch):
    """With one start, every district maps instance of a search is
    fitted exactly once, the start graph's included, and every other
    district request is a copy.  Fits stay per placed district: there
    are more of them than shapes built."""
    calls = _record_district_fits(monkeypatch)
    counts, g0, _ = golden_search_inputs()[0]
    starts = [(Admg(g0.vertices), False), (Admg(g0.vertices, directed=[("1", "2")]), True)]
    fitted = []
    real_fit = select.fit

    def recording_fit(g, counts_, opts=FitOptions(), **kw):
        fitted.append(g)
        return real_fit(g, counts_, opts, **kw)

    monkeypatch.setattr(select, "fit", recording_fit)
    for start, parametrized in starts:
        if parametrized:
            parametrization(start)
        calls.clear()
        fitted.clear()
        res = stepwise(counts, start)
        placed = {dm for g in fitted for dm in parametrization(g).maps}
        assert len(set(calls)) == len(calls) == len(placed)
        assert res.districts_fitted == len(calls) > res.maps_built
        requests = sum(len(parametrization(g).maps) for g in fitted)
        assert res.districts_fitted + res.districts_reused == requests
        assert res.districts_reused > res.districts_fitted


def test_new_districts_are_fitted_from_every_start(monkeypatch):
    """Every new district of a search is fitted once: one that is not
    saturated runs the block ascent from every start, and a saturated
    one is solved in closed form, with no ascent."""
    calls = _record_district_fits(monkeypatch)
    ascents = _record_district_fits(monkeypatch, "_fit_district")
    res = stepwise(pair_counts(500), Admg(["1", "2", "3"]),
                   opts=FitOptions(tol=1e-10, starts=3, seed=4))
    per_maps = Counter(ascents)
    assert set(per_maps.values()) == {3}
    assert set(per_maps) == {dm for dm in calls if not dm.saturated}
    assert len(set(calls)) == len(calls) == res.districts_fitted > res.maps_built
    assert res.districts_reused > 0


def test_a_failed_candidate_leaves_no_district_fit(monkeypatch):
    """A candidate whose second start fails has fitted a new district
    in its first start; the shared dict is left as it was.  The new
    district, {1, 2} with parent 3, is not saturated, so it runs the
    block ascent from both starts."""
    start = Admg(["1", "2", "3"], directed=[("3", "1")])
    bad = start.with_edge("1", "2", "<->")
    seen = {}
    real_fit, real_district = select.fit, fitting._fit_district

    def watching_fit(g, counts_, opts=FitOptions(), **kw):
        seen["graph"] = g
        if g != bad:
            return real_fit(g, counts_, opts, **kw)
        seen["before"] = dict(kw["district_fits"])
        try:
            return real_fit(g, counts_, opts, **kw)
        finally:
            seen["after"] = dict(kw["district_fits"])

    def failing_second_start(dm, q_d, counts_d, opts):
        out = real_district(dm, q_d, counts_d, opts)
        if seen["graph"] == bad:
            seen["bad_fits"] = seen.get("bad_fits", []) + [dm]
            if len(seen["bad_fits"]) == 2:
                raise FitError("synthetic failure in the second start")
        return out

    monkeypatch.setattr(select, "fit", watching_fit)
    monkeypatch.setattr(fitting, "_fit_district", failing_second_start)
    with pytest.warns(UserWarning, match="synthetic failure in the second start"):
        stepwise(pair_counts(500), start,
                 opts=FitOptions(tol=1e-10, starts=2, seed=0), max_steps=1)
    new_maps = seen["bad_fits"][0]
    assert not new_maps.saturated
    assert seen["bad_fits"] == [new_maps, new_maps]
    assert new_maps not in seen["after"]
    assert seen["after"].keys() == seen["before"].keys()
    assert all(seen["after"][dm] is seen["before"][dm] for dm in seen["before"])


def test_reused_districts_report_the_fit_that_produced_them(monkeypatch):
    """Every candidate's q, log-likelihood, cycles, converged and kkt
    are put together from the shared entries of its districts, whichever
    fit produced them."""
    results, tables = [], []
    real_fit = select.fit

    def recording_fit(g, counts_, opts=FitOptions(), **kw):
        res = real_fit(g, counts_, opts, **kw)
        results.append(res)
        tables.append(kw["district_fits"])
        return res

    monkeypatch.setattr(select, "fit", recording_fit)
    counts, start, criterion = golden_search_inputs()[1]
    search = stepwise(counts, start, criterion=criterion)
    assert search.districts_reused > 0
    table = tables[0]
    assert all(t is table for t in tables)
    for res in results:
        par = parametrization(res.graph)
        entries = [table[dm] for dm in par.maps]
        for (q_d, *_), sl in zip(entries, par.slices):
            assert np.array_equal(res.q[sl], q_d)
        assert res.loglik == sum(e[1] for e in entries)
        assert res.cycles == max(e[2] for e in entries)
        assert res.converged == all(e[3] for e in entries)
        assert res.kkt == max(e[4] for e in entries)


def test_search_candidates_are_plain_fits(monkeypatch):
    """Every candidate fit of the golden and criterion-11 searches and
    of a search with seeded restarts, and every entry of each search's
    shared district dict, equals bitwise a plain ``fit`` of the
    candidate's graph, rebuilt so that it shares no maps with the
    search."""
    fits = []
    real_fit = select.fit

    def recording_fit(g, counts_, opts=FitOptions(), **kw):
        res = real_fit(g, counts_, opts, **kw)
        fits.append((res, counts_, opts, kw["district_fits"]))
        return res

    monkeypatch.setattr(select, "fit", recording_fit)
    searches = [(*search, {}) for search in golden_search_inputs() + criterion_11_search_inputs()]
    # restarts are drawn per district, so candidates fitted with seeded
    # restarts are plain fits too
    restarts = FitOptions(tol=1e-10, starts=3, seed=4)
    searches.append((pair_counts(500), Admg(["1", "2", "3"]), "bic", {"opts": restarts}))
    searches.append((*golden_search_inputs()[0], {"opts": restarts, "max_steps": 1}))
    for counts, start, criterion, kw in searches:
        stepwise(counts, start, criterion=criterion, **kw)
    monkeypatch.undo()

    entries = set()
    for res, counts, opts, table in fits:
        g = res.graph
        plain = fit(Admg(g.vertices, g.directed_edges, g.bidirected_edges), counts, opts)
        assert np.array_equal(res.q, plain.q)
        assert res.loglik == plain.loglik
        par = parametrization(g)
        for dm, sl in zip(par.maps, par.slices):
            assert np.array_equal(table[dm][0], plain.q[sl])
            entries.add((id(table), dm))
    assert len(fits) > 1000 and len(entries) > 500


def test_a_default_search_forms_no_joint_table(monkeypatch):
    """No candidate of a default search forms the 2^n table; its fit
    forms it when it is read."""

    def refuse(self, q):
        raise AssertionError("the search formed a joint table")

    counts, start, criterion = golden_search_inputs()[0]
    with monkeypatch.context() as m:
        m.setattr(Parametrization, "prob", refuse)
        res = stepwise(counts, start, criterion=criterion)
    assert res.steps
    assert np.array_equal(res.fit.p, prob_vector(res.graph, res.fit.q))
