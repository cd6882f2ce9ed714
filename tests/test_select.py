"""Greedy stepwise structure search and its move enumeration."""

import numpy as np
import pytest

import admgfit.select as select
from admgfit.fitting import FitError, FitOptions, fit
from admgfit.graph import Admg
from admgfit.select import TIE_TOL, neighbors, stepwise


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
    assert capped.graph == Admg(["1", "2", "3"])
    if full.steps:
        one = stepwise(counts, Admg(["1", "2", "3"]), max_steps=1)
        assert len(one.steps) == 1
        assert one.steps[0] == full.steps[0]


def test_failing_candidates_are_skipped_with_a_warning(monkeypatch):
    counts = pair_counts(500)
    bad = Admg(["1", "2", "3"], directed=[("1", "2")])
    real_fit = select.fit

    def flaky(g, counts_, opts=FitOptions(), start=None):
        if g == bad:
            raise FitError("synthetic failure")
        return real_fit(g, counts_, opts, start=start)

    monkeypatch.setattr(select, "fit", flaky)
    with pytest.warns(UserWarning, match="skipping candidate"):
        res = stepwise(counts, Admg(["1", "2", "3"]))
    assert res.graph != bad


def test_unfittable_start_raises(monkeypatch):
    def broken(g, counts_, opts=FitOptions(), start=None):
        raise FitError("synthetic failure")

    monkeypatch.setattr(select, "fit", broken)
    with pytest.warns(UserWarning, match="skipping candidate"):
        with pytest.raises(FitError, match="starting graph cannot be fitted"):
            stepwise(np.ones(8), Admg(["1", "2", "3"]))
