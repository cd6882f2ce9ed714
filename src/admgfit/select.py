"""Greedy stepwise structure search over ADMGs.

Neighbors of a graph are all graphs reachable by adding or removing a
single edge (directed or bidirected) while staying acyclic.  Each step
scores every neighbor and moves to the one with the lowest criterion;
the search stops when no neighbor improves it.  Criterion values
within an absolute tolerance are treated as tied and broken
deterministically, so a search is reproducible run to run.

A neighbor is fitted exactly as :func:`fit` fits it alone, each
district from its own starts and restarts, unless a bound shows that
it cannot be accepted.  The likelihood splits over districts, and no
district's term exceeds its saturated kernel term, read off marginal
counts, so the criterion of any fit is at least the bound made of
those terms and the exact parameter count.  A neighbor whose bound is
at or above the current criterion can neither win nor tie, and it is
scored by its bound alone: no maps are built for it and no district of
it is fitted.  A bounded neighbor that would have failed to fit is
therefore not warned about; only a fit that fails warns.

A district's matrices and its maximized term depend only on its own
structure and, for the term, its marginal counts, which one search
holds fixed.  So the graphs of one search build their
parametrizations through one shared dict of district shapes, and fit
through one shared dict of district fits keyed by the districts' maps:
placements of one shape on one scope are equal, so a move refits only
the districts whose structure it changes, and builds only those whose
shape the search has not seen.  The result counts the neighbors scored
by their bound, the shapes built and the district fits run, each with
the district requests served by reuse.
"""

from __future__ import annotations

import numbers
import warnings
from dataclasses import dataclass

import numpy as np

from .fitting import FitError, FitOptions, FitResult, _check_counts, fit
from .graph import Admg, _union
from .heads import _district_heads
from .inference import information_criteria
from .moebius import _share, parametrization

__all__ = ["Step", "SearchResult", "neighbors", "stepwise"]

# two criterion values within this are a tie
TIE_TOL = 1e-6

CRITERIA = ("bic", "aic")

# the cache entry of a candidate scored by its bound alone; None is
# that of a candidate that failed to fit
_BOUNDED = object()


@dataclass(frozen=True)
class Step:
    """One accepted move with the criterion after taking it."""

    action: str  # "add" or "remove"
    kind: str  # "->" or "<->"
    a: object
    b: object
    criterion: float

    def describe(self) -> str:
        return f"{self.action} {self.a} {self.kind} {self.b}"


@dataclass(frozen=True)
class SearchResult:
    """The outcome of :func:`stepwise`.

    ``evaluated`` counts the distinct graphs the search scored, the
    start included, and ``bounded`` those of them scored by their
    bound alone, never parametrized or fitted; the others were fitted.
    ``maps_built`` counts the district shapes the search built (see
    :class:`~admgfit.moebius.DistrictMaps`), and ``maps_reused`` the
    district requests of the graphs it fitted served without a build,
    by placing a shape the search already had.  A start graph
    parametrized before the search brings its shapes, which count as
    neither.  ``districts_fitted`` counts the district fits the search
    ran, one per placed district, and ``districts_reused`` the district
    requests of successful candidate fits served by copying one.
    """

    graph: Admg
    fit: FitResult
    criterion: str
    value: float
    start_value: float
    steps: tuple[Step, ...]
    evaluated: int
    bounded: int
    # together one per district of every graph the search fitted
    maps_built: int
    maps_reused: int
    districts_fitted: int
    districts_reused: int


def neighbors(g: Admg) -> list[tuple[str, str, object, object, Admg]]:
    """All single-edge moves in deterministic order: removals before
    additions, directed before bidirected, edges in canonical order.
    Directed additions that would create a cycle are omitted."""
    out = []
    for a, b in g.directed_edges:
        out.append(("remove", "->", a, b, g.without_edge(a, b, "->")))
    for a, b in g.bidirected_edges:
        out.append(("remove", "<->", a, b, g.without_edge(a, b, "<->")))
    vs = g.vertices
    for i, a in enumerate(vs):
        # a's children, and its ancestors, which hold a itself and its
        # parents: a -> b to any of them is an edge already or a cycle
        taken = g._ch[i] | g._an[i]
        for j, b in enumerate(vs):
            if not taken >> j & 1:
                out.append(("add", "->", a, b, g.with_edge(a, b, "->")))
    for i, a in enumerate(vs):
        for j in range(i + 1, len(vs)):
            if not g._sp[i] >> j & 1:
                out.append(("add", "<->", a, vs[j], g.with_edge(a, vs[j], "<->")))
    return out


def _criterion(res: FitResult, which: str) -> float:
    bic, aic = information_criteria(res)
    return bic if which == "bic" else aic


def _margin_xlogx(counts: np.ndarray, n_vertices: int):
    """``X(mask)``: the sum of ``m log m`` over the marginal count table
    of the vertices in ``mask``, memoized by mask, so ``X(0)`` is
    ``N log N``.  The candidates of one search share most masks."""
    table = counts.reshape((2,) * n_vertices)
    memo: dict[int, float] = {}

    def xlogx(mask: int) -> float:
        if mask not in memo:
            m = table.sum(axis=tuple(i for i in range(n_vertices) if not mask >> i & 1)).ravel()
            m = m[m > 0]
            memo[mask] = float(m @ np.log(m))
        return memo[mask]

    return xlogx


def _bound(g: Admg, penalty: float, xlogx) -> float:
    """A lower bound on the criterion of any fit of ``g``:
    ``-2 sum_D [X(D + pa(D)) - X(pa(D))] + penalty * k`` over the
    districts D, with ``xlogx`` from :func:`_margin_xlogx` and k the
    exact parameter count, 2^|tail| summed over the heads.  A district's
    term of the log-likelihood is at most its saturated kernel term
    ``sum n(x_S) log(n(x_S) / n(x_pa(D)))``, which is the bracket.  No
    maps are built."""
    ll, k = 0.0, 0
    for d in g._district_masks(g.full_mask):
        pa = _union(g._pa, d) & ~d
        ll += xlogx(d | pa) - xlogx(pa)
        k += sum(1 << t.bit_count() for _, t in _district_heads(g, d))
    return -2.0 * ll + penalty * k


def _tie_key(g: Admg):
    # Ties are almost always likelihood-equivalent orientations of one
    # new edge.  Committing to a directed orientation imposes extra
    # conditional independences that later single-edge moves cannot
    # undo, so prefer the variant with fewer directed edges (the
    # bidirected one), then break remaining ties lexicographically.
    return (
        len(g.directed_edges),
        tuple(g.directed_edges),
        tuple(g.bidirected_edges),
    )


def stepwise(
    counts,
    start: Admg,
    criterion: str = "bic",
    opts: FitOptions | None = None,
    max_steps: int = 200,
) -> SearchResult:
    """Greedy single-edge search minimizing BIC or AIC.

    Candidates are scored one after another and cached by graph; the
    criterion of the accepted sequence is strictly decreasing.  A
    candidate whose criterion bound (see :func:`_bound`) is at or above
    the current criterion is scored by the bound alone, since no fit of
    it could be accepted; every other candidate is fitted.  A
    district already fitted in this search, under any graph, is copied
    into a candidate's fit instead of fitted again (see :func:`fit`).
    A district's fit, restarts included, depends only on its structure,
    its marginal counts and ``opts``, so a candidate's fit equals
    ``fit(g, counts, opts)`` of its graph, whichever candidates the
    search fitted before it.

    When ``opts`` is not given, fits use a tighter tolerance than the
    plain fitting default: tie detection compares criteria at 1e-6, so
    equivalent candidates must be converged well past that.  The counts
    are checked once, before the first fit, as :func:`fit` checks them.
    """
    if criterion not in CRITERIA:
        raise ValueError(f"criterion must be one of {CRITERIA}")
    if isinstance(max_steps, bool) or not isinstance(max_steps, numbers.Integral):
        raise ValueError(f"max_steps must be an integer, not {max_steps!r}")
    if max_steps < 0:
        raise ValueError(f"max_steps must be at least 0, not {max_steps}")
    if opts is None:
        opts = FitOptions(tol=1e-10)
    counts = _check_counts(start, counts, opts.allow_zero_counts)
    penalty = float(np.log(counts.sum())) if criterion == "bic" else 2.0
    xlogx = _margin_xlogx(counts, len(start.vertices))

    cache: dict = {}
    # district shapes shared by every graph of this search; a start
    # graph parametrized before the search brings shapes the search
    # did not build
    shapes: dict = {}
    start_par = parametrization(start, shapes)
    built_here = len(shapes)
    _share(shapes, start_par)
    brought = len(shapes) - built_here
    # fitted districts keyed by their maps
    district_fits: dict = {}

    def run_fit(g: Admg):
        parametrization(g, shapes)  # so that fit finds g's maps built through the shapes
        try:
            return fit(g, counts, opts, district_fits=district_fits)
        except FitError as exc:
            warnings.warn(f"skipping candidate that failed to fit: {exc}")
            return None

    current_fit = run_fit(start)
    if current_fit is None:
        raise FitError("the starting graph cannot be fitted")
    cache[start] = current_fit
    current = start
    value = _criterion(current_fit, criterion)
    start_value = value
    steps: list[Step] = []

    for _ in range(max_steps):
        moves = neighbors(current)
        for m in moves:
            g = m[4]
            if g not in cache:
                # A fit's log-likelihood is at most the sum of saturated
                # district terms, so its criterion is at least the bound.
                # A move needs a criterion below value - TIE_TOL, which
                # leaves TIE_TOL of room for the bound's roundoff (up to
                # about 1e-9 at 1e5 counts), and a candidate tied with
                # the best one needs a criterion below value.  So a
                # candidate bounded at value or above can neither win
                # nor tie, at this step or later, value only falling.
                cache[g] = _BOUNDED if _bound(g, penalty, xlogx) >= value else run_fit(g)
        scored = [
            (_criterion(res, criterion), m, res)
            for m in moves
            if isinstance(res := cache[m[4]], FitResult)
        ]
        if not scored:
            break
        best_val = min(s[0] for s in scored)
        if best_val >= value - TIE_TOL:
            break
        tied = [s for s in scored if s[0] <= best_val + TIE_TOL]
        tied.sort(key=lambda s: _tie_key(s[1][4]))
        chosen_val, move, res = tied[0]
        action, kind, a, b, g_new = move
        steps.append(Step(action, kind, a, b, chosen_val))
        current, current_fit, value = g_new, res, chosen_val

    # the cache holds the start and every candidate, each scored once;
    # the graphs not bounded were parametrized and fitted
    tried = [g for g, res in cache.items() if res is not _BOUNDED]
    requests = sum(len(parametrization(g).maps) for g in tried)
    fit_requests = sum(len(parametrization(g).maps) for g in tried if cache[g] is not None)
    built = len(shapes) - brought
    return SearchResult(
        graph=current,
        fit=current_fit,
        criterion=criterion,
        value=value,
        start_value=start_value,
        steps=tuple(steps),
        evaluated=len(cache),
        bounded=len(cache) - len(tried),
        maps_built=built,
        maps_reused=requests - built,
        districts_fitted=len(district_fits),
        districts_reused=fit_requests - len(district_fits),
    )
