"""Greedy stepwise structure search over ADMGs.

Neighbors of a graph are all graphs reachable by adding or removing a
single edge (directed or bidirected) while staying acyclic.  Each step
fits every neighbor exactly as :func:`fit` fits it alone, each
district from its own starts and restarts, and moves to the neighbor
with the lowest criterion; the search stops when no neighbor improves
it.  Criterion values within an absolute tolerance are treated as tied
and broken deterministically, so a search is reproducible run to run.

The likelihood splits over districts, and a district's matrices and
its maximized term depend only on its own structure and, for the term,
its marginal counts, which one search holds fixed.  So the graphs of
one search build their parametrizations through one shared dict of
district shapes, and fit through one shared dict of district fits
keyed by the districts' maps: placements of one shape on one scope are
equal, so a move refits only the districts whose structure it changes,
and builds only those whose shape the search has not seen.  The result
counts the shapes built and the district fits run, each with the
district requests served by reuse.
"""

from __future__ import annotations

import numbers
import warnings
from dataclasses import dataclass

from .fitting import FitError, FitOptions, FitResult, _check_counts, fit
from .graph import Admg
from .inference import information_criteria
from .moebius import _share, parametrization

__all__ = ["Step", "SearchResult", "neighbors", "stepwise"]

# two criterion values within this are a tie
TIE_TOL = 1e-6

CRITERIA = ("bic", "aic")


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

    ``maps_built`` counts the district shapes the search built (see
    :class:`~admgfit.moebius.DistrictMaps`), and ``maps_reused`` the
    district requests served without a build, by placing a shape the
    search already had.  A start graph parametrized before the search
    brings its shapes, which count as neither.  ``districts_fitted``
    counts the district fits the search ran, one per placed district,
    and ``districts_reused`` the district requests of successful
    candidate fits served by copying one.
    """

    graph: Admg
    fit: FitResult
    criterion: str
    value: float
    start_value: float
    steps: tuple[Step, ...]
    evaluated: int
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

    Candidate fits run one after another and are cached by graph; the
    criterion of the accepted sequence is strictly decreasing.  A
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
            if m[4] not in cache:
                cache[m[4]] = run_fit(m[4])
        scored = [
            (_criterion(res, criterion), m, res)
            for m in moves
            if (res := cache[m[4]]) is not None
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

    # the cache holds the start and every candidate, each fitted once
    requests = sum(len(parametrization(g).maps) for g in cache)
    fit_requests = sum(len(parametrization(g).maps)
                       for g, res in cache.items() if res is not None)
    built = len(shapes) - brought
    return SearchResult(
        graph=current,
        fit=current_fit,
        criterion=criterion,
        value=value,
        start_value=start_value,
        steps=tuple(steps),
        evaluated=len(cache),
        maps_built=built,
        maps_reused=requests - built,
        districts_fitted=len(district_fits),
        districts_reused=fit_requests - len(district_fits),
    )
