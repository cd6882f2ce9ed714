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
district maps, and fit through one shared dict of district fits keyed
by those maps: a move rebuilds and refits only the districts whose
structure it changes.  The result counts the maps built and the
district fits run, each with the district requests served by reuse.
"""

from __future__ import annotations

import numbers
import warnings
from dataclasses import dataclass

from .fitting import FitError, FitOptions, FitResult, _check_counts, fit
from .graph import Admg, GraphError
from .inference import information_criteria
from .moebius import _maps_key, parametrization

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
    graph: Admg
    fit: FitResult
    criterion: str
    value: float
    start_value: float
    steps: tuple[Step, ...]
    evaluated: int
    # district maps the search built, and district requests it served
    # from maps built before: together one per district of every
    # graph it fitted
    maps_built: int
    maps_reused: int
    # districts the search fitted, and district requests of successful
    # candidate fits served by copying an earlier district fit
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
    directed = set(g.directed_edges)
    bidirected = set(g.bidirected_edges)
    for i, a in enumerate(vs):
        for j, b in enumerate(vs):
            if i == j:
                continue
            if (a, b) in directed or (b, a) in directed:
                continue
            try:
                out.append(("add", "->", a, b, g.with_edge(a, b, "->")))
            except GraphError:
                pass
    for i, a in enumerate(vs):
        for b in vs[i + 1 :]:
            if (a, b) not in bidirected:
                out.append(("add", "<->", a, b, g.with_edge(a, b, "<->")))
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


def _graph_key(g: Admg):
    return (g.vertices, g._dir, g._bi)


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
    # district maps shared by every graph of this search; a start graph
    # parametrized before the search brings maps the search did not build
    maps: dict = {}
    start_maps = parametrization(start, maps).maps
    built_here = len(maps)
    for d, dm in zip(start.districts(), start_maps):
        maps.setdefault(_maps_key(start, d), dm)
    brought = len(maps) - built_here
    requests = 0
    # fitted districts keyed by their shared maps, and the district
    # requests of the candidate fits that succeeded
    district_fits: dict = {}
    fit_requests = 0

    def run_fit(g: Admg):
        nonlocal requests, fit_requests
        n_districts = len(parametrization(g, maps).maps)
        requests += n_districts
        try:
            res = fit(g, counts, opts, district_fits=district_fits)
        except FitError as exc:
            warnings.warn(f"skipping candidate that failed to fit: {exc}")
            return None
        fit_requests += n_districts
        return res

    current_fit = run_fit(start)
    if current_fit is None:
        raise FitError("the starting graph cannot be fitted")
    cache[_graph_key(start)] = current_fit
    evaluated = 1
    current = start
    value = _criterion(current_fit, criterion)
    start_value = value
    steps: list[Step] = []

    for _ in range(max_steps):
        moves = neighbors(current)
        for m in moves:
            key = _graph_key(m[4])
            if key not in cache:
                cache[key] = run_fit(m[4])
                evaluated += 1
        scored = [
            (_criterion(res, criterion), m, res)
            for m in moves
            if (res := cache[_graph_key(m[4])]) is not None
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

    return SearchResult(
        graph=current,
        fit=current_fit,
        criterion=criterion,
        value=value,
        start_value=start_value,
        steps=tuple(steps),
        evaluated=evaluated,
        maps_built=len(maps) - brought,
        maps_reused=requests - len(maps) + brought,
        districts_fitted=len(district_fits),
        districts_reused=fit_requests - len(district_fits),
    )
