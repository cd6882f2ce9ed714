"""Maximum likelihood fitting by block coordinate ascent.

The log-likelihood of a count vector is concave in the parameters of
one vertex when all other parameters are held fixed, because the joint
probabilities are then affine in that block.  Districts share no
parameters and their factors multiply, so the likelihood is a sum of
per-district terms and each district is fitted to convergence in turn.
A district's factor depends only on the states of the district and its
parents, so its term is ``sum n_D(x) log f_D(x)`` over those local
states x, with n_D the marginal counts, and the district is fitted on
them.  A district whose kernel ``p(x_D | x_pa(D))`` the model leaves
unconstrained, one with ``(2^|D| - 1) 2^|pa(D)|`` parameters
(``DistrictMaps.saturated``), has its term largest at the empirical
kernel.  With every conditioning event ``X_T = t`` observed, each of
its parameters q(H | T = t) is read off the local counts as the share
of ``X_H = 0`` among the counts with ``X_T = t``, and no ascent runs,
unless roundoff takes a factor of that point to zero.  Every other
district is fitted by ascent.  Within a district, fitting cycles
through its vertices in canonical order and maximizes each block with
damped Newton ascent under the feasibility constraints, backtracking
from the unit step.
Block coordinate ascent converges only linearly, so every block cycle
that does not stop a district is followed by a district Newton phase:
a few damped Newton steps on all of its parameters at once, with the
observed information of its local term as the Hessian.  The phase
stops the district once the Newton decrement falls below the block
ascent's inner tolerance, which certifies it stationary, and hands
back to the block cycles when the information is not positive
definite or no step is accepted.  A district stops on that
certificate, on a cycle that gains less than ``tol``, or at
``max_cycles``.  Both ascents pick their steps with the same
backtracking line search.  The district is the unit of a fit: it
starts from the independence start read off its local counts, and
each restart jitters that start with a generator seeded afresh for the
district, so a district's fit depends only on its structure, its
marginal counts and the options, and no step forms a joint table.
Fits that share their counts and options, as the candidate fits of one
structure search do, can therefore share a dict of fitted districts
keyed by the districts' maps, which are equal for placements of one
shape on one scope: a district found there is copied instead of
fitted.  The key is the placement, never the shape that several
districts share, since each district has its own counts.  No
kernel is passed between these functions: the block step looks its
ascent up through ``get_kernels``, and ``DistrictMaps`` looks up its
own term-product kernel.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._kernels import _line_search, get_kernels
from .graph import Admg
from .moebius import DistrictMaps, _head_runs, parametrization, prob_vector, q_from_p

__all__ = [
    "FitOptions",
    "FitResult",
    "FitError",
    "loglik",
    "initialize",
    "vertex_block",
    "update_vertex",
    "fit",
    # re-exported, not used here: bench/tracing.py wraps
    # fitting.q_from_p and fails on a missing name
    "q_from_p",
]

# relative slack for the never-decrease assertion; violations beyond
# this indicate a genuine bug, not roundoff
_MONO_SLACK = 1e-7

# lower bound on every joint probability with a positive count
_FEAS_EPS = 1e-12

# accepted steps of one district Newton phase before block cycles
# resume, and the shortest step it takes: a Newton step damped further
# than that (as when a row without counts sits at the boundary) gains
# next to nothing, and the block cycles go on instead
_NEWTON_STEPS = 5
_NEWTON_MIN_STEP = 1e-3


class FitError(RuntimeError):
    """Raised when fitting cannot proceed (bad counts, lost feasibility)."""


@dataclass(frozen=True)
class FitOptions:
    """Tuning knobs for :func:`fit`.

    ``tol`` stops a district's fit once a full cycle over its vertices
    improves its log-likelihood by less than this, and its Newton
    phase once the Newton decrement is at most ``0.01 * tol``;
    ``max_cycles`` bounds the cycles per district.
    ``allow_zero_counts`` permits empty cells.  ``starts`` counts the
    starting points of each district, its independence start plus
    jittered restarts drawn with ``seed``, a nonnegative integer or
    None; every district draws from a generator seeded afresh.  A
    district solved in closed form (see :func:`fit`) ignores
    ``starts``, ``seed``, ``tol`` and ``max_cycles``.
    """

    tol: float = 1e-8
    max_cycles: int = 1000
    allow_zero_counts: bool = False
    starts: int = 1
    seed: int | None = None

    def __post_init__(self):
        if isinstance(self.tol, bool) or not isinstance(self.tol, numbers.Real):
            raise ValueError(f"tol must be a real number, not {self.tol!r}")
        if not (np.isfinite(self.tol) and self.tol > 0):
            raise ValueError(f"tol must be finite and positive, not {self.tol}")
        for name in ("max_cycles", "starts"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, not {value!r}")
            if value < 1:
                raise ValueError(f"{name} must be at least 1, not {value}")
        if self.seed is not None:
            if isinstance(self.seed, bool) or not isinstance(self.seed, numbers.Integral):
                raise ValueError(f"seed must be an integer or None, not {self.seed!r}")
            if self.seed < 0:
                raise ValueError(f"seed must be at least 0, not {self.seed}")


@dataclass(frozen=True)
class FitResult:
    """A fitted model.  ``cycles``, ``converged`` and ``kkt`` summarize
    the districts; a district copied from ``fit``'s ``district_fits``
    dict contributes the values of the fit that produced it.  A
    district solved in closed form contributes 0 cycles, converged and
    a certificate of 0, so ``cycles == 0`` means that every district
    was solved in closed form.  A closed form with zero counts can leave
    ``p`` at -1e-16 at a zero-count cell, from roundoff."""

    graph: Admg
    q: np.ndarray
    loglik: float
    # largest cycle count of any district
    cycles: int
    converged: bool
    n: float
    # stationarity certificate, the largest over districts: the Newton
    # decrement on which the district Newton phase stopped a district,
    # otherwise the largest block Newton decrement at block start in
    # its final cycle
    kkt: float = float("nan")

    @property
    def n_params(self) -> int:
        return len(self.q)

    @cached_property
    def p(self) -> np.ndarray:
        """Fitted probabilities of all 2^|V| joint states, formed on
        the first read."""
        return prob_vector(self.graph, self.q)


def _check_counts(g: Admg, counts, allow_zero: bool) -> np.ndarray:
    counts = np.asarray(counts, dtype=float)
    if counts.shape != (1 << len(g.vertices),):
        raise FitError(
            f"count vector must have length {1 << len(g.vertices)}, "
            f"got shape {counts.shape}"
        )
    if not np.all(np.isfinite(counts)) or counts.min() < 0:
        raise FitError("counts must be finite and nonnegative")
    if counts.sum() <= 0:
        raise FitError("counts sum to zero")
    if not allow_zero and counts.min() == 0:
        raise FitError(
            "zero cell counts: the unconstrained maximum may lie on the "
            "boundary; pass allow_zero_counts=True to fit anyway"
        )
    return counts


def loglik(g: Admg, q: np.ndarray, counts) -> float:
    """Multinomial log-likelihood sum(counts * log p(q)) over observed cells."""
    counts = np.asarray(counts, dtype=float)
    p = prob_vector(g, q)
    if counts.shape != p.shape:
        raise ValueError(f"expected {len(p)} counts, got shape {counts.shape}")
    pos = counts > 0
    if p[pos].min() <= 0:
        return -np.inf
    return float(counts[pos] @ np.log(p[pos]))


def initialize(g: Admg, counts) -> np.ndarray:
    """Independence starting point: every q(H | T = t) is the product of
    the observed marginal zero-probabilities of the head members.
    Always feasible, since the implied joint is the product of the
    (clipped) margins.  It is the start ``fit`` gives each district
    that it does not solve in closed form, read off the district's
    local counts."""
    counts = np.asarray(counts, dtype=float)
    par = parametrization(g)
    q = np.empty(len(par.table))
    for dm, sl in zip(par.maps, par.slices):
        q[sl] = _district_start(dm, dm.marginal(counts))
    return q


def _district_start(dm: DistrictMaps, counts_d) -> np.ndarray:
    """The independence start of one district from its local counts:
    each member's clipped marginal zero-probability multiplies the
    parameters whose head holds it, members in ascending order."""
    table = counts_d.reshape((2,) * len(dm.scope))
    marg0 = np.array([table.take(0, axis=dm.scope.index(p)).sum() for p in dm.members])
    marg0 = np.clip(marg0 / counts_d.sum(), 1e-3, 1.0 - 1e-3)
    q_d = np.ones(dm.n_params)
    for p, m in zip(dm.members, marg0):
        q_d[dm.plans[p].theta_cols] *= m
    return q_d


def _jitter_district(dm: DistrictMaps, q0: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Random feasible district start near ``q0``; backs off the noise
    until the district's factor is strictly positive."""
    scale = 0.3
    while scale > 1e-4:
        q = np.clip(q0 * np.exp(rng.normal(0.0, scale, len(q0))), 1e-6, 1 - 1e-6)
        if dm.factor(q).min() > 0:
            return q
        scale *= 0.5
    return q0.copy()


def vertex_block(g: Admg, q: np.ndarray, v) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Affine form of the joint probabilities in one vertex's parameters.

    Returns ``(A, b, idx)`` such that ``prob_vector(g, q) == A @ q[idx] - b``
    where ``idx`` are the positions of the parameters whose head
    contains ``v``.  Rows follow the canonical state order.
    """
    par = parametrization(g)
    q = par.param_vector(q)
    pos = g._resolve(v)
    target, target_sl = par.district_of(pos)
    other = par.product([np.ones(dm.n_states) if dm is target else dm.factor(q[sl])
                         for dm, sl in zip(par.maps, par.slices)])
    A, b, theta_local = target.affine(q[target_sl], pos)
    idx = theta_local + target_sl.start
    return other[:, None] * target.joint(A), other * target.joint(b), idx


def _ascend_vertex(dm: DistrictMaps, q_d, pos, counts, opts):
    """One block maximization in the district-factor form, on the
    district's local counts; ``q_d`` is the district's run of the
    parameter vector, updated in place.  Returns the new district
    log-likelihood contribution, whether theta moved and the block's
    Newton decrement at its start."""
    A, b, theta_local = dm.affine(q_d, pos)
    theta = q_d[theta_local]
    f = A @ theta - b
    if f[counts > 0].min() <= 0:
        raise FitError("infeasible point: zero factor at an observed cell")
    theta, ll_d, _, moved, decrement = get_kernels().ascent(
        A, b, counts, _row_floor(counts, f), theta, 0.01 * opts.tol
    )
    q_d[theta_local] = theta
    return ll_d, moved, decrement


def update_vertex(g: Admg, q: np.ndarray, v, counts, opts: FitOptions = FitOptions()):
    """Maximize the likelihood over the parameters with ``v`` in the
    head, all else fixed.  Returns a new parameter vector; never
    decreases the likelihood."""
    counts = _check_counts(g, counts, opts.allow_zero_counts)
    par = parametrization(g)
    pos = g._resolve(v)
    dm, sl = par.district_of(pos)
    q = par.param_vector(q).copy()
    _ascend_vertex(dm, q[sl], pos, dm.marginal(counts), opts)
    return q


def _row_floor(counts: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Row bounds that keep the current point strictly inside the
    working constraints: a local state with a positive count, that is
    with a positive count in one of its joint cells, keeps its factor
    ``f`` at or above the feasibility floor or half its current value,
    whichever is lower."""
    return np.where(counts > 0, np.minimum(_FEAS_EPS, f / 2.0), 0.0)


def _district_ll(dm: DistrictMaps, q_d, counts) -> float:
    f = dm.factor(q_d)
    pos = counts > 0
    if f[pos].min() <= 0:
        return -np.inf
    return float(counts[pos] @ np.log(f[pos]))


def _newton_phase(dm: DistrictMaps, q_d, counts, ll, opts):
    """Damped Newton ascent on all of a district's parameters at once.

    Each step solves ``H d = g`` for the district's score g and observed
    information H; the Newton decrement ``g'd / 2`` at or below the
    block ascent's inner tolerance certifies the district stationary.
    Otherwise the block ascent's line search picks the step, keeping
    every local row at or above its bound.  ``q_d`` is updated in
    place.  Returns the new district log-likelihood and the certifying
    decrement, or None when the block cycles are to resume: after
    ``_NEWTON_STEPS`` accepted steps, or when H is not positive
    definite (or a parameter not positive) or no step of at least
    ``_NEWTON_MIN_STEP`` is accepted."""
    pos = counts > 0
    c = counts[pos]
    for steps in range(_NEWTON_STEPS + 1):
        if q_d.min() <= 0:
            return ll, None
        f, g, H = dm.observed_information(q_d, counts)
        try:
            # the Cholesky factorization is the positive definiteness test
            np.linalg.cholesky(H)
            d = np.linalg.solve(H, g)
        except np.linalg.LinAlgError:
            return ll, None
        gd = g @ d
        if not 0.0 <= gd < np.inf:
            return ll, None
        if 0.5 * gd <= 0.01 * opts.tol:
            return ll, 0.5 * gd
        if steps == _NEWTON_STEPS:
            break
        found = _line_search(dm.factor, q_d, d, gd, ll, c, pos, _row_floor(counts, f),
                             _NEWTON_MIN_STEP)
        if found is None:
            return ll, None
        q_d[:] = found[0]
        ll = float(found[2])
    return ll, None


def _fit_district(dm: DistrictMaps, q_d, counts_d, opts):
    """Fit one district to convergence on its local counts from the
    start ``q_d``, updated in place.  Returns (ll, cycles, converged,
    kkt) of the district."""
    ll = _district_ll(dm, q_d, counts_d)
    if not np.isfinite(ll):
        raise FitError("infeasible starting point")
    converged = False
    for cycles in range(1, opts.max_cycles + 1):
        ll_cycle_start = ll
        any_moved = False
        kkt = 0.0
        for pos in dm.members:
            ll_prev = ll
            ll, moved, decrement = _ascend_vertex(dm, q_d, pos, counts_d, opts)
            kkt = max(kkt, decrement)
            if ll < ll_prev - _MONO_SLACK * (1.0 + abs(ll_prev)):
                raise FitError(
                    f"vertex update decreased the log-likelihood: {ll_prev} -> {ll}"
                )
            any_moved = any_moved or moved
        if not any_moved or ll - ll_cycle_start < opts.tol:
            converged = True
            break
        ll, decrement = _newton_phase(dm, q_d, counts_d, ll, opts)
        if decrement is not None:
            kkt = decrement
            converged = True
            break
    return ll, cycles, converged, kkt


def _closed_form(dm: DistrictMaps, counts_d) -> np.ndarray | None:
    """The parameters of the empirical kernel of a district: every
    q(H | T = t) is the share of ``X_H = 0`` among the local counts
    with ``X_T = t``.  None when some tail assignment is unobserved."""
    zero, den = _head_runs(counts_d.reshape((2,) * len(dm.scope)), dm.scope, dm.heads)
    # positive local counts observe every tail assignment
    if counts_d.min() <= 0 and den.min() <= 0:
        return None
    return zero / den


def _fit_district_starts(dm: DistrictMaps, counts_d, opts):
    """Fit one district from each of ``opts.starts`` starts: its
    independence start, then jittered copies of it drawn from a
    generator seeded afresh with ``opts.seed``, so the result depends
    only on the district's structure, its local counts and the options.
    Returns (q_d, ll, cycles, converged, kkt) of the first start with
    the highest district log-likelihood.

    A saturated district with every conditioning event observed is
    solved in closed form instead, with no cycle and no restart: its
    term is largest at the empirical kernel, whose parameters are read
    off the local counts.  Where roundoff takes a factor of that point
    to zero, as counts that span more decades than a double resolves
    can, the district is fitted from its starts after all."""
    q_d = _closed_form(dm, counts_d) if dm.saturated else None
    if q_d is not None:
        ll = _district_ll(dm, q_d, counts_d)
        if np.isfinite(ll):
            return q_d, ll, 0, True, 0.0
    q0 = _district_start(dm, counts_d)
    starts = [q0]
    if opts.starts > 1:
        # making a generator costs more than building a district's start
        rng = np.random.default_rng(opts.seed)
        starts += [_jitter_district(dm, q0, rng) for _ in range(opts.starts - 1)]
    runs = ((q_d, *_fit_district(dm, q_d, counts_d, opts)) for q_d in starts)
    return max(runs, key=lambda run: run[1])


def fit(
    g: Admg,
    counts,
    opts: FitOptions = FitOptions(),
    *,
    district_fits: dict | None = None,
) -> FitResult:
    """Maximum likelihood fit of the graph's model to a count vector.

    ``counts`` holds one nonnegative count per joint state in canonical
    order.  A saturated district (``DistrictMaps.saturated``) whose
    conditioning events ``X_T = t`` are all observed is solved in
    closed form: its parameters are the conditional zero-probabilities
    of its local counts.  Each other district is fitted on its local
    counts from its independence start (see :func:`initialize`) and
    from ``opts.starts - 1`` jittered restarts, keeping its best term
    of the likelihood.

    ``district_fits`` is a dict that fits with the same counts and
    options share, as the candidate fits of one structure search do.
    It maps a district's :class:`DistrictMaps`, the shape placed on
    that district, to the district's fitted
    ``(q_d, loglik, cycles, converged, kkt)``.  Placements of one
    shape on one scope are equal keys, so a district that the graphs
    of one search share, placed through the search's dict of shapes,
    is found whichever graph fitted it.  A district whose maps are in
    it is copied instead of fitted: its term of the likelihood depends
    only on its structure and its marginal counts.  A successful fit
    adds the districts it fitted; a failed one adds nothing.
    """
    counts = _check_counts(g, counts, opts.allow_zero_counts)
    par = parametrization(g)
    new = []
    q = np.empty(len(par.table))
    ll_total, cycles_max, all_converged, kkt_max = 0.0, 0, True, 0.0
    for dm, sl in zip(par.maps, par.slices):
        done = None if district_fits is None else district_fits.get(dm)
        if done is None:
            done = _fit_district_starts(dm, dm.marginal(counts), opts)
            new.append((dm, done))
        q[sl], ll, cycles, converged, kkt = done
        ll_total += ll
        cycles_max = max(cycles_max, cycles)
        all_converged = all_converged and converged
        kkt_max = max(kkt_max, kkt)
    if district_fits is not None:
        district_fits.update(new)
    return FitResult(
        graph=g,
        q=q,
        loglik=ll_total,
        cycles=cycles_max,
        converged=all_converged,
        n=float(counts.sum()),
        kkt=kkt_max,
    )
