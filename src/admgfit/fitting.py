"""Maximum likelihood fitting by block coordinate ascent.

The log-likelihood of a count vector is concave in the parameters of
one vertex when all other parameters are held fixed, because the joint
probabilities are then affine in that block.  Districts share no
parameters and their factors multiply, so the likelihood is a sum of
per-district terms and each district is fitted to convergence in turn.
A district's factor depends only on the states of the district and its
parents, so its term is ``sum n_D(x) log f_D(x)`` over those local
states x, with n_D the marginal counts, and the district is fitted on
them.  Within a district, fitting cycles through its vertices in
canonical order and maximizes each block with damped Newton ascent
under the feasibility constraints, backtracking from the unit step.
Block coordinate ascent converges only linearly, so a district that
has not stopped after two cycles enters a district Newton phase: a few
damped Newton steps on all of its parameters at once, with the
observed information of its local term as the Hessian.  The phase
stops the district once the Newton decrement falls below the block
ascent's inner tolerance, which certifies it stationary, and hands
back to the block cycles when the information is not positive
definite or no step is accepted.  A district stops on that
certificate, on a cycle that gains less than ``tol``, or at
``max_cycles``.  Both ascents pick their steps with the same
backtracking line search.  Fits that share their counts and options,
as the candidate fits of one structure search do, can share a dict of
fitted districts keyed by the districts' maps: a district found there
is copied instead of fitted, since its term of the likelihood depends
only on its structure and its marginal counts.  No kernel is passed
between these functions: the block step looks its ascent up through
``get_kernels``, and ``DistrictMaps`` looks up its own term-product
kernel.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from ._kernels import _line_search, get_kernels
from .graph import Admg, _bits
from .moebius import (
    DistrictMaps, Parametrization, enumerate_params, parametrization, prob_vector, q_from_p,
)

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
    starting points, the first plus jittered restarts drawn with
    ``seed``.
    """

    tol: float = 1e-8
    max_cycles: int = 1000
    allow_zero_counts: bool = False
    starts: int = 1
    seed: int | None = None

    def __post_init__(self):
        if not (np.isfinite(self.tol) and self.tol > 0):
            raise ValueError(f"tol must be finite and positive, not {self.tol}")
        for name in ("max_cycles", "starts"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, not {value!r}")
            if value < 1:
                raise ValueError(f"{name} must be at least 1, not {value}")


@dataclass(frozen=True)
class FitResult:
    """A fitted model.  ``cycles``, ``converged`` and ``kkt`` summarize
    the districts; a district copied from ``fit``'s ``district_fits``
    dict contributes the values of the fit that produced it."""

    graph: Admg
    q: np.ndarray
    loglik: float
    # largest cycle count of any district
    cycles: int
    converged: bool
    p: np.ndarray
    n: float
    # stationarity certificate, the largest over districts: the Newton
    # decrement on which the district Newton phase stopped a district,
    # otherwise the largest block Newton decrement at block start in
    # its final cycle
    kkt: float = float("nan")

    @property
    def n_params(self) -> int:
        return len(self.q)


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
    pos = counts > 0
    if p[pos].min() <= 0:
        return -np.inf
    return float(counts[pos] @ np.log(p[pos]))


def initialize(g: Admg, counts) -> np.ndarray:
    """Independence starting point: every q(H | T = t) is the product of
    the observed marginal zero-probabilities of the head members.
    Always feasible, since the implied joint is the product of the
    (clipped) margins."""
    counts = np.asarray(counts, dtype=float)
    table = enumerate_params(g)
    k = len(g.vertices)
    joint = counts.reshape((2,) * k)
    n = counts.sum()
    marg0 = np.array([joint.take(0, axis=v).sum() for v in range(k)]) / n
    marg0 = np.clip(marg0, 1e-3, 1.0 - 1e-3)
    q = np.empty(len(table))
    for h_mask, t_mask, j in table.runs:
        v = 1.0
        for p in _bits(h_mask):
            v *= marg0[p]
        q[j : j + (1 << t_mask.bit_count())] = v
    return q


def _jitter_start(g: Admg, q0: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Random feasible start near ``q0``; backs off the noise until the
    implied joint distribution is strictly positive."""
    scale = 0.3
    while scale > 1e-4:
        q = np.clip(q0 * np.exp(rng.normal(0.0, scale, len(q0))), 1e-6, 1 - 1e-6)
        if prob_vector(g, q).min() > 0:
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
    pos = g._resolve(v)
    other = np.ones((2,) * len(g.vertices))
    target, target_sl = par.district_of(pos)
    for dm, sl in zip(par.maps, par.slices):
        if dm is not target:
            other *= dm.factor(q[sl]).reshape(dm.broadcast_shape)
    other = other.ravel()
    A, b, theta_local = target.affine(q[target_sl], pos)
    idx = theta_local + target_sl.start
    return other[:, None] * target.joint(A), other * target.joint(b), idx


def _ascend_vertex(dm: DistrictMaps, q_d, pos, counts, eps0, opts):
    """One block maximization in the district-factor form, on the
    district's local counts and row bounds; ``q_d`` is the district's
    run of the parameter vector, updated in place.  Returns the new
    district log-likelihood contribution, whether theta moved and the
    block's Newton decrement at its start."""
    A, b, theta_local = dm.affine(q_d, pos)
    theta = q_d[theta_local]
    f = A @ theta - b
    pos_rows = counts > 0
    if f[pos_rows].min() <= 0:
        raise FitError("infeasible point: zero factor at an observed cell")
    # keep the current point strictly inside the working constraints
    eps = np.minimum(eps0, np.where(pos_rows, f / 2.0, 0.0))
    theta, ll_d, _, moved, decrement = get_kernels().ascent(
        A, b, counts, eps, theta, 0.01 * opts.tol
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
    q = np.asarray(q, dtype=float).copy()
    counts_d = dm.marginal(counts)
    _ascend_vertex(dm, q[sl], pos, counts_d, _eps_rows(counts_d), opts)
    return q


def _eps_rows(counts: np.ndarray) -> np.ndarray:
    """Row bounds: a local state with a positive count, that is with a
    positive count in one of its joint cells, keeps its factor at or
    above the feasibility floor."""
    return np.where(counts > 0, _FEAS_EPS, 0.0)


def _district_ll(dm: DistrictMaps, q_d, counts) -> float:
    f = dm.factor(q_d)
    pos = counts > 0
    if f[pos].min() <= 0:
        return -np.inf
    return float(counts[pos] @ np.log(f[pos]))


def _newton_phase(dm: DistrictMaps, q_d, counts, eps0, ll, opts):
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
        eps = np.minimum(eps0, np.where(pos, f / 2.0, 0.0))
        found = _line_search(dm.factor, q_d, d, gd, ll, c, pos, eps, _NEWTON_MIN_STEP)
        if found is None:
            return ll, None
        q_d[:] = found[0]
        ll = float(found[2])
    return ll, None


def _fit_district(dm: DistrictMaps, q_d, counts_d, opts):
    """Fit one district to convergence on its local counts from the
    start ``q_d``, updated in place.  Returns (ll, cycles, converged,
    kkt) of the district."""
    eps_d = _eps_rows(counts_d)
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
            ll, moved, decrement = _ascend_vertex(dm, q_d, pos, counts_d, eps_d, opts)
            kkt = max(kkt, decrement)
            if ll < ll_prev - _MONO_SLACK * (1.0 + abs(ll_prev)):
                raise FitError(
                    f"vertex update decreased the log-likelihood: {ll_prev} -> {ll}"
                )
            any_moved = any_moved or moved
        if not any_moved or ll - ll_cycle_start < opts.tol:
            converged = True
            break
        if cycles >= 2:
            ll, decrement = _newton_phase(dm, q_d, counts_d, eps_d, ll, opts)
            if decrement is not None:
                kkt = decrement
                converged = True
                break
    return ll, cycles, converged, kkt


def _fit_from(par: Parametrization, q0, counts, opts, fitted: dict):
    """Fit each district to convergence in turn from one start; a
    district whose maps are in ``fitted`` is copied from there.

    Returns (q, ll, cycles, converged, kkt, new): the sum of the
    district log-likelihoods, the largest district cycle count,
    whether every district converged, the largest district certificate
    (see ``FitResult.kkt``), and the districts fitted here, keyed by
    their maps as in ``fitted``."""
    q = q0.copy()
    new: dict = {}
    ll_total, cycles_max, all_converged, kkt_max = 0.0, 0, True, 0.0
    for dm, sl in zip(par.maps, par.slices):
        done = fitted.get(dm)
        if done is None:
            # a basic slice is a view: block updates write through to q
            q_d = q[sl]
            done = new[dm] = (q_d, *_fit_district(dm, q_d, dm.marginal(counts), opts))
        else:
            q[sl] = done[0]
        _, ll, cycles, converged, kkt = done
        ll_total += ll
        cycles_max = max(cycles_max, cycles)
        all_converged = all_converged and converged
        kkt_max = max(kkt_max, kkt)
    return q, ll_total, cycles_max, all_converged, kkt_max, new


def fit(
    g: Admg,
    counts,
    opts: FitOptions = FitOptions(),
    start: np.ndarray | None = None,
    *,
    district_fits: dict | None = None,
) -> FitResult:
    """Maximum likelihood fit of the graph's model to a count vector.

    ``counts`` holds one nonnegative count per joint state in canonical
    order.  ``start`` overrides the independence starting point (used
    for warm starts); extra random restarts are controlled by
    ``opts.starts`` and keep the best likelihood found.

    ``district_fits`` is a dict that fits with the same counts and
    options share, as the candidate fits of one structure search do.
    It maps a district's :class:`DistrictMaps` to the district's fitted
    ``(q_d, loglik, cycles, converged, kkt)``.  A district whose maps
    are in it is copied instead of fitted: its term of the likelihood
    depends only on its structure and its marginal counts.  A
    successful fit adds the districts its best start fitted; a failed
    one adds nothing.
    """
    counts = _check_counts(g, counts, opts.allow_zero_counts)
    par = parametrization(g)
    rng = np.random.default_rng(opts.seed)

    starts: list[np.ndarray] = []
    if start is not None:
        start = np.asarray(start, dtype=float)
        if len(start) != len(par.table):
            raise FitError("start vector has wrong length")
        if par.prob(start)[counts > 0].min() > 0:
            starts.append(start)
    if not starts:
        starts.append(initialize(g, counts))
    q_base = starts[0]
    for _ in range(opts.starts - 1):
        starts.append(_jitter_start(g, q_base, rng))

    # the first start with the highest log-likelihood wins
    fitted = {} if district_fits is None else district_fits
    runs = [_fit_from(par, q0, counts, opts, fitted) for q0 in starts]
    q, ll, cycles, converged, kkt, new = max(runs, key=lambda run: run[1])
    p = par.prob(q)
    if district_fits is not None:
        district_fits.update((dm, (q_d.copy(), *rest)) for dm, (q_d, *rest) in new.items())
    return FitResult(
        graph=g,
        q=q,
        loglik=ll,
        cycles=cycles,
        converged=converged,
        p=p,
        n=float(counts.sum()),
        kkt=kkt,
    )
