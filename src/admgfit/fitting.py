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
``max_cycles``.  Once the fit ends, the parameter vector is
re-extracted from the fitted joint distribution in a single
projection, which leaves the likelihood unchanged but keeps the
parameters interpretable as conditional probabilities.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._kernels import _BETA, _SIGMA, get_kernels
from .graph import Admg
from .moebius import DistrictMaps, Parametrization, parametrization, q_from_p

__all__ = [
    "FitOptions",
    "FitResult",
    "FitError",
    "loglik",
    "initialize",
    "vertex_block",
    "update_vertex",
    "fit",
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
        if self.max_cycles < 1:
            raise ValueError(f"max_cycles must be at least 1, not {self.max_cycles}")
        if self.starts < 1:
            raise ValueError(f"starts must be at least 1, not {self.starts}")


@dataclass(frozen=True)
class FitResult:
    graph: Admg
    q: np.ndarray
    loglik: float
    # largest cycle count of any district
    cycles: int
    converged: bool
    p: np.ndarray
    n: float
    projections: int = 0
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
    from .moebius import prob_vector

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
    from .moebius import enumerate_params

    counts = np.asarray(counts, dtype=float)
    table = enumerate_params(g)
    k = len(g.vertices)
    joint = counts.reshape((2,) * k)
    n = counts.sum()
    marg0 = np.array([joint.take(0, axis=v).sum() for v in range(k)]) / n
    marg0 = np.clip(marg0, 1e-3, 1.0 - 1e-3)
    q = np.empty(len(table))
    for j, param in enumerate(table.params):
        v = 1.0
        for lab in param.head:
            v *= marg0[g._index[lab]]
        q[j] = v
    return q


def _jitter_start(g: Admg, q0: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Random feasible start near ``q0``; backs off the noise until the
    implied joint distribution is strictly positive."""
    from .moebius import prob_vector

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
    kern = get_kernels()
    par = parametrization(g)
    pos = g._resolve(v)
    other = np.ones(1 << len(g.vertices))
    target, target_sl = par.district_of(pos)
    for dm, sl in zip(par.maps, par.slices):
        if dm is not target:
            other *= dm.factor(q[sl], kern.term_products)[dm.rows]
    A, b, theta_local = target.affine(q[target_sl], pos, kern.term_products)
    idx = theta_local + target_sl.start
    return other[:, None] * A[target.rows], other * b[target.rows], idx


def _ascend_vertex(dm: DistrictMaps, q_d, pos, counts, eps0, opts, kern):
    """One block maximization in the district-factor form, on the
    district's local counts and row bounds; ``q_d`` is the district's
    run of the parameter vector, updated in place.  Returns the new
    district log-likelihood contribution, whether theta moved and the
    block's Newton decrement at its start."""
    A, b, theta_local = dm.affine(q_d, pos, kern.term_products)
    theta = q_d[theta_local]
    f = A @ theta - b
    pos_rows = counts > 0
    if f[pos_rows].min() <= 0:
        raise FitError("infeasible point: zero factor at an observed cell")
    # keep the current point strictly inside the working constraints
    eps = np.minimum(eps0, np.where(pos_rows, f / 2.0, 0.0))
    theta, ll_d, _, moved, decrement = kern.ascent(
        A, b, counts, eps, theta, 0.01 * opts.tol
    )
    q_d[theta_local] = theta
    return ll_d, moved, decrement


def update_vertex(g: Admg, q: np.ndarray, v, counts, opts: FitOptions = FitOptions()):
    """Maximize the likelihood over the parameters with ``v`` in the
    head, all else fixed.  Returns a new parameter vector; never
    decreases the likelihood."""
    counts = _check_counts(g, counts, opts.allow_zero_counts)
    kern = get_kernels()
    par = parametrization(g)
    pos = g._resolve(v)
    dm, sl = par.district_of(pos)
    q = np.asarray(q, dtype=float).copy()
    counts_d = _local_counts(dm, counts)
    _ascend_vertex(dm, q[sl], pos, counts_d, _eps_rows(counts_d), opts, kern)
    return q


def _local_counts(dm: DistrictMaps, counts: np.ndarray) -> np.ndarray:
    """Marginal counts over the district's local states."""
    return np.bincount(dm.rows, weights=counts, minlength=dm.M.shape[0])


def _eps_rows(counts: np.ndarray) -> np.ndarray:
    """Row bounds: a local state with a positive count, that is with a
    positive count in one of its joint cells, keeps its factor at or
    above the feasibility floor."""
    return np.where(counts > 0, _FEAS_EPS, 0.0)


def _project(g, par: Parametrization, q, ll, counts, kern):
    """Re-extract the parameters from the implied joint distribution.

    The joint distribution, and with it the likelihood, is unchanged;
    only the representation is canonicalized.  Skipped silently when a
    conditioning event has zero mass (possible with zero counts)."""
    p = par.prob(q, kern.term_products)
    try:
        q_new = q_from_p(g, p)
    except ValueError:
        return q, ll, 0
    if np.max(np.abs(q_new - q)) <= 1e-10:
        return q, ll, 0
    pos = counts > 0
    p_new = par.prob(q_new, kern.term_products)
    if p_new[pos].min() <= 0:
        return q, ll, 0
    ll_new = float(counts[pos] @ np.log(p_new[pos]))
    if ll_new < ll - _MONO_SLACK * (1.0 + abs(ll)):
        raise FitError(
            f"projection decreased the log-likelihood: {ll} -> {ll_new}"
        )
    return q_new, ll_new, 1


def _district_ll(dm: DistrictMaps, q_d, counts, kern) -> float:
    f = dm.factor(q_d, kern.term_products)
    pos = counts > 0
    if f[pos].min() <= 0:
        return -np.inf
    return float(counts[pos] @ np.log(f[pos]))


def _newton_phase(dm: DistrictMaps, q_d, counts, eps0, ll, opts, kern):
    """Damped Newton ascent on all of a district's parameters at once.

    Each step solves ``H d = g`` for the district's score g and observed
    information H; the Newton decrement ``g'd / 2`` at or below the
    block ascent's inner tolerance certifies the district stationary.
    Otherwise the step is backtracked from the unit step as in the
    block ascent: every local row stays at or above its bound and the
    Armijo test holds.  ``q_d`` is updated in place.  Returns the new
    district log-likelihood and the certifying decrement, or None when
    the block cycles are to resume: after ``_NEWTON_STEPS`` accepted
    steps, or when H is not positive definite (or a parameter not
    positive) or no step of at least ``_NEWTON_MIN_STEP`` is
    accepted."""
    pos = counts > 0
    c = counts[pos]
    for steps in range(_NEWTON_STEPS + 1):
        if q_d.min() <= 0:
            return ll, None
        f, g, H = dm.observed_information(q_d, counts, kern.term_products)
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
        step = 1.0
        while True:
            q_try = q_d + step * d
            f_try = dm.factor(q_try, kern.term_products)
            if np.all(f_try >= eps):
                ll_try = c @ np.log(f_try[pos])
                if np.isfinite(ll_try) and ll_try >= ll + _SIGMA * step * gd:
                    break
            step *= _BETA
            if step < _NEWTON_MIN_STEP:
                return ll, None
        q_d[:] = q_try
        ll = float(ll_try)
    return ll, None


def _fit_from(par: Parametrization, q0, counts, opts, kern):
    """Fit each district to convergence in turn from one start.

    Returns (q, ll, cycles, converged, kkt): the sum of the district
    log-likelihoods, the largest district cycle count, whether every
    district converged, and the largest district certificate (see
    ``FitResult.kkt``)."""
    q = q0.copy()
    ll_total, cycles_max, all_converged, kkt_max = 0.0, 0, True, 0.0
    for dm, sl in zip(par.maps, par.slices):
        # a basic slice is a view: block updates write through to q
        q_d = q[sl]
        counts_d = _local_counts(dm, counts)
        eps_d = _eps_rows(counts_d)
        ll = _district_ll(dm, q_d, counts_d, kern)
        if not np.isfinite(ll):
            raise FitError("infeasible starting point")
        converged = False
        for cycles in range(1, opts.max_cycles + 1):
            ll_cycle_start = ll
            any_moved = False
            kkt = 0.0
            for pos in dm.members:
                ll_prev = ll
                ll, moved, decrement = _ascend_vertex(dm, q_d, pos, counts_d, eps_d, opts, kern)
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
                ll, decrement = _newton_phase(dm, q_d, counts_d, eps_d, ll, opts, kern)
                if decrement is not None:
                    kkt = decrement
                    converged = True
                    break
        ll_total += ll
        cycles_max = max(cycles_max, cycles)
        all_converged = all_converged and converged
        kkt_max = max(kkt_max, kkt)
    return q, ll_total, cycles_max, all_converged, kkt_max


def fit(
    g: Admg,
    counts,
    opts: FitOptions = FitOptions(),
    start: np.ndarray | None = None,
) -> FitResult:
    """Maximum likelihood fit of the graph's model to a count vector.

    ``counts`` holds one nonnegative count per joint state in canonical
    order.  ``start`` overrides the independence starting point (used
    for warm starts); extra random restarts are controlled by
    ``opts.starts`` and keep the best likelihood found.
    """
    counts = _check_counts(g, counts, opts.allow_zero_counts)
    kern = get_kernels()
    par = parametrization(g)
    rng = np.random.default_rng(opts.seed)

    starts: list[np.ndarray] = []
    if start is not None:
        start = np.asarray(start, dtype=float)
        if len(start) != len(par.table):
            raise FitError("start vector has wrong length")
        if par.prob(start, kern.term_products)[counts > 0].min() > 0:
            starts.append(start)
    if not starts:
        starts.append(initialize(g, counts))
    q_base = starts[0]
    for _ in range(opts.starts - 1):
        starts.append(_jitter_start(g, q_base, rng))

    # the first start with the highest log-likelihood wins
    runs = [_fit_from(par, q0, counts, opts, kern) for q0 in starts]
    q, ll, cycles, converged, kkt = max(runs, key=lambda run: run[1])
    q, ll, projections = _project(g, par, q, ll, counts, kern)
    p = par.prob(q, kern.term_products)
    return FitResult(
        graph=g,
        q=q,
        loglik=ll,
        cycles=cycles,
        converged=converged,
        p=p,
        n=float(counts.sum()),
        projections=projections,
        kkt=kkt,
    )
