"""Maximum likelihood fitting by block coordinate ascent.

The log-likelihood of a count vector is concave in the parameters of
one vertex when all other parameters are held fixed, because the joint
probabilities are then affine in that block.  Fitting cycles through
the vertices in canonical order and maximizes each block with damped
Newton ascent under the feasibility constraints, backtracking from the
unit step.  Once the fit ends, the parameter vector is re-extracted
from the fitted joint distribution in a single projection, which
leaves the likelihood unchanged but keeps the parameters
interpretable as conditional probabilities.

Districts do not share parameters and their factors multiply, so they
can also be fitted independently (``fit_districts_parallel``).
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from ._kernels import get_kernels
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
    "fit_districts_parallel",
]

# relative slack for the never-decrease assertion; violations beyond
# this indicate a genuine bug, not roundoff
_MONO_SLACK = 1e-7


class FitError(RuntimeError):
    """Raised when fitting cannot proceed (bad counts, lost feasibility)."""


@dataclass(frozen=True)
class FitOptions:
    """Tuning knobs for :func:`fit`.

    ``tol`` stops the outer loop once a full cycle over all vertices
    improves the log-likelihood by less than this.  Each block is
    maximized by damped Newton ascent: the unit step is tried first,
    ``beta`` and ``sigma`` are its backtracking factor and Armijo
    acceptance slope, and ``max_inner`` bounds the Newton steps per
    block.  The fitted parameters are canonicalized by one projection
    at the end of the fit, not during it.  ``feas_eps`` keeps every
    joint probability with a positive count strictly positive.
    ``starts`` adds jittered restarts; ``backend`` picks the kernel
    implementation; ``jobs`` bounds the worker threads of
    :func:`fit_districts_parallel`.
    """

    tol: float = 1e-8
    max_cycles: int = 1000
    beta: float = 0.5
    sigma: float = 1e-4
    max_inner: int = 100
    feas_eps: float = 1e-12
    allow_zero_counts: bool = False
    starts: int = 1
    seed: int | None = None
    backend: str | None = None
    jobs: int | None = None


@dataclass(frozen=True)
class FitResult:
    graph: Admg
    q: np.ndarray
    loglik: float
    cycles: int
    converged: bool
    p: np.ndarray
    n: float
    projections: int = 0
    # largest block Newton decrement at block start in the final cycle:
    # a stationarity certificate, reported but not used to stop
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


def initialize(g: Admg, counts, opts: FitOptions = FitOptions()) -> np.ndarray:
    """Independence starting point: every q(H | T = t) is the product of
    the observed marginal zero-probabilities of the head members.
    Always feasible, since the implied joint is the product of the
    (clipped) margins."""
    from .moebius import _state_bits, enumerate_params

    counts = np.asarray(counts, dtype=float)
    table = enumerate_params(g)
    bits = _state_bits(g)
    n = counts.sum()
    marg0 = np.empty(len(g.vertices))
    for k in range(len(g.vertices)):
        marg0[k] = counts[bits[:, k] == 0].sum() / n
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
    target = None
    for dm in par.maps:
        if dm.d_mask >> pos & 1:
            target = dm
        else:
            other *= dm.factor(q[dm.sl], kern.term_products)
    A, b, theta_local = target.affine(q[target.sl], pos, kern.term_products)
    idx = theta_local + target.sl.start
    return other[:, None] * A, other * b, idx


def _ascend_vertex(dm: DistrictMaps, q, pos, counts, eps0, opts, kern):
    """One block maximization in the district-factor form; returns the
    new district log-likelihood contribution, whether theta moved and
    the block's Newton decrement at its start."""
    A, b, theta_local = dm.affine(q[dm.sl], pos, kern.term_products)
    theta = q[dm.sl][theta_local].copy()
    f = A @ theta - b
    pos_rows = counts > 0
    if f[pos_rows].min() <= 0:
        raise FitError("infeasible point: zero factor at an observed cell")
    # keep the current point strictly inside the working constraints
    eps = np.minimum(eps0, np.where(pos_rows, f / 2.0, 0.0))
    theta, ll_d, _, moved, decrement = kern.ascent(
        A,
        b,
        counts,
        eps,
        theta,
        opts.beta,
        opts.sigma,
        opts.max_inner,
        0.01 * opts.tol,
    )
    q[dm.sl.start + theta_local] = theta
    return ll_d, moved, decrement


def update_vertex(g: Admg, q: np.ndarray, v, counts, opts: FitOptions = FitOptions()):
    """Maximize the likelihood over the parameters with ``v`` in the
    head, all else fixed.  Returns a new parameter vector; never
    decreases the likelihood."""
    counts = _check_counts(g, counts, opts.allow_zero_counts)
    kern = get_kernels(opts.backend)
    par = parametrization(g)
    pos = g._resolve(v)
    dm = next(m for m in par.maps if m.d_mask >> pos & 1)
    q = np.asarray(q, dtype=float).copy()
    _ascend_vertex(dm, q, pos, counts, _eps_rows(counts, opts), opts, kern)
    return q


def _eps_rows(counts: np.ndarray, opts: FitOptions) -> np.ndarray:
    return np.where(counts > 0, opts.feas_eps, 0.0)


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


def _district_ll(dm: DistrictMaps, q, counts, kern) -> float:
    f = dm.factor(q[dm.sl], kern.term_products)
    pos = counts > 0
    if f[pos].min() <= 0:
        return -np.inf
    return float(counts[pos] @ np.log(f[pos]))


def _fit_from(g, par, q0, counts, opts, kern, vertices=None):
    """Cycle block updates from one start until converged.

    ``vertices`` restricts the sweep (used by the per-district fitter).
    Returns (q, ll, cycles, converged, kkt), ``kkt`` being the largest
    block Newton decrement at block start in the last cycle."""
    q = q0.copy()
    eps0 = _eps_rows(counts, opts)
    order = vertices if vertices is not None else list(range(len(g.vertices)))
    ll_by_d = {id(dm): _district_ll(dm, q, counts, kern) for dm in par.maps}
    ll = sum(ll_by_d.values())
    if not np.isfinite(ll):
        raise FitError("infeasible starting point")
    converged = False
    cycles = 0
    kkt = 0.0
    for cycles in range(1, opts.max_cycles + 1):
        ll_cycle_start = ll
        any_moved = False
        kkt = 0.0
        for pos in order:
            dm = next(m for m in par.maps if m.d_mask >> pos & 1)
            ll_d, moved, decrement = _ascend_vertex(dm, q, pos, counts, eps0, opts, kern)
            kkt = max(kkt, decrement)
            ll_prev = ll
            ll_by_d[id(dm)] = ll_d
            ll = sum(ll_by_d.values())
            if ll < ll_prev - _MONO_SLACK * (1.0 + abs(ll_prev)):
                raise FitError(
                    f"vertex update decreased the log-likelihood: {ll_prev} -> {ll}"
                )
            any_moved = any_moved or moved
        if not any_moved or ll - ll_cycle_start < opts.tol:
            converged = True
            break
    return q, ll, cycles, converged, kkt


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
    kern = get_kernels(opts.backend)
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
        starts.append(initialize(g, counts, opts))
    q_base = starts[0]
    for _ in range(opts.starts - 1):
        starts.append(_jitter_start(g, q_base, rng))

    # the first start with the highest log-likelihood wins
    runs = [_fit_from(g, par, q0, counts, opts, kern) for q0 in starts]
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


def fit_districts_parallel(
    g: Admg,
    counts,
    opts: FitOptions = FitOptions(),
) -> FitResult:
    """Fit each district separately, possibly in worker threads.

    Districts share no parameters and enter the likelihood through
    separate factors, so the joint maximum is the combination of the
    per-district maxima.  As in :func:`fit`, the parameters are
    canonicalized by a single projection at the end; the fitted
    distribution agrees with :func:`fit` up to convergence tolerance.
    """
    counts = _check_counts(g, counts, opts.allow_zero_counts)
    kern = get_kernels(opts.backend)
    par = parametrization(g)
    q = initialize(g, counts, opts)

    def work(dm: DistrictMaps):
        vs = [p for p in dm.members]
        return _fit_from(g, par, q, counts, opts, kern, vertices=vs)

    jobs = opts.jobs or len(par.maps)
    if jobs > 1 and len(par.maps) > 1:
        with ThreadPoolExecutor(max_workers=jobs) as ex:
            results = list(ex.map(work, par.maps))
    else:
        results = [work(dm) for dm in par.maps]

    out = q.copy()
    cycles = 0
    converged = True
    kkt = 0.0
    for dm, (qd, _, cyc, conv, kkt_d) in zip(par.maps, results):
        out[dm.sl] = qd[dm.sl]
        cycles = max(cycles, cyc)
        converged = converged and conv
        kkt = max(kkt, kkt_d)

    pos = counts > 0
    p = par.prob(out, kern.term_products)
    ll = float(counts[pos] @ np.log(p[pos]))
    out, ll, projections = _project(g, par, out, ll, counts, kern)
    p = par.prob(out, kern.term_products)
    return FitResult(
        graph=g,
        q=out,
        loglik=ll,
        cycles=cycles,
        converged=converged,
        p=p,
        n=float(counts.sum()),
        projections=projections,
        kkt=kkt,
    )
