"""Standard errors, goodness of fit and information criteria.

The log-likelihood is a sum of district terms ``log f_D`` whose
parameters are disjoint, so the Fisher information is block diagonal
with one block per district, and each block lives on the district's
local states (the states of D and pa(D)).  Within a district the
Jacobian of the factor follows from the chain rule: each term product
depends multiplicatively on its parameters, so d/dq of ``M @ t(q)`` is
``M @ T`` with ``T[k, j] = P[k, j] t_k / q_j``
(:meth:`~admgfit.moebius.DistrictMaps.jacobian`, which the fit's
district Newton phase shares).  With the score
``s_D = J_D / f_D`` and p marginalized to the local states as
``p_S``, the block per observation is

    I_D = sum_r p_S(r) s_D(r) s_D(r)' - u_D u_D',   u_D = sum_r p_S(r) s_D(r),

the multinomial information ``J' (diag(1/p) - 11') J`` restricted to
the district.  ``u_D`` vanishes identically, as the probabilities sum
to one; it is subtracted all the same, as in the dense form, so the
two agree to roundoff.  :func:`dp_dq` gathers the same local
Jacobians into the dense Jacobian of the joint probability vector over
all 2^|V| states; it is kept as the reference the block form is
tested against.  Standard errors invert the information block by
block, and its condition number comes from the blocks' eigenvalues.
``DistrictMaps.jacobian`` looks up its own term-product kernel.

The deviance test's p-value is the upper chi-squared tail, computed
here in closed form (:func:`_chi2_sf`; Abramowitz & Stegun 26.4.4-26.4.5)
so that the package needs numpy alone.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass, field

import numpy as np

from ._kernels import get_kernels
from .fitting import FitResult
from .graph import Admg
from .moebius import parametrization

__all__ = [
    "dp_dq",
    "fisher_information",
    "standard_errors",
    "deviance",
    "information_criteria",
    "InferenceReport",
    "report",
    # re-exported, not used here: bench/tracing.py patches
    # inference.get_kernels and fails on a missing name
    "get_kernels",
]

COND_WARN = 1e10


def _check_positive(q: np.ndarray) -> None:
    if q.min() <= 0:
        raise ValueError("Jacobian requires strictly positive parameters")


def dp_dq(g: Admg, q: np.ndarray) -> np.ndarray:
    """Dense Jacobian d p / d q, one row per joint state, one column per
    parameter.  Requires strictly positive parameters.  Columns sum to
    zero since the probabilities sum to one identically."""
    par = parametrization(g)
    q = np.asarray(q, dtype=float)
    if len(q) != len(par.table):
        raise ValueError(f"expected {len(par.table)} parameters")
    _check_positive(q)
    R = 1 << len(g.vertices)
    local = [dm.jacobian(q[sl]) for dm, sl in zip(par.maps, par.slices)]
    factors = [dm.joint(f) for dm, (f, _) in zip(par.maps, local)]
    J = np.empty((R, len(q)))
    for k, (dm, sl) in enumerate(zip(par.maps, par.slices)):
        # product rule: the other districts' factors scale this block
        other = np.ones(R)
        for kk, f in enumerate(factors):
            if kk != k:
                other *= f
        J[:, sl] = other[:, None] * dm.joint(local[k][1])
    return J


def fisher_information(g: Admg, q: np.ndarray) -> np.ndarray:
    """Expected information per observation at ``q``; symmetric positive
    semidefinite and block diagonal over districts.  Requires strictly
    positive parameters and a strictly positive implied distribution."""
    par = parametrization(g)
    q = par.param_vector(q)
    _check_positive(q)
    local = [dm.jacobian(q[sl]) for dm, sl in zip(par.maps, par.slices)]
    p = par.product([f for f, _ in local])
    if p.min() <= 0:
        raise ValueError("Fisher information requires a strictly positive distribution")
    I = np.zeros((len(q), len(q)))
    for dm, sl, (f, J) in zip(par.maps, par.slices, local):
        w = dm.marginal(p) / f
        u = J.T @ w
        I_d = (J * (w / f)[:, None]).T @ J - np.outer(u, u)
        I[sl, sl] = (I_d + I_d.T) / 2.0
    return I


def standard_errors(g: Admg, q: np.ndarray, n: float) -> np.ndarray:
    """Asymptotic standard errors sqrt(diag(I^-1) / n) at ``q``.

    Raises numpy.linalg.LinAlgError when the information matrix is
    singular (non-identified or boundary solution); warns when it is
    poorly conditioned.  The information is block diagonal over
    districts, so its singular values, and with them its condition
    number, are those of its blocks taken together, and the diagonal
    of its inverse is that of the blocks' inverses.  The blocks are
    symmetric, so their singular values are the absolute values of
    their eigenvalues.
    """
    I = fisher_information(g, q)
    blocks = [I[sl, sl] for sl in parametrization(g).slices]
    s = np.abs(np.concatenate([np.linalg.eigvalsh(b) for b in blocks]))
    cond = np.inf if s.min() == 0 else s.max() / s.min()
    if cond > COND_WARN:
        warnings.warn(
            f"information matrix condition number {cond:.2e}; "
            "standard errors may be unreliable",
            stacklevel=2,
        )
    d = np.concatenate([np.diag(np.linalg.inv(b)) for b in blocks])
    if d.min() < 0:
        if d.min() < -1e-8:
            raise np.linalg.LinAlgError(
                "information inverse has negative diagonal entries"
            )
        d = np.clip(d, 0.0, None)
    return np.sqrt(d / n)


def _saturated_loglik(counts: np.ndarray) -> float:
    n = counts.sum()
    pos = counts > 0
    return float(counts[pos] @ np.log(counts[pos] / n))


def _stirlerr(a: float) -> float:
    """``log Γ(a+1) - (a+1/2) log a + a - log √(2π)``, the error of
    Stirling's formula, from its asymptotic series above 15."""
    if a <= 15:
        return math.lgamma(a + 1) - (a + 0.5) * math.log(a) + a - 0.5 * math.log(2 * math.pi)
    s = 1 / (a * a)
    return (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - s / 1188) * s) * s) * s) / a


def _bd0(a: float, y: float) -> float:
    """``a log(a/y) + y - a``, from its series in ``(a-y)/(a+y)`` where
    the two parts would cancel (Loader 2000)."""
    d = a - y
    if abs(d) >= 0.1 * (a + y):
        return a * math.log(a / y) - d
    v = d / (a + y)
    s, term, j = d * v, 2 * a * v, 1
    while True:
        term *= v * v
        s_next = s + term / (2 * j + 1)
        if s_next == s:
            return s
        s, j = s_next, j + 1


def _chi2_sf(x: float, df: int) -> float:
    """Upper tail ``P(X > x)`` of a chi-squared variable with ``df > 0``
    degrees of freedom: ``Q(a, y)`` with ``a = df/2``, ``y = x/2``.

    Both branches scale ``D = y^a e^-y / Γ(a+1)``, formed from
    ``_bd0`` and ``_stirlerr`` so that it does not cancel for large a.
    Below the mean (y < a), ``1 - Q`` is the series ``D (1 + y/(a+1) +
    y²/((a+1)(a+2)) + ...)``.  From the mean up, ``Q`` is the finite sum
    of Abramowitz & Stegun 26.4.4-26.4.5, taken from its largest term
    down: ``D (a/y) (1 + (a-1)/y + (a-1)(a-2)/y² + ...)`` over
    ``floor(a)`` terms, plus ``erfc(√y)`` for odd df.  Either sum is
    cut at ``√(120a) + 40`` terms, where its terms have fallen below
    1e-17 of the first.  A tail below the smallest normal double is
    returned as 0, so it is 0 wherever scipy's underflows to 0."""
    if math.isnan(x):
        return math.nan
    if x <= 0:
        return 1.0
    if math.isinf(x):
        return 0.0
    a, y = df / 2, x / 2
    log_d = -_bd0(a, y) - _stirlerr(a) - 0.5 * math.log(2 * math.pi * a)
    n = int(math.sqrt(120 * a)) + 40
    if y < a:
        s = 1 + np.cumprod(y / (a + np.arange(1, n + 1))).sum()
        return 1 - math.exp(log_d) * s
    s = 1 + np.cumprod((a - np.arange(1, min(n, df // 2 - 1) + 1)) / y).sum()
    q = math.exp(log_d + math.log(a / y * s)) if df > 1 else 0.0
    if df % 2:
        q += math.erfc(math.sqrt(y))
    return q if q >= sys.float_info.min else 0.0


def deviance(result: FitResult, counts) -> tuple[float, int, float]:
    """Likelihood-ratio statistic against the saturated model.

    Returns ``(deviance, df, p_value)`` with df the number of cells
    minus one minus the number of parameters.  The p-value is the upper
    chi-squared tail (:func:`_chi2_sf`); NaN when df is not positive or
    the deviance is NaN.  ``counts`` must be the fit's own: 2^|V| cells
    that sum to ``result.n``.
    """
    counts = np.asarray(counts, dtype=float)
    cells = 1 << len(result.graph.vertices)
    if counts.shape != (cells,):
        raise ValueError(f"expected {cells} counts, got shape {counts.shape}")
    if abs(counts.sum() - result.n) > 1e-9 * abs(result.n):
        raise ValueError(f"counts sum to {counts.sum():g}, but the fit has n = {result.n:g}")
    dev = 2.0 * (_saturated_loglik(counts) - result.loglik)
    if -1e-6 < dev < 0:  # roundoff on saturated fits
        dev = 0.0
    df = (1 << len(result.graph.vertices)) - 1 - result.n_params
    p = _chi2_sf(dev, df) if df > 0 else float("nan")
    return float(dev), int(df), p


def information_criteria(result: FitResult) -> tuple[float, float]:
    """(BIC, AIC) of a fitted model: k log n and 2k penalties."""
    k = result.n_params
    return (
        float(-2.0 * result.loglik + k * np.log(result.n)),
        float(-2.0 * result.loglik + 2.0 * k),
    )


@dataclass(frozen=True)
class InferenceReport:
    """Everything the CLI prints about one fitted model."""

    graph: Admg
    params: tuple
    estimates: np.ndarray
    std_errors: np.ndarray | None
    loglik: float
    deviance: float
    df: int
    p_value: float
    bic: float
    aic: float
    n: float
    cycles: int
    converged: bool
    kkt: float = float("nan")
    notes: tuple[str, ...] = field(default=())

    def to_dict(self) -> dict:
        g = self.graph
        return {
            "schema_version": 1,
            "graph": {
                "vertices": [str(v) for v in g.vertices],
                "directed": [[str(a), str(b)] for a, b in g.directed_edges],
                "bidirected": [[str(a), str(b)] for a, b in g.bidirected_edges],
            },
            "parameters": [
                {
                    "head": [str(v) for v in prm.head],
                    "tail": [str(v) for v in prm.tail],
                    "tail_state": list(prm.tail_state),
                    "estimate": float(est),
                    "std_error": None if self.std_errors is None else float(se),
                }
                for prm, est, se in zip(
                    self.params,
                    self.estimates,
                    self.std_errors
                    if self.std_errors is not None
                    else np.full(len(self.estimates), np.nan),
                )
            ],
            "loglik": self.loglik,
            "deviance": self.deviance,
            "df": self.df,
            "p_value": None if np.isnan(self.p_value) else self.p_value,
            "bic": self.bic,
            "aic": self.aic,
            "n": self.n,
            "cycles": self.cycles,
            "converged": self.converged,
            "kkt": None if np.isnan(self.kkt) else self.kkt,
            "notes": list(self.notes),
        }


def report(result: FitResult, counts, with_se: bool = True) -> InferenceReport:
    """Bundle a fit with standard errors and fit statistics; ``counts``
    must be the fit's own, as :func:`deviance` requires."""
    dev, df, p = deviance(result, counts)
    g = result.graph
    table = parametrization(g).table
    notes = []
    se = None
    if with_se:
        try:
            se = standard_errors(g, result.q, result.n)
        except (np.linalg.LinAlgError, ValueError) as exc:
            notes.append(f"standard errors unavailable: {exc}")
    bic, aic = information_criteria(result)
    if not result.converged:
        notes.append("fit did not converge within the cycle limit")
    return InferenceReport(
        graph=g,
        params=table.params,
        estimates=result.q,
        std_errors=se,
        loglik=result.loglik,
        deviance=dev,
        df=df,
        p_value=p,
        bic=bic,
        aic=aic,
        n=result.n,
        cycles=result.cycles,
        converged=result.converged,
        kkt=result.kkt,
        notes=tuple(notes),
    )
