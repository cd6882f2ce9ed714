"""Standard errors, goodness of fit and information criteria.

The Jacobian of the joint probability vector with respect to the
parameters follows from the chain rule through the district factors:
each term product depends multiplicatively on its parameters, so within
a district d/dq of the factor is ``M @ diag(t) @ P @ diag(1/q)`` over
the district's local states, gathered to the joint states, and the
product rule across districts scales each district's block by the
product of the other factors.  The observed-information route is not
needed: with a multinomial likelihood the Fisher information per
observation is ``J' (diag(1/p) - 11') J``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy import stats

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
]

COND_WARN = 1e10


def dp_dq(g: Admg, q: np.ndarray) -> np.ndarray:
    """Dense Jacobian d p / d q, one row per joint state, one column per
    parameter.  Requires strictly positive parameters.  Columns sum to
    zero since the probabilities sum to one identically."""
    kern = get_kernels()
    par = parametrization(g)
    q = np.asarray(q, dtype=float)
    if len(q) != len(par.table):
        raise ValueError(f"expected {len(par.table)} parameters")
    if q.min() <= 0:
        raise ValueError("Jacobian requires strictly positive parameters")
    R = 1 << len(g.vertices)
    factors = [f[dm.rows] for dm, f in zip(par.maps, par.factors(q, kern.term_products))]
    J = np.empty((R, len(q)))
    for k, (dm, sl) in enumerate(zip(par.maps, par.slices)):
        q_d = q[sl]
        t = dm.term_values(q_d, kern.term_products)
        # d t_k / d q_j = P[k, j] * t_k / q_j
        T = dm.P.multiply(t[:, None]).multiply(1.0 / q_d[None, :]).tocsr()
        Jd = (dm.M @ T).toarray()[dm.rows]
        other = np.ones(R)
        for kk, f in enumerate(factors):
            if kk != k:
                other *= f
        J[:, sl] = other[:, None] * Jd
    return J


def fisher_information(g: Admg, q: np.ndarray) -> np.ndarray:
    """Expected information per observation at ``q``; symmetric positive
    semidefinite.  Requires the implied distribution to be strictly
    positive."""
    from .moebius import prob_vector

    p = prob_vector(g, q)
    if p.min() <= 0:
        raise ValueError("Fisher information requires a strictly positive distribution")
    J = dp_dq(g, q)
    u = J.sum(axis=0)
    I = (J / p[:, None]).T @ J - np.outer(u, u)
    return (I + I.T) / 2.0


def standard_errors(g: Admg, q: np.ndarray, n: float) -> np.ndarray:
    """Asymptotic standard errors sqrt(diag(I^-1) / n) at ``q``.

    Raises numpy.linalg.LinAlgError when the information matrix is
    singular (non-identified or boundary solution); warns when it is
    poorly conditioned.
    """
    I = fisher_information(g, q)
    cond = np.linalg.cond(I)
    if cond > COND_WARN:
        warnings.warn(
            f"information matrix condition number {cond:.2e}; "
            "standard errors may be unreliable",
            stacklevel=2,
        )
    inv = np.linalg.inv(I)
    d = np.diag(inv).copy()
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


def deviance(result: FitResult, counts) -> tuple[float, int, float]:
    """Likelihood-ratio statistic against the saturated model.

    Returns ``(deviance, df, p_value)`` with df the number of cells
    minus one minus the number of parameters.  The p-value is the upper
    chi-squared tail; NaN when df is not positive.
    """
    counts = np.asarray(counts, dtype=float)
    dev = 2.0 * (_saturated_loglik(counts) - result.loglik)
    if -1e-6 < dev < 0:  # roundoff on saturated fits
        dev = 0.0
    df = (1 << len(result.graph.vertices)) - 1 - result.n_params
    p = float(stats.chi2.sf(dev, df)) if df > 0 else float("nan")
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
    """Bundle a fit with standard errors and fit statistics."""
    counts = np.asarray(counts, dtype=float)
    g = result.graph
    table = parametrization(g).table
    notes = []
    se = None
    if with_se:
        try:
            se = standard_errors(g, result.q, result.n)
        except (np.linalg.LinAlgError, ValueError) as exc:
            notes.append(f"standard errors unavailable: {exc}")
    dev, df, p = deviance(result, counts)
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
