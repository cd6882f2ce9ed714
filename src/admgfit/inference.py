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
block, and its condition number comes from the blocks' singular
values.  ``DistrictMaps.jacobian`` looks up its own term-product kernel.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy import stats

from ._kernels import get_kernels
from .fitting import FitResult
from .graph import Admg
from .moebius import parametrization, prob_vector

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
    p = prob_vector(g, q)
    if p.min() <= 0:
        raise ValueError("Fisher information requires a strictly positive distribution")
    q = np.asarray(q, dtype=float)
    _check_positive(q)
    par = parametrization(g)
    I = np.zeros((len(q), len(q)))
    for dm, sl in zip(par.maps, par.slices):
        f, J = dm.jacobian(q[sl])
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
    of its inverse is that of the blocks' inverses.
    """
    I = fisher_information(g, q)
    blocks = [I[sl, sl] for sl in parametrization(g).slices]
    s = np.concatenate([np.linalg.svd(b, compute_uv=False) for b in blocks])
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
