"""Numerical kernels with two interchangeable backends.

The two hot loops of the fitting procedure live here: sparse row-wise
products (evaluating one multiplicative term per row of a CSR pattern)
and the per-vertex damped Newton ascent under feasibility constraints.
The term products have a compiled implementation (numba) and a
vectorized numpy fallback; the Newton ascent is small dense linear
algebra, so both backends share its numpy implementation.

The active backend is chosen once at import time: the environment
variable ``ADMGFIT_BACKEND`` may force ``numba`` or ``numpy``; when it
is unset, numba is used if importable and numpy otherwise.  Call sites
resolve kernels through :func:`get_kernels`, which also lets the
benchmark time both backends in one process.
"""

from __future__ import annotations

import os
from typing import NamedTuple

import numpy as np

__all__ = ["get_kernels", "backend", "available_backends", "Kernels"]

ENV_VAR = "ADMGFIT_BACKEND"

try:
    from numba import njit

    _HAVE_NUMBA = True
except ImportError:  # pragma: no cover - depends on environment
    _HAVE_NUMBA = False


class Kernels(NamedTuple):
    name: str
    term_products: callable
    ascent: callable


# -- pure numpy --------------------------------------------------------


def _term_products_numpy(indptr, indices, q):
    """Products of q over each CSR row; empty rows give 1."""
    m = len(indptr) - 1
    out = np.ones(m)
    x = q[indices]
    if x.size:
        nonempty = indptr[:-1] < indptr[1:]
        # empty rows contribute no entries, so consecutive nonempty
        # starts delimit exactly the nonempty segments
        out[nonempty] = np.multiply.reduceat(x, indptr[:-1][nonempty])
    return out


def _ascent_numpy(A, b, counts, eps, theta, beta, sigma, max_inner, inner_tol):
    """Maximize sum(counts * log(A theta - b)) subject to A theta - b >= eps.

    Damped Newton ascent on the concave block objective: the direction
    solves (A' diag(c/f^2) A) d = A'(c/f) over the positive-count rows,
    the unit step is tried first and backtracked by ``beta`` until every
    row stays at or above ``eps`` and the Armijo test with ``sigma``
    passes.  Returns (theta, ll, iterations, moved, decrement), the last
    being the Newton decrement g'd/2 at the starting point.
    """
    pos = counts > 0.0
    c = counts[pos]
    Apos = A[pos]

    f = A @ theta - b
    ll = c @ np.log(f[pos])
    moved = False
    decrement = 0.0
    it = 0
    while it < max_inner:
        fp = f[pos]
        w = c / fp
        grad = Apos.T @ w
        hess = (Apos * (w / fp)[:, None]).T @ Apos
        try:
            d = np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError:
            # zero counts can leave some directions without curvature
            d = np.linalg.lstsq(hess, grad, rcond=None)[0]
        gd = grad @ d
        if not 0.0 < gd < np.inf:
            d = grad
            gd = grad @ grad
        if it == 0:
            decrement = 0.5 * gd
        if 0.5 * gd <= inner_tol:
            break
        step = 1.0
        accepted = False
        while step > 1e-18:
            t_try = theta + step * d
            f_try = A @ t_try - b
            if np.all(f_try >= eps):
                ll_try = c @ np.log(f_try[pos])
                if np.isfinite(ll_try) and ll_try >= ll + sigma * step * gd:
                    accepted = True
                    break
            step *= beta
        if not accepted:
            break
        gain = ll_try - ll
        theta, f, ll = t_try, f_try, ll_try
        moved = True
        it += 1
        if gain <= inner_tol:
            break
    return theta, ll, it, moved, decrement


# -- numba -------------------------------------------------------------


def _term_products_loops(indptr, indices, q):
    m = len(indptr) - 1
    out = np.ones(m)
    for k in range(m):
        acc = 1.0
        for j in range(indptr[k], indptr[k + 1]):
            acc *= q[indices[j]]
        out[k] = acc
    return out


_NUMPY = Kernels("numpy", _term_products_numpy, _ascent_numpy)
_numba_kernels = None


def _build_numba():
    global _numba_kernels
    if _numba_kernels is None:
        _numba_kernels = Kernels(
            "numba",
            njit(cache=True, nogil=True)(_term_products_loops),
            _ascent_numpy,
        )
    return _numba_kernels


def available_backends() -> tuple[str, ...]:
    return ("numba", "numpy") if _HAVE_NUMBA else ("numpy",)


def _default_name() -> str:
    env = os.environ.get(ENV_VAR, "").strip().lower()
    if env not in ("", "numba", "numpy"):
        raise ValueError(f"{ENV_VAR} must be 'numba' or 'numpy', not {env!r}")
    if env == "numba" and not _HAVE_NUMBA:
        raise ImportError(f"{ENV_VAR}=numba but numba is not importable")
    if env:
        return env
    return "numba" if _HAVE_NUMBA else "numpy"


def get_kernels(name: str | None = None) -> Kernels:
    """Kernels for ``name`` ('numba' or 'numpy'); None picks the default."""
    name = name or _default_name()
    if name == "numpy":
        return _NUMPY
    if name == "numba":
        if not _HAVE_NUMBA:
            raise ImportError("numba backend requested but numba is not importable")
        return _build_numba()
    raise ValueError(f"unknown backend {name!r}")


def backend() -> str:
    """Name of the default backend."""
    return _default_name()
