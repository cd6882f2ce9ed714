"""Numerical kernels of the fitting procedure.

The two hot loops live here: sparse row-wise products (evaluating one
multiplicative term per row of a CSR pattern, vectorized with
``np.multiply.reduceat``) and the per-vertex damped Newton ascent
under feasibility constraints, which is small dense linear algebra.
Call sites look them up through :func:`get_kernels` on every call
(``DistrictMaps.term_values`` and ``affine``, the block ascent in
``fitting``) and take no kernel argument, so the benchmark can wrap
the kernel tuple at run time.  The backtracking line search of that
ascent, :func:`_line_search`, also serves the district Newton phase.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

__all__ = ["get_kernels", "Kernels"]

# backtracking factor and Armijo acceptance slope of the line search,
# the Newton step budget and the shortest step of the block ascent
_BETA = 0.5
_SIGMA = 1e-4
_MAX_INNER = 100
_ASCENT_MIN_STEP = 1e-18


class Kernels(NamedTuple):
    name: str
    term_products: callable
    ascent: callable


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


def _line_search(factor, x, d, gd, ll, c, pos, eps, min_step):
    """Backtracking line search for an ascent direction ``d`` at ``x``.

    ``factor`` maps a point to its row values f, ``ll`` is
    ``c @ log(f[pos])`` at ``x`` and ``gd`` the directional derivative
    along ``d``.  The unit step is tried first and halved by ``_BETA``
    until every row stays at or above ``eps`` and the Armijo test with
    ``_SIGMA`` passes.  Returns (x_new, f_new, ll_new), or None when no
    step of at least ``min_step`` is accepted.
    """
    step = 1.0
    while step >= min_step:
        x_try = x + step * d
        f_try = factor(x_try)
        if (f_try >= eps).all():
            ll_try = c @ np.log(f_try[pos])
            if math.isfinite(ll_try) and ll_try >= ll + _SIGMA * step * gd:
                return x_try, f_try, ll_try
        step *= _BETA
    return None


def _ascent_numpy(A, b, counts, eps, theta, inner_tol):
    """Maximize sum(counts * log(A theta - b)) subject to A theta - b >= eps.

    Damped Newton ascent on the concave block objective: the direction
    solves (A' diag(c/f^2) A) d = A'(c/f) over the positive-count rows
    and :func:`_line_search` picks the step, for at most ``_MAX_INNER``
    Newton steps.  Returns (theta, ll, iterations, moved, decrement),
    the last being the Newton decrement g'd/2 at the starting point.
    """
    pos = counts > 0.0
    c = counts[pos]
    Apos = A[pos]

    def factor(t):
        return A @ t - b

    f = factor(theta)
    ll = c @ np.log(f[pos])
    moved = False
    decrement = 0.0
    it = 0
    while it < _MAX_INNER:
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
        found = _line_search(factor, theta, d, gd, ll, c, pos, eps, _ASCENT_MIN_STEP)
        if found is None:
            break
        gain = found[2] - ll
        theta, f, ll = found
        moved = True
        it += 1
        if gain <= inner_tol:
            break
    return theta, ll, it, moved, decrement


_NUMPY = Kernels("numpy", _term_products_numpy, _ascent_numpy)


def get_kernels(name: str | None = None) -> Kernels:
    """The numpy kernels; ``name`` may be None or 'numpy'."""
    if name not in (None, "numpy"):
        raise ValueError(f"unknown backend {name!r}")
    return _NUMPY
