"""Kernel lookup, and the kernels against plain reference loops."""

import numpy as np
import pytest

from admgfit._kernels import Kernels, _line_search, _term_products_numpy, get_kernels
from admgfit.fitting import vertex_block

from util import graph_one, random_interior_q


def _term_products_loops(indptr, indices, q):
    """Reference: products of q over each CSR row, one row at a time."""
    m = len(indptr) - 1
    out = np.ones(m)
    for k in range(m):
        acc = 1.0
        for j in range(indptr[k], indptr[k + 1]):
            acc *= q[indices[j]]
        out[k] = acc
    return out


def test_backend_names_and_validation():
    assert get_kernels("numpy").name == "numpy"
    assert isinstance(get_kernels(), Kernels)
    with pytest.raises(ValueError, match="unknown backend"):
        get_kernels("fortran")


def test_term_products_on_hand_pattern():
    indptr = np.array([0, 0, 2, 3, 3, 6])
    indices = np.array([0, 1, 2, 0, 1, 2])
    q = np.array([2.0, 3.0, 5.0])
    expect = [1.0, 6.0, 5.0, 1.0, 30.0]
    for impl in (_term_products_numpy, _term_products_loops):
        assert np.allclose(impl(indptr, indices, q), expect)
    empty = _term_products_numpy(np.array([0, 0, 0]), np.array([], dtype=int), q)
    assert np.array_equal(empty, np.ones(2))


def test_term_products_parity_on_random_patterns():
    rng = np.random.default_rng(61)
    for _ in range(20):
        rows, nq = rng.integers(1, 12), rng.integers(1, 8)
        lens = rng.integers(0, 4, size=rows)
        indptr = np.concatenate([[0], np.cumsum(lens)])
        indices = rng.integers(0, nq, size=indptr[-1])
        q = rng.uniform(0.1, 1.5, nq)
        a = _term_products_numpy(indptr, indices, q)
        b = _term_products_loops(indptr, indices, q)
        assert np.max(np.abs(a - b)) < 1e-14


def ascent_problem():
    g = graph_one()
    rng = np.random.default_rng(62)
    q = random_interior_q(g, rng)
    A, b, idx = vertex_block(g, q, "4")
    counts = rng.integers(1, 40, size=len(b)).astype(float)
    eps = np.full(len(b), 1e-12)
    return A, b, counts, eps, q[idx]


def test_ascent_improves_and_stays_feasible():
    A, b, counts, eps, theta0 = ascent_problem()
    f0 = A @ theta0 - b
    ll0 = counts @ np.log(f0)
    theta, ll, _, moved, _ = get_kernels("numpy").ascent(
        A, b, counts, eps, theta0.copy(), 1e-12
    )
    assert moved
    assert ll > ll0
    assert np.all(A @ theta - b >= eps * (1 - 1e-12))


def test_line_search_accepts_an_ascent_step_and_rejects_a_descent():
    A, b, counts, eps, theta0 = ascent_problem()
    pos = counts > 0
    c = counts[pos]

    def factor(t):
        return A @ t - b

    f0 = factor(theta0)
    ll0 = c @ np.log(f0[pos])
    grad = A[pos].T @ (c / f0[pos])
    gd = grad @ grad
    x, f, ll = _line_search(factor, theta0, grad, gd, ll0, c, pos, eps, 1e-18)
    assert np.array_equal(f, factor(x)) and np.all(f >= eps)
    assert ll == c @ np.log(f[pos]) and ll > ll0
    # no step along the descent direction passes the Armijo test
    assert _line_search(factor, theta0, -grad, gd, ll0, c, pos, eps, 1e-3) is None
