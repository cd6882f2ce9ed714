"""Backend selection and numerical parity of the two kernel sets."""

import numpy as np
import pytest

from admgfit._kernels import (
    ENV_VAR,
    Kernels,
    _term_products_loops,
    _term_products_numpy,
    available_backends,
    backend,
    get_kernels,
)
from admgfit.fitting import FitOptions, fit, vertex_block
from admgfit.moebius import prob_vector

from util import graph_one, random_interior_q

HAVE_NUMBA = "numba" in available_backends()
needs_numba = pytest.mark.skipif(not HAVE_NUMBA, reason="numba not installed")


def test_backend_names_and_validation(monkeypatch):
    monkeypatch.delenv(ENV_VAR, raising=False)
    assert backend() in available_backends()
    assert get_kernels("numpy").name == "numpy"
    assert isinstance(get_kernels(), Kernels)
    with pytest.raises(ValueError, match="unknown backend"):
        get_kernels("fortran")


def test_environment_variable_forces_the_default(monkeypatch):
    monkeypatch.setenv(ENV_VAR, "numpy")
    assert backend() == "numpy"
    assert get_kernels().name == "numpy"
    monkeypatch.setenv(ENV_VAR, "cuda")
    with pytest.raises(ValueError, match="must be 'numba' or 'numpy'"):
        backend()
    if not HAVE_NUMBA:
        monkeypatch.setenv(ENV_VAR, "numba")
        with pytest.raises(ImportError):
            backend()


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
        A, b, counts, eps, theta0.copy(), 0.5, 1e-4, 200, 1e-12
    )
    assert moved
    assert ll > ll0
    assert np.all(A @ theta - b >= eps * (1 - 1e-12))


@needs_numba
def test_fit_results_agree_across_backends():
    rng = np.random.default_rng(63)
    g = graph_one()
    counts = rng.integers(1, 60, size=16).astype(float)
    a = fit(g, counts, FitOptions(tol=1e-10, backend="numpy"))
    b = fit(g, counts, FitOptions(tol=1e-10, backend="numba"))
    assert abs(a.loglik - b.loglik) < 1e-8
    assert np.max(np.abs(a.p - b.p)) < 1e-6
    assert np.max(np.abs(prob_vector(g, a.q) - prob_vector(g, b.q))) < 1e-6
