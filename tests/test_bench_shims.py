"""The traced benchmark's patch points exist in the package.

``bench/tracing.py`` wraps named functions, methods and the kernel
tuple at run time and refuses to run when one is missing.  Reading its
shim tables here turns a refactor that drops or renames a patch point
into a failing test instead of a failing benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("admgfit_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_function_shim_points_exist(tracing):
    assert tracing._FUNCTION_SHIMS
    for mod_name, attr, _ in tracing._FUNCTION_SHIMS:
        mod = importlib.import_module(mod_name)
        assert callable(mod.__dict__.get(attr)), f"{mod_name}.{attr}"


def test_method_shim_points_exist(tracing):
    assert tracing._METHOD_SHIMS
    for mod_name, cls_name, attr, _ in tracing._METHOD_SHIMS:
        cls = importlib.import_module(mod_name).__dict__.get(cls_name)
        assert isinstance(cls, type), f"{mod_name}.{cls_name}"
        assert callable(cls.__dict__.get(attr)), f"{mod_name}.{cls_name}.{attr}"


def test_kernel_users_look_up_get_kernels(tracing):
    assert tracing._KERNEL_USERS
    for mod_name in tracing._KERNEL_USERS:
        mod = importlib.import_module(mod_name)
        assert callable(mod.__dict__.get("get_kernels")), mod_name


def test_install_patches_and_uninstall_restores(tracing):
    import admgfit.moebius as moebius

    before = dict(moebius.DistrictMaps.__dict__)
    tracer = tracing.Tracer()
    tracer.begin_op()
    tracer.install()
    try:
        assert moebius.DistrictMaps.__dict__["affine"] is not before["affine"]
    finally:
        tracer.uninstall()
    assert moebius.DistrictMaps.__dict__["affine"] is before["affine"]
    assert moebius.DistrictMaps.__dict__["__init__"] is before["__init__"]


def _patch_points(tracing):
    """Every name the tracer patches, with its current value."""
    points = {}
    for mod_name, attr, _ in tracing._FUNCTION_SHIMS:
        points[(mod_name, attr)] = importlib.import_module(mod_name).__dict__[attr]
    for mod_name, cls_name, attr, _ in tracing._METHOD_SHIMS:
        cls = importlib.import_module(mod_name).__dict__[cls_name]
        points[(mod_name, cls_name, attr)] = cls.__dict__[attr]
    for mod_name in tracing._KERNEL_USERS:
        points[(mod_name, "get_kernels")] = importlib.import_module(mod_name).get_kernels
    return points


def test_traced_fit_and_search_record_their_spans(tracing):
    """One fit and one search step under the installed tracer: the
    kernel tuple that the tracer rebuilds positionally must still
    work, and uninstalling restores every patched name."""
    import numpy as np

    from admgfit import Admg, fit, stepwise

    from util import graph_one

    before = _patch_points(tracing)
    counts = np.random.default_rng(70).integers(1, 60, size=16).astype(float)
    tracer = tracing.Tracer()
    tracer.begin_op()
    tracer.install()
    try:
        assert _patch_points(tracing) != before
        res = fit(graph_one(), counts)
        search = stepwise(counts, Admg(["1", "2", "3", "4"]), max_steps=1)
    finally:
        tracer.uninstall()
    assert _patch_points(tracing) == before
    assert res.converged and search.evaluated > 0
    _, spans = tracer.summary()
    assert spans[(0, "kernels.ascent")] > 0
    assert spans[(0, "kernels.term_products")] > 0
    # every candidate fit of the search goes through select.fit
    assert spans[(0, "fitting.fit")] == search.evaluated


def test_fits_searches_and_reports_build_no_scipy_matrix(monkeypatch):
    """``DistrictMaps.M`` and ``P`` are scipy views built on first read,
    for display and for the tracer's map metrics.  No fit, search or
    report reads them, so they cost nothing untraced."""
    import numpy as np
    import scipy.sparse

    from admgfit import Admg, FitOptions, fit, report, stepwise

    from util import graph_one

    def refuse(*args, **kwargs):
        raise AssertionError("a scipy matrix was built")

    monkeypatch.setattr(scipy.sparse, "csr_matrix", refuse)
    counts = np.random.default_rng(71).integers(1, 60, size=16).astype(float)
    g = graph_one()
    res = fit(g, counts, FitOptions(starts=2, seed=3))
    report(res, counts, with_se=True)
    search = stepwise(counts, Admg(["1", "2", "3", "4"]))
    report(search.fit, counts, with_se=True)
    assert res.converged and search.evaluated > 1


def test_a_search_calls_select_fit_once_per_candidate(monkeypatch):
    """The tracer's ``fitting.fit`` span wraps ``select.fit``, so its
    count is the number of candidates only if the search calls it once
    for each, district fits copied from earlier candidates included."""
    import admgfit.select as select

    from util import golden_search_inputs

    calls = []
    real_fit = select.fit

    def counting(*args, **kwargs):
        calls.append(args[0])
        return real_fit(*args, **kwargs)

    monkeypatch.setattr(select, "fit", counting)
    for counts, start, criterion in golden_search_inputs():
        calls.clear()
        res = select.stepwise(counts, start, criterion=criterion)
        assert len(calls) == res.evaluated
        assert res.districts_reused > 0
