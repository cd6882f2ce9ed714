"""Span recording for the traced benchmark run.

The tracer wraps the public functions that one admgfit module calls in
the layer below it (the kernel tuple handed to ``fitting``,
``fitting.q_from_p``, ``select.fit``, ``DistrictMaps.affine`` and so
on) with shims installed at run time.  Nothing under ``src/`` knows
about them.  Spans live in flat in-memory arrays until the run ends;
a layer's self time is its span minus the spans of its direct
children.

A patch point that the package does not have is an error: its
metrics would otherwise read 0 and look like a gain.  A change that
removes or renames a layer edits the shim tables below.
"""

from __future__ import annotations

import importlib
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np

# (module, attribute, span name): module-level names that a caller
# module looks up at call time
_FUNCTION_SHIMS = (
    ("admgfit.fitting", "q_from_p", "moebius.q_from_p"),
    ("admgfit.select", "fit", "fitting.fit"),
    ("admgfit.select", "neighbors", "select.neighbors"),
    ("admgfit.inference", "standard_errors", "inference.se"),
    ("admgfit.inference", "fisher_information", "inference.fisher"),
)

# (module, class, method, span name)
_METHOD_SHIMS = (
    ("admgfit.moebius", "DistrictMaps", "__init__", "moebius.maps"),
    ("admgfit.moebius", "DistrictMaps", "affine", "moebius.affine"),
    ("admgfit.moebius", "DistrictMaps", "factor", "moebius.factor"),
    ("admgfit.moebius", "ParamTable", "__init__", "heads.enumerate"),
)

# modules whose ``get_kernels`` hands the kernel tuple to their code
_KERNEL_USERS = ("admgfit._kernels", "admgfit.fitting", "admgfit.inference")


def _nbytes(mat) -> int:
    return int(mat.data.nbytes + mat.indices.nbytes + mat.indptr.nbytes)


def _after_fit(counts, args, res):
    counts["fitting.fit_calls"] += 1
    counts["fitting.cycles"] += res.cycles
    counts["fitting.converged_fits"] += bool(res.converged)
    counts["fitting.projections"] += getattr(res, "projections", 0)


def _after_ascent(counts, args, out):
    counts["kernels.ascent_iters"] += int(out[2])
    counts["kernels.ascent_moved"] += bool(out[3])


def _after_maps(counts, args, out):
    dm = args[0]
    counts["moebius.M_nnz"] += dm.M.nnz
    counts["moebius.terms"] += dm.M.shape[1]
    counts["moebius.bytes_computed"] += _nbytes(dm.M) + _nbytes(dm.P)


def _after_table(counts, args, out):
    counts["heads.params"] += len(args[0].params)


def _after_neighbors(counts, args, out):
    counts["select.neighbors_scored"] += len(out)


_AFTER = {
    "fitting.fit": _after_fit,
    "kernels.ascent": _after_ascent,
    "moebius.maps": _after_maps,
    "heads.enumerate": _after_table,
    "select.neighbors": _after_neighbors,
}


class Tracer:
    """In-memory spans and counters, grouped by benchmark operation.

    ``begin_op`` starts a new operation; ``call`` runs a function inside
    a span; ``install`` patches the package so its inner layers record
    spans too.  Single threaded: the span stack is shared state.
    """

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.op_counts: list[defaultdict] = []
        self.current_op = -1
        self._saved: list[tuple] = []
        self._kernel_shims: dict = {}

    def begin_op(self) -> int:
        self.current_op += 1
        self.op_counts.append(defaultdict(float))
        return self.current_op

    def _nid(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span named ``name``."""
        return self.wrap(name, fn)(*args, **kwargs)

    def wrap(self, name: str, fn):
        nid = self._nid(name)
        after = _AFTER.get(name)

        def shim(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.op.append(self.current_op)
            self.end.append(0.0)
            self._stack.append(idx)
            self.start.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end[idx] = perf_counter()
                self._stack.pop()
            if after is not None:
                after(self.op_counts[self.current_op], args, out)
            return out

        return shim

    # -- patching ------------------------------------------------------

    def _patch(self, owner, attr, new):
        self._saved.append((owner, attr, _own(owner, attr)))
        setattr(owner, attr, new)

    def _traced_get_kernels(self, orig):
        kernels_mod = importlib.import_module("admgfit._kernels")

        def get_kernels(name=None):
            k = orig(name)
            shim = self._kernel_shims.get(k.name)
            if shim is None:
                shim = self._kernel_shims[k.name] = kernels_mod.Kernels(
                    k.name,
                    self.wrap("kernels.term_products", k.term_products),
                    self.wrap("kernels.ascent", k.ascent),
                )
            return shim

        return get_kernels

    def install(self) -> None:
        """Patch every shim point; raise if the package lacks one."""
        for mod_name, attr, span in _FUNCTION_SHIMS:
            mod = importlib.import_module(mod_name)
            self._patch(mod, attr, self.wrap(span, _own(mod, attr)))
        for mod_name, cls_name, attr, span in _METHOD_SHIMS:
            cls = _own(importlib.import_module(mod_name), cls_name)
            self._patch(cls, attr, self.wrap(span, _own(cls, attr)))
        traced = self._traced_get_kernels(_own(importlib.import_module("admgfit._kernels"),
                                               "get_kernels"))
        for mod_name in _KERNEL_USERS:
            self._patch(importlib.import_module(mod_name), "get_kernels", traced)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    # -- summaries -----------------------------------------------------

    def summary(self) -> tuple[dict, dict]:
        """Self time and span count per (operation, span name)."""
        start = np.frombuffer(self.start, dtype=float)
        dur = np.frombuffer(self.end, dtype=float) - start
        parent = np.frombuffer(self.parent, dtype=np.int32)
        children = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(children, parent[has_parent], dur[has_parent])
        ops = np.frombuffer(self.op, dtype=np.int32).astype(np.int64)
        keys = ops * len(self.names) + np.frombuffer(self.name_id, dtype=np.int32)
        uniq, inv, cnt = np.unique(keys, return_inverse=True, return_counts=True)
        own = np.bincount(inv, weights=dur - children)
        self_s, spans = {}, {}
        for key, s, c in zip(uniq.tolist(), own.tolist(), cnt.tolist()):
            op, nid = divmod(key, len(self.names))
            self_s[(op, self.names[nid])] = s
            spans[(op, self.names[nid])] = c
        return self_s, spans

    def write(self, path) -> None:
        """All spans as tab separated lines: op, index, parent, name,
        start, end (seconds on the perf_counter clock)."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("op\tspan\tparent\tname\tstart\tend\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{self.op[i]}\t{i}\t{self.parent[i]}\t"
                    f"{self.names[self.name_id[i]]}\t"
                    f"{self.start[i]:.9f}\t{self.end[i]:.9f}\n"
                )


def _own(owner, attr):
    """``owner``'s own attribute ``attr``; a missing shim point raises."""
    try:
        return owner.__dict__[attr]
    except KeyError:
        raise AttributeError(f"shim point {owner.__name__}.{attr} is missing; "
                             f"update the shim tables in bench/tracing.py") from None
