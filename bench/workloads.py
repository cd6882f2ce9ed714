"""The benchmark's three workloads: inputs, one operation, and its gate.

Every workload writes its graph and data files under the work
directory and drives the package only through its public library
calls, in the order ``admgfit fit`` and ``admgfit select`` use them:
set-up (graph, data, counts, parametrization), then ``fit`` or
``stepwise``, then ``report`` with standard errors.  One operation is
that whole command path on one input.

Each workload has a panel of inputs that a run cycles through.
``fit_large5`` keeps one fixed panel of count tables for every seed:
its fit time follows its cycle count, which ranges from 80 to 530
between uniform tables, so a panel drawn per seed would move the
medians by more than any useful bound.  The seed only shuffles its
panel order and file rows.  The other two workloads draw their panel
from the seed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

# an accepted search step must lower the criterion by more than this
TIE_TOL = 1e-6
# |reference - achieved| BIC allowed for select_g1
BIC_TOL = 1e-4


@dataclass
class Input:
    item: int
    key: str  # names the input in recorded references
    data_path: Path
    rows: int
    graph_path: Path | None = None
    reference: dict = field(default_factory=dict)


@dataclass
class OpResult:
    setup_s: float
    solve_s: float
    report_s: float
    total_s: float
    loglik: float
    converged: bool
    evaluated: int = 0
    steps: int = 0
    criterion: float = float("nan")
    graph: object = None
    transcript: tuple = ()


def _call(tracer, name, fn, *args, **kwargs):
    if tracer is None:
        return fn(*args, **kwargs)
    return tracer.call(name, fn, *args, **kwargs)


def _write_rows(path: Path, header: list[str], lines) -> None:
    path.write_text(",".join(header) + "\n" + "\n".join(lines) + "\n", encoding="utf-8")


def _bits(cells: np.ndarray, n: int) -> np.ndarray:
    """0/1 rows of cell indices, first vertex most significant."""
    return (cells[:, None] >> np.arange(n - 1, -1, -1)) & 1


def _write_counts(path: Path, names: list[str], counts: np.ndarray, rng) -> None:
    """One row per cell with a count column, rows in shuffled order."""
    n = len(names)
    order = rng.permutation(len(counts))
    bits = _bits(order, n)
    lines = [
        ",".join(map(str, row)) + f",{int(c)}" for row, c in zip(bits.tolist(), counts[order])
    ]
    _write_rows(path, names + ["count"], lines)


def _write_graph(path: Path, names, directed=(), bidirected=()) -> None:
    lines = ["vertices: " + " ".join(names)]
    lines += [f"{a} -> {b}" for a, b in directed]
    lines += [f"{a} <-> {b}" for a, b in bidirected]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _marginal_xlogx(table: np.ndarray, keep: tuple[int, ...]) -> float:
    """sum of m log m over the cells of the marginal table on ``keep``."""
    drop = tuple(a for a in range(table.ndim) if a not in keep)
    m = table.sum(axis=drop).ravel()
    m = m[m > 0]
    return float(m @ np.log(m))


def dag_loglik(counts: np.ndarray, n: int, parents: dict[int, tuple[int, ...]]) -> float:
    """Maximized log-likelihood of a DAG model over binary vertices
    0..n-1, in closed form from marginal tables: the sum over vertices
    of n(x_v, x_pa) log n(x_v, x_pa) / n(x_pa)."""
    table = np.asarray(counts, dtype=float).reshape((2,) * n)
    total = 0.0
    for v, pa in parents.items():
        total += _marginal_xlogx(table, (v,) + pa)
        total -= _marginal_xlogx(table, pa) if pa else table.sum() * np.log(table.sum())
    return total


def independence_model(g) -> frozenset:
    """Every m-separation between two vertices given a subset of the
    rest; graphs with equal sets impose the same pairwise
    independences."""
    out = set()
    vs = list(g.vertices)
    for x, y in itertools.combinations(vs, 2):
        rest = [v for v in vs if v not in (x, y)]
        for r in range(len(rest) + 1):
            for z in itertools.combinations(rest, r):
                if g.m_separated([x], [y], list(z)):
                    out.add((x, y, frozenset(z)))
    return frozenset(out)


class Workload:
    """``inputs(seed, workdir)`` writes the panel and returns its
    ``Input``s; ``run(inp, tracer)`` performs one operation;
    ``check(inp, res, recorded)`` returns (passed, ll_gap, reason)."""

    name = ""
    why = ""

    def __init__(self, api):
        self.api = api


class _FitWorkload(Workload):
    """``admgfit fit graph data``: set-up, fit, report with SEs."""

    def run(self, inp, tracer=None):
        a = self.api
        t0 = perf_counter()
        g = _call(tracer, "graph.parse", a.read_graph, inp.graph_path)
        ds = _call(tracer, "data.load", a.load_data, inp.data_path)
        counts = _call(tracer, "data.counts", a.counts_for, g, ds)
        _call(tracer, "moebius.parametrization", a.parametrization, g)
        t1 = perf_counter()
        res = _call(tracer, "fitting.fit", a.fit, g, counts)
        t2 = perf_counter()
        _call(tracer, "inference.report", a.report, res, counts, with_se=True)
        t3 = perf_counter()
        return OpResult(t1 - t0, t2 - t1, t3 - t2, t3 - t0, float(res.loglik), bool(res.converged))

    def check(self, inp, res, recorded):
        gap = inp.reference["loglik"] - res.loglik
        if not res.converged:
            return False, gap, "fit did not converge"
        if abs(gap) > self.ll_tol:
            return False, gap, f"log-likelihood {res.loglik!r} misses reference by {gap:.3g}"
        return True, gap, ""


class FitLarge5(_FitWorkload):
    name = "fit_large5"
    why = (
        "line search: complete bidirected 5-vertex graph, 31 parameters, one "
        "district; a fixed panel of 4 uniform 1..49 tables, 146-224 cycles each"
    )
    TABLES = range(1, 5)
    # at the baseline the fit stops 1e-6 to 2e-6 short of the saturated maximum
    ll_tol = 1e-5

    def inputs(self, seed, workdir):
        names = [f"x{i}" for i in range(1, 6)]
        graph = workdir / "large5.txt"
        _write_graph(graph, names, bidirected=list(itertools.combinations(names, 2)))
        rng = np.random.default_rng([seed, 0])
        out = []
        for item, table in enumerate(rng.permutation(np.array(self.TABLES))):
            counts = np.random.default_rng(int(table)).integers(1, 50, size=32)
            path = workdir / f"large5-{item}.csv"
            _write_counts(path, names, counts, rng)
            c = counts.astype(float)
            sat = float(c @ np.log(c / c.sum()))
            out.append(Input(item, f"table{table}", path, 32, graph, {"loglik": sat}))
        return out


class FitWide14(_FitWorkload):
    name = "fit_wide14"
    why = (
        "state space: 14-vertex chain with 7 two-vertex districts, 16384 cells, "
        "maps rebuilt per operation; 2 cycles, so the line search does little"
    )
    PANEL = 4
    N = 14
    ll_tol = 1e-6

    def inputs(self, seed, workdir):
        n = self.N
        names = [f"x{i}" for i in range(1, n + 1)]
        graph = workdir / "wide14.txt"
        _write_graph(
            graph,
            names,
            directed=[(names[i], names[i + 1]) for i in range(n - 1)],
            bidirected=[(names[2 * i], names[2 * i + 1]) for i in range(n // 2)],
        )
        # Each district {a, b} (a -> b, a <-> b) with parent c = a - 1
        # is a saturated p(a, b | c), so the model is the DAG with
        # parents c for a and {c, a} for b, whose maximum is closed form.
        parents = {0: (), 1: (0,)}
        for i in range(1, n // 2):
            a, b = 2 * i, 2 * i + 1
            parents[a] = (a - 1,)
            parents[b] = (a - 1, a)
        out = []
        for item in range(self.PANEL):
            rng = np.random.default_rng([seed, item])
            counts = rng.integers(1, 50, size=1 << n)
            path = workdir / f"wide14-{item}.csv"
            _write_counts(path, names, counts, rng)
            ref = dag_loglik(counts, n, parents)
            out.append(Input(item, f"{seed}:{item}", path, 1 << n, graph, {"loglik": ref}))
        return out


class SelectG1(Workload):
    """``admgfit select data``: BIC stepwise from the empty graph."""

    name = "select_g1"
    why = (
        "structure search: BIC stepwise on 100000 raw rows from graph_one, "
        "81 warm-started candidate fits and a map build per candidate"
    )
    PANEL = 4
    ROWS = 100_000
    NAMES = ["1", "2", "3", "4"]

    def __init__(self, api):
        super().__init__(api)
        self.target = independence_model(self.graph_one())

    def graph_one(self):
        """1 -> 2 -> 4 with 2 <-> 3 <-> 4."""
        return self.api.Admg(
            self.NAMES, directed=[("1", "2"), ("2", "4")], bidirected=[("2", "3"), ("3", "4")]
        )

    def true_params(self, g) -> np.ndarray:
        """Interior parameters with clearly separated effects."""
        table = self.api.enumerate_params(g)
        lam, d12, d24 = 0.35, 0.25, 0.15
        qs = {"q[1]": 0.5, "q[3]": 0.5}
        for i in (0, 1):
            qs[f"q[2|1={i}]"] = 0.5 + d12 * (1 - 2 * i)
            qs[f"q[4|2={i}]"] = 0.5 + d24 * (1 - 2 * i)
        for i in (0, 1):
            q2 = qs[f"q[2|1={i}]"]
            base, top = q2 * qs["q[3]"], min(q2, qs["q[3]"])
            qs[f"q[2,3|1={i}]"] = base + lam * (top - base)
        for i1, i2 in itertools.product((0, 1), (0, 1)):
            q4 = qs[f"q[4|2={i2}]"]
            base, top = qs["q[3]"] * q4, min(qs["q[3]"], q4)
            qs[f"q[3,4|1,2={i1}{i2}]"] = base + lam * (top - base)
        return np.array([qs[p.name] for p in table.params])

    def inputs(self, seed, workdir):
        g1 = self.graph_one()
        p = np.clip(self.api.prob_vector(g1, self.true_params(g1)), 0.0, None)
        p /= p.sum()
        row_text = np.array([",".join(map(str, r)) for r in _bits(np.arange(16), 4).tolist()])
        out = []
        for item in range(self.PANEL):
            rng = np.random.default_rng([seed, item])
            cells = rng.choice(16, size=self.ROWS, p=p)
            path = workdir / f"select-{item}.csv"
            _write_rows(path, self.NAMES, row_text[cells])
            out.append(Input(item, f"{seed}:{item}", path, self.ROWS))
        return out

    def run(self, inp, tracer=None):
        a = self.api
        t0 = perf_counter()
        ds = _call(tracer, "data.load", a.load_data, inp.data_path)
        g0 = a.Admg(ds.names)
        counts = _call(tracer, "data.counts", a.counts_for, g0, ds)
        _call(tracer, "moebius.parametrization", a.parametrization, g0)
        t1 = perf_counter()
        res = _call(tracer, "select.search", a.stepwise, counts, g0, criterion="bic")
        t2 = perf_counter()
        counts_final = _call(tracer, "data.counts", a.counts_for, res.graph, ds)
        t2b = perf_counter()
        _call(tracer, "inference.report", a.report, res.fit, counts_final, with_se=True)
        t3 = perf_counter()
        return OpResult(
            t1 - t0,
            t2 - t1,
            t3 - t2b,
            t3 - t0,
            float(res.fit.loglik),
            bool(res.fit.converged),
            evaluated=int(res.evaluated),
            steps=len(res.steps),
            criterion=float(res.value),
            graph=res.graph,
            transcript=(res.start_value,) + tuple(s.criterion for s in res.steps),
        )

    def _reference(self, inp, g):
        """BIC and log-likelihood of a cold-start tight fit of ``g``."""
        key = ("ref", g.vertices, g.directed_edges, g.bidirected_edges)
        if key not in inp.reference:
            a = self.api
            counts = a.counts_for(g, a.load_data(inp.data_path))
            r = a.fit(g, counts, a.FitOptions(tol=1e-13, max_cycles=100_000))
            inp.reference[key] = (a.information_criteria(r)[0], float(r.loglik))
        return inp.reference[key]

    def check(self, inp, res, recorded):
        bic_ref, ll_ref = self._reference(inp, res.graph)
        gap = ll_ref - res.loglik
        values = res.transcript
        if not all(b < a - TIE_TOL for a, b in zip(values, values[1:])):
            return False, gap, f"transcript not strictly decreasing: {values}"
        if independence_model(res.graph) != self.target:
            return False, gap, "final graph is not independence-equivalent to graph_one"
        if not res.converged:
            return False, gap, "final fit did not converge"
        if abs(res.criterion - bic_ref) > BIC_TOL:
            return False, gap, f"BIC {res.criterion!r} misses tight-fit {bic_ref!r}"
        want = recorded.get(inp.key)
        if want is not None and abs(res.criterion - want) > BIC_TOL:
            return False, gap, f"BIC {res.criterion!r} misses recorded {want!r}"
        return True, gap, ""


WORKLOADS = {w.name: w for w in (FitLarge5, FitWide14, SelectG1)}
