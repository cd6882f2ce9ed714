"""Command line interface.

Subcommands: ``fit`` (maximum likelihood fit of a graph to data),
``select`` (stepwise BIC/AIC search), ``msep`` (m-separation queries),
``info`` (heads, tails, parameters and optionally the sparse model
matrices of a graph), ``simulate`` (draw data from a model) and
``bench`` (fit timing across growing graph families).  Standard
output is UTF-8 whatever the locale's encoding.

Exit codes: 0 on success, 2 for unusable input (bad graph or data,
unparsable arguments) or for ``info --matrices`` without scipy, 3 for
runtime failures (fit divergence, singular information).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time

import numpy as np

from .data import _csv_text, counts_for, load_data, save_data, simulate
from .fitting import FitError, FitOptions, fit
from .graph import Admg, GraphError, format_graph, read_graph
from .heads import heads
from .inference import report
from .moebius import MAX_VERTICES, enumerate_params, parametrization, prob_vector
from .select import stepwise

__all__ = ["main", "build_parser"]


def _fmt_set(vs) -> str:
    return "{" + ",".join(str(v) for v in vs) + "}"


def _add_fit_options(p: argparse.ArgumentParser, tol_default: float = 1e-8) -> None:
    p.add_argument("--tol", type=float, default=tol_default,
                   help=f"convergence tolerance per cycle (default {tol_default:g})")
    p.add_argument("--max-cycles", type=int, default=1000)
    p.add_argument("--allow-zero-counts", action="store_true",
                   help="fit even when some cells have count zero")
    p.add_argument("--starts", type=int, default=1, help="number of random restarts")
    p.add_argument("--seed", type=int, default=None)


def _options(args) -> FitOptions:
    return FitOptions(
        tol=args.tol,
        max_cycles=args.max_cycles,
        allow_zero_counts=args.allow_zero_counts,
        starts=args.starts,
        seed=args.seed,
    )


def _write_json(payload: dict, path: str) -> None:
    if path == "-":
        json.dump(payload, sys.stdout, indent=2)
        sys.stdout.write("\n")
    else:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")


def _print_report(rep) -> None:
    width = max(len(p.name) for p in rep.params)
    print(f"{'parameter':<{width}}  {'estimate':>10}  {'std.error':>10}")
    ses = rep.std_errors
    for k, prm in enumerate(rep.params):
        se = "-" if ses is None else f"{ses[k]:.6f}"
        print(f"{prm.name:<{width}}  {rep.estimates[k]:>10.6f}  {se:>10}")
    print(f"loglik: {rep.loglik:.6f}")
    if rep.df > 0:
        print(f"deviance: {rep.deviance:.4f}  df: {rep.df}  p-value: {rep.p_value:.4f}")
    else:
        print(f"deviance: {rep.deviance:.4f}  df: {rep.df}")
    print(f"bic: {rep.bic:.4f}  aic: {rep.aic:.4f}")
    print(f"n: {rep.n:.0f}  cycles: {rep.cycles}  converged: {'yes' if rep.converged else 'no'}"
          f"  kkt: {rep.kkt:.3g}")
    for note in rep.notes:
        print(f"note: {note}")


def _cmd_fit(args) -> int:
    g = read_graph(args.graph)
    counts = counts_for(g, load_data(args.data))
    opts = _options(args)
    result = fit(g, counts, opts)
    rep = report(result, counts, with_se=not args.no_se)
    print(
        f"graph: {len(g.vertices)} vertices, {len(g.directed_edges)} directed, "
        f"{len(g.bidirected_edges)} bidirected; districts: "
        + " ".join(_fmt_set(d) for d in g.districts())
    )
    _print_report(rep)
    if args.json:
        _write_json(rep.to_dict(), args.json)
    if not result.converged:
        print("error: fit did not converge within the cycle budget", file=sys.stderr)
        return 3
    return 0


def _cmd_select(args) -> int:
    ds = load_data(args.data)
    if args.start:
        g0 = read_graph(args.start)
        if sorted(str(v) for v in g0.vertices) != sorted(ds.names):
            raise GraphError("start graph vertices do not match data columns")
    else:
        g0 = Admg(ds.names)
    format_graph(g0)  # a column the graph text cannot hold fails before the search
    counts = counts_for(g0, ds)
    opts = _options(args)
    res = stepwise(counts, g0, criterion=args.criterion, opts=opts)
    print(f"start: {args.criterion}={res.start_value:.4f}")
    for k, step in enumerate(res.steps, 1):
        print(f"step {k}: {step.describe()}  {args.criterion}={step.criterion:.4f}")
    print(f"evaluated {res.evaluated} candidate fits")
    print(f"district maps: {res.maps_built} built, {res.maps_reused} reused; "
          f"district fits: {res.districts_fitted} run, {res.districts_reused} reused")
    print("final graph:")
    sys.stdout.write(format_graph(res.graph))
    # every graph of the search keeps the start graph's vertex order
    rep = report(res.fit, counts, with_se=not args.no_se)
    _print_report(rep)
    if args.json:
        payload = {
            "schema_version": 1,
            "criterion": res.criterion,
            "start_value": res.start_value,
            "value": res.value,
            "steps": [
                {
                    "action": s.action,
                    "kind": s.kind,
                    "a": str(s.a),
                    "b": str(s.b),
                    "criterion": s.criterion,
                }
                for s in res.steps
            ],
            "evaluated": res.evaluated,
            "maps_built": res.maps_built,
            "maps_reused": res.maps_reused,
            "districts_fitted": res.districts_fitted,
            "districts_reused": res.districts_reused,
            "graph_text": format_graph(res.graph),
            "final": rep.to_dict(),
        }
        _write_json(payload, args.json)
    return 0


def _split_list(s: str) -> list[str]:
    return [v for v in s.split(",") if v]


def _cmd_msep(args) -> int:
    g = read_graph(args.graph)
    x = _split_list(args.x)
    y = _split_list(args.y)
    z = _split_list(args.given) if args.given else []
    walk = g.m_connecting_walk(x, y, z)
    given = _fmt_set(z)
    if walk is None:
        print(f"{_fmt_set(x)} and {_fmt_set(y)} are m-separated given {given}")
    else:
        print(f"{_fmt_set(x)} and {_fmt_set(y)} are m-connected given {given}")
        if args.walk:
            print("walk: " + ", ".join(f"{a} {k} {b}" for a, k, b in walk))
    return 0


def _cmd_info(args) -> int:
    g = read_graph(args.graph)
    print("vertices: " + " ".join(str(v) for v in g.vertices))
    print("directed edges: " + (", ".join(f"{a} -> {b}" for a, b in g.directed_edges) or "none"))
    print("bidirected edges: " + (", ".join(f"{a} <-> {b}" for a, b in g.bidirected_edges) or "none"))
    print("districts: " + " ".join(_fmt_set(d) for d in g.districts()))
    print("heads and tails:")
    for ht in heads(g):
        print(f"  {_fmt_set(ht.head)} | {_fmt_set(ht.tail)}")
    table = enumerate_params(g)
    print(f"parameters: {len(table)}")
    if args.matrices:
        par = parametrization(g)
        for dm in par.maps:
            scope = ", ".join(str(g.vertices[p]) for p in dm.scope)
            print(f"district {_fmt_set(dm.district)}: "
                  f"M is {dm.M.shape[0]}x{dm.M.shape[1]} over states of ({scope}), "
                  f"P is {dm.P.shape[0]}x{dm.P.shape[1]}")
            print("M =")
            print(np.array2string(dm.M.toarray().astype(int), max_line_width=200))
            print("P =")
            print(np.array2string(dm.P.toarray().astype(int), max_line_width=200))
            print("terms:")
            for k, t in enumerate(dm.terms):
                blocks = " ".join(_fmt_set(b) for b in t.blocks) or "-"
                state = "".join(str(b) for b in t.tail_state) or "-"
                print(f"  {k}: C={_fmt_set(t.c)} tail={_fmt_set(t.tail)}={state} blocks: {blocks}")
    return 0


def _load_params(g: Admg, path) -> np.ndarray:
    table = enumerate_params(g)
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    if isinstance(payload, dict) and "values" in payload:
        values = payload["values"]
        if len(values) != len(table):
            raise ValueError(f"expected {len(table)} values, got {len(values)}")
        return np.asarray(values, dtype=float)
    if isinstance(payload, list):
        q = np.full(len(table), np.nan)
        for entry in payload:
            j = table.index(entry["head"], entry.get("tail_state", ()))
            q[j] = float(entry["value"])
        if np.isnan(q).any():
            missing = [p.name for p, v in zip(table.params, q) if np.isnan(v)]
            raise ValueError(f"missing parameters: {', '.join(missing[:5])}")
        return q
    raise ValueError("params file must be a list of entries or {'values': [...]}")


def _random_interior(g: Admg, rng: np.random.Generator) -> np.ndarray:
    """Draw parameters near the uniform distribution (2**-|H| per head)
    with multiplicative jitter, shrinking it until the cell
    probabilities are strictly positive."""
    table = enumerate_params(g)
    base = np.array([2.0 ** -len(p.head) for p in table.params])
    for width in (0.5, 0.3, 0.15, 0.05, 0.01):
        for _ in range(400):
            q = base * np.exp(rng.uniform(-width, width, len(base)))
            if prob_vector(g, q).min() > 1e-8:
                return q
    raise FitError("could not sample an interior parameter vector")


def _cmd_simulate(args) -> int:
    g = read_graph(args.graph)
    rng = np.random.default_rng(args.seed)
    if args.params:
        q = _load_params(g, args.params)
    else:
        q = _random_interior(g, rng)
    ds = simulate(g, q, args.n, seed=args.seed)
    if args.out:
        save_data(ds, args.out)
        print(f"wrote {ds.n} observations ({len(ds.counts)} distinct states) to {args.out}")
    else:
        # stdout is UTF-8 with "\n" line ends (see main): the bytes
        # save_data writes
        sys.stdout.write(_csv_text(ds))
    return 0


def _bench_graph(family: str, k: int) -> Admg:
    names = [f"x{i}" for i in range(1, k + 2)]
    if family == "fixed":
        directed = [(names[i], names[i + 1]) for i in range(k)]
        bidirected = [
            (names[2 * i], names[2 * i + 1]) for i in range((k + 1) // 2)
        ]
        return Admg(names, directed, bidirected)
    if family == "large":
        bidirected = [
            (names[i], names[j])
            for i in range(len(names))
            for j in range(i + 1, len(names))
        ]
        return Admg(names, [], bidirected)
    raise ValueError(f"unknown family {family!r}")


def _cmd_bench(args) -> int:
    if args.k_min < 0:
        raise ValueError(f"--k-min must be at least 0, not {args.k_min}")
    if args.k_max < args.k_min:
        raise ValueError(f"--k-max ({args.k_max}) must be at least --k-min ({args.k_min})")
    if args.k_max > MAX_VERTICES - 1:
        # the graph for k has k + 1 vertices
        raise ValueError(f"--k-max must be at most {MAX_VERTICES - 1}, not {args.k_max}")
    if args.reps < 1:
        raise ValueError(f"--reps must be at least 1, not {args.reps}")
    opts = FitOptions(tol=args.tol, max_cycles=args.max_cycles)
    rng = np.random.default_rng(args.seed)
    rows = []
    print(f"{'family':<6} {'k':>2} {'|V|':>3} {'params':>6} "
          f"{'seconds':>9} {'cycles':>6} conv")
    for k in range(args.k_min, args.k_max + 1):
        g = _bench_graph(args.family, k)
        counts = rng.integers(1, 50, size=1 << len(g.vertices)).astype(float)
        n_params = len(enumerate_params(g))
        fit(g, counts, opts)  # warm up the maps
        best = np.inf
        cycles = 0
        conv = True
        for _ in range(args.reps):
            t0 = time.perf_counter()
            res = fit(g, counts, opts)
            dt = time.perf_counter() - t0
            best = min(best, dt)
            cycles, conv = res.cycles, res.converged
        rows.append(
            {
                "family": args.family,
                "k": k,
                "vertices": len(g.vertices),
                "params": n_params,
                "seconds": best,
                "cycles": cycles,
                "converged": conv,
            }
        )
        print(f"{args.family:<6} {k:>2} {len(g.vertices):>3} {n_params:>6} "
              f"{best:>9.4f} {cycles:>6} {'yes' if conv else 'no'}")
    if args.csv:
        with open(args.csv, "w", encoding="utf-8", newline="") as fh:
            w = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
            w.writeheader()
            w.writerows(rows)
        print(f"wrote {len(rows)} rows to {args.csv}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="admgfit",
        description="Fit acyclic directed mixed graph models to binary data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit", help="maximum likelihood fit of a graph to data")
    p.add_argument("graph", help="graph file")
    p.add_argument("data", help="CSV data file")
    _add_fit_options(p)
    p.add_argument("--no-se", action="store_true", help="skip standard errors")
    p.add_argument("--json", help="write a JSON report here ('-' for stdout)")
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("select", help="stepwise structure search")
    p.add_argument("data", help="CSV data file")
    p.add_argument("--criterion", choices=("bic", "aic"), default="bic")
    p.add_argument("--start", help="starting graph file (default: empty graph)")
    # candidates tied within 1e-6 compare equal, so converge well past that
    _add_fit_options(p, tol_default=1e-10)
    p.add_argument("--no-se", action="store_true")
    p.add_argument("--json", help="write a JSON transcript here")
    p.set_defaults(func=_cmd_select)

    p = sub.add_parser("msep", help="m-separation query")
    p.add_argument("graph")
    p.add_argument("x", help="comma separated vertices")
    p.add_argument("y", help="comma separated vertices")
    p.add_argument("--given", "-z", default="", help="conditioning set")
    p.add_argument("--walk", action="store_true", help="print one connecting walk")
    p.set_defaults(func=_cmd_msep)

    p = sub.add_parser("info", help="heads, tails and parameters of a graph")
    p.add_argument("graph")
    p.add_argument("--matrices", action="store_true",
                   help="print the district M and P matrices and terms")
    p.set_defaults(func=_cmd_info)

    p = sub.add_parser("simulate", help="draw data from a model")
    p.add_argument("graph")
    p.add_argument("n", type=int)
    p.add_argument("--params", help="JSON parameter file (default: random interior)")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", help="output CSV (default: stdout)")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("bench", help="fit timing across graph families")
    p.add_argument("--family", choices=("fixed", "large"), required=True)
    p.add_argument("--k-max", type=int, required=True)
    p.add_argument("--k-min", type=int, default=1)
    p.add_argument("--reps", type=int, default=1)
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--max-cycles", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--csv", help="write timings here")
    p.set_defaults(func=_cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    reconfigure = getattr(sys.stdout, "reconfigure", None)
    if reconfigure is not None:
        reconfigure(encoding="utf-8", newline="\n")
    try:
        return args.func(args)
    except (GraphError, ValueError, KeyError, OSError, json.JSONDecodeError,
            ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (FitError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
