"""admgfit benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload fit_large5 --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  The package is imported from
``src/`` (or ``--src``) in this process, with BLAS and OpenMP pinned
to one thread.  Inputs are written under ``.bench_work/``.  A run
performs one untimed warm-up operation, then operations on its input
panel until ``--seconds`` have passed and every panel input has run
once.  Every operation is checked against its reference.

With ``--trace 0`` the result line carries the end-to-end metrics:
each time is the mean over panel inputs of the per-input median.
With ``--trace 1`` every operation runs twice on the same input,
untraced and traced in alternating order; the result line carries the
per-layer metrics of the traced operations and the tracing overhead.
Per-layer counts are means per operation over the first pass through
the panel, so they repeat exactly for a given seed.  All spans are
written to ``.bench_work/`` at the end.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
# must precede the first numpy import
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
BASELINE = HERE / "baseline.json"

# end-to-end timings, each an OpResult field; solve_s is the `fit` call
# on the fit workloads and the `stepwise` call on select_g1
E2E_FIELDS = ("setup_s", "solve_s", "report_s", "total_s")
SOLVE_LABEL = {"fit_large5": "fit_s", "fit_wide14": "fit_s", "select_g1": "search_s"}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description="admgfit benchmark (one run)")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--src", default=str(ROOT / "src"),
                   help="package source tree to benchmark (default: ./src)")
    return p.parse_args(argv)


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def tail_percentile(values):
    """Highest whole percentile with at least ten samples beyond it,
    as (percentile, value), or None when there are ten or fewer."""
    n = len(values)
    pct = math.floor(100 - 1000 / n) if n > 10 else 0
    if pct <= 0:
        return None
    return pct, statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def panel_mean(samples):
    """Mean over panel inputs of each input's median; samples is a list
    of (item, value).  The per-input median drops bursts of machine
    noise; the mean over the panel uses every input."""
    by_item = {}
    for item, v in samples:
        by_item.setdefault(item, []).append(v)
    return statistics.fmean(statistics.median(v) for v in by_item.values())


def environment(api):
    import numpy
    import scipy

    kernel = getattr(api, "backend", None)
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "kernel_backend": kernel() if callable(kernel) else "n/a",
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "machine": platform.machine(),
    }


class Run:
    def __init__(self, workload, inputs, recorded):
        self.workload = workload
        self.inputs = inputs
        self.recorded = recorded
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.records: list[dict] = []
        # (untraced, traced) total_s of the same input, back to back
        self.pairs: list[tuple[float, float]] = []

    def op(self, inp, tracer=None):
        """One checked operation; returns its record, or None if it failed.
        With a tracer, only the operation runs traced, not its check."""
        self.attempted += 1
        # a CLI user runs one operation per process: free the previous
        # operation's cyclic garbage (graph memo, maps) before this one
        gc.collect()
        try:
            res = self.workload.run(inp) if tracer is None else self.traced_run(inp, tracer)
            ok, gap, why = self.workload.check(inp, res, self.recorded)
        except Exception:  # a failing operation is counted, not fatal
            ok, why, res = False, traceback.format_exc(limit=3), None
        if not ok:
            self.failed += 1
            if len(self.failures) < 5:
                self.failures.append(f"input {inp.key}: {why}")
            return None
        rec = {
            "item": inp.item,
            "traced": tracer is not None,
            "setup_s": res.setup_s,
            "solve_s": res.solve_s,
            "report_s": res.report_s,
            "total_s": res.total_s,
            "ll_gap": gap,
            "evaluated": res.evaluated,
            "steps": res.steps,
            "criterion": res.criterion,
            "loglik": res.loglik,
            "key": inp.key,
        }
        if tracer is not None:
            rec["op"] = tracer.current_op
            tracer.op_counts[tracer.current_op]["data.rows_in"] += inp.rows
        self.records.append(rec)
        return rec

    def measure(self, seconds, traced):
        tracer = None
        if traced:
            from tracing import Tracer

            tracer = Tracer()
        self.op(self.inputs[0])  # warm-up: lazy imports, first-call costs
        self.records.clear()
        deadline = perf_counter() + seconds
        k = 0
        while k < len(self.inputs) or perf_counter() < deadline:
            inp = self.inputs[k % len(self.inputs)]
            if tracer is None:
                self.op(inp)
            else:
                pair = {}
                for traced in ((True, False) if k % 2 else (False, True)):
                    pair[traced] = self.op(inp, tracer if traced else None)
                if pair[True]:
                    pair[True]["first_pass"] = k < len(self.inputs)
                if pair[True] and pair[False]:
                    self.pairs.append((pair[False]["total_s"], pair[True]["total_s"]))
            k += 1
        return tracer

    def traced_run(self, inp, tracer):
        tracer.begin_op()
        try:
            tracer.install()
            return tracer.call("op", self.workload.run, inp, tracer)
        finally:
            tracer.uninstall()


def end_to_end(run, workload):
    recs = [r for r in run.records if not r["traced"]]
    metrics, lines = {}, []
    for name in E2E_FIELDS:
        samples = [(r["item"], r[name]) for r in recs]
        value = panel_mean(samples) if samples else 0.0
        metrics[name] = {"value": value, "unit": "s"}
        label = name if name != "solve_s" else f"solve_s ({SOLVE_LABEL[workload.name]})"
        lines.append(_timing_line(label, value, [v for _, v in samples], "s"))
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics["peak_rss_mb"] = {"value": rss, "unit": "MB"}
    lines.append(f"peak_rss_mb      {rss:.1f} MB (this process)")
    if workload.name == "select_g1" and recs:
        fps = panel_mean([(r["item"], r["evaluated"] / r["solve_s"]) for r in recs])
        lines.append(f"fits_per_s       {fps:.3f} 1/s (candidate fits / search_s)")
    gaps = [r["ll_gap"] for r in recs]
    if gaps:
        lines.append(f"ll_gap           median {statistics.median(gaps):.3e} max "
                     f"{max(gaps):.3e} nat (reference - achieved log-likelihood)")
    lines.append(f"fail_rate        {run.failed / run.attempted:.4f} "
                 f"({run.failed} of {run.attempted} operations)")
    want = [m["name"] for m in BENCHMARK["end_to_end"]]
    return {k: metrics[k] for k in want}, lines


def _timing_line(label, value, values, unit):
    if not values:
        return f"{label:<16} no samples"
    q1, med, q3 = quartiles(values)
    tail = tail_percentile(values)
    tail_txt = f"p{tail[0]} {tail[1]:.6f}" if tail else "p- (<=10 samples)"
    return (f"{label:<16} {value:.6f} {unit}; all samples: median {med:.6f} "
            f"q1 {q1:.6f} q3 {q3:.6f} {tail_txt} n={len(values)}")


def per_layer(run, tracer):
    """Per-layer metrics from the traced operations."""
    traced = [r for r in run.records if r["traced"]]
    first = [r for r in traced if r["first_pass"]]
    selft, spans = tracer.summary()
    ops = [r["op"] for r in traced]

    def self_s(span):
        vals = [selft.get((o, span), 0.0) for o in ops]
        return statistics.median(vals) if vals else 0.0

    def per_op(get):
        vals = [get(r) for r in first]
        return sum(vals) / len(vals) if vals else 0.0

    def count(key):
        return per_op(lambda r: tracer.op_counts[r["op"]].get(key, 0.0))

    def calls(span):
        return per_op(lambda r: spans.get((r["op"], span), 0))

    def ratio(num, den):
        return num / den if den else 0.0

    asc_calls = calls("kernels.ascent")
    fits = count("fitting.fit_calls")
    scored = count("select.neighbors_scored")
    evaluated = per_op(lambda r: r["evaluated"])
    overhead = (statistics.median(t / u for u, t in run.pairs) - 1.0) if run.pairs else 0.0
    m = {
        "kernels.ascent_s": (self_s("kernels.ascent"), "s"),
        "kernels.ascent_calls": (asc_calls, "count"),
        "kernels.ascent_iters": (count("kernels.ascent_iters"), "count"),
        "kernels.ascent_moved_ratio": (ratio(count("kernels.ascent_moved"), asc_calls), "ratio"),
        "kernels.term_products_s": (self_s("kernels.term_products"), "s"),
        "kernels.term_products_calls": (calls("kernels.term_products"), "count"),
        "moebius.affine_s": (self_s("moebius.affine"), "s"),
        "moebius.affine_calls": (calls("moebius.affine"), "count"),
        "moebius.factor_s": (self_s("moebius.factor"), "s"),
        "moebius.factor_calls": (calls("moebius.factor"), "count"),
        "moebius.maps_s": (self_s("moebius.maps"), "s"),
        "moebius.maps_built": (calls("moebius.maps"), "count"),
        "moebius.M_nnz": (count("moebius.M_nnz"), "count"),
        "moebius.terms": (count("moebius.terms"), "count"),
        "moebius.bytes_computed": (count("moebius.bytes_computed"), "bytes"),
        "moebius.q_from_p_s": (self_s("moebius.q_from_p"), "s"),
        "moebius.q_from_p_calls": (calls("moebius.q_from_p"), "count"),
        "fitting.fit_s": (self_s("fitting.fit"), "s"),
        "fitting.fit_calls": (fits, "count"),
        "fitting.cycles": (count("fitting.cycles"), "count"),
        "fitting.converged": (ratio(count("fitting.converged_fits"), fits), "ratio"),
        "fitting.projection_useful_ratio": (
            ratio(count("fitting.projections"), calls("moebius.q_from_p")), "ratio"),
        "fitting.ll_gap": (per_op(lambda r: r["ll_gap"]), "nat"),
        "inference.fisher_s": (self_s("inference.fisher"), "s"),
        "inference.se_s": (self_s("inference.se"), "s"),
        "inference.report_s": (self_s("inference.report"), "s"),
        "select.search_s": (self_s("select.search"), "s"),
        "select.evaluated": (evaluated, "count"),
        "select.steps": (per_op(lambda r: r["steps"]), "count"),
        "select.neighbors_scored": (scored, "count"),
        "select.cache_hit_ratio": (ratio(scored - max(evaluated - 1, 0), scored), "ratio"),
        "data.load_s": (self_s("data.load"), "s"),
        "data.counts_s": (self_s("data.counts"), "s"),
        "data.rows_in": (count("data.rows_in"), "count"),
        "graph.parse_s": (self_s("graph.parse"), "s"),
        "heads.enumerate_s": (self_s("heads.enumerate"), "s"),
        "heads.params": (count("heads.params"), "count"),
        "trace.spans": (per_op(lambda r: sum(
            c for (o, _), c in spans.items() if o == r["op"])), "count"),
        "trace.overhead_ratio": (overhead, "ratio"),
    }
    bases = {
        "kernels.ascent_moved_ratio": f"of {asc_calls:g} ascent calls",
        "fitting.converged": f"of {fits:g} fits",
        "fitting.projection_useful_ratio": f"of {calls('moebius.q_from_p'):g} q_from_p calls",
        "select.cache_hit_ratio": f"of {scored:g} scored moves",
        "trace.overhead_ratio": f"median traced/untraced total_s - 1 over "
                                f"{len(run.pairs)} same-input pairs",
    }
    want = [x["name"] for x in BENCHMARK["per_layer"]]
    metrics = {k: {"value": m[k][0], "unit": m[k][1]} for k in want}
    lines = [f"{k:<32} {v['value']:.6g} {v['unit']}"
             + (f" ({bases[k]})" if k in bases else "") for k, v in metrics.items()]
    return metrics, lines


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    src = Path(args.src).resolve()
    sys.path.insert(0, str(src))
    try:
        api = importlib.import_module("admgfit")
    except ImportError as exc:
        print(f"error: cannot import admgfit from {src}: {exc}", file=sys.stderr)
        return 2
    if not Path(api.__file__).resolve().is_relative_to(src):
        print(f"error: admgfit came from {api.__file__}, not from {src}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload](api)
    # inputs are rewritten by every run; results and spans are kept per seed
    workdir = ROOT / ".bench_work" / args.workload
    workdir.mkdir(parents=True, exist_ok=True)
    t0 = perf_counter()
    inputs = workload.inputs(args.seed, workdir)
    make_s = perf_counter() - t0
    recorded = {}
    if BASELINE.exists():
        baseline = json.loads(BASELINE.read_text(encoding="utf-8"))
        recorded = baseline.get("references", {}).get(workload.name, {})

    run = Run(workload, inputs, recorded)
    tracer = run.measure(args.seconds, bool(args.trace))
    env = environment(api)
    print(f"# workload {workload.name} seed {args.seed} trace {args.trace}: "
          f"{len(inputs)} inputs (made in {make_s:.2f} s), {run.attempted} operations "
          f"including 1 warm-up")
    print("# why: " + workload.why)
    print("# env " + json.dumps(env, sort_keys=True))
    if tracer is None:
        metrics, lines = end_to_end(run, workload)
    else:
        metrics, lines = per_layer(run, tracer)
        span_file = workdir / f"spans-s{args.seed}.tsv"
        tracer.write(span_file)
        lines.append(f"spans written to {span_file.relative_to(ROOT)}")
    for line in lines:
        print(line)
    for msg in run.failures:
        print("FAILED " + msg.rstrip().replace("\n", " | "))
    detail = {
        "workload": workload.name, "seed": args.seed, "trace": args.trace,
        "env": env, "metrics": metrics,
        "attempted": run.attempted, "failed": run.failed,
        "references": {r["key"]: r["criterion"] for r in run.records
                       if workload.name == "select_g1"},
    }
    (workdir / f"result-s{args.seed}-t{args.trace}.json").write_text(json.dumps(detail, indent=1))
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
