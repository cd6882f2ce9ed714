"""Repeat the benchmark over seeds, or compare two source trees.

Spread of one tree, as the acceptance check computes it (interquartile
range over median of each end-to-end metric across seeds):

    python3 bench/compare.py spread --seeds 1-10
    python3 bench/compare.py spread --seeds 1-10 --out bench/baseline.json

``--out`` merges the medians, quartiles and spreads into a JSON file,
and for select_g1 the final BIC of every input, which later runs check
as recorded references.  With ``--trace 1`` the per-layer metrics are
summarised instead, and each run prints the counts that must repeat
exactly.  Every run measures for BENCHMARK.json's ``run_seconds``.

Parent against change, with this checkout's benchmark code for both:

    python3 bench/compare.py pairs --parent ../parent --change . \\
        --pairs 10 --heldout-seed 9001

Pairs use seeds 101, 102, ... and alternate which side runs first.  A
workload on which the change fails more operations than the parent,
pairs and held-out run together, is reported as failed.  Otherwise
each metric gets both medians and quartiles, the change's win count,
and a verdict:
``improved`` when the change wins at least 9 of 10 pairs and the
medians differ by more than the parent's interquartile range;
``regressed`` when the change's median is worse by more than the
metric's bound; ``unresolved`` when the parent's own spread exceeds
the bound and not every change run beats every parent run;
``unchanged`` otherwise.  The held-out seed runs one more pair that
played no part in the verdicts.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
RUN_SECONDS = BENCHMARK["run_seconds"]
TIMEOUT_S = 900
FIRST_PAIR_SEED = 101
# per-layer counts that repeat exactly for a seed, printed per traced run
REPEATING = ("fitting.cycles", "kernels.ascent_calls", "moebius.M_nnz", "select.evaluated")


def seed_list(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def run_once(workload, seed, trace, src=None) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(RUN_SECONDS), "--trace", str(trace)]
    if src:
        cmd += ["--src", str(Path(src).resolve() / "src")]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        print("\n".join(lines[:-1]), file=sys.stderr)
    return result


def spread(values):
    """(q1, median, q3, (q3 - q1) / median) as the acceptance check uses them."""
    med = statistics.median(values)
    if len(values) < 2:
        return values[0], med, values[0], 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3, (q3 - q1) / med if med else float("inf")


def cmd_spread(args) -> int:
    section = "per_layer" if args.trace else "end_to_end"
    spec = {m["name"]: m for m in BENCHMARK[section]}
    workloads = args.workloads.split(",") if args.workloads else [
        w["name"] for w in BENCHMARK["workloads"]]
    shown = [k for k in spec if not args.trace or k in REPEATING + ("trace.overhead_ratio",)]
    values = {w: {name: [] for name in spec} for w in workloads}
    fails = dict.fromkeys(workloads, 0)
    # seeds outer, so a slow spell of the machine spreads over workloads
    for seed in seed_list(args.seeds):
        for w in workloads:
            res = run_once(w, seed, args.trace)
            fails[w] += res["failed"] + (not res["correct"])
            for name in spec:
                values[w][name].append(res["metrics"][name]["value"])
            print(f"{w} seed {seed}: " + " ".join(
                f"{k}={res['metrics'][k]['value']:.6g}" for k in shown), flush=True)
    summary = {}
    bad = 0
    for w in workloads:
        summary[w] = {}
        for name, vals in values[w].items():
            q1, med, q3, s = spread(vals)
            bound = spec[name].get("bound")
            summary[w][name] = {"median": med, "q1": q1, "q3": q3, "n": len(vals),
                                "spread": s if s != float("inf") else None}
            flag = ""
            if bound is not None and s > bound / 3:
                flag = "  SPREAD ABOVE BOUND/3" if s <= bound else "  SPREAD ABOVE BOUND"
                bad += s > bound
            if name in shown:
                print(f"  {w:<11} {name:<16} median {med:.6g} q1 {q1:.6g} q3 {q3:.6g} "
                      f"spread {s:.4f}" + (f" bound {bound}" if bound else "") + flag)
        if fails[w]:
            print(f"  {w}: {fails[w]} failed operations or incorrect runs")
            bad += 1
    if args.out:
        path = Path(args.out)
        data = json.loads(path.read_text()) if path.exists() else {}
        for w, metrics in summary.items():
            data.setdefault("workloads", {}).setdefault(w, {})[section] = {
                "seeds": args.seeds, "run_seconds": RUN_SECONDS, "metrics": metrics}
        for seed in seed_list(args.seeds):
            for w in workloads:
                detail = json.loads((ROOT / ".bench_work" / w
                                     / f"result-s{seed}-t{args.trace}.json").read_text())
                data["env"] = detail["env"]
                if detail["references"]:
                    data.setdefault("references", {}).setdefault(w, {}).update(
                        detail["references"])
        path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    return 1 if bad else 0


def verdict(parent, change, better, bound):
    p_q1, p_med, p_q3, _ = spread(parent)
    c_med = statistics.median(change)
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    worse_share = sign * (c_med - p_med) / p_med if p_med else 0.0
    all_better = all(sign * (c - p) < 0 for c in change for p in parent)
    if wins >= 0.9 * len(parent) and sign * (c_med - p_med) < 0 and abs(c_med - p_med) > p_q3 - p_q1:
        return wins, "improved"
    if worse_share > bound:
        return wins, "regressed"
    if (p_q3 - p_q1) / p_med > bound and not all_better:
        return wins, "unresolved"
    return wins, "unchanged"


def cmd_pairs(args) -> int:
    spec = {m["name"]: m for m in BENCHMARK["end_to_end"]}
    workloads = args.workloads.split(",") if args.workloads else [
        w["name"] for w in BENCHMARK["workloads"]]
    bad = 0
    for w in workloads:
        runs = {"parent": [], "change": []}
        seeds = [FIRST_PAIR_SEED + i for i in range(args.pairs)]
        for i, seed in enumerate(seeds):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                runs[side].append(run_once(w, seed, 0, getattr(args, side)))
        held = {side: run_once(w, args.heldout_seed, 0, getattr(args, side))
                for side in ("change", "parent")}
        print(f"\n{w}: {args.pairs} pairs, seeds {seeds[0]}-{seeds[-1]}, "
              f"held-out seed {args.heldout_seed}")
        failed = {}
        for side in ("parent", "change"):
            every = runs[side] + [held[side]]
            att = sum(r["attempted"] for r in every)
            failed[side] = sum(r["failed"] for r in every)
            print(f"  {side}: {failed[side]} of {att} operations failed")
        if failed["change"] > failed["parent"]:
            print(f"  {w}: FAILED, the change fails more operations than the parent")
            bad += 1
            continue
        for name, m in spec.items():
            p = [r["metrics"][name]["value"] for r in runs["parent"]]
            c = [r["metrics"][name]["value"] for r in runs["change"]]
            wins, v = verdict(p, c, m["better"], m["bound"])
            bad += v == "regressed"
            pq1, pmed, pq3, _ = spread(p)
            cq1, cmed, cq3, _ = spread(c)
            hp = held["parent"]["metrics"][name]["value"]
            hc = held["change"]["metrics"][name]["value"]
            print(f"  {name:<12} parent {pmed:.6g} [{pq1:.6g}, {pq3:.6g}]  "
                  f"change {cmed:.6g} [{cq1:.6g}, {cq3:.6g}]  "
                  f"wins {wins}/{len(p)}  {v}  held-out {hp:.6g} -> {hc:.6g} {m['unit']}")
    return 1 if bad else 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="cmd", required=True)
    s = sub.add_parser("spread", help="one tree over several seeds")
    s.add_argument("--workloads", default="")
    s.add_argument("--seeds", default="1-10")
    s.add_argument("--trace", type=int, choices=(0, 1), default=0)
    s.add_argument("--out", default="", help="merge the summary into this JSON file")
    s.set_defaults(func=cmd_spread)
    c = sub.add_parser("pairs", help="parent against change in alternating pairs")
    c.add_argument("--parent", required=True, help="checkout of the parent commit")
    c.add_argument("--change", required=True, help="checkout of the change")
    c.add_argument("--workloads", default="")
    c.add_argument("--pairs", type=int, default=10)
    c.add_argument("--heldout-seed", type=int, default=9001)
    c.set_defaults(func=cmd_pairs)
    args = p.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
