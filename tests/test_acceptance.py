"""Twelve end-to-end acceptance checks, one PASS or FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -rA`` (or ``-s``) to see
the verdict lines.  Each check states its own tolerance; a check fails
loudly rather than degrading to a weaker claim.
"""

import contextlib
import io
import itertools
import time

import numpy as np

from admgfit.cli import _bench_graph, main
from admgfit.fitting import FitOptions, fit
from admgfit.graph import Admg, format_graph
from admgfit.heads import barren_blocks, head_partition, heads
from admgfit.inference import deviance, dp_dq, fisher_information, standard_errors
from admgfit.moebius import (
    DistrictMaps,
    prob_direct,
    prob_vector,
    q_from_p,
    state_index,
)
from admgfit.select import TIE_TOL, stepwise
from admgfit.data import counts_for, simulate

from util import (
    dag_loglik_closed_form,
    graph_one,
    graph_two,
    independence_trace,
    markov_joint,
    msep_brute,
    partition_brute,
    phi_brute,
    random_admg,
    random_interior_q,
    strong_params_graph_one,
)


def verdict(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_head_tail_table_of_the_four_vertex_graph(tmp_path):
    expected = [
        (("1",), ()),
        (("2",), ("1",)),
        (("3",), ()),
        (("2", "3"), ("1",)),
        (("4",), ("2",)),
        (("3", "4"), ("1", "2")),
    ]
    gpath = tmp_path / "g1.txt"
    gpath.write_text(format_graph(graph_one()))
    t0 = time.perf_counter()
    got = [(ht.head, ht.tail) for ht in heads(graph_one())]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(["info", str(gpath)])
    elapsed = time.perf_counter() - t0
    out = buf.getvalue()
    lines_ok = all(
        f"  {{{','.join(h)}}} | {{{','.join(t)}}}" in out for h, t in expected
    )
    ok = got == expected and lines_ok and code == 0 and elapsed < 1.0
    verdict(1, ok, f"six head/tail pairs reproduced, info ran in {elapsed:.3f}s")


P_GOLD = np.array([
    [0, 0, 0, 0, 0, 0, 0],
    [1, 0, 0, 0, 0, 0, 0],
    [0, 1, 0, 0, 0, 0, 0],
    [0, 0, 1, 0, 0, 0, 0],
    [1, 1, 0, 0, 0, 0, 0],
    [1, 0, 1, 0, 0, 0, 0],
    [0, 0, 0, 1, 0, 0, 0],
    [0, 0, 0, 0, 1, 0, 0],
    [0, 0, 0, 0, 0, 1, 0],
    [0, 0, 0, 0, 0, 0, 1],
    [1, 0, 0, 0, 0, 1, 0],
    [1, 0, 0, 0, 0, 0, 1],
])

M_GOLD_101 = np.array([0, 0, 0, 1, 0, -1, 0, 0, 0, -1, 0, 1])


def test_criterion_02_golden_term_matrices_of_the_three_vertex_graph():
    g = graph_two()
    dm = DistrictMaps(g, g.districts()[0])
    P = dm.P.toarray().astype(int)
    M = dm.M.toarray().astype(int)
    ok = (
        P.shape == (12, 7)
        and (P == P_GOLD).all()
        and (M[state_index((1, 0, 1))] == M_GOLD_101).all()
    )
    verdict(2, ok, "12x7 P matrix and M row for state (1,0,1) match exactly")


def test_criterion_03_factored_probability_identity():
    g = graph_one()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(200):
        q = random_interior_q(g, rng)
        factored = (1 - q[0]) * (q[3] - q[5] - q[11] + q[11] * q[2])
        p = prob_vector(g, q)[state_index((1, 1, 0, 1))]
        worst = max(worst, abs(p - factored))
    ok = worst < 1e-12
    verdict(3, ok, f"200 draws, worst |p - factored| = {worst:.2e} (tol 1e-12)")


def test_criterion_04_probability_map_oracle_equivalence():
    rng = np.random.default_rng(102)
    worst_direct = worst_sum = worst_round = 0.0
    for _ in range(100):
        g = random_admg(rng, n_max=5)
        q = q_from_p(g, markov_joint(g, rng))  # random interior model point
        p = prob_vector(g, q)
        for s in range(1 << len(g.vertices)):
            state = [(s >> (len(g.vertices) - 1 - i)) & 1
                     for i in range(len(g.vertices))]
            worst_direct = max(worst_direct, abs(p[s] - prob_direct(g, q, state)))
        worst_sum = max(worst_sum, abs(p.sum() - 1.0))
        worst_round = max(worst_round, np.max(np.abs(q_from_p(g, p) - q)))
        q_raw = random_interior_q(g, rng)
        p_raw = prob_vector(g, q_raw)
        s = int(rng.integers(1 << len(g.vertices)))
        state = [(s >> (len(g.vertices) - 1 - i)) & 1
                 for i in range(len(g.vertices))]
        worst_direct = max(worst_direct, abs(p_raw[s] - prob_direct(g, q_raw, state)))
        worst_sum = max(worst_sum, abs(p_raw.sum() - 1.0))
    ok = worst_direct < 1e-10 and worst_sum < 1e-12 and worst_round < 1e-10
    verdict(
        4,
        ok,
        f"100 graphs: |vector-direct| {worst_direct:.1e} (1e-10), "
        f"|sum-1| {worst_sum:.1e} (1e-12), round trip {worst_round:.1e} (1e-10)",
    )


TRICKY = [
    Admg(["a", "b", "c"], directed=[("a", "c")], bidirected=[("a", "b")]),
    Admg(["x", "y", "d", "e"], directed=[("x", "e"), ("y", "d")],
         bidirected=[("x", "d"), ("y", "e")]),
    Admg(["x", "d", "e", "w"], directed=[("x", "w")],
         bidirected=[("x", "d"), ("x", "e")]),
    Admg(["v0", "v1", "v2", "v3", "v4"],
         directed=[("v0", "v3"), ("v1", "v4"), ("v4", "v0"), ("v4", "v2")],
         bidirected=[("v1", "v4"), ("v2", "v4"), ("v3", "v4")]),
]


def test_criterion_05_partition_matches_exhaustive_enumeration():
    rng = np.random.default_rng(103)
    graphs = [random_admg(rng, n_max=6) for _ in range(40)] + TRICKY
    checked = 0
    for g in graphs:
        vs = g.vertices
        for r in range(1, len(vs) + 1):
            for w in itertools.combinations(vs, r):
                got_phi = {frozenset(b) for b in barren_blocks(g, w)}
                got_psi = {frozenset(b) for b in head_partition(g, w)}
                assert got_phi == phi_brute(g, w), (g, w)
                assert got_psi == partition_brute(g, w), (g, w)
                checked += 1
    verdict(5, True, f"{checked} subsets across {len(graphs)} graphs agree")


def test_criterion_06_m_separation_against_walk_enumeration():
    g1 = graph_one()
    anchors = (
        g1.m_separated(["1"], ["3"], [])
        and not g1.m_separated(["1"], ["3"], ["2"])
        and not g1.m_separated(["1"], ["3"], ["4"])
    )
    rng = np.random.default_rng(104)
    queries = 0
    for _ in range(100):
        g = random_admg(rng, n_max=6)
        vs = list(g.vertices)
        for _ in range(5):
            rng.shuffle(vs)
            nx = int(rng.integers(1, max(2, len(vs) - 1)))
            x, rest = vs[:nx], vs[nx:]
            if not rest:
                continue
            ny = int(rng.integers(1, len(rest) + 1))
            y, rest = rest[:ny], rest[ny:]
            z = [v for v in rest if rng.random() < 0.5]
            brute = all(msep_brute(g, a, b, z) for a in x for b in y)
            assert g.m_separated(x, y, z) == brute, (g, x, y, z)
            queries += 1
    verdict(6, anchors, f"three anchor statements hold; {queries} random queries agree")


def test_criterion_07_closed_form_likelihood_on_random_dags():
    rng = np.random.default_rng(105)
    t0 = time.perf_counter()
    worst = 0.0
    done = 0
    while done < 50:
        g = random_admg(rng, n_min=2, n_max=6, p_dir=0.4, p_bi=0.0)
        q = random_interior_q(g, rng)
        if prob_vector(g, q).min() < 5e-3:
            continue
        ds = simulate(g, q, 5000, seed=int(rng.integers(1 << 30)))
        counts = counts_for(g, ds)
        if counts.min() == 0:
            continue
        res = fit(g, counts, FitOptions(tol=1e-9))
        worst = max(worst, abs(res.loglik - dag_loglik_closed_form(g, counts)))
        done += 1
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-6 and elapsed < 60.0
    verdict(7, ok, f"50 DAGs, worst loglik gap {worst:.2e} (tol 1e-6), {elapsed:.1f}s")


def test_criterion_08_saturated_and_independence_anchors():
    rng = np.random.default_rng(106)
    sat = Admg(["a", "b", "c"], bidirected=[("a", "b"), ("b", "c"), ("a", "c")])
    counts = rng.integers(3, 60, size=8).astype(float)
    res = fit(sat, counts, FitOptions(tol=1e-12))
    dev, _, _ = deviance(res, counts)

    empty = Admg(["a", "b", "c"])
    res0 = fit(empty, counts)
    marg0 = np.array([
        counts[[s for s in range(8) if not (s >> (2 - k)) & 1]].sum()
        for k in range(3)
    ]) / counts.sum()
    product = np.array([
        np.prod([
            marg0[k] if not (s >> (2 - k)) & 1 else 1 - marg0[k]
            for k in range(3)
        ])
        for s in range(8)
    ])
    gap = np.max(np.abs(res0.p - product))
    ok = 0 <= dev < 1e-8 and gap < 1e-8
    verdict(8, ok, f"saturated deviance {dev:.1e} (1e-8), margin product gap {gap:.1e} (1e-8)")


def test_criterion_09_derivatives_information_and_exact_errors():
    rng = np.random.default_rng(107)
    worst_fd = 0.0
    psd = True
    for _ in range(20):
        g = random_admg(rng, n_max=5)
        q = random_interior_q(g, rng)
        J = dp_dq(g, q)
        F = np.empty_like(J)
        h = 1e-6
        for j in range(len(q)):
            up, dn = q.copy(), q.copy()
            up[j] += h
            dn[j] -= h
            F[:, j] = (prob_vector(g, up) - prob_vector(g, dn)) / (2 * h)
        worst_fd = max(worst_fd, np.max(np.abs(J - F)) / max(1.0, np.abs(F).max()))
        I = fisher_information(g, q)
        eig = np.linalg.eigvalsh(I)
        psd = psd and np.array_equal(I, I.T) and eig.min() > -1e-8 * max(1.0, eig.max())
    single = Admg(["a"])
    worst_se = max(
        abs(standard_errors(single, np.array([qv]), n)[0] - np.sqrt(qv * (1 - qv) / n))
        for qv in (0.2, 0.5, 0.73)
        for n in (10.0, 1000.0)
    )
    ok = worst_fd <= 1e-5 and psd and worst_se < 1e-13
    verdict(
        9,
        ok,
        f"FD rel err {worst_fd:.1e} (1e-5), Fisher symmetric PSD, "
        f"single-vertex SE gap {worst_se:.1e}",
    )


def test_criterion_10_degrees_of_freedom_arithmetic():
    rng = np.random.default_rng(108)
    dfs = []
    for sizes in [(0, 0, 0, 1, 1, 2, 3), (0, 0, 0, 2, 2, 3, 5)]:
        names = [f"v{k}" for k in range(7)]
        directed = [
            (names[j], names[k]) for k, m in enumerate(sizes) for j in range(m)
        ]
        g = Admg(names, directed=directed)
        counts = rng.integers(1, 25, size=128).astype(float)
        res = fit(g, counts, FitOptions(tol=1e-6))
        _, df, _ = deviance(res, counts)
        dfs.append((res.n_params, df))

    ds = simulate(graph_one(), strong_params_graph_one(), 2000, seed=11)
    search = stepwise(counts_for(graph_one(), ds), Admg(["1", "2", "3", "4"]))
    values = [search.start_value] + [s.criterion for s in search.steps]
    monotone = all(b < a for a, b in zip(values, values[1:]))

    ok = dfs == [(19, 108), (51, 76)] and monotone
    verdict(
        10,
        ok,
        "19 params give df 108 and 51 params give df 76; transcript strictly "
        "decreasing; no external reference dataset is bundled, so "
        "dataset-specific deviance targets are not checked",
    )


def test_criterion_11_structure_recovery_from_simulated_data():
    g1 = graph_one()
    q = strong_params_graph_one()
    target = independence_trace(g1)
    hits = 0
    monotone = 0
    runs = 20
    for seed in range(runs):
        ds = simulate(g1, q, 100000, seed=seed)
        res = stepwise(counts_for(g1, ds), Admg(["1", "2", "3", "4"]))
        values = [res.start_value] + [s.criterion for s in res.steps]
        if all(b < a - TIE_TOL for a, b in zip(values, values[1:])):
            monotone += 1
        if independence_trace(res.graph) == target:
            hits += 1
    ok = hits >= 0.6 * runs and monotone == runs
    verdict(
        11,
        ok,
        f"independence-equivalent recovery {hits}/{runs} (need 12), "
        f"strictly decreasing transcripts {monotone}/{runs}",
    )


def test_criterion_12_district_size_drives_fit_time():
    rng = np.random.default_rng(109)
    opts = FitOptions(max_cycles=25, tol=1e-8)
    times = {}
    for family in ("fixed", "large"):
        g = _bench_graph(family, 7)
        counts = rng.integers(1, 50, size=1 << len(g.vertices)).astype(float)
        fit(g, counts, opts)  # warm up kernels and cached maps
        # best of five back-to-back fits, as ``admgfit bench --reps``
        # times them: one sub-millisecond timing is at the mercy of
        # other load on the machine
        best = np.inf
        for _ in range(5):
            t0 = time.perf_counter()
            fit(g, counts, opts)
            best = min(best, time.perf_counter() - t0)
        times[family] = best
    ratio = times["large"] / times["fixed"]
    ok = times["large"] >= 5.0 * times["fixed"]
    verdict(
        12,
        ok,
        f"k=7 equal cycle budget: fixed {times['fixed']*1e3:.1f}ms, "
        f"large {times['large']*1e3:.1f}ms, ratio {ratio:.1f}x (need 5x)",
    )
