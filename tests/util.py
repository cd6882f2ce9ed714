"""Shared helpers for the test suite.

Everything here is deliberately written from first principles (set
based, exhaustive where feasible) so it can serve as an independent
oracle for the bitmask implementations in the package.
"""

from __future__ import annotations

import itertools

import numpy as np

from admgfit.graph import Admg
from admgfit.moebius import enumerate_params, prob_vector


def subsets(xs):
    xs = list(xs)
    for r in range(len(xs) + 1):
        yield from itertools.combinations(xs, r)


def nonempty_subsets(xs):
    xs = list(xs)
    for r in range(1, len(xs) + 1):
        yield from itertools.combinations(xs, r)


def random_admg(rng, n_min=2, n_max=6, p_dir=0.25, p_bi=0.25):
    """A random ADMG whose directed part follows a random topological
    order, so it is acyclic by construction."""
    nv = int(rng.integers(n_min, n_max + 1))
    names = [f"v{i}" for i in range(nv)]
    order = list(rng.permutation(nv))
    directed = []
    bidirected = []
    for i in range(nv):
        for j in range(i + 1, nv):
            if rng.random() < p_dir:
                directed.append((names[order[i]], names[order[j]]))
            if rng.random() < p_bi:
                bidirected.append((names[order[i]], names[order[j]]))
    return Admg(names, directed, bidirected)


def random_interior_q(g, rng, min_p=1e-8):
    """Rejection sample a parameter vector with all cell probabilities
    strictly positive.

    Draws are centered on the values of the uniform distribution, which
    are 2**-|H| for a head H, with multiplicative jitter that shrinks
    until a feasible vector appears.
    """
    table = enumerate_params(g)
    base = np.array([2.0 ** -len(p.head) for p in table.params])
    for width in (0.5, 0.3, 0.15, 0.05, 0.01):
        for _ in range(400):
            q = base * np.exp(rng.uniform(-width, width, size=len(base)))
            p = prob_vector(g, q)
            if p.min() > min_p:
                return q
    raise RuntimeError("no interior parameter vector found")


# ---------------------------------------------------------------------------
# m-separation oracle: exhaustive simple-path enumeration


def _edges_at(g, v):
    """All edges incident to v as (other, head_at_v, head_at_other)."""
    out = []
    for a, b in g.directed_edges:
        if a == v:
            out.append((b, False, True))
        elif b == v:
            out.append((a, True, False))
    for a, b in g.bidirected_edges:
        if a == v:
            out.append((b, True, True))
        elif b == v:
            out.append((a, True, True))
    return out


def msep_brute(g, x, y, z):
    """m-separation by checking every simple path from x to y.

    A path m-connects given z when every non-collider on it is outside
    z and every collider has a descendant in z (itself included).
    """
    z = set(z)
    an_z = set()
    for w in z:
        an_z |= set(g.ancestors([w]))
    if x == y:
        return False

    # stack entries: (vertex, head_at_vertex_of_last_edge, visited, ok_so_far)
    stack = [(x, None, frozenset([x]))]
    while stack:
        v, head_in, seen = stack.pop()
        for u, head_at_v_out, head_at_u in _edges_at(g, v):
            if u in seen:
                continue
            if head_in is not None:
                collider = head_in and head_at_v_out
                if collider and v not in an_z:
                    continue
                if not collider and v in z:
                    continue
            if u == y:
                return False
            stack.append((u, head_at_u, seen | {u}))
    return True


# ---------------------------------------------------------------------------
# heads, tails, phi and the partition, straight from the definitions


def barren_brute(g, s):
    s = set(s)
    return frozenset(v for v in s if set(g.descendants([v])) & s == {v})


def _districts_within(g, w):
    """Districts of the subgraph induced on w, as frozensets."""
    w = set(w)
    left = set(w)
    out = []
    while left:
        v = left.pop()
        comp = {v}
        frontier = [v]
        while frontier:
            a = frontier.pop()
            for s in g.spouses(a):
                if s in w and s not in comp:
                    comp.add(s)
                    frontier.append(s)
        out.append(frozenset(comp))
        left -= comp
    return out


def is_head_brute(g, h):
    h = frozenset(h)
    if not h or barren_brute(g, h) != h:
        return False
    an_h = set(g.ancestors(h))
    return any(h <= d for d in _districts_within(g, an_h))


def tail_brute(g, h):
    h = frozenset(h)
    an_h = set(g.ancestors(h))
    dis = next(d for d in _districts_within(g, an_h) if h <= d)
    pa = set()
    for v in dis:
        pa |= set(g.parents(v))
    return frozenset((set(dis) | pa) - h)


def heads_brute(g):
    return {h for h in map(frozenset, nonempty_subsets(g.vertices))
            if is_head_brute(g, h)}


def phi_brute(g, w):
    """Heads extracted from w in one round.

    Split w by the districts of the subgraph induced on an(w), shrink
    each piece to the barren part of the piece's own ancestor closure,
    and re-split by the districts of that closure until every piece
    sits inside a single district of the subgraph on its own ancestors.
    The stable pieces are heads; what falls below a piece's barren part
    waits for the next round.
    """
    w = frozenset(w)
    out = set()
    an_w = set(g.ancestors(w))
    pending = [d & w for d in _districts_within(g, an_w) if d & w]
    while pending:
        piece = pending.pop()
        b = barren_brute(g, set(g.ancestors(piece)))
        parts = [b & d for d in _districts_within(g, set(g.ancestors(b)))]
        parts = [x for x in parts if x]
        if len(parts) == 1:
            out.add(b)
        else:
            pending.extend(parts)
    return out


def partition_brute(g, w):
    w = frozenset(w)
    out = set()
    while w:
        blocks = phi_brute(g, w)
        if not blocks:
            raise RuntimeError("partition did not make progress")
        out |= blocks
        w = w - frozenset().union(*blocks)
    return out


# ---------------------------------------------------------------------------
# independence fingerprint of a graph


def markov_joint(g, rng):
    """A distribution satisfying the graph's independences exactly.

    Built from a directed model with one hidden fair coin per
    bidirected edge and random conditional tables on the observed
    vertices, then marginalized over the coins.  The result is strictly
    positive, sums to one, and obeys every m-separation of ``g``, so
    its head conditionals are a valid parameter vector by construction.
    Returns the joint over the canonical state order.
    """
    names = list(g.vertices)
    ix = {v: i for i, v in enumerate(names)}
    n = len(names)
    coins = list(g.bidirected_edges)
    tabs = {}
    for v in names:
        par = tuple(g.parents(v))
        mine = tuple(k for k, e in enumerate(coins) if v in e)
        shape = (2,) * (len(par) + len(mine))
        tabs[v] = (par, mine, rng.uniform(0.2, 0.8, size=shape))
    p = np.zeros((2,) * n)
    for ls in itertools.product((0, 1), repeat=len(coins)):
        cond = np.full((2,) * n, 0.5 ** len(coins))
        for v in names:
            par, mine, tab = tabs[v]
            zero = tab[tuple([slice(None)] * len(par) + [ls[k] for k in mine])]
            f = np.stack([np.asarray(zero), 1.0 - np.asarray(zero)], axis=-1)
            axes = [ix[u] for u in par] + [ix[v]]
            f = np.transpose(f, np.argsort(axes))
            shape = [1] * n
            for a in axes:
                shape[a] = 2
            cond = cond * f.reshape(shape)
        p += cond
    return p.reshape(-1)


def independence_trace(g):
    """Every m-separation statement between two single vertices given
    any subset of the rest.  Two graphs with the same trace imply the
    same pairwise independence constraints."""
    vs = g.vertices
    out = set()
    for x, y in itertools.combinations(vs, 2):
        rest = [v for v in vs if v not in (x, y)]
        for zz in subsets(rest):
            if g.m_separated([x], [y], zz):
                out.add((x, y, frozenset(zz)))
    return out


# ---------------------------------------------------------------------------
# closed-form DAG maximum likelihood


def dag_loglik_closed_form(g, counts):
    """Log likelihood of the conditional-proportion estimates, which
    are the exact MLE when the graph is a DAG.  Cells with zero counts
    add nothing, so zero counts are allowed."""
    counts = np.asarray(counts, dtype=float)
    k = len(g.vertices)
    idx = {v: i for i, v in enumerate(g.vertices)}
    states = np.array(
        [[(s >> (k - 1 - i)) & 1 for i in range(k)] for s in range(1 << k)]
    )
    observed = np.flatnonzero(counts > 0)
    logp = np.zeros(1 << k)
    for v in g.vertices:
        pa = sorted(idx[u] for u in g.parents(v))
        vi = idx[v]
        for s in observed:
            mask = np.ones(1 << k, dtype=bool)
            for p_ in pa:
                mask &= states[:, p_] == states[s, p_]
            den = counts[mask].sum()
            num = counts[mask & (states[:, vi] == states[s, vi])].sum()
            logp[s] += np.log(num / den)
    return float(counts[observed] @ logp[observed])


# ---------------------------------------------------------------------------
# fixed graphs used across the suite


def graph_one():
    """Four vertices: 1 -> 2 -> 4 with 2 <-> 3 <-> 4."""
    return Admg(
        ["1", "2", "3", "4"],
        directed=[("1", "2"), ("2", "4")],
        bidirected=[("2", "3"), ("3", "4")],
    )


def graph_two():
    """Three vertices: 1 -> 2 with 1 <-> 3 and 2 <-> 3."""
    return Admg(
        ["1", "2", "3"],
        directed=[("1", "2")],
        bidirected=[("1", "3"), ("2", "3")],
    )


def strong_params_graph_one():
    """A fixed interior parameter vector for graph_one with clearly
    separated effect sizes, used by the structure-recovery checks."""
    g = graph_one()
    table = enumerate_params(g)
    lam, d12, d24 = 0.35, 0.25, 0.15
    qs = {
        "q[1]": 0.5,
        "q[3]": 0.5,
        "q[2|1=0]": 0.5 + d12,
        "q[2|1=1]": 0.5 - d12,
        "q[4|2=0]": 0.5 + d24,
        "q[4|2=1]": 0.5 - d24,
    }
    for i in (0, 1):
        q2 = qs[f"q[2|1={i}]"]
        base, top = q2 * qs["q[3]"], min(q2, qs["q[3]"])
        qs[f"q[2,3|1={i}]"] = base + lam * (top - base)
    for i1 in (0, 1):
        for i2 in (0, 1):
            q4 = qs[f"q[4|2={i2}]"]
            base, top = qs["q[3]"] * q4, min(qs["q[3]"], q4)
            qs[f"q[3,4|1,2={i1}{i2}]"] = base + lam * (top - base)
    return np.array([qs[p.name] for p in table.params])


def golden_search_inputs():
    """(counts, start, criterion) of the two structure searches whose
    transcripts ``test_select.py`` records: BIC on 20000 draws from
    graph_one, and AIC on 5000 draws from a five-vertex graph."""
    from admgfit.data import counts_for, simulate

    g1 = graph_one()
    ds = simulate(g1, strong_params_graph_one(), 20000, seed=3)
    bic = (counts_for(g1, ds), Admg(["1", "2", "3", "4"]), "bic")
    names = ["a", "b", "c", "d", "e"]
    g5 = Admg(names, directed=[("a", "b"), ("b", "c")],
              bidirected=[("c", "d"), ("d", "e"), ("b", "d")])
    q = random_interior_q(g5, np.random.default_rng(7), min_p=1e-3)
    ds = simulate(g5, q, 5000, seed=11)
    aic = (counts_for(g5, ds), Admg(names, directed=[("a", "c")]), "aic")
    return [bic, aic]


def criterion_11_search_inputs():
    """(counts, start, criterion) of the 20 searches of acceptance
    criterion 11: BIC from the empty graph on 100000 draws from
    graph_one, seeds 0 to 19."""
    from admgfit.data import counts_for, simulate

    g1 = graph_one()
    q = strong_params_graph_one()
    return [(counts_for(g1, simulate(g1, q, 100000, seed=seed)), Admg(["1", "2", "3", "4"]), "bic")
            for seed in range(20)]
