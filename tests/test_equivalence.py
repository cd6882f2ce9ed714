"""Markov equivalence as an oracle that does not read the parametrization.

Two ADMGs with the same m-separations have the same ordinary Markov
model (Richardson 2003; Evans & Richardson 2014), so their fits to one
table reach the same maximum with the same number of parameters,
although their heads, tails and maps differ.  The classes are built
from ``Admg.m_separated`` alone, over the singleton statements
``x _||_ y | z``: m-separation is compositional (``test_graph.py``
checks that), so these fix every statement.  A model's distributions
must satisfy the statements of its graph, and its map from parameters
to probabilities must be of full rank.
"""

import itertools

import numpy as np

from admgfit.fitting import FitOptions, fit
from admgfit.graph import Admg, GraphError
from admgfit.inference import dp_dq
from admgfit.moebius import prob_vector

from util import random_admg, random_interior_q

# the states of a vertex pair (a, b): none, a -> b, b -> a, a <-> b, and
# either directed edge together with a <-> b
PAIR_STATES = ((), ("->",), ("<-",), ("<->",), ("->", "<->"), ("<-", "<->"))


def _graph(names, states):
    """The graph with the given state on each pair of ``names``, pairs
    in lexicographic order, or None when its directed part has a cycle."""
    directed, bidirected = [], []
    for (a, b), state in zip(itertools.combinations(names, 2), states):
        for kind in PAIR_STATES[state]:
            if kind == "->":
                directed.append((a, b))
            elif kind == "<-":
                directed.append((b, a))
            else:
                bidirected.append((a, b))
    try:
        return Admg(names, directed, bidirected)
    except GraphError:
        return None


def _statements(names):
    """Every singleton statement (x, y, z) with x before y and z a set
    of the other vertices."""
    out = []
    for x, y in itertools.combinations(names, 2):
        rest = [v for v in names if v not in (x, y)]
        for k in range(len(rest) + 1):
            out.extend((x, y, z) for z in itertools.combinations(rest, k))
    return out


def _classes(graphs):
    """The graphs grouped by the statements they imply, in first-seen
    order."""
    statements = _statements(graphs[0].vertices)
    classes: dict = {}
    for g in graphs:
        key = tuple(g.m_separated([x], [y], z) for x, y, z in statements)
        classes.setdefault(key, []).append(g)
    return list(classes.values())


def _assert_classes_fit_alike(classes, per_class=4):
    """Up to ``per_class`` graphs of each class, fitted to one table of
    positive counts, reach one log-likelihood with one parameter count."""
    k = len(classes[0][0].vertices)
    counts = np.random.default_rng(0).integers(1, 50, size=1 << k).astype(float)
    opts = FitOptions(tol=1e-10)
    for members in classes:
        fits = [fit(g, counts, opts) for g in members[:per_class]]
        lls = [res.loglik for res in fits]
        assert max(lls) - min(lls) < 1e-9, (members[:per_class], lls)
        assert len({res.n_params for res in fits}) == 1, members[:per_class]


def test_all_three_vertex_admgs_fit_alike_within_their_classes():
    names = ["a", "b", "c"]
    graphs = [g for states in itertools.product(range(6), repeat=3)
              if (g := _graph(names, states)) is not None]
    assert len(graphs) == 200
    classes = _classes(graphs)
    assert len(classes) == 11
    _assert_classes_fit_alike(classes)


def test_sampled_four_vertex_admgs_fit_alike_within_their_classes():
    names = ["a", "b", "c", "d"]
    rng = np.random.default_rng(3000)
    codes = rng.choice(6 ** 6, size=3000, replace=False)
    graphs = []
    for code in codes:
        states = [int(code) // 6 ** k % 6 for k in range(6)]
        g = _graph(names, states)
        if g is not None:
            graphs.append(g)
    classes = _classes(graphs)
    assert sum(len(members) > 1 for members in classes) > 80
    _assert_classes_fit_alike(classes)


def test_model_distributions_satisfy_their_separations_with_full_rank():
    """On random 5-vertex graphs with interior parameters, the joint
    satisfies ``p(x,y,z) p(z) = p(x,z) p(y,z)`` for every singleton
    statement the graph implies, and ``dp_dq`` has full column rank."""
    rng = np.random.default_rng(7)
    names = [f"v{i}" for i in range(5)]
    statements = _statements(names)
    checked = 0
    for _ in range(100):
        g = random_admg(rng, n_min=5, n_max=5, p_dir=0.3, p_bi=0.3)
        assert list(g.vertices) == names
        q = random_interior_q(g, rng)
        joint = prob_vector(g, q).reshape((2,) * 5)
        for x, y, z in statements:
            if not g.m_separated([x], [y], z):
                continue
            xi, yi = names.index(x), names.index(y)
            zi = tuple(names.index(v) for v in z)
            keep = sorted((xi, yi) + zi)
            pxyz = joint.sum(axis=tuple(i for i in range(5) if i not in keep), keepdims=True)
            pxz = pxyz.sum(axis=yi, keepdims=True)
            pyz = pxyz.sum(axis=xi, keepdims=True)
            pz = pxz.sum(axis=xi, keepdims=True)
            assert np.abs(pxyz * pz - pxz * pyz).max() < 1e-12, (g, x, y, z)
            checked += 1
        assert np.linalg.matrix_rank(dp_dq(g, q)) == len(q)
    assert checked > 500
