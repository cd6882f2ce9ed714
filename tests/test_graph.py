"""Graph construction, relations, districts and m-separation."""

import numpy as np
import pytest

from admgfit.graph import Admg, GraphError, format_graph, parse_graph

from util import graph_one, msep_brute, random_admg


def test_vertex_and_edge_validation():
    with pytest.raises(GraphError):
        Admg(["a", "a"])
    with pytest.raises(GraphError):
        Admg(["a", "b"], directed=[("a", "a")])
    with pytest.raises(GraphError):
        Admg(["a", "b"], bidirected=[("b", "b")])
    with pytest.raises(GraphError):
        Admg(["a", "b"], directed=[("a", "c")])
    with pytest.raises(GraphError):
        Admg(["a", "b", "c"], directed=[("a", "b"), ("b", "c"), ("c", "a")])


def test_duplicate_edges_rejected():
    with pytest.raises(GraphError):
        Admg(["a", "b"], directed=[("a", "b"), ("a", "b")])
    with pytest.raises(GraphError):
        Admg(["a", "b"], bidirected=[("a", "b"), ("b", "a")])


def test_relations_on_known_graph():
    g = graph_one()
    assert g.parents("2") == ("1",)
    assert g.children("2") == ("4",)
    assert set(g.spouses("3")) == {"2", "4"}
    assert set(g.ancestors(["4"])) == {"1", "2", "4"}
    assert set(g.descendants(["2"])) == {"2", "4"}
    assert set(g.district("3")) == {"2", "3", "4"}
    assert g.districts() == [("1",), ("2", "3", "4")]


def test_relations_are_reflexive():
    g = graph_one()
    for v in g.vertices:
        assert v in g.ancestors([v])
        assert v in g.descendants([v])
        assert v in g.district(v)


def test_districts_partition_vertices():
    rng = np.random.default_rng(11)
    for _ in range(30):
        g = random_admg(rng)
        seen = [v for d in g.districts() for v in d]
        assert sorted(seen) == sorted(g.vertices)


def test_barren_has_no_internal_descendants():
    rng = np.random.default_rng(12)
    for _ in range(30):
        g = random_admg(rng)
        w = [v for v in g.vertices if rng.random() < 0.7]
        b = set(g.barren(w))
        assert b <= set(w)
        for v in b:
            assert set(g.descendants([v])) & set(w) == {v}


def test_is_ancestral():
    g = graph_one()
    assert g.is_ancestral(["1"])
    assert g.is_ancestral(["1", "2"])
    assert not g.is_ancestral(["2"])
    assert g.is_ancestral(g.vertices)


def test_with_and_without_edge_do_not_mutate():
    g = graph_one()
    g2 = g.with_edge("1", "4", "->")
    assert ("1", "4") in g2.directed_edges
    assert ("1", "4") not in g.directed_edges
    g3 = g2.without_edge("1", "4", "->")
    assert g3 == g
    with pytest.raises(GraphError):
        g.with_edge("4", "1", "->")  # would close a cycle
    with pytest.raises(GraphError):
        g.without_edge("1", "4", "<->")  # not present


def test_equality_ignores_edge_insertion_order():
    a = Admg(["x", "y", "z"], directed=[("x", "y"), ("y", "z")],
             bidirected=[("x", "z")])
    b = Admg(["x", "y", "z"], directed=[("y", "z"), ("x", "y")],
             bidirected=[("z", "x")])
    assert a == b
    assert hash(a) == hash(b)


def test_parse_and_format_round_trip():
    rng = np.random.default_rng(13)
    for _ in range(20):
        g = random_admg(rng)
        assert parse_graph(format_graph(g)) == g


def test_parse_rejects_garbage():
    with pytest.raises(GraphError):
        parse_graph("vertices: a b\na => b\n")
    with pytest.raises(GraphError):
        parse_graph("vertices: a\na -> a\n")


def test_parse_accepts_comments_and_blank_lines():
    g = parse_graph("# a comment\nvertices: a b c\n\na -> b  # trailing\nb <-> c\n")
    assert g.directed_edges == (("a", "b"),)
    assert g.bidirected_edges == (("b", "c"),)


# ---------------------------------------------------------------------------
# m-separation


def test_known_separations():
    g = graph_one()
    assert g.m_separated(["1"], ["3"], [])
    assert not g.m_separated(["1"], ["3"], ["2"])
    assert not g.m_separated(["1"], ["3"], ["4"])


def test_msep_agrees_with_path_enumeration():
    rng = np.random.default_rng(14)
    checked = 0
    for _ in range(60):
        g = random_admg(rng)
        vs = g.vertices
        for _ in range(8):
            perm = list(rng.permutation(len(vs)))
            x, y = vs[perm[0]], vs[perm[1]]
            z = [vs[i] for i in perm[2:] if rng.random() < 0.5]
            assert g.m_separated([x], [y], z) == msep_brute(g, x, y, z)
            checked += 1
    assert checked >= 400


def test_msep_is_symmetric():
    rng = np.random.default_rng(15)
    for _ in range(40):
        g = random_admg(rng)
        vs = g.vertices
        perm = list(rng.permutation(len(vs)))
        x, y = vs[perm[0]], vs[perm[1]]
        z = [vs[i] for i in perm[2:] if rng.random() < 0.4]
        assert g.m_separated([x], [y], z) == g.m_separated([y], [x], z)


def test_msep_set_arguments():
    """Separation of sets holds exactly when it holds pairwise."""
    rng = np.random.default_rng(16)
    for _ in range(25):
        g = random_admg(rng, n_min=4, n_max=6)
        vs = list(g.vertices)
        rng.shuffle(vs)
        x, y, z = vs[:2], vs[2:4], vs[4:]
        pairwise = all(
            g.m_separated([a], [b], z) for a in x for b in y
        )
        assert g.m_separated(x, y, z) == pairwise


def test_dag_msep_matches_moralization():
    """On DAGs, m-separation reduces to d-separation, checked here via
    the moral graph of the relevant ancestral set."""
    rng = np.random.default_rng(17)

    def d_sep_moral(g, x, y, z):
        anc = set(g.ancestors([x, y, *z]))
        und = {v: set() for v in anc}
        for a, b in g.directed_edges:
            if a in anc and b in anc:
                und[a].add(b)
                und[b].add(a)
        for v in anc:
            pa = [p for p in g.parents(v) if p in anc]
            for i, a in enumerate(pa):
                for b in pa[i + 1:]:
                    und[a].add(b)
                    und[b].add(a)
        blocked = set(z)
        if x in blocked or y in blocked:
            return True
        frontier, seen = [x], {x}
        while frontier:
            v = frontier.pop()
            for u in und[v]:
                if u == y:
                    return False
                if u not in seen and u not in blocked:
                    seen.add(u)
                    frontier.append(u)
        return True

    for _ in range(40):
        g = random_admg(rng, p_bi=0.0)
        vs = g.vertices
        perm = list(rng.permutation(len(vs)))
        x, y = vs[perm[0]], vs[perm[1]]
        z = [vs[i] for i in perm[2:] if rng.random() < 0.5]
        assert g.m_separated([x], [y], z) == d_sep_moral(g, x, y, z)


def test_connecting_walk_is_valid_or_absent():
    rng = np.random.default_rng(18)
    for _ in range(50):
        g = random_admg(rng)
        vs = g.vertices
        perm = list(rng.permutation(len(vs)))
        x, y = vs[perm[0]], vs[perm[1]]
        z = [vs[i] for i in perm[2:] if rng.random() < 0.4]
        walk = g.m_connecting_walk(x, y, z)
        if g.m_separated([x], [y], z):
            assert walk is None
            continue
        assert walk is not None and len(walk) >= 1
        dir_set = set(g.directed_edges)
        bi_pairs = {frozenset(p) for p in g.bidirected_edges}
        at = x
        for a, kind, b in walk:
            assert a == at
            if kind == "->":
                assert (a, b) in dir_set
            elif kind == "<-":
                assert (b, a) in dir_set
            else:
                assert kind == "<->" and frozenset((a, b)) in bi_pairs
            at = b
        assert at == y


def test_walk_for_known_collider_activation():
    g = graph_one()
    walk = g.m_connecting_walk("1", "3", ["4"])
    assert walk is not None
    assert walk[0][0] == "1" and walk[-1][-1] == "3"
