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
    # rebuilt in shuffled edge order, with bidirected pairs flipped, a
    # graph equals and hashes like the original; other graphs stay unequal
    rng = np.random.default_rng(15)
    graphs = [random_admg(rng, n_min=2, n_max=5, p_dir=0.3, p_bi=0.3) for _ in range(60)]
    for g in graphs:
        di = [g.directed_edges[k] for k in rng.permutation(len(g.directed_edges))]
        bi = [e[::-1] if rng.random() < 0.5 else e for e in g.bidirected_edges]
        h = Admg(g.vertices, di, [bi[k] for k in rng.permutation(len(bi))])
        assert h == g and hash(h) == hash(g)
        assert (h.directed_edges, h.bidirected_edges) == (g.directed_edges, g.bidirected_edges)
    for g in graphs:
        for h in graphs:
            same = (g.vertices, g.directed_edges, g.bidirected_edges) == (
                h.vertices, h.directed_edges, h.bidirected_edges)
            assert (g == h) == same


def test_edges_are_listed_in_canonical_order():
    g = Admg(["c", "a", "b"], directed=[("b", "a"), ("c", "b"), ("c", "a")],
             bidirected=[("b", "c"), ("a", "b")])
    assert g.directed_edges == (("c", "a"), ("c", "b"), ("b", "a"))
    assert g.bidirected_edges == (("c", "b"), ("a", "b"))
    assert repr(g) == "Admg(3 vertices, 3 directed, 2 bidirected)"


def test_edits_refuse_bad_edges():
    g = Admg(["a", "b", "c"], directed=[("a", "b"), ("b", "c")], bidirected=[("a", "c")])
    with pytest.raises(GraphError, match="edge a -> b already present"):
        g.with_edge("a", "b", "->")
    with pytest.raises(GraphError, match="edge c <-> a already present"):
        g.with_edge("c", "a", "<->")
    with pytest.raises(GraphError, match="unknown edge kind '--'"):
        g.with_edge("a", "c", "--")
    with pytest.raises(GraphError, match="unknown edge kind '<-'"):
        g.without_edge("b", "a", "<-")
    for kind in ("->", "<->"):
        with pytest.raises(GraphError, match="self loop at 'b'"):
            g.with_edge("b", "b", kind)
    with pytest.raises(GraphError, match="duplicate directed edge between 'b' and 'a'"):
        g.with_edge("b", "a", "->")
    with pytest.raises(GraphError, match=r"directed cycle through \['a', 'b', 'c'\]"):
        g.with_edge("c", "a", "->")
    with pytest.raises(GraphError, match="no edge a -> c"):
        g.without_edge("a", "c", "->")
    with pytest.raises(GraphError, match="no edge b -> a"):
        g.without_edge("b", "a", "->")
    with pytest.raises(GraphError, match="unknown vertex 'z'"):
        g.with_edge("a", "z", "<->")
    # a refused edit leaves the graph as it was
    assert g == Admg(["a", "b", "c"], directed=[("a", "b"), ("b", "c")], bidirected=[("a", "c")])


def test_edits_match_the_constructor():
    """An edited graph holds the edge masks and closures of the graph
    built from its edges, and undoing the edit gives the original."""
    def same(h, built):
        assert h == built
        assert (h._ch, h._an) == (built._ch, built._an)

    rng = np.random.default_rng(16)
    for _ in range(40):
        g = random_admg(rng, n_min=2, n_max=6, p_dir=0.3, p_bi=0.3)
        vs, d, b = g.vertices, list(g.directed_edges), list(g.bidirected_edges)
        for e in d:
            h = g.without_edge(*e, "->")
            same(h, Admg(vs, [x for x in d if x != e], b))
            same(h.with_edge(*e, "->"), g)
        for e in b:
            h = g.without_edge(*e[::-1], "<->")
            same(h, Admg(vs, d, [x for x in b if x != e]))
            same(h.with_edge(*e, "<->"), g)


def test_construction_and_edits_refuse_an_edge_alike():
    """The constructor and an edit pass each edge through one rule, so
    a bad edge gives one message whichever way it comes."""
    vs, directed, bidirected = ["a", "b", "c"], [("a", "b")], [("b", "c")]
    g = Admg(vs, directed, bidirected)
    cases = [
        (("a", "b", "->"), "edge a -> b already present"),
        (("b", "a", "->"), "duplicate directed edge between 'b' and 'a'"),
        (("b", "c", "<->"), "edge b <-> c already present"),
        (("c", "b", "<->"), "edge c <-> b already present"),
        (("a", "a", "->"), "self loop at 'a'"),
        (("c", "c", "<->"), "self loop at 'c'"),
        (("a", "z", "->"), "unknown vertex 'z'"),
        (("z", "a", "<->"), "unknown vertex 'z'"),
    ]
    for (a, b, kind), message in cases:
        with pytest.raises(GraphError) as built:
            if kind == "->":
                Admg(vs, directed + [(a, b)], bidirected)
            else:
                Admg(vs, directed, bidirected + [(a, b)])
        with pytest.raises(GraphError) as edited:
            g.with_edge(a, b, kind)
        assert str(built.value) == str(edited.value) == message


def test_parse_refuses_a_repeated_edge_as_an_edit_does():
    with pytest.raises(GraphError, match="^edge a -> b already present$"):
        parse_graph("a -> b\nb <-> c\na -> b\n")
    with pytest.raises(GraphError, match="^edge b <-> a already present$"):
        parse_graph("a <-> b\nb <-> a\n")


def test_descendants_are_the_vertices_with_an_ancestor_in_the_set():
    rng = np.random.default_rng(60)
    for _ in range(60):
        g = random_admg(rng, n_min=2, n_max=8, p_dir=0.35, p_bi=0.2)
        for v in g.vertices:
            assert g.descendants(v) == tuple(w for w in g.vertices if v in g.ancestors(w))


def test_parse_and_format_round_trip():
    rng = np.random.default_rng(13)
    for _ in range(20):
        g = random_admg(rng)
        assert parse_graph(format_graph(g)) == g


def test_format_rejects_labels_that_do_not_read_back():
    for label in ("", "a b", "a\tb", "a#b", "a->b", "a<->b", "vertices:", "vertices:x"):
        g = Admg([label, "z"], [("z", label)])
        with pytest.raises(GraphError, match="cannot be written"):
            format_graph(g)
    with pytest.raises(GraphError, match="same label"):
        format_graph(Admg([1, "1"]))
    for label in ("a<", "-", ">b", "<-", "x:y", "Vertices:"):
        g = Admg([label, "z"], [("z", label)], [(label, "z")])
        assert parse_graph(format_graph(g)) == g


def test_parse_rejects_garbage():
    with pytest.raises(GraphError):
        parse_graph("vertices: a b\na => b\n")
    with pytest.raises(GraphError):
        parse_graph("vertices: a\na -> a\n")


def test_parse_rejects_bad_edges_and_empty_text():
    for text in ("vertices: a b\n -> b\n", "a b -> c\n", "a <-> \n"):
        with pytest.raises(GraphError, match="line [12]: bad edge"):
            parse_graph(text)
    for text in ("", "\n# nothing but a comment\n"):
        with pytest.raises(GraphError, match="empty graph description"):
            parse_graph(text)


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


def test_walk_arguments_are_checked():
    g = graph_one()
    for x, y in (([], ["3"]), (["1"], [])):
        with pytest.raises(GraphError, match="x and y must be nonempty"):
            g.m_connecting_walk(x, y)
    for x, y, z in ((["1", "2"], ["2"], []), (["1"], ["3"], ["3"]), (["1"], ["3"], ["1"])):
        with pytest.raises(GraphError, match="pairwise disjoint"):
            g.m_connecting_walk(x, y, z)
