"""Heads, tails, and the recursive head partition."""

import sys

import numpy as np
import pytest

from admgfit.graph import Admg
from admgfit.heads import _subsets, barren_blocks, head_partition, heads, is_head, tail

from util import (
    graph_one,
    heads_brute,
    is_head_brute,
    nonempty_subsets,
    partition_brute,
    phi_brute,
    random_admg,
    subsets,
    tail_brute,
)


def test_known_head_tail_table():
    """The four-vertex reference graph has exactly six heads, listed
    here with their tails in the library's canonical order."""
    got = [(ht.head, ht.tail) for ht in heads(graph_one())]
    assert got == [
        (("1",), ()),
        (("2",), ("1",)),
        (("3",), ()),
        (("2", "3"), ("1",)),
        (("4",), ("2",)),
        (("3", "4"), ("1", "2")),
    ]


def test_dag_heads_are_singletons_with_parent_tails():
    rng = np.random.default_rng(21)
    for _ in range(20):
        g = random_admg(rng, p_bi=0.0)
        hs = heads(g)
        assert len(hs) == len(g.vertices)
        for ht in hs:
            assert len(ht.head) == 1
            assert set(ht.tail) == set(g.parents(ht.head[0]))


def test_bidirected_heads_are_connected_with_empty_tails():
    rng = np.random.default_rng(22)
    for _ in range(20):
        g = random_admg(rng, p_dir=0.0)
        for ht in heads(g):
            assert ht.tail == ()
            assert any(set(ht.head) <= set(d) for d in g.districts())


def test_heads_and_tails_match_brute_force():
    rng = np.random.default_rng(23)
    for _ in range(40):
        g = random_admg(rng)
        assert {frozenset(ht.head) for ht in heads(g)} == heads_brute(g)
        for ht in heads(g):
            assert frozenset(ht.tail) == tail_brute(g, ht.head)


def test_is_head_matches_brute_force_on_all_subsets():
    rng = np.random.default_rng(24)
    for _ in range(15):
        g = random_admg(rng, n_max=5)
        for s in nonempty_subsets(g.vertices):
            assert is_head(g, s) == is_head_brute(g, s)


def test_tail_requires_a_head():
    g = graph_one()
    with pytest.raises(ValueError):
        tail(g, ("2", "4"))


def test_no_empty_head_and_no_oversized_district():
    """The empty set is no head, and a district too large to enumerate
    is refused before its subsets are walked."""
    assert not is_head(graph_one(), [])
    names = [f"v{i}" for i in range(21)]
    big = Admg(names, bidirected=[(a, b) for i, a in enumerate(names) for b in names[i + 1:]])
    with pytest.raises(ValueError, match="district of size 21 is too large to enumerate"):
        heads(big)


def test_phi_matches_fixed_point_enumeration():
    rng = np.random.default_rng(25)
    for _ in range(15):
        g = random_admg(rng)
        for w in subsets(g.vertices):
            got = {frozenset(b) for b in barren_blocks(g, w)}
            assert got == phi_brute(g, w), (g, w)


def test_partition_matches_brute_force():
    rng = np.random.default_rng(26)
    for _ in range(15):
        g = random_admg(rng)
        for w in subsets(g.vertices):
            got = {frozenset(b) for b in head_partition(g, w)}
            want = partition_brute(g, w) if w else set()
            assert got == want, (g, w)


def test_memoized_partitions_equal_fresh_ones_in_any_order():
    """Partitions of every W asked in a shuffled order on one graph,
    each filling the graph's memo with the sets its rounds leave,
    equal the brute-force partition and the partition on a fresh copy
    of the graph, blocks in the same order."""
    rng = np.random.default_rng(29)
    for _ in range(15):
        g = random_admg(rng, n_min=3, n_max=6, p_dir=0.3, p_bi=0.4)
        ws = list(subsets(g.vertices))
        for k in rng.permutation(len(ws)):
            w = ws[k]
            got = head_partition(g, w)
            fresh = Admg(g.vertices, g.directed_edges, g.bidirected_edges)
            assert got == head_partition(fresh, w), (g, w)
            assert {frozenset(b) for b in got} == (partition_brute(g, w) if w else set())


def test_subsets_run_in_counting_order_first_member_least_significant():
    assert _subsets(()) == [0]
    assert _subsets((3, 0, 5)) == [0, 8, 1, 9, 32, 40, 33, 41]
    assert _subsets(range(4)) == list(range(16))


def test_partition_needing_more_rounds_than_the_recursion_limit():
    """On a bow path v0 -> v1 -> ... with each step also bidirected,
    every extraction round takes only the last vertex left, so the
    partition of all vertices takes one round per vertex; with more
    vertices than the recursion limit it still comes out as the
    singletons."""
    vs = [f"v{i}" for i in range(sys.getrecursionlimit() + 100)]
    steps = list(zip(vs, vs[1:]))
    g = Admg(vs, steps, steps)
    assert head_partition(g, vs) == [(v,) for v in vs]


def test_partition_blocks_are_disjoint_heads_covering_w():
    rng = np.random.default_rng(27)
    for _ in range(30):
        g = random_admg(rng)
        w = [v for v in g.vertices if rng.random() < 0.7]
        blocks = head_partition(g, w)
        flat = [v for b in blocks for v in b]
        assert sorted(flat) == sorted(set(flat))  # disjoint
        assert set(flat) == set(w)  # covers
        for b in blocks:
            assert is_head(g, b)


def test_phi_of_empty_set_is_empty():
    assert barren_blocks(graph_one(), ()) == []
    assert head_partition(graph_one(), ()) == []


def test_partition_of_full_vertex_set_on_known_graph():
    got = {frozenset(b) for b in head_partition(graph_one(), ["1", "2", "3", "4"])}
    assert got == {frozenset("1"), frozenset("2"), frozenset({"3", "4"})}
