"""Heads, tails and the head partition of vertex sets.

A nonempty vertex set H is a *head* when it is barren (no member is a
proper descendant of another) and lies inside a single district of the
subgraph induced on its reflexive ancestor closure.  Its *tail* is the
rest of that district together with the district's parents.

``head_partition`` splits an arbitrary vertex set W into heads by
repeatedly extracting the barren heads sitting at the top of W and
recursing on what remains.  One extraction round splits W by the
districts of the subgraph induced on an(W), shrinks each piece to the
barren part of the piece's own ancestor closure, and re-splits by the
districts of that closure until every piece is stable.  Stability
through the piece's own ancestors matters: a pair of vertices joined
through a bidirected path via their own ancestors forms one head even
when the connecting vertices lie outside W, while vertices whose only
bidirected link runs through unrelated parts of W stay separate.
These partitions drive the inclusion-exclusion expansion of the joint
probabilities in :mod:`admgfit.moebius`.

Each routine is written once, over tables of masks indexed by
position: each vertex's ancestors, bidirected neighbours and parents.

- ``_phi``: one extraction round, the heads at the top of W;
- ``_partition``: the head partition [W] = Phi(W) with [W minus
  Phi(W)], memoized in a dict that the caller holds;
- ``_subsets``: the subsets of a district in counting order, refusing
  more than ``MAX_DISTRICT`` members;
- ``_tail``: the tail of a head;
- ``_is_head_mask``: the head test on the graph's ``_an`` and ``_sp``.

The graph-level functions pass the graph's own tables, so a partition
of an arbitrary W runs over the whole graph, memoized on it.  A
district shape passes the tables of its members in scope-local
positions, ancestors cut to the district: for a subset of a district,
an ancestor outside it is a proper ancestor, never barren, and no
bidirected path between members leaves the district, so the
partitions and tails come out the same.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .graph import Admg, Vertex, _barren, _bits, _component, _union

__all__ = ["HeadTail", "is_head", "tail", "heads", "barren_blocks", "head_partition"]

# districts larger than this make the parametrization astronomically
# big (2^|D| candidate heads); refuse early with a clear error
MAX_DISTRICT = 20


@dataclass(frozen=True)
class HeadTail:
    """A head with its tail, both in canonical vertex order."""

    head: tuple[Vertex, ...]
    tail: tuple[Vertex, ...]


def _subsets(members: Sequence[int]) -> list[int]:
    """Masks of all subsets of the positions ``members`` in binary
    counting order, the first member least significant."""
    if len(members) > MAX_DISTRICT:
        raise ValueError(f"district of size {len(members)} is too large to enumerate")
    out = [0]
    for p in members:
        out += [c | 1 << p for c in out]
    return out


def _is_head_mask(g: Admg, h: int) -> bool:
    """Whether ``h`` is nonempty, barren and inside one district of the
    subgraph on its ancestors, read off ``g._an`` and ``g._sp``."""
    an = g._an
    return h != 0 and _barren(an, h) == h and _component(g._sp, h & -h, _union(an, h)) & h == h


def _tail(an, sp, pa, h: int) -> int:
    """Tail of the head ``h`` read off ancestor, spouse and parent
    tables (see :func:`_phi`): the district of h in an(h), with that
    district's parents, minus h."""
    dis = _component(sp, h, _union(an, h))
    return (dis | _union(pa, dis)) & ~h


def is_head(g: Admg, vs: Iterable[Vertex]) -> bool:
    """Test whether ``vs`` is a head of ``g``."""
    return _is_head_mask(g, g._as_mask(vs))


def tail(g: Admg, head: Iterable[Vertex]) -> tuple[Vertex, ...]:
    """Tail of a head; raises if ``head`` is not actually a head."""
    h = g._as_mask(head)
    if not _is_head_mask(g, h):
        raise ValueError(f"{tuple(head)!r} is not a head")
    return g._labels(_tail(g._an, g._sp, g._pa, h))


def _district_heads(g: Admg, d_mask: int) -> tuple[tuple[int, int], ...]:
    """(head mask, tail mask) of every head inside the district
    ``d_mask`` in parameter order (see :func:`heads`), memoized on the
    graph.  District maps read the same record off the head partitions
    of the district's subsets instead (``moebius._Shape``)."""
    key = ("district_heads", d_mask)
    if key not in g._memo:
        g._memo[key] = tuple(
            (h, _tail(g._an, g._sp, g._pa, h)) for h in _subsets(tuple(_bits(d_mask)))[1:]
            if _is_head_mask(g, h)
        )
    return g._memo[key]


def heads(g: Admg) -> tuple[HeadTail, ...]:
    """All heads of ``g`` with their tails, in canonical order.

    Heads are grouped by district (districts ordered by their smallest
    canonical member) and listed within a district in binary counting
    order over the district's members, least significant first.  This
    ordering is the index order of the parameter vector.
    """
    if "heads" not in g._memo:
        g._memo["heads"] = tuple(
            HeadTail(g._labels(h), g._labels(t))
            for d_mask in g._district_masks(g.full_mask)
            for h, t in _district_heads(g, d_mask)
        )
    return g._memo["heads"]


def _phi(an, sp, w: int) -> list[int]:
    """Heads extracted from W in one round, read off the tables ``an``
    and ``sp``: ``an[i]`` masks vertex i's ancestors, i included, and
    ``sp[i]`` its bidirected neighbours.

    W is split by the districts of the subgraph induced on an(W); each
    piece then shrinks to the barren part of its own ancestor closure,
    which is the piece's own barren part, and is re-split by the
    districts of that closure until stable.  A stable piece is barren
    and lies in one district of the subgraph on its own ancestors, so
    every block is a head.  Vertices of a piece below its barren part
    are left for the next round."""
    out: list[int] = []
    within = _union(an, w)
    left = w
    while left:
        d = _component(sp, left & -left, within)
        left &= ~d
        # pieces with the closure they lie in one district of
        stack = [(d & w, within)]
        while stack:
            piece, outer = stack.pop()
            b = _barren(an, piece)
            closure = _union(an, b)
            if b == piece and closure == outer:
                out.append(b)
                continue
            parts = []
            rest = b
            while rest:
                part = _component(sp, rest & -rest, closure) & b
                parts.append((part, closure))
                rest &= ~part
            if len(parts) == 1:
                out.append(b)
            else:
                stack.extend(parts)
    return out


def _partition(an, sp, w: int, memo: dict) -> tuple[int, ...]:
    """Head partition of W over the tables of :func:`_phi`, blocks
    ordered by smallest member: one round's blocks with the partition
    of what the round leaves, a proper subset of W.  ``memo`` maps sets
    to partitions, starts as ``{0: ()}`` and gains each set met."""
    rounds = []
    while w not in memo:
        phi = _phi(an, sp, w)
        rounds.append((w, phi))
        # the blocks are disjoint parts of W
        w -= sum(phi)
    blocks = memo[w]
    for v, phi in reversed(rounds):
        blocks = memo[v] = tuple(sorted([*phi, *blocks], key=lambda b: b & -b))
    return blocks


def _partition_masks(g: Admg, w: int) -> tuple[int, ...]:
    """:func:`_partition` over the whole graph, memoized on it."""
    return _partition(g._an, g._sp, w, g._memo.setdefault("partitions", {0: ()}))


def _subset_partitions(an, sp, members: Sequence[int]) -> list[tuple[int, tuple[int, ...]]]:
    """(C, head partition of C) for every subset C of ``members`` in
    the order of :func:`_subsets`, over the tables of :func:`_phi`."""
    memo = {0: ()}
    return [(c, _partition(an, sp, c, memo)) for c in _subsets(members)]


def barren_blocks(g: Admg, w: Iterable[Vertex]) -> list[tuple[Vertex, ...]]:
    """One extraction round over ``w``, ordered by smallest member."""
    blocks = _phi(g._an, g._sp, g._as_mask(w))
    return [g._labels(b) for b in sorted(blocks, key=lambda b: b & -b)]


def head_partition(g: Admg, w: Iterable[Vertex]) -> list[tuple[Vertex, ...]]:
    """Partition ``w`` into heads, ordered by smallest member."""
    return [g._labels(b) for b in _partition_masks(g, g._as_mask(w))]
