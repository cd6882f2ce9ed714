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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .graph import Admg, Vertex, _bits

__all__ = ["HeadTail", "is_head", "tail", "heads", "barren_blocks", "head_partition"]

# districts larger than this make the parametrization astronomically
# big (2^|D| candidate heads); refuse early with a clear error
MAX_DISTRICT = 20


@dataclass(frozen=True)
class HeadTail:
    """A head with its tail, both in canonical vertex order."""

    head: tuple[Vertex, ...]
    tail: tuple[Vertex, ...]


def _subset_masks(members: Sequence[int]) -> list[int]:
    """Masks of all subsets of ``members`` in binary counting order,
    the first member least significant."""
    out = []
    for c_local in range(1 << len(members)):
        c_mask = 0
        for k, p in enumerate(members):
            if c_local >> k & 1:
                c_mask |= 1 << p
        out.append(c_mask)
    return out


def _is_head_mask(g: Admg, h: int) -> bool:
    if h == 0:
        return False
    if g._barren_mask(h) != h:
        return False
    an = g._an_mask(h)
    first = (h & -h).bit_length() - 1
    return h & ~g._district_mask(first, an) == 0


def _tail_mask(g: Admg, h: int) -> int:
    an = g._an_mask(h)
    first = (h & -h).bit_length() - 1
    dis = g._district_mask(first, an)
    return (dis | g._pa_mask(dis)) & ~h


def is_head(g: Admg, vs: Iterable[Vertex]) -> bool:
    """Test whether ``vs`` is a head of ``g``."""
    return _is_head_mask(g, g._as_mask(vs))


def tail(g: Admg, head: Iterable[Vertex]) -> tuple[Vertex, ...]:
    """Tail of a head; raises if ``head`` is not actually a head."""
    h = g._as_mask(head)
    if not _is_head_mask(g, h):
        raise ValueError(f"{tuple(head)!r} is not a head")
    return g._labels(_tail_mask(g, h))


def _district_heads(g: Admg, d_mask: int) -> tuple[tuple[int, int], ...]:
    """(head mask, tail mask) of every head inside the district
    ``d_mask`` in parameter order (see :func:`heads`), memoized on the
    graph: the district's parametrization is built from this record."""
    key = ("district_heads", d_mask)
    if key not in g._memo:
        members = list(_bits(d_mask))
        if len(members) > MAX_DISTRICT:
            raise ValueError(f"district of size {len(members)} is too large to enumerate")
        g._memo[key] = tuple(
            (h, _tail_mask(g, h)) for h in _subset_masks(members)[1:] if _is_head_mask(g, h)
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


def _phi_masks(g: Admg, w: int) -> list[int]:
    """Heads extracted from W in one round.

    W is split by the districts of the subgraph induced on an(W); each
    piece then shrinks to the barren part of its own ancestor closure
    and is re-split by the districts of that closure until stable.  A
    stable piece is barren and lies in one district of the subgraph on
    its own ancestors, so every block is a head.  Vertices of a piece
    below its barren part are left for the next round."""
    key = ("phi", w)
    if key not in g._memo:
        out: list[int] = []
        for d in g._district_masks(g._an_mask(w)):
            if not d & w:
                continue
            stack = [d & w]
            while stack:
                piece = stack.pop()
                b = g._barren_mask(g._an_mask(piece))
                parts = [b & dd for dd in g._district_masks(g._an_mask(b))]
                parts = [x for x in parts if x]
                if len(parts) == 1:
                    out.append(b)
                else:
                    stack.extend(parts)
        g._memo[key] = out
    return g._memo[key]


def _partition_masks(g: Admg, w: int) -> tuple[int, ...]:
    key = ("partition", w)
    if key not in g._memo:
        blocks: list[int] = []
        left = w
        while left:
            new = _phi_masks(g, left)
            blocks.extend(new)
            for b in new:
                left &= ~b
        blocks.sort(key=lambda b: b & -b)
        g._memo[key] = tuple(blocks)
    return g._memo[key]


def barren_blocks(g: Admg, w: Iterable[Vertex]) -> list[tuple[Vertex, ...]]:
    """One extraction round over ``w``, ordered by smallest member."""
    blocks = _phi_masks(g, g._as_mask(w))
    return [g._labels(b) for b in sorted(blocks, key=lambda b: b & -b)]


def head_partition(g: Admg, w: Iterable[Vertex]) -> list[tuple[Vertex, ...]]:
    """Partition ``w`` into heads, ordered by smallest member."""
    return [g._labels(b) for b in _partition_masks(g, g._as_mask(w))]
