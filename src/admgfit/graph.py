"""Acyclic directed mixed graphs (ADMGs).

An ADMG has a single vertex set and two kinds of edges: directed edges
``a -> b`` and bidirected edges ``a <-> b``.  The directed part must be
acyclic; directed cycles through bidirected edges are allowed (there is
no ancestral or arrow-head restriction beyond acyclicity).

Vertices are arbitrary hashable labels.  The declaration order of the
vertices is the canonical order used everywhere in this package: vertex
sets are reported sorted by it, joint states are indexed by it, and the
parametrization in :mod:`admgfit.moebius` enumerates states and heads
with respect to it.

Internally vertex sets are bit masks over the canonical positions, which
keeps the subset manipulations in the head/parametrization machinery
cheap.  A graph holds, per vertex, the masks of its parents, children
and spouses and of its reflexive ancestors, and nothing else; every
other relative is read off those tables by ``_union``, ``_component``
and ``_barren``.  The public API accepts iterables of labels and
returns tuples of labels in canonical order.
"""

from __future__ import annotations

import re
from collections import deque
from typing import Hashable, Iterable

Vertex = Hashable

__all__ = ["Admg", "GraphError", "parse_graph", "format_graph", "read_graph"]


class GraphError(ValueError):
    """Raised for malformed graphs: cycles, unknown or repeated elements."""


_EDGE_RE = re.compile(r"^(.*?)(<->|->)(.*)$")


def _bits(mask: int):
    """Yield the set bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _union(table, mask: int) -> int:
    """Union of ``table[i]`` over the set bits ``i`` of ``mask``."""
    out = 0
    while mask:
        low = mask & -mask
        out |= table[low.bit_length() - 1]
        mask ^= low
    return out


def _barren(an, mask: int) -> int:
    """The members of ``mask`` that are no proper ancestor of another
    member, where ``an[i]`` is the mask of vertex i's ancestors, i
    included."""
    below = 0
    rest = mask
    while rest:
        low = rest & -rest
        below |= an[low.bit_length() - 1] ^ low
        rest ^= low
    return mask & ~below


def _component(sp, seed: int, within: int) -> int:
    """The vertices joined to the mask ``seed`` by bidirected paths
    inside ``within``, ``seed`` included, where ``sp[i]`` is the mask of
    vertex i's bidirected neighbours."""
    seen = frontier = seed
    while frontier:
        frontier = _union(sp, frontier) & within & ~seen
        seen |= frontier
    return seen


class Admg:
    """An acyclic directed mixed graph.

    Per vertex it stores the masks ``_pa``, ``_ch``, ``_sp`` and ``_an``
    (reflexive ancestors).  Every edge, built or edited, passes the one
    edge rule of :meth:`_flip`.

    Parameters
    ----------
    vertices : iterable of hashable
        Vertex labels; their order fixes the canonical vertex order.
    directed : iterable of (a, b) pairs
        Directed edges ``a -> b``.
    bidirected : iterable of (a, b) pairs
        Bidirected edges ``a <-> b``; the pair order is irrelevant.

    Raises
    ------
    GraphError
        On duplicate vertices, an edge that :meth:`_flip` refuses, or
        a directed cycle.
    """

    __slots__ = ("vertices", "_index", "_pa", "_ch", "_sp", "_an", "_memo")

    def __init__(
        self,
        vertices: Iterable[Vertex],
        directed: Iterable[tuple[Vertex, Vertex]] = (),
        bidirected: Iterable[tuple[Vertex, Vertex]] = (),
    ):
        self.vertices: tuple[Vertex, ...] = tuple(vertices)
        self._index: dict[Vertex, int] = {v: i for i, v in enumerate(self.vertices)}
        if len(self._index) != len(self.vertices):
            raise GraphError("duplicate vertex labels")

        n = len(self.vertices)
        pa, ch, sp = [0] * n, [0] * n, [0] * n
        for a, b in directed:
            self._flip(pa, ch, sp, a, b, "->", True)
        for a, b in bidirected:
            self._flip(pa, ch, sp, a, b, "<->", True)
        self._close(pa, ch, sp)

    # -- construction helpers ------------------------------------------

    def _flip(self, pa: list[int], ch: list[int], sp: list[int],
              a: Vertex, b: Vertex, kind: str, add: bool) -> None:
        """Flip the bits of the edge ``a kind b`` in the edge masks, to add
        it or, ``add`` false, remove it.  Refuses an unknown kind or
        vertex, adding a present edge or removing a missing one, a self
        loop, and a directed edge against a present one."""
        if kind not in ("->", "<->"):
            raise GraphError(f"unknown edge kind {kind!r}")
        i, j = self._resolve(a), self._resolve(b)
        present = (pa[j] if kind == "->" else sp[j]) >> i & 1
        if add and present:
            raise GraphError(f"edge {a} {kind} {b} already present")
        if not (add or present):
            raise GraphError(f"no edge {a} {kind} {b}")
        if i == j:
            raise GraphError(f"self loop at {a!r}")
        if kind == "->":
            if pa[i] >> j & 1:
                raise GraphError(f"duplicate directed edge between {a!r} and {b!r}")
            pa[j] ^= 1 << i
            ch[i] ^= 1 << j
        else:
            sp[i] ^= 1 << j
            sp[j] ^= 1 << i

    def _close(self, pa: list[int], ch: list[int], sp: list[int]) -> None:
        """Take the edge masks and the reflexive ancestor masks, filled
        in topological order; raises GraphError on a directed cycle."""
        n = len(self.vertices)
        indeg = [m.bit_count() for m in pa]
        order = [i for i in range(n) if not indeg[i]]
        an = [0] * n
        # the order grows as it is read: a vertex joins once its parents are read
        for i in order:
            an[i] = 1 << i | _union(an, pa[i])
            for j in _bits(ch[i]):
                indeg[j] -= 1
                if not indeg[j]:
                    order.append(j)
        if len(order) != n:
            stuck = [self.vertices[i] for i in range(n) if indeg[i] > 0]
            raise GraphError(f"directed cycle through {stuck}")
        self._pa, self._ch, self._sp, self._an = tuple(pa), tuple(ch), tuple(sp), tuple(an)
        self._memo: dict = {}

    def _resolve(self, v: Vertex) -> int:
        try:
            return self._index[v]
        except KeyError:
            raise GraphError(f"unknown vertex {v!r}") from None

    # -- mask plumbing --------------------------------------------------

    def _labels(self, mask: int) -> tuple[Vertex, ...]:
        return tuple(self.vertices[i] for i in _bits(mask))

    @property
    def full_mask(self) -> int:
        return (1 << len(self.vertices)) - 1

    def _district_masks(self, within: int) -> list[int]:
        """Districts of the subgraph on ``within``, by smallest member."""
        out = []
        left = within
        while left:
            d = _component(self._sp, left & -left, within)
            out.append(d)
            left &= ~d
        return out

    # -- public relatives ------------------------------------------------

    def parents(self, vs: Iterable[Vertex] | Vertex) -> tuple[Vertex, ...]:
        """Union of parents over ``vs``."""
        return self._labels(_union(self._pa, self._as_mask(vs)))

    def children(self, vs: Iterable[Vertex] | Vertex) -> tuple[Vertex, ...]:
        return self._labels(_union(self._ch, self._as_mask(vs)))

    def spouses(self, vs: Iterable[Vertex] | Vertex) -> tuple[Vertex, ...]:
        return self._labels(_union(self._sp, self._as_mask(vs)))

    def ancestors(self, vs: Iterable[Vertex] | Vertex) -> tuple[Vertex, ...]:
        """Reflexive ancestor closure: ``vs`` itself is included."""
        return self._labels(_union(self._an, self._as_mask(vs)))

    def descendants(self, vs: Iterable[Vertex] | Vertex) -> tuple[Vertex, ...]:
        """Reflexive descendant closure: the vertices with an ancestor in ``vs``."""
        m = self._as_mask(vs)
        return tuple(v for v, an in zip(self.vertices, self._an) if an & m)

    def district(self, v: Vertex) -> tuple[Vertex, ...]:
        """The bidirected-connected component of ``v`` in the full graph."""
        return self._labels(_component(self._sp, 1 << self._resolve(v), self.full_mask))

    def districts(self) -> list[tuple[Vertex, ...]]:
        """All districts, ordered by their smallest canonical member."""
        return [self._labels(m) for m in self._district_masks(self.full_mask)]

    def barren(self, vs: Iterable[Vertex] | Vertex) -> tuple[Vertex, ...]:
        """Members of ``vs`` with no proper descendant inside ``vs``."""
        return self._labels(_barren(self._an, self._as_mask(vs)))

    def is_ancestral(self, vs: Iterable[Vertex]) -> bool:
        """True if ``vs`` is closed under taking ancestors."""
        m = self._as_mask(vs)
        return _union(self._an, m) == m

    def _as_mask(self, vs) -> int:
        if isinstance(vs, (str, bytes)) or not isinstance(vs, Iterable):
            vs = (vs,)
        m = 0
        for v in vs:
            m |= 1 << self._resolve(v)
        return m

    # -- m-separation -----------------------------------------------------

    def m_separated(
        self,
        x: Iterable[Vertex],
        y: Iterable[Vertex],
        z: Iterable[Vertex] = (),
    ) -> bool:
        """Test whether ``x`` and ``y`` are m-separated given ``z``.

        A walk is m-connecting given ``z`` when every non-collider on it
        is outside ``z`` and every collider has a descendant in ``z``.
        The three argument sets must be pairwise disjoint and ``x``,
        ``y`` nonempty.
        """
        return not self._reach(x, y, z)[0]

    def m_connecting_walk(self, x, y, z=()):
        """Return one m-connecting walk as a list of oriented edges
        ``(a, kind, b)`` with ``kind`` in ``{"->", "<-", "<->"}``,
        or None when ``x`` and ``y`` are m-separated given ``z``."""
        connected, walk = self._reach(x, y, z)
        return walk if connected else None

    def _reach(self, x, y, z):
        xm = self._as_mask(x)
        ym = self._as_mask(y)
        zm = self._as_mask(z)
        if not xm or not ym:
            raise GraphError("x and y must be nonempty")
        if xm & ym or xm & zm or ym & zm:
            raise GraphError("x, y, z must be pairwise disjoint")

        an_z = _union(self._an, zm)

        # States are (vertex, arriving mark at that vertex): mark True
        # means the walk reaches the vertex with an arrowhead.  A state
        # may extend along an edge when the vertex passes the collider
        # test for the (arriving, leaving) mark pair.
        seen = [[False, False] for _ in self.vertices]
        parent: dict[tuple[int, bool], tuple] = {}
        queue: deque[tuple[int, bool]] = deque()

        def push(j, head, prev_state, step):
            if not seen[j][head]:
                seen[j][head] = True
                parent[(j, head)] = (prev_state, step)
                queue.append((j, head))

        def start(i):
            for j in _bits(self._ch[i]):
                push(j, True, None, (i, "->", j))
            for j in _bits(self._pa[i]):
                push(j, False, None, (j, "->", i))
            for j in _bits(self._sp[i]):
                push(j, True, None, (i, "<->", j))

        for i in _bits(xm):
            start(i)

        hit = None
        while queue and hit is None:
            i, head = queue.popleft()
            if ym >> i & 1:
                hit = (i, head)
                break
            vbit = 1 << i
            # Leaving along i -> j puts a tail at i, so i is a
            # non-collider and must avoid z.  Leaving against an arrow
            # or along a bidirected edge puts a head at i: a collider
            # if the walk also arrived with a head (i must then be an
            # ancestor of z), a non-collider otherwise.
            can_tail = not (zm & vbit)
            can_head_out = (an_z & vbit) if head else not (zm & vbit)
            if can_tail:
                for j in _bits(self._ch[i]):
                    push(j, True, (i, head), (i, "->", j))
            if can_head_out:
                for j in _bits(self._pa[i]):
                    push(j, False, (i, head), (j, "->", i))
                for j in _bits(self._sp[i]):
                    push(j, True, (i, head), (i, "<->", j))

        if hit is None:
            return False, None

        # Each state's step is the edge whose far endpoint is the state
        # vertex, so orienting every step toward its state vertex yields
        # a walk whose consecutive edges share their interior vertex.
        chain = []
        state = hit
        while state is not None:
            prev, step = parent[state]
            chain.append((state[0], step))
            state = prev
        chain.reverse()
        walk = []
        for w, (a, kind, b) in chain:
            if kind == "<->":
                o = b if a == w else a
                walk.append((self.vertices[o], "<->", self.vertices[w]))
            elif b == w:
                walk.append((self.vertices[a], "->", self.vertices[b]))
            else:
                walk.append((self.vertices[b], "<-", self.vertices[a]))
        return True, walk

    # -- editing ----------------------------------------------------------

    def with_edge(self, a: Vertex, b: Vertex, kind: str) -> "Admg":
        """Copy of this graph with one more edge; ``kind`` is ``"->"``
        or ``"<->"``."""
        return self._edit(a, b, kind, True)

    def without_edge(self, a: Vertex, b: Vertex, kind: str) -> "Admg":
        return self._edit(a, b, kind, False)

    def _edit(self, a: Vertex, b: Vertex, kind: str, add: bool) -> "Admg":
        """Copy of this graph with the edge ``a kind b`` added or
        removed by :meth:`_flip`, its masks then closed again."""
        pa, ch, sp = list(self._pa), list(self._ch), list(self._sp)
        self._flip(pa, ch, sp, a, b, kind, add)
        g = Admg.__new__(Admg)
        g.vertices, g._index = self.vertices, self._index
        g._close(pa, ch, sp)
        return g

    # -- views -------------------------------------------------------------

    @property
    def directed_edges(self) -> tuple[tuple[Vertex, Vertex], ...]:
        vs = self.vertices
        return tuple((vs[i], vs[j]) for i in range(len(vs)) for j in _bits(self._ch[i]))

    @property
    def bidirected_edges(self) -> tuple[tuple[Vertex, Vertex], ...]:
        vs = self.vertices
        return tuple((vs[i], vs[j]) for i in range(len(vs)) for j in _bits(self._sp[i] >> i << i))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Admg)
            and self.vertices == other.vertices
            and self._pa == other._pa
            and self._sp == other._sp
        )

    def __hash__(self) -> int:
        return hash((self.vertices, self._pa, self._sp))

    def __repr__(self) -> str:
        n_dir = sum(m.bit_count() for m in self._pa)
        n_bi = sum(m.bit_count() for m in self._sp) // 2
        return f"Admg({len(self.vertices)} vertices, {n_dir} directed, {n_bi} bidirected)"


def parse_graph(text: str) -> Admg:
    """Parse the plain text graph format.

    One edge per line, ``A -> B`` or ``A <-> B`` (whitespace around the
    arrow optional).  An optional line ``vertices: A B C`` declares
    vertex order up front; vertices not pre-declared are registered in
    order of first appearance.  ``#`` starts a comment.
    """
    order: list = []
    seen = set()

    def note(v):
        if v not in seen:
            seen.add(v)
            order.append(v)

    directed = []
    bidirected = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("vertices:"):
            for v in line[len("vertices:") :].split():
                note(v)
            continue
        m = _EDGE_RE.match(line)
        if not m:
            raise GraphError(f"line {lineno}: cannot parse {raw!r}")
        a, arrow, b = m.group(1).strip(), m.group(2), m.group(3).strip()
        if not a or not b or " " in a or " " in b:
            raise GraphError(f"line {lineno}: bad edge {raw!r}")
        note(a)
        note(b)
        if arrow == "->":
            directed.append((a, b))
        else:
            bidirected.append((a, b))
    if not order:
        raise GraphError("empty graph description")
    return Admg(order, directed, bidirected)


def format_graph(g: Admg) -> str:
    """Serialize a graph to the text format; ``parse_graph`` inverts it.

    Raises GraphError for a label that the text cannot hold: one that
    is empty or holds whitespace, ``#`` or ``->``, that begins with
    ``vertices:``, or that another vertex's label also reads as."""
    labels = [str(v) for v in g.vertices]
    for s in labels:
        if s.split() != [s] or "#" in s or "->" in s or s.startswith("vertices:"):
            raise GraphError(f"vertex label {s!r} cannot be written as graph text")
    if len(set(labels)) < len(labels):
        raise GraphError("two vertices have the same label as text")
    lines = ["vertices: " + " ".join(labels)]
    lines += [f"{a} -> {b}" for a, b in g.directed_edges]
    lines += [f"{a} <-> {b}" for a, b in g.bidirected_edges]
    return "\n".join(lines) + "\n"


def read_graph(path) -> Admg:
    """The graph in the file at ``path``, read by :func:`parse_graph`
    after one leading UTF-8 byte-order mark, if any."""
    with open(path, "r", encoding="utf-8-sig") as fh:
        return parse_graph(fh.read())
