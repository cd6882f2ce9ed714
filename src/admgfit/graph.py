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
cheap.  The public API accepts iterables of labels and returns tuples of
labels in canonical order.
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


class Admg:
    """An acyclic directed mixed graph.

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
        On duplicate vertices, undeclared edge endpoints, self loops,
        duplicate edges of the same type, or a directed cycle.
    """

    __slots__ = (
        "vertices",
        "_index",
        "_dir",
        "_bi",
        "_pa",
        "_ch",
        "_sp",
        "_de",
        "_an",
        "_topo",
        "_memo",
    )

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
        pa = [0] * n
        ch = [0] * n
        sp = [0] * n

        dir_edges: set[tuple[int, int]] = set()
        for a, b in directed:
            i, j = self._resolve(a), self._resolve(b)
            if i == j:
                raise GraphError(f"self loop at {a!r}")
            if (i, j) in dir_edges or (j, i) in dir_edges:
                raise GraphError(f"duplicate directed edge between {a!r} and {b!r}")
            dir_edges.add((i, j))
            ch[i] |= 1 << j
            pa[j] |= 1 << i

        bi_edges: set[tuple[int, int]] = set()
        for a, b in bidirected:
            i, j = self._resolve(a), self._resolve(b)
            if i == j:
                raise GraphError(f"self loop at {a!r}")
            key = (min(i, j), max(i, j))
            if key in bi_edges:
                raise GraphError(f"duplicate bidirected edge between {a!r} and {b!r}")
            bi_edges.add(key)
            sp[i] |= 1 << j
            sp[j] |= 1 << i

        self._dir = frozenset(dir_edges)
        self._bi = frozenset(bi_edges)
        self._pa = tuple(pa)
        self._ch = tuple(ch)
        self._sp = tuple(sp)
        self._topo = self._toposort()

        # reflexive transitive closures, vertex by vertex
        de = [0] * n
        for i in reversed(self._topo):
            m = 1 << i
            for j in _bits(ch[i]):
                m |= de[j]
            de[i] = m
        an = [0] * n
        for i in self._topo:
            m = 1 << i
            for j in _bits(pa[i]):
                m |= an[j]
            an[i] = m
        self._de = tuple(de)
        self._an = tuple(an)
        self._memo: dict = {}

    # -- construction helpers ------------------------------------------

    def _resolve(self, v: Vertex) -> int:
        try:
            return self._index[v]
        except KeyError:
            raise GraphError(f"unknown vertex {v!r}") from None

    def _toposort(self) -> tuple[int, ...]:
        n = len(self.vertices)
        indeg = [bin(self._pa[i]).count("1") for i in range(n)]
        queue = deque(i for i in range(n) if indeg[i] == 0)
        order = []
        while queue:
            i = queue.popleft()
            order.append(i)
            for j in _bits(self._ch[i]):
                indeg[j] -= 1
                if indeg[j] == 0:
                    queue.append(j)
        if len(order) != n:
            stuck = [self.vertices[i] for i in range(n) if indeg[i] > 0]
            raise GraphError(f"directed cycle through {stuck}")
        return tuple(order)

    # -- mask plumbing --------------------------------------------------

    def _mask(self, vs: Iterable[Vertex]) -> int:
        m = 0
        for v in vs:
            m |= 1 << self._resolve(v)
        return m

    def _labels(self, mask: int) -> tuple[Vertex, ...]:
        return tuple(self.vertices[i] for i in _bits(mask))

    @property
    def full_mask(self) -> int:
        return (1 << len(self.vertices)) - 1

    def _an_mask(self, mask: int) -> int:
        out = 0
        for i in _bits(mask):
            out |= self._an[i]
        return out

    def _de_mask(self, mask: int) -> int:
        out = 0
        for i in _bits(mask):
            out |= self._de[i]
        return out

    def _pa_mask(self, mask: int) -> int:
        out = 0
        for i in _bits(mask):
            out |= self._pa[i]
        return out

    def _district_mask(self, i: int, within: int) -> int:
        """Connected component of vertex ``i`` in the bidirected part
        of the subgraph induced on ``within``; ``i`` must lie in it."""
        seen = 1 << i
        stack = [i]
        while stack:
            j = stack.pop()
            new = self._sp[j] & within & ~seen
            seen |= new
            stack.extend(_bits(new))
        return seen

    def _district_masks(self, within: int) -> list[int]:
        out = []
        left = within
        while left:
            i = (left & -left).bit_length() - 1
            d = self._district_mask(i, within)
            out.append(d)
            left &= ~d
        return out

    def _barren_mask(self, mask: int) -> int:
        out = 0
        for i in _bits(mask):
            if self._de[i] & mask == 1 << i:
                out |= 1 << i
        return out

    # -- public relatives ------------------------------------------------

    def parents(self, vs: Iterable[Vertex] | Vertex) -> tuple[Vertex, ...]:
        """Union of parents over ``vs``."""
        return self._labels(self._pa_mask(self._as_mask(vs)))

    def children(self, vs: Iterable[Vertex] | Vertex) -> tuple[Vertex, ...]:
        m = 0
        for i in _bits(self._as_mask(vs)):
            m |= self._ch[i]
        return self._labels(m)

    def spouses(self, vs: Iterable[Vertex] | Vertex) -> tuple[Vertex, ...]:
        m = 0
        for i in _bits(self._as_mask(vs)):
            m |= self._sp[i]
        return self._labels(m)

    def ancestors(self, vs: Iterable[Vertex] | Vertex) -> tuple[Vertex, ...]:
        """Reflexive ancestor closure: ``vs`` itself is included."""
        return self._labels(self._an_mask(self._as_mask(vs)))

    def descendants(self, vs: Iterable[Vertex] | Vertex) -> tuple[Vertex, ...]:
        """Reflexive descendant closure."""
        return self._labels(self._de_mask(self._as_mask(vs)))

    def district(self, v: Vertex) -> tuple[Vertex, ...]:
        """The bidirected-connected component of ``v`` in the full graph."""
        return self._labels(self._district_mask(self._resolve(v), self.full_mask))

    def districts(self) -> list[tuple[Vertex, ...]]:
        """All districts, ordered by their smallest canonical member."""
        return [self._labels(m) for m in self._district_masks(self.full_mask)]

    def barren(self, vs: Iterable[Vertex] | Vertex) -> tuple[Vertex, ...]:
        """Members of ``vs`` with no proper descendant inside ``vs``."""
        return self._labels(self._barren_mask(self._as_mask(vs)))

    def is_ancestral(self, vs: Iterable[Vertex]) -> bool:
        """True if ``vs`` is closed under taking ancestors."""
        m = self._as_mask(vs)
        return self._an_mask(m) == m

    def _as_mask(self, vs) -> int:
        if isinstance(vs, (str, bytes)) or not isinstance(vs, Iterable):
            vs = (vs,)
        return self._mask(vs)

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

        an_z = self._an_mask(zm)

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

    def _bi_key(self, a: Vertex, b: Vertex) -> tuple[Vertex, Vertex]:
        i, j = self._resolve(a), self._resolve(b)
        return (self.vertices[min(i, j)], self.vertices[max(i, j)])

    def with_edge(self, a: Vertex, b: Vertex, kind: str) -> "Admg":
        """Copy of this graph with one more edge; ``kind`` is ``"->"``
        or ``"<->"``."""
        d = set(self.directed_edges)
        s = set(self.bidirected_edges)
        if kind == "->":
            if (a, b) in d:
                raise GraphError(f"edge {a} -> {b} already present")
            d.add((a, b))
        elif kind == "<->":
            key = self._bi_key(a, b)
            if key in s:
                raise GraphError(f"edge {a} <-> {b} already present")
            s.add(key)
        else:
            raise GraphError(f"unknown edge kind {kind!r}")
        return Admg(self.vertices, d, s)

    def without_edge(self, a: Vertex, b: Vertex, kind: str) -> "Admg":
        d = set(self.directed_edges)
        s = set(self.bidirected_edges)
        if kind == "->":
            if (a, b) not in d:
                raise GraphError(f"no edge {a} -> {b}")
            d.remove((a, b))
        elif kind == "<->":
            key = self._bi_key(a, b)
            if key not in s:
                raise GraphError(f"no edge {a} <-> {b}")
            s.remove(key)
        else:
            raise GraphError(f"unknown edge kind {kind!r}")
        return Admg(self.vertices, d, s)

    # -- views -------------------------------------------------------------

    @property
    def directed_edges(self) -> tuple[tuple[Vertex, Vertex], ...]:
        return tuple(
            sorted(
                ((self.vertices[i], self.vertices[j]) for i, j in self._dir),
                key=lambda e: (self._index[e[0]], self._index[e[1]]),
            )
        )

    @property
    def bidirected_edges(self) -> tuple[tuple[Vertex, Vertex], ...]:
        return tuple(
            sorted(
                ((self.vertices[i], self.vertices[j]) for i, j in self._bi),
                key=lambda e: (self._index[e[0]], self._index[e[1]]),
            )
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Admg)
            and self.vertices == other.vertices
            and self._dir == other._dir
            and self._bi == other._bi
        )

    def __hash__(self) -> int:
        return hash((self.vertices, self._dir, self._bi))

    def __repr__(self) -> str:
        return (
            f"Admg({len(self.vertices)} vertices, "
            f"{len(self._dir)} directed, {len(self._bi)} bidirected)"
        )


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
    """Serialize a graph to the text format; ``parse_graph`` inverts it."""
    lines = ["vertices: " + " ".join(str(v) for v in g.vertices)]
    lines += [f"{a} -> {b}" for a, b in g.directed_edges]
    lines += [f"{a} <-> {b}" for a, b in g.bidirected_edges]
    return "\n".join(lines) + "\n"


def read_graph(path) -> Admg:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_graph(fh.read())
