"""Generalized Moebius parametrization of binary ADMG models.

The model for a binary vector X over an ADMG G is parametrized by
``q(H | T = t) = P(X_H = 0 | X_T = t)`` for every head H with tail T and
every binary tail assignment t.  Joint probabilities come out of an
inclusion-exclusion sum: writing O for the set of vertices at level 0 in
a state i,

    p(i) = sum over O <= C <= V of (-1)^{|C - O|}
           prod over H in the head partition of C of q(H | T = i_T),

and the sum factorizes over districts, one factor per district D using
only the subsets C of D and the zero set O restricted to D.

The factor of a district D depends on a state only through its values
on the district's scope D together with pa(D), since every tail of a
head in D lies in that set.  It is affine in the parameter vector:
over the 2^|scope| local states it equals ``M @ t(q)`` where every
column of M is one (C, tail assignment) term and ``t_k(q)`` is the
product of the parameters listed in row k of the 0/1 matrix P.  M and
P are sparse and built once per district structure, and held as plain
index arrays: M's nonzeros (row, column, sign) in row order and P's
row pointers and column indices.  Everything downstream (likelihood,
gradients, the Jacobian of p with respect to q) is a weighted
``np.bincount`` over their nonzeros, summing in the order of a CSR
product; scipy matrices of M and P are built only on request, for
display and tests, and scipy, an optional dependency, is imported only
then.  A joint vector over all 2^|V| states is a
``(2,)*|V|`` table, one axis per vertex, raveled in C order; a local
vector is that table's marginal on the scope and broadcasts back.
Holding one vertex's parameters fixed everywhere else makes the factor
affine in them; that form is assembled with one weighted bincount over
the nonzeros of M.  The term products are evaluated by the kernel that
``_kernels.get_kernels()`` returns, looked up on every call.

A district's maps depend only on the district's shape, never on where
the district sits in the graph or where its parameters sit in the
graph's parameter vector, which :class:`Parametrization` keeps.  The
shape is the district's local structure in scope-local positions:
which scope vertices are members, and each member's parents, its
ancestors in the district and its bidirected neighbours
(``_shape_key``).  Districts with one shape have equal M, P, Jacobian
pairs and vertex plans, and equal head and term records in
scope-local masks, so each shape is built once (``_Shape``) and placed
on every district that has it (:class:`DistrictMaps`); the placement
keeps what depends on the graph: members, scope, broadcast shape, the
head record in canonical masks, the plans keyed by canonical position
and the term labels.  A shape reads its head record off the head
partitions that its terms need, and :class:`ParamTable` reads the
placed maps' records.  A parametrization shares shapes among the
graph's districts; the graphs of one structure search share one dict
of shapes, keyed by ``_shape_key``, which is read off per-member masks
with no head computed.  Placements of one shape on one scope, for one
vertex order, are equal, so a district that a move leaves unchanged
finds its fit again.

Canonical orderings
-------------------
Joint states are indexed in binary counting order with the first vertex
as the most significant bit, and a district's local states in the same
order over its scope.  Parameters are grouped by district
(districts ordered by smallest member), heads within a district in
binary counting order over district members (least significant first),
and tail assignments in binary counting order with the earliest tail
vertex most significant.  Term columns use the same subset order for C
and counting order for tail assignments.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from . import _kernels
from .graph import Admg, GraphError, Vertex, _bits, _component, _union
from .heads import _district_heads, _partition_masks, _subset_partitions, _tail

if TYPE_CHECKING:
    import scipy.sparse

__all__ = [
    "Param",
    "ParamTable",
    "Term",
    "DistrictMaps",
    "Parametrization",
    "enumerate_params",
    "parametrization",
    "prob_vector",
    "prob_direct",
    "q_from_p",
    "state_index",
]

MAX_VERTICES = 20  # 2^|V| joint states must stay addressable

# most entries of M, P and the Jacobian pairs together in one district
# shape: at 30 to 70 bytes an entry the largest build peaks under 1 GB
MAX_SHAPE_ENTRIES = 12_000_000


@dataclass(frozen=True)
class Param:
    """One parameter q(head | tail = tail_state)."""

    head: tuple[Vertex, ...]
    tail: tuple[Vertex, ...]
    tail_state: tuple[int, ...]

    @property
    def name(self) -> str:
        h = ",".join(str(v) for v in self.head)
        if not self.tail:
            return f"q[{h}]"
        t = ",".join(str(v) for v in self.tail)
        s = "".join(str(b) for b in self.tail_state)
        return f"q[{h}|{t}={s}]"


@dataclass(frozen=True)
class Term:
    """One inclusion-exclusion term: a subset C with a tail assignment.

    ``blocks`` is the head partition of C; the term's value is the
    product of the block parameters at this tail assignment, and its
    sign in row i of M is (-1)^{|C - O(i)|}.
    """

    c: tuple[Vertex, ...]
    blocks: tuple[tuple[Vertex, ...], ...]
    tail: tuple[Vertex, ...]
    tail_state: tuple[int, ...]


def state_index(state: Sequence[int]) -> int:
    """Row index of a joint 0/1 state, first vertex most significant;
    raises on a value other than 0 or 1."""
    idx = 0
    for b in state:
        if b not in (0, 1):
            raise ValueError(f"state values must be 0 or 1, got {b!r}")
        idx = idx << 1 | int(b)
    return idx


def _tail_rank(row: int, n: int, tpos: tuple[int, ...]) -> int:
    r = 0
    for p in tpos:
        r = r << 1 | (row >> (n - 1 - p)) & 1
    return r


def _check_size(g: Admg) -> None:
    if len(g.vertices) > MAX_VERTICES:
        raise ValueError(f"too many vertices ({len(g.vertices)})")


def _check_build(count: int, what: str) -> None:
    if count > MAX_SHAPE_ENTRIES:
        raise GraphError(f"district shape too large to build: {count} {what}, "
                         f"over the budget of {MAX_SHAPE_ENTRIES} entries")


class ParamTable:
    """Canonical parameter enumeration for a graph.

    Supports position lookup by head and tail assignment.  ``runs``
    holds (head mask, tail mask, first position) for every head, in
    parameter order: a head's parameters are the run of its
    2^|tail| tail assignments from that position.  ``district_slices``
    pairs each district with its contiguous slice of parameters.
    ``district_heads``, when given, holds the head record of every
    district in order, as :class:`DistrictMaps` keeps it; otherwise
    each district's heads are enumerated by ``heads._district_heads``.
    """

    def __init__(self, g: Admg, district_heads: Sequence[tuple] | None = None):
        _check_size(g)
        self.graph = g
        d_masks = g._district_masks(g.full_mask)
        if district_heads is None:
            district_heads = [_district_heads(g, d_mask) for d_mask in d_masks]
        params: list[Param] = []
        runs: list[tuple[int, int, int]] = []
        slices: list[tuple[tuple[Vertex, ...], slice]] = []
        for d_mask, record in zip(d_masks, district_heads):
            begin = len(params)
            for h_mask, t_mask in record:
                runs.append((h_mask, t_mask, len(params)))
                head, tail = g._labels(h_mask), g._labels(t_mask)
                params.extend(Param(head, tail, bits)
                              for bits in itertools.product((0, 1), repeat=len(tail)))
            slices.append((g._labels(d_mask), slice(begin, len(params))))
        self.params: tuple[Param, ...] = tuple(params)
        self.runs = tuple(runs)
        self._run_of = {h_mask: (t_mask, j) for h_mask, t_mask, j in runs}
        self.district_slices = tuple(slices)

    def __len__(self) -> int:
        return len(self.params)

    def __iter__(self):
        return iter(self.params)

    def index(self, head: Iterable[Vertex], tail_state: Sequence[int] = ()) -> int:
        """Global position of q(head | tail = tail_state); the state is
        given in canonical tail order, one 0 or 1 per tail vertex."""
        run = self._run_of.get(self.graph._as_mask(head))
        if run is None:
            raise KeyError(f"no parameter for head {tuple(head)!r}")
        t_mask, first = run
        tail = self.graph._labels(t_mask)
        state = tuple(tail_state)
        if len(state) != len(tail) or any(b not in (0, 1) for b in state):
            raise KeyError(
                f"tail state {state!r} for head {tuple(head)!r}: expected "
                f"{len(tail)} values of 0 or 1 for tail {tail!r}"
            )
        return first + state_index(map(int, state))

    def _index_by_row(self, h_mask: int, row: int) -> int:
        """Position of the parameter for head ``h_mask`` with its tail
        read off the joint state with row index ``row``."""
        t_mask, first = self._run_of[h_mask]
        return first + _tail_rank(row, len(self.graph.vertices), tuple(_bits(t_mask)))


def enumerate_params(g: Admg) -> ParamTable:
    """The canonical parameter table of ``g`` (cached on the graph)."""
    if "params" not in g._memo:
        g._memo["params"] = ParamTable(g)
    return g._memo["params"]


class _VertexPlan:
    """Static assembly data for one vertex's affine likelihood form.

    Within its district factor ``M @ t(q)``, every term has at most one
    factor that is a parameter with vertex v in the head.  Splitting
    each term product into that factor times the rest r gives
    ``f = A(q_rest) @ theta - b(q_rest)`` with theta the v-parameters:
    the nonzero M[i, k] adds ``M[i, k] * r_k`` to A[i, j] when term k
    carries theta_j, and to -b[i] when it carries none.  ``slot`` holds
    that destination for every nonzero of M, in M's row order, as
    ``i * (|theta| + 1) + j`` with j = |theta| for -b.
    """

    __slots__ = ("theta_cols", "rest", "slot", "width")

    def __init__(self, shape: "_Shape", theta_cols: np.ndarray):
        P_indices = shape.P_indices
        K = shape.n_terms
        T = len(theta_cols)
        theta_pos = np.full(shape.n_params, -1, dtype=np.int64)
        theta_pos[theta_cols] = np.arange(T)
        term_of = shape.term_of
        mine = theta_pos[P_indices] >= 0
        if np.bincount(term_of[mine], minlength=K).max(initial=0) > 1:
            raise AssertionError("term with two parameters of one vertex")
        term_theta = np.full(K, T, dtype=np.int64)
        term_theta[term_of[mine]] = theta_pos[P_indices[mine]]
        rest_indptr = np.zeros(K + 1, dtype=np.int64)
        np.cumsum(np.bincount(term_of[~mine], minlength=K), out=rest_indptr[1:])
        self.theta_cols = theta_cols
        self.rest = (rest_indptr, P_indices[~mine])
        self.width = T + 1
        self.slot = shape.M_row * self.width + term_theta[shape.M_col]


def _local_mask(mask: int, scope: Sequence[int]) -> int:
    """The part of ``mask`` in ``scope`` in scope-local positions: bit k
    stands for ``scope[k]``."""
    out = 0
    for k, p in enumerate(scope):
        if mask >> p & 1:
            out |= 1 << k
    return out


def _graph_mask(local: int, scope: Sequence[int]) -> int:
    """A scope-local mask back in canonical positions."""
    out = 0
    for k in _bits(local):
        out |= 1 << scope[k]
    return out


def _shape_key(g: Admg, d_mask: int, scope: Sequence[int]) -> tuple:
    """The shape of the district ``d_mask`` with scope ``scope``: the
    size of the scope, the district, and each member's parents, its
    ancestors in the district and its bidirected neighbours, all in
    scope-local positions.  Heads, tails and head partitions of subsets
    of the district follow from these (a vertex of an(H) outside the
    district is a proper ancestor of H, never barren there and linking
    no two members), so districts with equal keys, in one graph or in
    several, have equal local arrays (see :class:`_Shape`, which is
    built from the key alone).  Building the key computes none of
    them."""
    members = tuple(_bits(d_mask))
    return (len(scope), _local_mask(d_mask, scope),
            tuple(_local_mask(g._pa[p], scope) for p in members),
            tuple(_local_mask(g._an[p] & d_mask, scope) for p in members),
            tuple(_local_mask(g._sp[p], scope) for p in members))


def _scope_and_key(g: Admg, d_mask: int) -> tuple[tuple[int, ...], tuple]:
    """The scope of the district ``d_mask``, its members and their
    parents in ascending positions, with its ``_shape_key``, memoized
    on the graph: a shape missing from a dict of shapes is looked up
    and then built through one key."""
    memo_key = ("shape_key", d_mask)
    if memo_key not in g._memo:
        scope = tuple(_bits(d_mask | _union(g._pa, d_mask)))
        g._memo[memo_key] = scope, _shape_key(g, d_mask, scope)
    return g._memo[memo_key]


def _sparse():
    """``scipy.sparse``, imported on first use: only the display views
    :attr:`DistrictMaps.M` and :attr:`DistrictMaps.P` need it."""
    try:
        from scipy import sparse
    except ImportError as exc:
        raise ImportError("the M and P matrices need scipy: "
                          "pip install 'admgfit[matrices]'") from exc
    return sparse


class _Shape:
    """The local arrays of a district shape, built from its
    ``_shape_key`` alone.  They hold for every district with that key:
    M, P, ``term_of``, the Jacobian pairs and the vertex plans.
    ``heads`` is the district's head record, (head, tail) masks in
    parameter order as ``heads._district_heads`` lists them, in
    scope-local positions, bit k standing for ``scope[k]``;
    ``theta_cols`` holds, for each member in ascending order, the
    local parameters whose head contains it; ``subsets`` holds (C, head
    partition of C, union of its blocks' tails) for every subset C of
    the district in column order, in scope-local masks.  The plans and the pairs of parameters
    that share a term are built on first use.

    The build reads nothing of a graph, only the masks of the key: each
    member's ancestors in the district, its bidirected neighbours and
    its parents, in scope-local positions.
    ``heads._subset_partitions`` walks the district's subsets in
    counting order (``heads._subsets``) and gives each C its head
    partition through ``heads._partition``, with a memo local to the
    build: the blocks that one extraction round takes from C together
    with the partition of what the round leaves, a proper subset of C
    and so already in the memo.  C is a head when it is its own
    partition; its tail is read off the same masks (``heads._tail``),
    and every record is scope-local from the start.

    A shape over ``MAX_SHAPE_ENTRIES`` nonzeros of M (counted off the
    key), or entries of M, P and the Jacobian pairs together (counted
    off the subsets), raises ``GraphError`` before any of them is built.

    M is built in one array pass over the scope, growing the list of
    its nonzeros (local state r, subset C, sign), each packed into one
    integer, one scope vertex at a time: a district vertex at 0 must
    lie in C, one at 1 lies outside C or inside it with the sign
    flipped, and a parent only doubles the list.  One sort of the
    packed integers puts them in row order.  A nonzero's column is the
    first column of its C plus the rank of r's values on the tail of
    C's head partition.
    """

    def __init__(self, key: tuple):
        L, d_local, pa, an, sp = key
        members = tuple(_bits(d_local))
        n = len(members)
        # each local state r sums over the C >= O(r): 3^|D| 2^|pa(D)| nonzeros
        entries = 3**n << (L - n)
        _check_build(entries, "nonzeros of M")
        an_t, sp_t, pa_t = [0] * L, [0] * L, [0] * L
        for k, p in enumerate(members):
            an_t[p], sp_t[p], pa_t[p] = an[k], sp[k], pa[k]
        # each subset C with its head partition and its blocks' tails; C
        # is a head when it is its own partition, and its blocks, subsets
        # of it, come first.  C has a P entry per block of each term, and
        # 2^|C| 2^|pa(D)| nonzeros of M, each paired with every block
        tails: dict[int, int] = {}
        subsets: list[tuple] = []
        for c, blocks in _subset_partitions(an_t, sp_t, members):
            if blocks == (c,):
                tails[c] = _tail(an_t, sp_t, pa_t, c)
            t_union = 0
            for b in blocks:
                t_union |= tails[b]
            subsets.append((c, blocks, t_union))
            entries += len(blocks) * ((1 << t_union.bit_count()) + (1 << c.bit_count() + L - n))
        _check_build(entries, "entries of M, P and the Jacobian pairs")

        # terms: each C's tail assignments.  A head's term columns are its
        # run of parameters; any other C's, the ranks of each tail
        # assignment on its blocks' tails, blocks in parameter order
        first: dict[int, int] = {}  # each head's first local parameter
        theta_sets: dict[int, list[int]] = {p: [] for p in members}
        n_params = 0
        starts: list[int] = []  # first column of each C
        row_len: list[int] = []  # nonzeros of each row of P
        P_indices: list[int] = []
        t_all = 0
        for c, blocks, t_union in subsets:
            if blocks == (c,):
                run = range(n_params, n_params + (1 << t_union.bit_count()))
                first[c] = n_params
                for p in _bits(c):
                    theta_sets[p].extend(run)
                P_indices.extend(run)
                n_params = run.stop
            else:
                block_cols = []
                for b in sorted(blocks, key=first.get):
                    t_b, offset = tails[b], first[b]
                    # the block's rank at each tail assignment of C, in
                    # counting order with the earliest vertex most
                    # significant
                    ranks = [0]
                    for p in _bits(t_union):
                        ranks = ([x << 1 | y for x in ranks for y in (0, 1)] if t_b >> p & 1
                                 else [x for x in ranks for _ in (0, 1)])
                    block_cols.append([offset + x for x in ranks])
                P_indices.extend(itertools.chain.from_iterable(zip(*block_cols)))
            starts.append(len(row_len))
            row_len.extend([len(blocks)] * (1 << t_union.bit_count()))
            t_all |= t_union
        self.heads = tuple(tails.items())
        self.theta_cols = tuple(np.array(theta_sets[p], dtype=np.int64) for p in members)
        self.subsets = tuple(subsets)
        K = len(row_len)
        row_len = np.array(row_len, dtype=np.int64)
        P_indptr = np.zeros(K + 1, dtype=np.int64)
        np.cumsum(row_len, out=P_indptr[1:])
        P_indices = np.array(P_indices, dtype=np.int64)
        self.P_indptr = P_indptr
        self.P_indices = P_indices
        self.term_of = np.repeat(np.arange(K, dtype=np.int64), row_len)
        self.n_terms = K
        self.n_params = n_params
        self.saturated = n_params == ((1 << n) - 1) << (L - n)

        # M: the nonzeros (r, C, sign) with O(r) <= C, sign
        # (-1)^{|C - O(r)|}, C in local counting order, grown one scope
        # position k at a time, whose row bit is 1 << (L - 1 - k), and
        # packed into one integer (r, C, sign bit) that sorts in M's
        # row order.  A nonzero's column is the first column of its C
        # plus the rank of r's values on the tail of C
        v = np.zeros(1, dtype=np.int64)
        c_bit = 2
        for k in range(L):
            w = 1 << (L - k + n)
            if d_local >> k & 1:
                at_one = v | w
                v = np.concatenate([v | c_bit, at_one, at_one ^ (c_bit | 1)])
                c_bit <<= 1
            else:
                v = np.concatenate([v, v | w])
        v.sort()
        r = v >> (n + 1)
        c = v >> 1 & (1 << n) - 1
        tail = np.array([t for _, _, t in subsets], dtype=np.int64)[c]
        rank = np.zeros_like(r)
        for k in _bits(t_all):
            rank = np.where(tail >> k & 1, rank << 1 | r >> (L - 1 - k) & 1, rank)
        M_col = np.array(starts, dtype=np.int64)[c] + rank
        M_sign = np.where(v & 1, -1.0, 1.0)
        self.M_row, self.M_col, self.M_sign = r, M_col, M_sign
        self.n_states = 1 << L

        # the Jacobian's pairs: every nonzero (r, k) of M with every
        # parameter j of term k, in M's row order, as the flat position
        # r * n_params + j, the term, the parameter and M's sign
        reps = row_len[M_col]
        ends = np.cumsum(reps)
        e = np.repeat(np.arange(len(reps)), reps)
        j = P_indices[np.arange(ends[-1]) + (P_indptr[M_col] + reps - ends)[e]]
        self._jac_pairs = (r[e] * n_params + j, M_col[e], j, M_sign[e])

    @cached_property
    def plans(self) -> tuple[_VertexPlan, ...]:
        """The vertex plans of the members in ascending order."""
        return tuple(_VertexPlan(self, cols) for cols in self.theta_cols)

    @cached_property
    def pairs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(term, i, j)`` for every ordered pair i != j of parameters
        that share a term: each nonzero of P paired with every other
        nonzero of its row."""
        term_of = self.term_of
        reps = np.diff(self.P_indptr)[term_of]
        first = np.repeat(np.arange(len(term_of)), reps)
        offset = np.arange(len(first)) - np.repeat(np.cumsum(reps) - reps, reps)
        second = self.P_indptr[term_of[first]] + offset
        keep = first != second
        first, second = first[keep], second[keep]
        return term_of[first], self.P_indices[first], self.P_indices[second]


class DistrictMaps:
    """M and P of one district as index arrays, plus assembly plans.

    ``scope`` holds the canonical positions of the district and its
    parents in ascending order.  Rows of M are the 2^|scope| local
    states, in binary counting order with the first scope vertex most
    significant; columns are terms.  The local states are the scope's
    axes of a joint vector viewed as a ``(2,)*n`` table: :meth:`marginal`
    sums the other axes out, :meth:`joint` broadcasts over them.  Rows
    of P are terms; columns are the district's parameters in local
    indexing, the runs of its head record ``heads._district_heads``
    one after another; ``term_of`` is the row of each nonzero of P.
    ``heads`` is that record, (head mask, tail mask) pairs in parameter
    order, and ``saturated`` says whether the district has as many
    parameters as its kernel ``p(x_D | x_pa(D))`` has free cells,
    ``(2^|D| - 1) 2^|pa(D)|``: the parametrization has full dimension,
    so then the kernel is unconstrained.  ``plans`` maps each member's
    canonical position to its vertex plan.  A vertex set that is not a
    district of ``g`` raises ``KeyError``.

    An instance is a district shape (see ``_shape_key``) placed on one
    district.  The shape holds every array in scope-local coordinates,
    and the vertex plans, which are built on first use; the instance
    holds what depends on where the district sits: its members, scope,
    broadcast shape, its head record in canonical masks, its plans
    keyed by canonical position and its ``terms`` labels.  Where the
    district's parameters sit in the graph's parameter vector is kept
    by :class:`Parametrization`, which builds each shape once and
    places it on every district that has it.  ``DistrictMaps(g, d)``
    builds the shape of ``d`` afresh and places it there.  Instances
    are equal, and hash alike, when they place one shape object on one
    scope for one vertex order, so on one district.

    M is held as its nonzeros in row order, columns ascending within a
    row: ``M_row``, ``M_col`` and ``M_sign``; it has ``n_states`` rows
    and ``n_terms`` columns.  P is held as ``P_indptr`` and
    ``P_indices``, its values all 1.  :attr:`M` and :attr:`P` are scipy
    CSR matrices of them, built on first read for display and tests;
    reading them without scipy installed raises ``ImportError``.
    ``terms`` describes every column as a :class:`Term`; it is built
    on first access, so fits and searches never create them.
    """

    # what a placement reads off its shape
    _SHARED = ("n_states", "n_terms", "n_params", "saturated", "M_row", "M_col", "M_sign",
               "P_indptr", "P_indices", "term_of", "_jac_pairs")

    def __init__(self, g: Admg, district: Iterable[Vertex]):
        district = tuple(district)
        members = [g._index[v] for v in district]
        d_mask = g._as_mask(district)
        if list(_bits(d_mask)) != members:
            raise ValueError("district must be in canonical order")
        if not d_mask or _component(g._sp, d_mask & -d_mask, g.full_mask) != d_mask:
            raise KeyError(f"{district!r} is not a district")
        scope, key = _scope_and_key(g, d_mask)
        self._place(g, d_mask, scope, _Shape(key))

    @classmethod
    def _placed(cls, g: Admg, d_mask: int, scope: tuple[int, ...], shape: _Shape) -> DistrictMaps:
        """``shape`` placed on the district ``d_mask`` of ``g``, whose
        ``_shape_key`` it has, with no array built."""
        dm = cls.__new__(cls)
        dm._place(g, d_mask, scope, shape)
        return dm

    def _place(self, g: Admg, d_mask: int, scope: tuple[int, ...], shape: _Shape) -> None:
        self.district = g._labels(d_mask)
        self.members = tuple(_bits(d_mask))
        self.d_mask = d_mask
        self.scope = scope
        self.broadcast_shape = tuple(2 if p in scope else 1 for p in range(len(g.vertices)))
        self._outside = tuple(p for p, w in enumerate(self.broadcast_shape) if w == 1)
        self.heads = tuple((_graph_mask(h, scope), _graph_mask(t, scope)) for h, t in shape.heads)
        self._vertices = g.vertices
        self._shape = shape
        for name in self._SHARED:
            setattr(self, name, getattr(shape, name))

    def __eq__(self, other) -> bool:
        return (isinstance(other, DistrictMaps) and self._shape is other._shape
                and self.scope == other.scope and self._vertices == other._vertices)

    def __hash__(self) -> int:
        return hash((id(self._shape), self.scope))

    @cached_property
    def plans(self) -> dict[int, _VertexPlan]:
        """Each member's vertex plan, keyed by canonical position."""
        return dict(zip(self.members, self._shape.plans))

    @cached_property
    def M(self) -> scipy.sparse.csr_matrix:
        """M as a scipy CSR matrix."""
        indptr = np.zeros(self.n_states + 1, dtype=np.int64)
        np.cumsum(np.bincount(self.M_row, minlength=self.n_states), out=indptr[1:])
        return _sparse().csr_matrix((self.M_sign, self.M_col, indptr),
                                    shape=(self.n_states, self.n_terms))

    @cached_property
    def P(self) -> scipy.sparse.csr_matrix:
        """P as a scipy CSR matrix of ones."""
        return _sparse().csr_matrix((np.ones(len(self.P_indices)), self.P_indices, self.P_indptr),
                                    shape=(self.n_terms, self.n_params))

    @cached_property
    def terms(self) -> tuple[Term, ...]:
        """One :class:`Term` per column of M, in column order."""
        names = [self._vertices[p] for p in self.scope]

        def labels(local: int) -> tuple[Vertex, ...]:
            return tuple(names[k] for k in _bits(local))

        return tuple(
            Term(labels(c), tuple(map(labels, blocks)), labels(t), state)
            for c, blocks, t in self._shape.subsets
            for state in itertools.product((0, 1), repeat=t.bit_count())
        )

    def marginal(self, joint_vec: np.ndarray) -> np.ndarray:
        """A joint vector summed over the vertices outside the scope, in
        local row order."""
        table = joint_vec.reshape((2,) * len(self.broadcast_shape))
        return table.sum(axis=self._outside).ravel()

    def joint(self, local: np.ndarray) -> np.ndarray:
        """A local vector, or a matrix with one row per local state,
        repeated over all joint states in canonical order."""
        rest = local.shape[1:]
        table = local.reshape(self.broadcast_shape + rest)
        full = np.broadcast_to(table, (2,) * len(self.broadcast_shape) + rest)
        return full.reshape((-1,) + rest)

    def term_values(self, q_local: np.ndarray) -> np.ndarray:
        """The term products t(q), one per column of M."""
        return _kernels.get_kernels().term_products(self.P_indptr, self.P_indices, q_local)

    def _times(self, t: np.ndarray) -> np.ndarray:
        # M @ t, summed row by row in column order
        return np.bincount(self.M_row, weights=self.M_sign * t[self.M_col],
                           minlength=self.n_states)

    def factor(self, q_local: np.ndarray) -> np.ndarray:
        """The district's factor at each local state; ``joint`` of it is
        its factor of the joint probability vector."""
        return self._times(self.term_values(q_local))

    def affine(self, q_local: np.ndarray, vertex: int):
        """Dense (A, b) with factor = A @ theta - b over the local
        states, theta being the parameters whose head contains
        ``vertex`` (a canonical position).  Both come out of one
        weighted bincount over the nonzeros of M."""
        plan = self.plans[vertex]
        r = _kernels.get_kernels().term_products(*plan.rest, q_local)
        out = np.bincount(
            plan.slot,
            weights=self.M_sign * r[self.M_col],
            minlength=self.n_states * plan.width,
        ).reshape(-1, plan.width)
        return out[:, :-1], -out[:, -1], plan.theta_cols

    def _jacobian(self, q_local: np.ndarray, t: np.ndarray) -> np.ndarray:
        # chain rule: T[k, j] = d t_k / d q_j = P[k, j] t_k / q_j, and
        # J = M @ T summed row by row in column order
        flat, term, param, sign = self._jac_pairs
        J = np.bincount(flat, weights=sign * (t[term] / q_local[param]),
                        minlength=self.n_states * self.n_params)
        return J.reshape(self.n_states, self.n_params)

    def jacobian(self, q_local: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The factor ``f`` over the local states and its dense Jacobian
        ``J = M @ T`` with respect to the district's parameters, where
        ``T[k, j] = P[k, j] t_k / q_j``.  Requires positive parameters."""
        t = self.term_values(q_local)
        return self._times(t), self._jacobian(q_local, t)

    def observed_information(self, q_local: np.ndarray, counts: np.ndarray):
        """The factor ``f`` over the local states with the score and the
        observed information of ``sum(counts * log f)`` at ``q_local``.

        With ``w = counts / f`` (0 on rows without counts) the score is
        ``J' w`` and the information, minus the Hessian, is

            J' diag(w / f) J - sum_k (M' w)_k t_k / (q_i q_j),

        the second sum running over the ordered pairs i != j of
        parameters of term k: each parameter enters a term product at
        most once, so only those pairs have second derivatives.
        Requires positive parameters."""
        t = self.term_values(q_local)
        f = self._times(t)
        J = self._jacobian(q_local, t)
        pos = counts > 0
        w = np.zeros(len(f))
        w[pos] = counts[pos] / f[pos]
        Jp = J[pos]
        info = (Jp * (w[pos] / f[pos])[:, None]).T @ Jp
        info = (info + info.T) / 2.0
        term, i, j = self._shape.pairs
        # M' w, summed column by column in row order
        s = np.bincount(self.M_col, weights=self.M_sign * w[self.M_row],
                        minlength=self.n_terms) * t
        m = len(q_local)
        info -= np.bincount(
            i * m + j, weights=s[term] / (q_local[i] * q_local[j]), minlength=m * m
        ).reshape(m, m)
        return f, J.T @ w, info


def _shared_maps(g: Admg, d_mask: int, shapes: dict) -> DistrictMaps:
    """The maps of the district ``d_mask`` through a dict of shapes
    keyed by ``_shape_key``: the shape held there placed on the
    district, or else maps built afresh, whose shape is entered.  The
    build reads the key of the lookup back from the graph's memo."""
    scope, key = _scope_and_key(g, d_mask)
    shape = shapes.get(key)
    if shape is not None:
        return DistrictMaps._placed(g, d_mask, scope, shape)
    dm = DistrictMaps(g, g._labels(d_mask))
    shapes[key] = dm._shape
    return dm


def _share(shapes: dict, par: Parametrization) -> None:
    """Enter the shapes of the maps of ``par`` into a dict of shapes,
    keeping the entries it already holds."""
    g = par.graph
    for dm in par.maps:
        shapes.setdefault(_scope_and_key(g, dm.d_mask)[1], dm._shape)


class Parametrization:
    """All district maps of a graph bundled with its parameter table.

    ``slices[k]`` is the run of the graph's parameter vector that
    belongs to district ``maps[k]``, read off the table's
    ``district_slices``.  Each district shape is built once and placed
    on every district that has it (see :class:`DistrictMaps`).
    ``maps``, when given, is a dict of shapes keyed by ``_shape_key``
    that several graphs share: a district whose shape is there is
    placed without a build, so a district that two such graphs have in
    common has equal maps in both.  Without it, the districts of this
    graph share shapes among themselves only.  The table reads its
    head records from the maps.
    """

    def __init__(self, g: Admg, maps: dict | None = None):
        _check_size(g)
        self.graph = g
        shared = {} if maps is None else maps
        self.maps = tuple(_shared_maps(g, d_mask, shared)
                          for d_mask in g._district_masks(g.full_mask))
        if "params" not in g._memo:
            g._memo["params"] = ParamTable(g, [dm.heads for dm in self.maps])
        self.table = g._memo["params"]
        self.slices = tuple(sl for _, sl in self.table.district_slices)

    def district_of(self, pos: int) -> tuple[DistrictMaps, slice]:
        """Maps and parameter slice of the district holding canonical
        position ``pos``."""
        return next((dm, sl) for dm, sl in zip(self.maps, self.slices) if dm.d_mask >> pos & 1)

    def param_vector(self, q) -> np.ndarray:
        """``q`` as floats, refused unless it holds one value per parameter."""
        q = np.asarray(q, dtype=float)
        if len(q) != len(self.table):
            raise ValueError(f"expected {len(self.table)} parameters, got {len(q)}")
        return q

    def prob(self, q: np.ndarray) -> np.ndarray:
        return self.product([dm.factor(q[sl]) for dm, sl in zip(self.maps, self.slices)])

    def product(self, factors: Sequence[np.ndarray]) -> np.ndarray:
        """The joint probability vector of the districts' factors over
        their local states, one factor per district in order."""
        p = np.ones((2,) * len(self.graph.vertices))
        for dm, f in zip(self.maps, factors):
            p *= f.reshape(dm.broadcast_shape)
        return p.ravel()


def parametrization(g: Admg, maps: dict | None = None) -> Parametrization:
    """The graph's parametrization (cached on the graph); a first call
    with ``maps`` builds it through that shared dict."""
    if "parametrization" not in g._memo:
        g._memo["parametrization"] = Parametrization(g, maps)
    return g._memo["parametrization"]


def prob_vector(g: Admg, q: np.ndarray) -> np.ndarray:
    """Joint probabilities of all 2^|V| states in canonical row order.

    Entries sum to one for any parameter vector; they are nonnegative
    exactly when ``q`` lies in the model's parameter space.
    """
    par = parametrization(g)
    return par.prob(par.param_vector(q))


def prob_direct(g: Admg, q: np.ndarray, state: Sequence[int]) -> float:
    """One joint probability by the raw inclusion-exclusion sum.

    Exponential in |V|; exists as a slow reference implementation that
    shares no machinery with the matrix evaluation in
    :func:`prob_vector`.
    """
    q = np.asarray(q, dtype=float)
    table = enumerate_params(g)
    n = len(g.vertices)
    if len(state) != n:
        raise ValueError("state length mismatch")
    row = state_index(state)
    # the state tuple is in canonical vertex order; position masks use
    # bit k for the k-th vertex
    o_mask = 0
    for k, b in enumerate(state):
        if b == 0:
            o_mask |= 1 << k
    ones = g.full_mask & ~o_mask
    total = 0.0
    e = ones
    while True:
        c_mask = o_mask | e
        sign = -1.0 if bin(e).count("1") & 1 else 1.0
        prod = sign
        for b in _partition_masks(g, c_mask):
            prod *= q[table._index_by_row(b, row)]
        total += prod
        if e == 0:
            break
        e = (e - 1) & ones
    return total


def q_from_p(g: Admg, p: np.ndarray) -> np.ndarray:
    """Parameters of a joint distribution: every q(H | T = t) is read
    off ``p`` as a conditional probability.  Requires all conditioning
    events to have positive probability.

    The parameters of one head form a run over its tail assignments;
    each run is read off the marginal table of p on H and T."""
    p = np.asarray(p, dtype=float)
    table = enumerate_params(g)
    n = len(g.vertices)
    if len(p) != 1 << n:
        raise ValueError("probability vector has wrong length")
    zero, den = _head_runs(p.reshape((2,) * n), range(n), [(h, t) for h, t, _ in table.runs])
    bad = np.flatnonzero(den <= 0)
    if bad.size:
        name = table.params[bad[0]].name
        raise ValueError(f"conditioning event of {name} has mass {den[bad[0]]}")
    return zero / den


def _head_runs(table: np.ndarray, axes: Sequence[int], heads: Iterable[tuple[int, int]]):
    """The mass of ``X_H = 0`` and the mass of each tail assignment of
    every (head, tail) mask pair in ``heads``, read off a table of
    probabilities or counts whose axis k is the canonical position
    ``axes[k]``: one run per head, tail assignments in counting order,
    the runs one after another.  Their ratio is the heads' runs of
    parameters."""
    # an empty start keeps a graph without vertices, and so without heads
    zeros, dens = [np.empty(0)], [np.empty(0)]
    for h_mask, t_mask in heads:
        hpos, tpos = list(_bits(h_mask)), list(_bits(t_mask))
        keep = sorted(hpos + tpos)
        marg = table.sum(axis=tuple(k for k, a in enumerate(axes) if a not in keep))
        # rows: tail assignments in counting order; columns: head states
        marg = marg.transpose([keep.index(a) for a in tpos + hpos]).reshape(1 << len(tpos), -1)
        zeros.append(marg[:, 0])
        dens.append(marg.sum(axis=1))
    return np.concatenate(zeros), np.concatenate(dens)
