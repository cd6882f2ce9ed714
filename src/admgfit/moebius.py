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
P are sparse and built once per graph; everything downstream
(likelihood, gradients, the Jacobian of p with respect to q) is
expressed through them, and joint vectors over all 2^|V| states are
gathered from the local ones through each district's ``rows`` index.
Holding one vertex's parameters fixed everywhere else makes the factor
affine in them; that form is assembled with one weighted bincount over
the nonzeros of M.

A district's maps depend only on the structure of the district, never
on where its parameters sit in the graph's parameter vector, which
:class:`Parametrization` keeps.  Graphs visited by one structure
search share a dict of maps, so a district that a single-edge move
leaves unchanged is built once per search.

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
from typing import Iterable, Sequence

import numpy as np
from scipy import sparse

from .graph import Admg, Vertex, _bits
from .heads import heads, _partition_masks, _subset_masks, _tail_mask

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
    """Row index of a joint 0/1 state, first vertex most significant."""
    idx = 0
    for b in state:
        idx = idx << 1 | (b & 1)
    return idx


def _state_bits(g: Admg) -> np.ndarray:
    """(2^n, n) matrix of joint states in canonical row order."""
    if "bits" not in g._memo:
        n = len(g.vertices)
        rows = np.arange(1 << n, dtype=np.int64)
        g._memo["bits"] = (rows[:, None] >> np.arange(n - 1, -1, -1)) & 1
    return g._memo["bits"]


def _tail_rank(row: int, n: int, tpos: tuple[int, ...]) -> int:
    r = 0
    for p in tpos:
        r = r << 1 | (row >> (n - 1 - p)) & 1
    return r


class ParamTable:
    """Canonical parameter enumeration for a graph.

    Supports position lookup by head and tail assignment, and exposes
    the contiguous slice of parameters belonging to each district.
    """

    def __init__(self, g: Admg):
        if len(g.vertices) > MAX_VERTICES:
            raise ValueError(f"too many vertices ({len(g.vertices)})")
        self.graph = g
        n = len(g.vertices)
        params: list[Param] = []
        lookup: dict[tuple[int, int], int] = {}
        slices: list[tuple[tuple[Vertex, ...], slice]] = []
        start = 0
        by_district: dict[int, list] = {}
        dmasks = g._district_masks(g.full_mask)
        for ht in heads(g):
            h_mask = g._as_mask(ht.head)
            d_idx = next(k for k, dm in enumerate(dmasks) if dm & h_mask)
            by_district.setdefault(d_idx, []).append((ht, h_mask))
        for d_idx, dm in enumerate(dmasks):
            begin = start
            for ht, h_mask in by_district.get(d_idx, []):
                tpos = tuple(g._index[v] for v in ht.tail)
                for s in range(1 << len(tpos)):
                    lookup[(h_mask, s)] = start
                    bits = tuple(s >> (len(tpos) - 1 - j) & 1 for j in range(len(tpos)))
                    params.append(Param(ht.head, ht.tail, bits))
                    start += 1
            slices.append((g._labels(dm), slice(begin, start)))
        self.params: tuple[Param, ...] = tuple(params)
        self._lookup = lookup
        self.district_slices = tuple(slices)
        self._n = n

    def __len__(self) -> int:
        return len(self.params)

    def __iter__(self):
        return iter(self.params)

    def index(self, head: Iterable[Vertex], tail_state: Sequence[int] = ()) -> int:
        """Global position of q(head | tail = tail_state); the state is
        given in canonical tail order."""
        h_mask = self.graph._as_mask(head)
        rank = 0
        for b in tail_state:
            rank = rank << 1 | (b & 1)
        try:
            return self._lookup[(h_mask, rank)]
        except KeyError:
            raise KeyError(f"no parameter for head {tuple(head)!r}") from None

    def _index_by_row(self, h_mask: int, row: int) -> int:
        """Position of the parameter for head ``h_mask`` with its tail
        read off the joint state with row index ``row``."""
        tpos = tuple(_bits(_tail_mask(self.graph, h_mask)))
        return self._lookup[(h_mask, _tail_rank(row, self._n, tpos))]

    def district_slice(self, district: Iterable[Vertex]) -> slice:
        want = tuple(district)
        for d, sl in self.district_slices:
            if d == want:
                return sl
        raise KeyError(f"{want!r} is not a district")


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
    that destination for every nonzero of M, in M's CSR order, as
    ``i * (|theta| + 1) + j`` with j = |theta| for -b.
    """

    __slots__ = ("theta_cols", "rest", "slot", "width")

    def __init__(self, maps: "DistrictMaps", theta_cols: np.ndarray):
        P_indptr, P_indices, M = maps.P_indptr, maps.P_indices, maps.M
        K = len(P_indptr) - 1
        T = len(theta_cols)
        theta_pos = np.full(maps.P.shape[1], -1, dtype=np.int64)
        theta_pos[theta_cols] = np.arange(T)
        term_of = maps.term_of
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
        m_row = np.repeat(np.arange(M.shape[0], dtype=np.int64), np.diff(M.indptr))
        self.slot = m_row * self.width + term_theta[M.indices]


def _maps_key(g: Admg, district: tuple[Vertex, ...]) -> tuple:
    """Everything a district's maps are computed from: the vertex
    order, the district and its scope, the district's heads with their
    tails in parameter order, and the head partition of every nonempty
    subset of the district.  Graphs that agree on it have equal maps."""
    d_mask = g._as_mask(district)
    heads_d = tuple((ht.head, ht.tail) for ht in heads(g) if g._as_mask(ht.head) & d_mask)
    partitions = tuple(_partition_masks(g, c) for c in _subset_masks(list(_bits(d_mask)))[1:])
    return (g.vertices, d_mask, d_mask | g._pa_mask(d_mask), heads_d, partitions)


class DistrictMaps:
    """Sparse M and P matrices of one district plus assembly plans.

    ``scope`` holds the canonical positions of the district and its
    parents in ascending order.  Rows of M are the 2^|scope| local
    states, in binary counting order with the first scope vertex most
    significant; columns are terms.  ``rows[i]`` is the local row of
    joint state i.  Rows of P are terms; columns are the district's
    parameters in local indexing; ``term_of`` is the row of each
    nonzero of P.  The maps hold nothing else of the
    graph: where the district's parameters sit in the graph's
    parameter vector is kept by :class:`Parametrization`, so graphs
    whose district has the same structure (see ``_maps_key``) can
    share one instance.

    M is built in one array pass over the scope, growing the list of
    its nonzeros (local state r, subset C, sign) one scope vertex at a
    time: a district vertex at 0 must lie in C, one at 1 lies outside
    C or inside it with the sign flipped, and a parent only doubles
    the list.  A nonzero's column is the first column of its C plus
    the rank of r's values on the tail of C's head partition.
    ``terms`` describes every column as a :class:`Term`; it is built
    on first access from one (C, blocks, tail) mask record per subset
    C, so fits and searches never create them.
    """

    def __init__(self, g: Admg, district: Iterable[Vertex]):
        table = enumerate_params(g)
        self.district = tuple(district)
        sl = table.district_slice(self.district)
        members = [g._index[v] for v in self.district]
        if members != sorted(members):
            raise ValueError("district must be in canonical order")
        d_mask = 0
        for p in members:
            d_mask |= 1 << p
        self.members = tuple(members)
        self.d_mask = d_mask
        self.scope = tuple(_bits(d_mask | g._pa_mask(d_mask)))
        L = len(self.scope)
        row_bit = {p: 1 << (L - 1 - k) for k, p in enumerate(self.scope)}
        self.rows = _state_bits(g)[:, self.scope] @ (1 << np.arange(L - 1, -1, -1))

        # local offsets of each head's parameter run
        local_offset: dict[int, int] = {}
        head_tpos: dict[int, tuple[int, ...]] = {}
        for j in range(sl.start, sl.stop):
            param = table.params[j]
            h_mask = g._as_mask(param.head)
            if h_mask not in local_offset:
                local_offset[h_mask] = j - sl.start
                head_tpos[h_mask] = tuple(g._index[v] for v in param.tail)

        # enumerate terms: subsets C of the district in counting order,
        # then tail assignments of the union of block tails; c_tail is
        # that union as a mask over the bits of a local state
        subsets: list[tuple] = []
        P_rows: list[list[int]] = []
        c_start: list[int] = []
        c_tail: list[int] = []
        col = 0
        for c_mask in _subset_masks(members):
            blocks = _partition_masks(g, c_mask)
            t_union = 0
            for b in blocks:
                t_union |= _tail_mask(g, b)
            tpos = tuple(_bits(t_union))
            subsets.append((c_mask, blocks, t_union))
            c_start.append(col)
            c_tail.append(sum(row_bit[p] for p in tpos))
            for s in range(1 << len(tpos)):
                cols = []
                for b in blocks:
                    rank = 0
                    for p in head_tpos[b]:
                        j = tpos.index(p)
                        rank = rank << 1 | (s >> (len(tpos) - 1 - j) & 1)
                    cols.append(local_offset[b] + rank)
                cols.sort()
                P_rows.append(cols)
            col += 1 << len(tpos)
        K = col
        self._subsets = tuple(subsets)
        self._vertices = g.vertices
        P_indptr = np.zeros(K + 1, dtype=np.int64)
        for k, cols in enumerate(P_rows):
            P_indptr[k + 1] = P_indptr[k] + len(cols)
        P_indices = np.array(
            [c for cols in P_rows for c in cols], dtype=np.int64
        )
        self.P_indptr = P_indptr
        self.P_indices = P_indices
        self.term_of = np.repeat(np.arange(K, dtype=np.int64), np.diff(P_indptr))
        self.P = sparse.csr_matrix(
            (np.ones(len(P_indices)), P_indices, P_indptr),
            shape=(K, sl.stop - sl.start),
        )

        # M: the nonzeros (r, C, sign) with O(r) <= C, sign
        # (-1)^{|C - O(r)|}, C in local counting order; every tail of a
        # head in the district lies in the scope
        r = np.zeros(1, dtype=np.int64)
        c = np.zeros(1, dtype=np.int64)
        sign = np.ones(1)
        for p in self.scope:
            w = row_bit[p]
            if d_mask >> p & 1:
                bit = 1 << members.index(p)
                r = np.concatenate([r, r | w, r | w])
                c = np.concatenate([c | bit, c, c | bit])
                sign = np.concatenate([sign, sign, -sign])
            else:
                r = np.concatenate([r, r | w])
                c = np.concatenate([c, c])
                sign = np.concatenate([sign, sign])
        tail = np.array(c_tail, dtype=np.int64)[c]
        rank = np.zeros_like(r)
        for w in row_bit.values():
            rank = np.where(tail & w, rank << 1 | ((r & w) > 0), rank)
        cols = np.array(c_start, dtype=np.int64)[c] + rank
        self.M = sparse.csr_matrix((sign, (r, cols)), shape=(1 << L, K))
        self.M.sort_indices()

        theta_sets: dict[int, list[int]] = {p: [] for p in members}
        for j in range(sl.start, sl.stop):
            h_mask = g._as_mask(table.params[j].head)
            for p in _bits(h_mask):
                theta_sets[p].append(j - sl.start)
        self.plans = {
            p: _VertexPlan(self, np.array(theta_sets[p], dtype=np.int64)) for p in members
        }

    @cached_property
    def terms(self) -> tuple[Term, ...]:
        """One :class:`Term` per column of M, in column order."""
        def labels(mask: int) -> tuple[Vertex, ...]:
            return tuple(self._vertices[p] for p in _bits(mask))

        return tuple(
            Term(labels(c), tuple(map(labels, blocks)), labels(t), state)
            for c, blocks, t in self._subsets
            for state in itertools.product((0, 1), repeat=t.bit_count())
        )

    def term_values(self, q_local: np.ndarray, term_products) -> np.ndarray:
        return term_products(self.P_indptr, self.P_indices, q_local)

    def factor(self, q_local: np.ndarray, term_products) -> np.ndarray:
        """The district's factor at each local state; ``factor(...)[rows]``
        is its factor of the joint probability vector."""
        return self.M @ self.term_values(q_local, term_products)

    def affine(self, q_local: np.ndarray, vertex: int, term_products):
        """Dense (A, b) with factor = A @ theta - b over the local
        states, theta being the parameters whose head contains
        ``vertex`` (a canonical position).  Both come out of one
        weighted bincount over the nonzeros of M."""
        plan = self.plans[vertex]
        r = term_products(*plan.rest, q_local)
        out = np.bincount(
            plan.slot,
            weights=self.M.data * r[self.M.indices],
            minlength=self.M.shape[0] * plan.width,
        ).reshape(-1, plan.width)
        return out[:, :-1], -out[:, -1], plan.theta_cols

    @cached_property
    def _pairs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
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

    def _jacobian(self, q_local: np.ndarray, t: np.ndarray) -> np.ndarray:
        # chain rule: T[k, j] = d t_k / d q_j = P[k, j] t_k / q_j
        term_of = self.term_of
        T = np.zeros(self.P.shape)
        T[term_of, self.P_indices] = t[term_of] / q_local[self.P_indices]
        return self.M @ T

    def jacobian(self, q_local: np.ndarray, term_products) -> tuple[np.ndarray, np.ndarray]:
        """The factor ``f`` over the local states and its dense Jacobian
        ``J = M @ T`` with respect to the district's parameters, where
        ``T[k, j] = P[k, j] t_k / q_j``.  Requires positive parameters."""
        t = self.term_values(q_local, term_products)
        return self.M @ t, self._jacobian(q_local, t)

    def observed_information(self, q_local: np.ndarray, counts: np.ndarray, term_products):
        """The factor ``f`` over the local states with the score and the
        observed information of ``sum(counts * log f)`` at ``q_local``.

        With ``w = counts / f`` (0 on rows without counts) the score is
        ``J' w`` and the information, minus the Hessian, is

            J' diag(w / f) J - sum_k (M' w)_k t_k / (q_i q_j),

        the second sum running over the ordered pairs i != j of
        parameters of term k: each parameter enters a term product at
        most once, so only those pairs have second derivatives.
        Requires positive parameters."""
        t = self.term_values(q_local, term_products)
        f = self.M @ t
        J = self._jacobian(q_local, t)
        pos = counts > 0
        w = np.zeros(len(f))
        w[pos] = counts[pos] / f[pos]
        Jp = J[pos]
        info = (Jp * (w[pos] / f[pos])[:, None]).T @ Jp
        info = (info + info.T) / 2.0
        term, i, j = self._pairs
        s = (self.M.T @ w) * t
        m = len(q_local)
        info -= np.bincount(
            i * m + j, weights=s[term] / (q_local[i] * q_local[j]), minlength=m * m
        ).reshape(m, m)
        return f, J.T @ w, info


def _shared_maps(g: Admg, district: tuple[Vertex, ...], maps: dict | None) -> DistrictMaps:
    if maps is None:
        return DistrictMaps(g, district)
    key = _maps_key(g, district)
    dm = maps.get(key)
    if dm is None:
        dm = maps[key] = DistrictMaps(g, district)
    return dm


class Parametrization:
    """All district maps of a graph bundled with its parameter table.

    ``slices[k]`` is the run of the graph's parameter vector that
    belongs to district ``maps[k]``.  ``maps``, when given, is a dict
    that several graphs share, keyed by ``_maps_key``: a district
    whose key is already there reuses those maps instead of building
    its own.
    """

    def __init__(self, g: Admg, maps: dict | None = None):
        self.graph = g
        self.table = enumerate_params(g)
        districts = g.districts()
        self.slices = tuple(self.table.district_slice(d) for d in districts)
        self.maps = tuple(_shared_maps(g, d, maps) for d in districts)

    def district_of(self, pos: int) -> tuple[DistrictMaps, slice]:
        """Maps and parameter slice of the district holding canonical
        position ``pos``."""
        return next((dm, sl) for dm, sl in zip(self.maps, self.slices) if dm.d_mask >> pos & 1)

    def prob(self, q: np.ndarray, term_products) -> np.ndarray:
        p = np.ones(1 << len(self.graph.vertices))
        for dm, sl in zip(self.maps, self.slices):
            p *= dm.factor(q[sl], term_products)[dm.rows]
        return p


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
    from ._kernels import get_kernels

    q = np.asarray(q, dtype=float)
    par = parametrization(g)
    if len(q) != len(par.table):
        raise ValueError(f"expected {len(par.table)} parameters, got {len(q)}")
    return par.prob(q, get_kernels().term_products)


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
        if not b & 1:
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
    joint = p.reshape((2,) * n)
    q = np.empty(len(table))
    j = 0
    while j < len(table):
        param = table.params[j]
        hpos = [g._index[v] for v in param.head]
        tpos = [g._index[v] for v in param.tail]
        keep = sorted(hpos + tpos)
        marg = joint.sum(axis=tuple(a for a in range(n) if a not in keep))
        # rows: tail assignments in counting order; columns: head states
        marg = marg.transpose([keep.index(a) for a in tpos + hpos]).reshape(1 << len(tpos), -1)
        den = marg.sum(axis=1)
        bad = np.flatnonzero(den <= 0)
        if bad.size:
            name = table.params[j + bad[0]].name
            raise ValueError(f"conditioning event of {name} has mass {den[bad[0]]}")
        q[j : j + len(den)] = marg[:, 0] / den
        j += len(den)
    return q
