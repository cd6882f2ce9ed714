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
expressed through them.  A joint vector over all 2^|V| states is a
``(2,)*|V|`` table, one axis per vertex, raveled in C order; a local
vector is that table's marginal on the scope and broadcasts back.
Holding one vertex's parameters fixed everywhere else makes the factor
affine in them; that form is assembled with one weighted bincount over
the nonzeros of M.  The term products are evaluated by the kernel that
``_kernels.get_kernels()`` returns, looked up on every call.

A district's maps depend only on the structure of the district, never
on where its parameters sit in the graph's parameter vector, which
:class:`Parametrization` keeps.  They are built from the district's
head record, ``heads._district_heads``: its (head, tail) masks in
parameter order, the same record that :class:`ParamTable` and
``_maps_key`` read.  Graphs visited by one structure
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

from . import _kernels
from .graph import Admg, Vertex, _bits
from .heads import _district_heads, _partition_masks, _subset_masks

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


def _tail_rank(row: int, n: int, tpos: tuple[int, ...]) -> int:
    r = 0
    for p in tpos:
        r = r << 1 | (row >> (n - 1 - p)) & 1
    return r


class ParamTable:
    """Canonical parameter enumeration for a graph.

    Supports position lookup by head and tail assignment.  ``runs``
    holds (head mask, tail mask, first position) for every head, in
    parameter order: a head's parameters are the run of its
    2^|tail| tail assignments from that position.  ``district_slices``
    pairs each district with its contiguous slice of parameters.
    """

    def __init__(self, g: Admg):
        if len(g.vertices) > MAX_VERTICES:
            raise ValueError(f"too many vertices ({len(g.vertices)})")
        self.graph = g
        params: list[Param] = []
        runs: list[tuple[int, int, int]] = []
        slices: list[tuple[tuple[Vertex, ...], slice]] = []
        for d_mask in g._district_masks(g.full_mask):
            begin = len(params)
            for h_mask, t_mask in _district_heads(g, d_mask):
                runs.append((h_mask, t_mask, len(params)))
                head, tail = g._labels(h_mask), g._labels(t_mask)
                k = len(tail)
                for s in range(1 << k):
                    bits = tuple(s >> (k - 1 - j) & 1 for j in range(k))
                    params.append(Param(head, tail, bits))
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
    order, the district and its scope, the district's head record
    (head and tail masks in parameter order) and the head partition of
    every nonempty subset of the district.  Graphs that agree on it
    have equal maps."""
    d_mask = g._as_mask(district)
    partitions = tuple(_partition_masks(g, c) for c in _subset_masks(list(_bits(d_mask)))[1:])
    return (g.vertices, d_mask, d_mask | g._pa_mask(d_mask), _district_heads(g, d_mask),
            partitions)


class DistrictMaps:
    """Sparse M and P matrices of one district plus assembly plans.

    ``scope`` holds the canonical positions of the district and its
    parents in ascending order.  Rows of M are the 2^|scope| local
    states, in binary counting order with the first scope vertex most
    significant; columns are terms.  The local states are the scope's
    axes of a joint vector viewed as a ``(2,)*n`` table: :meth:`marginal`
    sums the other axes out, :meth:`joint` broadcasts over them.  Rows
    of P are terms; columns are the district's parameters in local
    indexing, the runs of its head record ``heads._district_heads``
    one after another; ``term_of`` is the row of each nonzero of P.
    The maps hold nothing else of the graph: where the district's
    parameters sit in the graph's parameter vector is kept by
    :class:`Parametrization`, so graphs whose district has the same
    structure (see ``_maps_key``) can share one instance.  A vertex
    set that is not a district of ``g`` raises ``KeyError``.

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
        self.district = tuple(district)
        members = [g._index[v] for v in self.district]
        d_mask = g._as_mask(self.district)
        if list(_bits(d_mask)) != members:
            raise ValueError("district must be in canonical order")
        if not d_mask or g._district_mask(members[0], g.full_mask) != d_mask:
            raise KeyError(f"{self.district!r} is not a district")
        self.members = tuple(members)
        self.d_mask = d_mask
        self.scope = tuple(_bits(d_mask | g._pa_mask(d_mask)))
        L = len(self.scope)
        row_bit = {p: 1 << (L - 1 - k) for k, p in enumerate(self.scope)}
        self.broadcast_shape = tuple(2 if p in row_bit else 1 for p in range(len(g.vertices)))
        self._outside = tuple(p for p, w in enumerate(self.broadcast_shape) if w == 1)

        # local offset of each head's parameter run, and the local
        # parameters whose head holds each member
        head_tail = dict(_district_heads(g, d_mask))
        local_offset: dict[int, int] = {}
        theta_sets: dict[int, list[int]] = {p: [] for p in members}
        n_params = 0
        for h_mask, t_mask in head_tail.items():
            local_offset[h_mask] = n_params
            run = range(n_params, n_params + (1 << t_mask.bit_count()))
            for p in _bits(h_mask):
                theta_sets[p].extend(run)
            n_params = run.stop

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
                t_union |= head_tail[b]
            tpos = tuple(_bits(t_union))
            subsets.append((c_mask, blocks, t_union))
            c_start.append(col)
            c_tail.append(sum(row_bit[p] for p in tpos))
            # each block's run offset and the places of its tail in tpos
            block_runs = [(local_offset[b], [tpos.index(p) for p in _bits(head_tail[b])])
                          for b in blocks]
            for s in range(1 << len(tpos)):
                cols = []
                for offset, places in block_runs:
                    rank = 0
                    for j in places:
                        rank = rank << 1 | (s >> (len(tpos) - 1 - j) & 1)
                    cols.append(offset + rank)
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
            shape=(K, n_params),
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

    def factor(self, q_local: np.ndarray) -> np.ndarray:
        """The district's factor at each local state; ``joint`` of it is
        its factor of the joint probability vector."""
        return self.M @ self.term_values(q_local)

    def affine(self, q_local: np.ndarray, vertex: int):
        """Dense (A, b) with factor = A @ theta - b over the local
        states, theta being the parameters whose head contains
        ``vertex`` (a canonical position).  Both come out of one
        weighted bincount over the nonzeros of M."""
        plan = self.plans[vertex]
        r = _kernels.get_kernels().term_products(*plan.rest, q_local)
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

    def jacobian(self, q_local: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The factor ``f`` over the local states and its dense Jacobian
        ``J = M @ T`` with respect to the district's parameters, where
        ``T[k, j] = P[k, j] t_k / q_j``.  Requires positive parameters."""
        t = self.term_values(q_local)
        return self.M @ t, self._jacobian(q_local, t)

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
    belongs to district ``maps[k]``, read off the table's
    ``district_slices``.  ``maps``, when given, is a dict
    that several graphs share, keyed by ``_maps_key``: a district
    whose key is already there reuses those maps instead of building
    its own.
    """

    def __init__(self, g: Admg, maps: dict | None = None):
        self.graph = g
        self.table = enumerate_params(g)
        self.slices = tuple(sl for _, sl in self.table.district_slices)
        self.maps = tuple(_shared_maps(g, d, maps) for d, _ in self.table.district_slices)

    def district_of(self, pos: int) -> tuple[DistrictMaps, slice]:
        """Maps and parameter slice of the district holding canonical
        position ``pos``."""
        return next((dm, sl) for dm, sl in zip(self.maps, self.slices) if dm.d_mask >> pos & 1)

    def prob(self, q: np.ndarray) -> np.ndarray:
        p = np.ones((2,) * len(self.graph.vertices))
        for dm, sl in zip(self.maps, self.slices):
            p *= dm.factor(q[sl]).reshape(dm.broadcast_shape)
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
    q = np.asarray(q, dtype=float)
    par = parametrization(g)
    if len(q) != len(par.table):
        raise ValueError(f"expected {len(par.table)} parameters, got {len(q)}")
    return par.prob(q)


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
    for h_mask, t_mask, j in table.runs:
        hpos, tpos = list(_bits(h_mask)), list(_bits(t_mask))
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
    return q
