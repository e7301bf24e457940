"""Weighted similarity graph and the core weight/objective arithmetic.

The graph is undirected, has no self-loops or parallel edges, and every
edge weight lies in (0, 1]. Node ids are dense integers 0..n-1. Instances
are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import CapacityError, InvalidNodeError, ParameterError, PreconditionError

Edge = tuple[int, int, float]

# ids are stored as int32, so a graph holds at most 2**31 nodes
MAX_NODES = 2**31


def _check_node_count(n: int) -> None:
    if n > MAX_NODES:
        raise CapacityError(f"node count {n} exceeds the {MAX_NODES} node limit")


class SimGraph:
    """Undirected weighted graph with dense ids and weights in (0, 1].

    Adjacency is stored once, in compressed sparse rows: the neighbours of
    ``u`` are ``indices[indptr[u]:indptr[u + 1]]`` (int32) in increasing id
    order, with their weights at the same positions of ``weights``
    (float64), and every edge appears in both of its rows. So two graphs
    built from the same edge set (in any order) have identical arrays and
    every traversal is deterministic. The arrays are read-only.
    """

    __slots__ = ("n", "m", "indptr", "indices", "weights", "_strength", "_parts")

    def __init__(self, n: int, edges: Iterable[Edge] | np.ndarray):
        """``edges`` holds (u, v, w) triples in any order and orientation,
        as an iterable, an (m, 3) array or a record array of three fields
        u, v, w. A bad edge raises for the first one in input order, a
        duplicate for the smallest (u, v) repeated.

        The m keys ``lo * n + hi`` of the edges (lo < hi their ends) are
        sorted unless they already increase strictly, as a written MSG1
        file's do. Each row then holds its lower neighbours, in the order
        of a sort of the edges by (hi, lo), followed by its upper ones, in
        key order."""
        if n < 0:
            raise ParameterError(f"node count must be nonnegative, got {n}")
        _check_node_count(n)
        if isinstance(edges, np.ndarray) and edges.dtype.names:
            u, v, w = (edges[f] for f in edges.dtype.names)
        else:
            if not isinstance(edges, np.ndarray):
                edges = list(edges)
            e = np.asarray(edges, dtype=np.float64)  # only read, so an array is not copied
            if e.size == 0:
                e = e.reshape(0, 3)
            if e.ndim != 2 or e.shape[1] != 3:
                raise ParameterError("edges must be (u, v, w) triples")
            u, v, w = e.T
        bad_end = ~((u >= 0) & (u < n) & (v >= 0) & (v < n))
        loop = u == v
        bad = bad_end | loop | ~((w > 0.0) & (w <= 1.0))
        if bad.any():
            i = int(bad.argmax())
            u, v, wi = edges[i]
            if bad_end[i]:
                raise InvalidNodeError(f"edge ({u},{v}) outside id range 0..{n - 1}")
            if loop[i]:
                raise ParameterError(f"self-loop on node {u}")
            raise ParameterError(f"edge ({u},{v}) weight {wi} outside (0,1]")
        u, v = u.astype(np.int64, copy=False), v.astype(np.int64, copy=False)
        lo, hi = np.minimum(u, v), np.maximum(u, v)
        key = lo * n + hi
        if not (key[1:] > key[:-1]).all():
            order = np.argsort(key)
            key = key[order]
            dup = np.flatnonzero(key[1:] == key[:-1])
            if dup.size:
                raise ParameterError(f"duplicate edge ({key[dup[0]] // n},{key[dup[0]] % n})")
            lo, hi, w = lo[order], hi[order], w[order]
        m = len(key)
        up, down = np.bincount(lo, minlength=n), np.bincount(hi, minlength=n)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(up + down, out=indptr[1:])
        indices = np.empty(2 * m, dtype=np.int32)
        weights = np.empty(2 * m)
        # the k-th upper entry in key order sits after the lower entries of
        # rows <= its row; the k-th lower one in (hi, lo) order after the
        # upper entries of rows < its row
        at = np.arange(m)
        pos = at + np.repeat(np.cumsum(down), up)
        indices[pos], weights[pos] = hi, w
        order = np.argsort(hi * n + lo)
        pos = at + np.repeat(np.cumsum(up) - up, down)
        indices[pos], weights[pos] = lo[order], w[order]
        self._set(n, m, indptr, indices, weights)

    def _set(self, n, m, indptr, indices, weights, parts=None) -> None:
        """Take validated, sorted arrays as the graph's, read-only; ``parts``
        is what a merged graph's ``strength`` starts from, None for a graph
        that builds its own."""
        for a in (indptr, indices, weights):
            a.flags.writeable = False
        self.n, self.m = n, m
        self.indptr, self.indices, self.weights = indptr, indices, weights
        self._strength: tuple[np.ndarray, np.ndarray] | None = None
        self._parts = parts

    def strength(self) -> tuple[np.ndarray, np.ndarray]:
        """Every node's weighted degree, its row summed in row order (the
        bits of a ``bincount`` over its gathered row), and the weight of its
        strongest edge (0.0 without any), as two read-only arrays. They are
        built in O(n + m) on the first call and kept, or taken from the
        inputs of a merged graph (see ``disjoint_union``). Two threads that
        race on the first call build the same arrays."""
        if self._strength is None:
            parts = self._parts
            if parts is None:
                deg, top = self._summed(0)
            else:
                # a merged graph whose base half has its arrays: a bridge
                # comes last in its base row, so that row's sums go on from
                # the base's in row order, and the added half's rows, whose
                # bridges come first, are summed whole
                (base_deg, base_top), ends, w = parts
                k = len(base_deg)
                deg, top = (np.concatenate((a, b)) for a, b in zip((base_deg, base_top), self._summed(k)))
                base = ends < k
                np.add.at(deg, ends[base], w[base])
                np.maximum.at(top, ends[base], w[base])
            deg.flags.writeable = top.flags.writeable = False
            self._strength, self._parts = (deg, top), None
        return self._strength

    def _summed(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """The weighted degree and strongest edge of nodes k..n-1, from their
        rows."""
        ptr = self.indptr
        src = np.repeat(np.arange(self.n - k), np.diff(ptr[k:]))
        w = self.weights[ptr[k]:]
        # bincount adds each bin's weights in input order, that is row by row;
        # an empty one counts in int64
        deg = np.bincount(src, weights=w, minlength=self.n - k).astype(np.float64, copy=False)
        top = np.zeros(self.n - k)
        np.maximum.at(top, src, w)
        return deg, top

    def row(self, u: int) -> tuple[list[int], list[float]]:
        """The neighbours of ``u`` in increasing id order and their weights,
        as two lists; ``u`` is not range-checked."""
        a, b = self.indptr[u:u + 2].tolist()
        return self.indices[a:b].tolist(), self.weights[a:b].tolist()

    def gather(self, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The edges of ``nodes``, row after row in the order given: the row
        node of each, and its position in ``indices`` and ``weights``. The
        cost follows the degrees of ``nodes``."""
        starts = self.indptr[nodes]
        counts = self.indptr[nodes + 1] - starts
        firsts = np.cumsum(counts) - counts
        pos = np.repeat(starts - firsts, counts) + np.arange(int(counts.sum()))
        return np.repeat(nodes, counts), pos

    def neighbors(self, u: int) -> Sequence[tuple[int, float]]:
        """(neighbor, weight) pairs of ``u``, sorted by neighbor id."""
        self._check_node(u)
        return list(zip(*self.row(u)))

    def degree(self, u: int) -> int:
        self._check_node(u)
        return int(self.indptr[u + 1] - self.indptr[u])

    def weight(self, u: int, v: int) -> float:
        """Weight of edge (u, v), or 0.0 if absent."""
        self._check_node(u)
        self._check_node(v)
        a, b = self.indptr[u:u + 2].tolist()
        i = a + int(np.searchsorted(self.indices[a:b], v))
        return float(self.weights[i]) if i < b and self.indices[i] == v else 0.0

    def edges(self) -> Iterator[Edge]:
        """All edges as (u, v, w) with u < v, in sorted order."""
        return zip(*(a.tolist() for a in self.upper()))

    def upper(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """All edges as arrays u, v, w with u < v, in sorted order."""
        rows = np.repeat(np.arange(self.n), np.diff(self.indptr))
        upper = rows < self.indices
        return rows[upper], self.indices[upper], self.weights[upper]

    def max_incident_weight(self, u: int) -> float:
        """Largest weight on any edge at ``u`` (0.0 for isolated nodes)."""
        self._check_node(u)
        return max(self.row(u)[1], default=0.0)

    def _check_node(self, u: int) -> None:
        if not (0 <= u < self.n):
            raise InvalidNodeError(f"node id {u} outside 0..{self.n - 1}")

    def __repr__(self) -> str:
        return f"SimGraph(n={self.n}, m={self.m})"


def _distinct(a: np.ndarray) -> np.ndarray:
    """The distinct values of ``a`` in increasing order, as ``np.unique``
    gives them, by a sort and a neighbour compare. A plain np.unique call
    imports numpy.ma (numpy 2.4), which costs more than most callers'
    whole work."""
    a = np.sort(a)
    keep = np.ones(len(a), dtype=bool)
    np.not_equal(a[1:], a[:-1], out=keep[1:])
    return a[keep]


def _check_members(F: Iterable[int], g: SimGraph) -> frozenset[int]:
    members = frozenset(F)
    for u in members:
        if not (0 <= u < g.n):
            raise InvalidNodeError(f"member id {u} outside 0..{g.n - 1}")
    return members


def total_weight(F: Iterable[int], g: SimGraph) -> float:
    """Sum of edge weights over unordered member pairs of ``F``: W of the
    member set's group, so any path to the same set gets the same bits."""
    return _Group(g, _check_members(F, g)).weight


def avg_similarity(F: Iterable[int], g: SimGraph) -> float:
    """W(F) / |F|; 0.0 for the empty set."""
    return _Group(g, _check_members(F, g)).alpha


def incident_weight(u: int, F: Iterable[int], g: SimGraph) -> float:
    """Sum of edge weights between ``u`` and members of ``F`` other than ``u``."""
    g._check_node(u)
    members = _check_members(F, g)
    acc = 0.0
    for t, w in zip(*g.row(u)):
        if t in members:
            acc += w
    return acc


def cross_weight(A: Iterable[int], B: Iterable[int], g: SimGraph) -> float:
    """Sum of edge weights with one endpoint in ``A`` and the other in ``B``:
    the exactly rounded sum of the larger set's weights into the group of
    the smaller.

    The sets must be disjoint.
    """
    sa = _check_members(A, g)
    sb = _check_members(B, g)
    if sa & sb:
        raise PreconditionError(f"sets overlap on {sorted(sa & sb)}")
    if len(sb) < len(sa):
        sa, sb = sb, sa
    return math.fsum(_Group(g, sa).inw[np.fromiter(sb, np.int64, len(sb))].tolist())


@dataclass(frozen=True)
class ConstraintPair:
    """Similarity threshold ``s`` in (0,1) and size threshold ``p`` >= 0.

    A member set F is feasible when |F| > p and every member has an in-group
    edge with weight strictly greater than s.
    """

    s: float
    p: int

    def __post_init__(self):
        if not (0.0 < self.s < 1.0):
            raise ParameterError(f"similarity threshold s={self.s} outside (0,1)")
        if self.p < 0 or int(self.p) != self.p:
            raise ParameterError(f"size threshold p={self.p} must be a nonnegative integer")


def is_feasible(F: Iterable[int], g: SimGraph, c: ConstraintPair) -> bool:
    """True iff |F| > c.p and every member has an in-group edge above c.s."""
    return _Group(g, _check_members(F, g)).feasible(c)


@dataclass(frozen=True)
class Solution:
    """A member set with its cached total weight and average similarity."""

    members: frozenset[int]
    total_weight: float
    alpha: float

    @classmethod
    def empty(cls) -> "Solution":
        return cls(frozenset(), 0.0, 0.0)

    @classmethod
    def from_members(cls, g: SimGraph, F: Iterable[int]) -> "Solution":
        members = frozenset(F)
        if not members:
            return cls.empty()
        w = total_weight(members, g)
        return cls(members, w, w / len(members))

    @property
    def size(self) -> int:
        return len(self.members)

    def __bool__(self) -> bool:
        return bool(self.members)


class _Group:
    """A member set plus every node's weight into it: the one place a
    member set's weights are summed.

    ``mask`` marks the members. For each node u, member or not, ``inw[u]``
    sums the weights of u's edges to members in row order, the bits of
    ``incident_weight(u, members, graph)``, and ``top[u]`` is the largest
    of them (0.0 without any), so the group is supported at s exactly when
    every member's ``top`` exceeds s. A build gathers the sorted members'
    own rows once; ``move_to`` recomputes both arrays for the rows that
    hold a changed node, so a change costs the degrees of the changed
    nodes' neighbours. Either way the arrays depend on the member set
    alone. ``weight`` is W of the group, the exactly rounded sum of the
    members' ``inw`` halved, so a member set has one alpha whatever path
    reached it; it is summed on the first read after a change.
    ``solution`` is the Solution the group was last adopted as, and None
    once a member changes.
    """

    __slots__ = ("graph", "members", "mask", "inw", "top", "solution", "_weight")

    def __init__(self, g: SimGraph, members: Iterable[int] = ()):
        """``members`` must be ids of ``g``; they are not range-checked."""
        self.graph = g
        self.members: frozenset[int] = frozenset(members)
        nodes = np.sort(np.fromiter(self.members, np.int64, len(self.members)))
        self.mask = np.zeros(g.n, dtype=bool)
        self.mask[nodes] = True
        pos = g.gather(nodes)[1]
        dst, w = g.indices[pos], g.weights[pos]
        # bin t adds t's edges to members in increasing member id, which is
        # t's row order, as incident_weight does; an empty gather counts in
        # int64
        self.inw = np.bincount(dst, weights=w, minlength=g.n).astype(np.float64, copy=False)
        self.top = np.zeros(g.n)
        np.maximum.at(self.top, dst, w)
        self.solution: Solution | None = None
        self._weight: float | None = None

    def copy(self) -> "_Group":
        new = _Group.__new__(_Group)
        new.graph, new.members = self.graph, self.members
        new.mask, new.inw, new.top = self.mask.copy(), self.inw.copy(), self.top.copy()
        new.solution, new._weight = self.solution, self._weight
        return new

    @property
    def weight(self) -> float:
        if self._weight is None:
            self._weight = math.fsum(self.inw[self.mask].tolist()) / 2.0
        return self._weight

    @property
    def alpha(self) -> float:
        return self.weight / len(self.members) if self.members else 0.0

    def feasible(self, c: ConstraintPair) -> bool:
        """True iff |members| > c.p and every member has an edge above c.s
        to another member."""
        return len(self.members) > c.p and bool(self.top[self.mask].min() > c.s)

    def move_to(self, target: Iterable[int]) -> None:
        """Make ``target`` the member set: flip the nodes that change in
        ``mask`` and recompute the rows of their neighbours."""
        target = frozenset(target)
        changed = np.fromiter(self.members ^ target, np.int64)
        if not changed.size:
            return
        g = self.graph
        self.members = target
        self.mask[changed] = ~self.mask[changed]
        self.solution = self._weight = None
        hit = np.zeros(g.n, dtype=bool)
        hit[g.indices[g.gather(changed)[1]]] = True
        self._refresh(np.flatnonzero(hit))

    def _refresh(self, rows: np.ndarray) -> None:
        """Recompute ``inw`` and ``top`` of ``rows``, distinct nodes in id
        order with an edge each, from their edges to members."""
        if not rows.size:
            return
        g = self.graph
        src, pos = g.gather(rows)
        w = np.where(self.mask[g.indices[pos]], g.weights[pos], 0.0)
        # bincount adds each row's weights in row order, as incident_weight
        # does, and a non-member's 0.0 leaves the sum as it was
        self.inw[rows] = np.bincount(src, weights=w, minlength=g.n)[rows]
        # every weight is >= 0.0, so a row's maximum starts from 0.0
        self.top[rows] = 0.0
        np.maximum.at(self.top, src, w)

    def challenger(self, members: frozenset[int], c: ConstraintPair) -> "_Group | None":
        """A copy of the group moved onto ``members``, if it beats the group
        under ``c``, else None. A candidate beats the group when it
        is feasible and has a higher alpha or the group is infeasible; the
        group wins exact ties, and its own member set never beats it."""
        if members == self.members:
            return None
        cand = self.copy()
        cand.move_to(members)
        if cand.feasible(c) and (cand.alpha > self.alpha or not self.feasible(c)):
            return cand
        return None

    def extend_graph(self, g: SimGraph, bridges: list[tuple[int, int, float]]) -> None:
        """Move onto ``g = disjoint_union(self.graph, extra, bridges)``; the
        added nodes start outside, so only the bridge ends they hold change
        weight."""
        offset, k = self.graph.n, g.n - self.graph.n
        self.graph = g
        self.mask, self.inw, self.top = (np.pad(a, (0, k)) for a in (self.mask, self.inw, self.top))
        self._refresh(_distinct(np.array([v + offset for u, v, _ in bridges if self.mask[u]], np.int64)))


def disjoint_union(g1: SimGraph, g2: SimGraph, bridges: Iterable[Edge] = ()) -> SimGraph:
    """Combine two graphs, shifting ``g2`` ids up by ``g1.n``.

    Bridge edges are given as (u, v, w) with ``u`` a g1 id and ``v`` a g2-local
    id; they land between the two halves of the result. The result's arrays
    are the inputs' arrays laid end to end with the bridges inserted: a
    bridge comes last in its g1 row and first in its g2 row, since it joins
    the lower half to the upper. Building it costs O(m1 + m2 + bridges)
    array copying, and neither input is ever mutated. The result's
    ``strength`` arrays, built on its first call, start from ``g1``'s when
    it has built them: only ``g2``'s rows are summed again, and the
    bridges added to the rows of their ``g1`` ends.
    """
    offset, n = g1.n, g1.n + g2.n
    _check_node_count(n)
    ends: list[tuple[int, int]] = []
    weights: list[float] = []
    for u, v, w in bridges:
        if not (0 <= u < g1.n):
            raise PreconditionError(f"bridge endpoint {u} not in base graph 0..{g1.n - 1}")
        if not (0 <= v < g2.n):
            raise PreconditionError(f"bridge endpoint {v} not in added graph 0..{g2.n - 1}")
        v += offset
        if not (0.0 < w <= 1.0):
            raise ParameterError(f"edge ({u},{v}) weight {w} outside (0,1]")
        ends.append((u, v))
        weights.append(float(w))
    if len(set(ends)) < len(ends):
        # name the repeat as a row-by-row scan of the bridge ends would,
        # visiting them in the order they first appear
        for x in dict.fromkeys(x for e in ends for x in e):
            seen = sorted(v if u == x else u for u, v in ends if x in (u, v))
            for a, b in zip(seen, seen[1:]):
                if a == b:
                    raise ParameterError(f"duplicate edge ({x},{a})")
    b = np.array(ends, dtype=np.int64).reshape(-1, 2)
    rows = np.concatenate((b[:, 0], b[:, 1]))
    cols = np.concatenate((b[:, 1], b[:, 0]))
    order = np.lexsort((cols, rows))
    rows, cols = rows[order], cols[order]
    base = np.concatenate((g1.indptr[:-1], g2.indptr + g1.indptr[-1]))
    at = np.where(rows < offset, base[rows + 1], base[rows])
    indices = np.insert(np.concatenate((g1.indices, g2.indices + np.int32(offset))), at, cols)
    bridged = np.array(weights * 2)[order]
    wts = np.insert(np.concatenate((g1.weights, g2.weights)), at, bridged)
    indptr = base + np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=n))))
    # the arrays are validated and sorted already, so wrap them as they are
    g = SimGraph.__new__(SimGraph)
    parts = None if g1._strength is None else (g1._strength, rows, bridged)
    g._set(n, g1.m + g2.m + len(ends), indptr, indices, wts, parts)
    return g
