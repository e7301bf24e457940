"""Weighted similarity graph and the core weight/objective arithmetic.

The graph is undirected, has no self-loops or parallel edges, and every
edge weight lies in (0, 1]. Node ids are dense integers 0..n-1. Instances
are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .errors import InvalidNodeError, ParameterError, PreconditionError

Edge = tuple[int, int, float]


class SimGraph:
    """Undirected weighted graph with dense ids and weights in (0, 1].

    Adjacency lists are sorted by neighbor id, so two graphs built from the
    same edge set (in any order) have identical internal layout and every
    traversal is deterministic. Graphs made by ``disjoint_union`` share the
    unchanged adjacency lists of their first input; no graph ever mutates a
    list after construction, so the sharing is invisible.
    """

    __slots__ = ("n", "m", "labels", "_adj", "_maxw")

    def __init__(self, n: int, edges: Iterable[Edge], labels: Sequence[str] | None = None):
        if n < 0:
            raise ParameterError(f"node count must be nonnegative, got {n}")
        if labels is not None and len(labels) != n:
            raise ParameterError(f"labels length {len(labels)} != node count {n}")
        adj: list[list[tuple[int, float]]] = [[] for _ in range(n)]
        m = 0
        for u, v, w in edges:
            if not (0 <= u < n) or not (0 <= v < n):
                raise InvalidNodeError(f"edge ({u},{v}) outside id range 0..{n - 1}")
            if u == v:
                raise ParameterError(f"self-loop on node {u}")
            if not (0.0 < w <= 1.0):
                raise ParameterError(f"edge ({u},{v}) weight {w} outside (0,1]")
            w = float(w)
            adj[u].append((v, w))
            adj[v].append((u, w))
            m += 1
        for u, lst in enumerate(adj):
            lst.sort()
            for i in range(1, len(lst)):
                if lst[i][0] == lst[i - 1][0]:
                    raise ParameterError(f"duplicate edge ({u},{lst[i][0]})")
        self.n = n
        self.m = m
        self.labels = tuple(labels) if labels is not None else None
        self._adj = adj
        self._maxw: list[float] | None = None

    @classmethod
    def _from_adj(cls, n: int, m: int, adj: list, labels: tuple[str, ...] | None) -> "SimGraph":
        """Wrap already validated, sorted adjacency lists without copying them."""
        g = cls.__new__(cls)
        g.n, g.m, g.labels, g._adj, g._maxw = n, m, labels, adj, None
        return g

    def neighbors(self, u: int) -> Sequence[tuple[int, float]]:
        """(neighbor, weight) pairs of ``u``, sorted by neighbor id. Read-only."""
        self._check_node(u)
        return self._adj[u]

    def degree(self, u: int) -> int:
        self._check_node(u)
        return len(self._adj[u])

    def weight(self, u: int, v: int) -> float:
        """Weight of edge (u, v), or 0.0 if absent."""
        self._check_node(u)
        self._check_node(v)
        for t, w in self._adj[u]:
            if t == v:
                return w
        return 0.0

    def edges(self) -> Iterator[Edge]:
        """All edges as (u, v, w) with u < v, in sorted order."""
        for u, lst in enumerate(self._adj):
            for v, w in lst:
                if u < v:
                    yield (u, v, w)

    def max_incident_weight(self, u: int) -> float:
        """Largest weight on any edge at ``u`` (0.0 for isolated nodes)."""
        self._check_node(u)
        return self._max_weights()[u]

    def _max_weights(self) -> list[float]:
        """Every node's largest incident weight, computed once per graph."""
        if self._maxw is None:
            self._maxw = [max(w for _, w in lst) if lst else 0.0 for lst in self._adj]
        return self._maxw

    def _check_node(self, u: int) -> None:
        if not (0 <= u < self.n):
            raise InvalidNodeError(f"node id {u} outside 0..{self.n - 1}")

    def __repr__(self) -> str:
        return f"SimGraph(n={self.n}, m={self.m})"


def _check_members(F: Iterable[int], g: SimGraph) -> frozenset[int]:
    members = frozenset(F)
    for u in members:
        if not (0 <= u < g.n):
            raise InvalidNodeError(f"member id {u} outside 0..{g.n - 1}")
    return members


def total_weight(F: Iterable[int], g: SimGraph) -> float:
    """Sum of edge weights over unordered member pairs of ``F``."""
    members = _check_members(F, g)
    acc = 0.0
    for u in members:
        for t, w in g.neighbors(u):
            if t > u and t in members:
                acc += w
    return acc


def avg_similarity(F: Iterable[int], g: SimGraph) -> float:
    """W(F) / |F|; 0.0 for the empty set."""
    members = _check_members(F, g)
    if not members:
        return 0.0
    return total_weight(members, g) / len(members)


def incident_weight(u: int, F: Iterable[int], g: SimGraph) -> float:
    """Sum of edge weights between ``u`` and members of ``F`` other than ``u``."""
    g._check_node(u)
    members = _check_members(F, g)
    acc = 0.0
    for t, w in g.neighbors(u):
        if t in members:
            acc += w
    return acc


def cross_weight(A: Iterable[int], B: Iterable[int], g: SimGraph) -> float:
    """Sum of edge weights with one endpoint in ``A`` and the other in ``B``.

    The sets must be disjoint.
    """
    sa = _check_members(A, g)
    sb = _check_members(B, g)
    if sa & sb:
        raise PreconditionError(f"sets overlap on {sorted(sa & sb)}")
    if len(sb) < len(sa):
        sa, sb = sb, sa
    acc = 0.0
    for u in sa:
        for t, w in g.neighbors(u):
            if t in sb:
                acc += w
    return acc


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
    members = _check_members(F, g)
    if len(members) <= c.p:
        return False
    for u in members:
        for t, w in g.neighbors(u):
            if w > c.s and t in members:
                break
        else:
            return False
    return True


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


def disjoint_union(g1: SimGraph, g2: SimGraph, bridges: Iterable[Edge] = ()) -> SimGraph:
    """Combine two graphs, shifting ``g2`` ids up by ``g1.n``.

    Bridge edges are given as (u, v, w) with ``u`` a g1 id and ``v`` a g2-local
    id; they land between the two halves of the result. The result shares
    ``g1``'s adjacency lists except at bridge endpoints, which get copies:
    beyond one reference per g1 node, building it costs O(|g2| + bridges),
    and neither input is ever mutated.
    """
    offset = g1.n
    adj = list(g1._adj)
    adj.extend([(t + offset, w) for t, w in lst] for lst in g2._adj)
    touched: dict[int, list[tuple[int, float]]] = {}
    m = g1.m + g2.m
    for u, v, w in bridges:
        if not (0 <= u < g1.n):
            raise PreconditionError(f"bridge endpoint {u} not in base graph 0..{g1.n - 1}")
        if not (0 <= v < g2.n):
            raise PreconditionError(f"bridge endpoint {v} not in added graph 0..{g2.n - 1}")
        v += offset
        if not (0.0 < w <= 1.0):
            raise ParameterError(f"edge ({u},{v}) weight {w} outside (0,1]")
        w = float(w)
        if u not in touched:
            touched[u] = adj[u] = list(adj[u])
        touched.setdefault(v, adj[v]).append((u, w))
        adj[u].append((v, w))
        m += 1
    for x, lst in touched.items():
        lst.sort()
        for i in range(1, len(lst)):
            if lst[i][0] == lst[i - 1][0]:
                raise ParameterError(f"duplicate edge ({x},{lst[i][0]})")
    labels = None
    if g1.labels is not None or g2.labels is not None:
        l1 = g1.labels if g1.labels is not None else ("",) * g1.n
        l2 = g2.labels if g2.labels is not None else ("",) * g2.n
        labels = l1 + l2
    return SimGraph._from_adj(g1.n + g2.n, m, adj, labels)
