"""Greedy min-incident-weight peeling with per-size best-subgraph recording.

A peel starts from the whole node set (after a similarity prefilter),
repeatedly removes the member with the smallest incident weight, and records
for every intermediate size the average similarity and whether every member
still has a qualifying edge. Sizes are recorded as a removal order plus
per-size values, so a peel of n nodes costs O(n) memory instead of the
O(n^2) it would take to store every intermediate set. None of it depends on
the size floor p: the best feasible set for any p is picked afterwards.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from operator import truediv
from typing import Iterable, Iterator

from .errors import ParameterError
from .graph import ConstraintPair, SimGraph, Solution


@dataclass
class PeelStats:
    """Operation counters, filled in by peels that are handed an instance."""

    pushes: int = 0
    pops: int = 0
    removals: int = 0


@dataclass(frozen=True)
class PeelTrace:
    """Removal order of one peel: the set alive when k nodes remained is the
    last k entries of ``order``."""

    order: tuple[int, ...]

    def members_at(self, k: int) -> frozenset[int]:
        if not (0 <= k <= len(self.order)):
            raise ParameterError(f"trace holds {len(self.order)} nodes, asked for {k}")
        return frozenset(self.order[len(self.order) - k:])


class PeelProfile:
    """Best objective value and best subgraph recorded per subgraph size.

    An entry is (alpha, trace), and the set of size k is always the last k
    nodes of ``trace.order``. ``alpha_at(k)`` is -1.0 for sizes never
    reached, matching the convention that an unrecorded size holds the
    empty set. A profile returned by ``modified_sgsel`` also carries that
    peel's ``run``; one that merges several peels has none.
    """

    def __init__(self):
        self._best: dict[int, tuple[float, PeelTrace]] = {}
        self.run: PeelRun | None = None

    def record(self, size: int, alpha: float, trace: PeelTrace) -> None:
        """Keep (alpha, trace) for ``size`` if alpha beats the stored value."""
        cur = self._best.get(size)
        if cur is None or alpha > cur[0]:
            self._best[size] = (alpha, trace)

    def alpha_at(self, size: int) -> float:
        cur = self._best.get(size)
        return cur[0] if cur is not None else -1.0

    def members_at(self, size: int) -> frozenset[int]:
        cur = self._best.get(size)
        return cur[1].members_at(size) if cur is not None else frozenset()

    def sizes(self) -> list[int]:
        return sorted(self._best)

    def items(self) -> Iterator[tuple[int, float, PeelTrace]]:
        """(size, alpha, trace) for every recorded size."""
        for size in self.sizes():
            yield size, *self._best[size]

    def __len__(self) -> int:
        return len(self._best)


def _similarity_prefilter(g: SimGraph, s: float, nodes: Iterable[int], alive: bytearray, scnt: list[int]) -> int:
    """Drop nodes with no alive incident edge above ``s`` until a fixpoint.

    ``nodes`` lists the alive nodes in id order. Fills ``scnt`` with the
    surviving per-node count of incident edges above ``s`` to alive
    neighbors, and returns the survivor count.
    """
    adj = g._adj
    stack = []
    n_alive = 0
    for u in nodes:
        n_alive += 1
        cnt = 0
        for t, w in adj[u]:
            if w > s and alive[t]:
                cnt += 1
        scnt[u] = cnt
        if cnt == 0:
            stack.append(u)
    while stack:
        u = stack.pop()
        if not alive[u]:
            continue
        alive[u] = 0
        n_alive -= 1
        for t, w in adj[u]:
            if w > s and alive[t]:
                scnt[t] -= 1
                if scnt[t] == 0:
                    stack.append(t)
    return n_alive


@dataclass(frozen=True)
class PeelRun:
    """Everything one peel computes that does not depend on p.

    The set alive at size k is the last k nodes of ``trace.order``;
    ``alphas[k]`` is its average similarity and ``supported[k]`` is 1 when
    each of its members has an edge above s to another member (index 0 is
    unused). A run depends only on the graph, s and the start set, so one
    run answers the peel's question for every p.
    """

    trace: PeelTrace
    alphas: list[float]
    supported: bytearray

    def best_size(self, p: int) -> int:
        """Size of the best supported set above ``p`` nodes, 0 if none; the
        largest one wins an exact tie."""
        alphas, supported = self.alphas, self.supported
        best_alpha, best = -1.0, 0
        for k in range(len(self.trace.order), p, -1):
            if supported[k] and alphas[k] > best_alpha:
                best_alpha, best = alphas[k], k
        return best

    def best(self, p: int) -> frozenset[int]:
        """The set ``modified_sgsel`` returns for size floor ``p``."""
        return self.trace.members_at(self.best_size(p))


def modified_sgsel(
    g: SimGraph,
    c: ConstraintPair,
    within: Iterable[int] | None = None,
    stats: PeelStats | None = None,
) -> tuple[Solution, PeelProfile]:
    """Single global peel returning the best feasible set and the size profile.

    Nodes lacking any incident edge above ``c.s`` are removed up front (and
    cascaded), so every candidate the peel considers can only fail feasibility
    transiently, through a stranded neighbor. The peel then repeatedly removes
    the member with minimum incident weight (ties to the lowest id), records
    the objective at every size it passes through, and keeps the best state
    that was feasible. The initial, pre-removal set is a candidate too.

    ``within`` restricts the peel to an induced subset of nodes (ids stay in
    the graph's space); set-up then visits only those nodes. Returns an empty
    Solution when nothing feasible exists. The profile's ``run`` holds the
    peel's p-independent record, from which ``run.best(p)`` picks the result
    for any other size floor.
    """
    profile = PeelProfile()
    if within is None:
        nodes: Iterable[int] = range(g.n)
        alive = bytearray(b"\x01") * g.n
    else:
        nodes = sorted(set(within))
        alive = bytearray(g.n)
        for u in nodes:
            g._check_node(u)
            alive[u] = 1

    s = c.s
    scnt = [0] * g.n
    n_alive = _similarity_prefilter(g, s, nodes, alive, scnt)

    adj = g._adj
    incident = [0.0] * g.n
    total = 0.0
    heap = []
    for u in nodes:
        if not alive[u]:
            continue
        iw = 0.0
        for t, w in adj[u]:
            if alive[t]:
                iw += w
        incident[u] = iw
        total += iw
        heap.append((iw, u))
    total /= 2.0
    heapq.heapify(heap)
    if stats is not None:
        stats.pushes += len(heap)

    size = n_alive
    unsupported = 0
    order: list[int] = []
    # the weight alive at each size; the prefilter leaves the start supported
    totals: list[float] = [0.0] * (n_alive + 1)
    supported = bytearray(n_alive + 1)
    if n_alive:
        totals[size] = total
        supported[size] = 1

    pops = 0
    pushes = 0
    heappop = heapq.heappop
    heappush = heapq.heappush
    while heap:
        iw, v = heappop(heap)
        pops += 1
        if not alive[v] or iw != incident[v]:
            continue
        alive[v] = 0
        order.append(v)
        total -= iw
        size -= 1
        if scnt[v] == 0:
            unsupported -= 1
        for t, w in adj[v]:
            if alive[t]:
                nw = incident[t] - w
                incident[t] = nw
                heappush(heap, (nw, t))
                pushes += 1
                if w > s:
                    scnt[t] -= 1
                    if scnt[t] == 0:
                        unsupported += 1
        if size == 0:
            break
        totals[size] = total
        supported[size] = unsupported == 0

    if stats is not None:
        stats.pops += pops
        stats.pushes += pushes
        stats.removals += len(order)

    trace = PeelTrace(tuple(order))
    alphas = [0.0, *map(truediv, totals[1:], range(1, n_alive + 1))]
    profile.run = run = PeelRun(trace, alphas, supported)
    profile._best = {k: (alphas[k], trace) for k in range(1, n_alive + 1)}

    k = run.best_size(c.p)
    if not k:
        return Solution.empty(), profile
    return Solution(trace.members_at(k), totals[k], alphas[k]), profile
