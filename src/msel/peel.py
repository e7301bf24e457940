"""Greedy min-incident-weight peeling with per-size best-subgraph recording.

A peel starts from the whole node set (after a similarity prefilter),
repeatedly removes the member with the smallest incident weight, and tracks
both the best feasible set seen and, for every intermediate size, the best
average similarity reached at that size. Sizes are recorded as a removal
order plus per-size objective values, so a peel of n nodes costs O(n) memory
instead of the O(n^2) it would take to store every intermediate set.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
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
    empty set.
    """

    def __init__(self):
        self._best: dict[int, tuple[float, PeelTrace]] = {}

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


def _similarity_prefilter(g: SimGraph, s: float, alive: bytearray, scnt: list[int]) -> int:
    """Drop nodes with no alive incident edge above ``s`` until a fixpoint.

    Fills ``scnt`` with the surviving per-node count of incident edges above
    ``s`` to alive neighbors, and returns the survivor count.
    """
    adj = g._adj
    stack = []
    n_alive = 0
    for u in range(g.n):
        if not alive[u]:
            continue
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
    the graph's space). Returns an empty Solution when nothing feasible exists.
    """
    profile = PeelProfile()
    if g.n == 0:
        return Solution.empty(), profile

    alive = bytearray(g.n) if within is not None else bytearray(b"\x01") * g.n
    if within is not None:
        for u in within:
            g._check_node(u)
            alive[u] = 1

    scnt = [0] * g.n
    n_alive = _similarity_prefilter(g, c.s, alive, scnt)
    if n_alive == 0:
        return Solution.empty(), profile

    adj = g._adj
    incident = [0.0] * g.n
    total = 0.0
    heap = []
    for u in range(g.n):
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

    p = c.p
    size = n_alive
    unsupported = 0
    order: list[int] = []
    alphas: list[float] = [0.0] * (n_alive + 1)

    alpha = total / size
    alphas[size] = alpha
    best_alpha = -1.0
    best_size = -1
    best_weight = 0.0
    if size > p:
        best_alpha, best_size, best_weight = alpha, size, total

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
                if w > c.s:
                    scnt[t] -= 1
                    if scnt[t] == 0:
                        unsupported += 1
        if size == 0:
            break
        alpha = total / size
        alphas[size] = alpha
        if size > p and unsupported == 0 and alpha > best_alpha:
            best_alpha, best_size, best_weight = alpha, size, total

    if stats is not None:
        stats.pops += pops
        stats.pushes += pushes
        stats.removals += len(order)

    trace = PeelTrace(tuple(order))
    profile._best = {k: (alphas[k], trace) for k in range(1, n_alive + 1)}

    if best_size < 0:
        return Solution.empty(), profile
    members = trace.members_at(best_size)
    return Solution(members, best_weight, best_alpha), profile
