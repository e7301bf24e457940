"""Greedy min-incident-weight peeling with per-size best-subgraph recording.

A peel starts from the whole node set (after a similarity prefilter),
repeatedly removes the member with the smallest incident weight, and records
for every intermediate size the average similarity and whether every member
still has a qualifying edge. Sizes are recorded as a removal order plus
per-size values, so a peel of n nodes costs O(n) memory instead of the
O(n^2) it would take to store every intermediate set. None of it depends on
the size floor p: the best feasible set for any p is picked afterwards.

A peel may pin an anchor group: its members stay alive and are never
removed, so the one removal order records both the anchor plus the outside
nodes still alive and those outside nodes alone, at every size.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from operator import truediv
from typing import Collection, Iterable, Iterator, Protocol, Sequence

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
    empty set. ``add_run`` merges every size of a peel run. ``run`` and
    ``outside`` are the runs of the last peel ``modified_sgsel`` merged into
    the profile: ``outside`` is None unless that peel pinned an anchor, and
    both are None in a profile no peel went into.
    """

    def __init__(self):
        self._best: dict[int, tuple[float, PeelTrace]] = {}
        self.run: PeelRun | None = None
        self.outside: PeelRun | None = None

    def runs(self) -> tuple[PeelRun, ...]:
        """The distinct runs of the last peel merged in."""
        return tuple(r for r in (self.run, self.outside) if r is not None)

    def add_run(self, run: PeelRun) -> None:
        """Merge every size ``run`` recorded, as ``record`` would."""
        best = self._best
        trace, alphas = run.trace, run.alphas
        for k in run.sizes():
            cur = best.get(k)
            if cur is None or alphas[k] > cur[0]:
                best[k] = (alphas[k], trace)

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

    ``nodes`` lists the alive nodes that may be dropped, in id order; their
    ``alive`` entry is 1. Pinned nodes (``alive`` 2) are never dropped and
    get no count. Fills ``scnt`` with the surviving per-node count of
    incident edges above ``s`` to alive neighbors, and returns the survivor
    count.
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
            if w > s and alive[t] == 1:
                scnt[t] -= 1
                if scnt[t] == 0:
                    stack.append(t)
    return n_alive


@dataclass(frozen=True)
class PeelRun:
    """Everything one peel computes that does not depend on p.

    The set alive at size k is the last k nodes of ``trace.order``;
    ``alphas[k]`` is its average similarity and ``supported[k]`` is 1 when
    each of its members has an edge above s to another member. Sizes below
    ``first`` are never reached (index 0 always, and every size below the
    anchor's of an anchored peel's union run). A run depends only on the
    graph, s, the start set and the anchor, so one run answers the peel's
    question for every p.
    """

    trace: PeelTrace
    alphas: list[float]
    supported: bytearray
    first: int = 1

    def sizes(self) -> range:
        """Every size the run recorded."""
        return range(self.first, len(self.trace.order) + 1)

    def best_size(self, p: int) -> int:
        """Size of the best supported set above ``p`` nodes, 0 if none; the
        largest one wins an exact tie."""
        alphas, supported = self.alphas, self.supported
        best_alpha, best = -1.0, 0
        for k in range(len(self.trace.order), max(p, self.first - 1), -1):
            if supported[k] and alphas[k] > best_alpha:
                best_alpha, best = alphas[k], k
        return best

    def best(self, p: int) -> frozenset[int]:
        """The set ``modified_sgsel`` returns for size floor ``p``."""
        return self.trace.members_at(self.best_size(p))


class Anchor(Protocol):
    """A group a peel pins, with what the peel needs to know of it: W of
    the group, and for every node of the graph its weight into the group
    (``inw``) and its strongest edge into it (``top``, 0.0 without any).
    Knowing these, a peel touches only the edges of the nodes it may
    remove. A session's group state is one."""

    members: Collection[int]
    weight: float
    inw: Sequence[float]
    top: Sequence[float]


def modified_sgsel(
    g: SimGraph,
    c: ConstraintPair,
    within: Iterable[int] | None = None,
    stats: PeelStats | None = None,
    anchor: Anchor | None = None,
    into: PeelProfile | None = None,
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

    ``anchor`` pins its members: they join the start set, stay alive, count
    toward every incident weight and support, and are never removed; the
    other nodes are prefiltered and peeled as usual, and set-up visits only
    their edges. ``run`` then records each union of the anchor with the
    outside nodes still alive, so ``run.best(p)`` is the best superset of
    the anchor, and the profile's ``outside`` run records the outside nodes
    alone along the same removal order; without an anchor ``outside`` is
    None.

    The peel's records go into ``into`` when given, which is then the
    profile returned, so a caller that keeps one profile across peels
    builds no other.
    """
    s = c.s
    pins = anchor.members if anchor is not None else ()
    if within is None and not pins:
        nodes: Iterable[int] = range(g.n)
        alive = bytearray(b"\x01") * g.n
    else:
        if pins:
            g._check_node(min(pins))
            g._check_node(max(pins))
        start = set(range(g.n)) if within is None else set(within)
        nodes = sorted(start.difference(pins))
        if nodes:
            g._check_node(nodes[0])
            g._check_node(nodes[-1])
        alive = bytearray(g.n)
        for u in nodes:
            alive[u] = 1
        for u in pins:
            alive[u] = 2

    scnt = [0] * g.n
    m = _similarity_prefilter(g, s, nodes, alive, scnt)

    adj = g._adj
    incident = [0.0] * g.n
    total = 0.0
    heap = []
    unsupported = 0
    if not pins:
        anc, acnt = [0.0] * g.n, [0] * g.n
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
    else:
        # per outside node, the weight and the edges above s into the
        # anchor; an anchor node counts its edges above s to outside nodes,
        # plus one for good if it has one to another anchor node, and its
        # -1 never equals that count
        anc, top = anchor.inw, anchor.top
        acnt = [0] * g.n
        for u in nodes:
            if not alive[u]:
                continue
            iw = 0.0
            cnt = 0
            for t, w in adj[u]:
                a = alive[t]
                if a:
                    iw += w
                    if a == 2 and w > s:
                        cnt += 1
                        scnt[t] += 1
            incident[u] = iw
            acnt[u] = cnt
            total += iw + anc[u]
            heap.append((iw, u))
        for u in pins:
            acnt[u] = -1
            if top[u] > s:
                scnt[u] += 1
            elif not scnt[u]:
                unsupported += 1
    # every edge was counted from both ends, the anchor's own edges excepted
    total = total / 2.0 + (anchor.weight if pins else 0.0)
    heapq.heapify(heap)
    if stats is not None:
        stats.pushes += len(heap)

    na = len(pins)
    n_alive = na + m
    j = m
    if na:
        out_total = sum(incident[u] - anc[u] for _, u in heap) / 2.0
        out_unsupported = sum(1 for _, u in heap if scnt[u] == acnt[u])
    else:
        out_total, out_unsupported = total, 0
    order: list[int] = []
    # the weights alive and whether all are supported, indexed by the number
    # of outside nodes alive, for the union and for the outside nodes alone
    totals = [0.0] * (m + 1)
    out_totals = [0.0] * (m + 1)
    supported = bytearray(m + 1)
    out_supported = bytearray(m + 1)
    if n_alive:
        totals[m], supported[m] = total, unsupported == 0
        out_totals[m], out_supported[m] = out_total, out_unsupported == 0

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
        out_total -= iw - anc[v]
        j -= 1
        sv = scnt[v]
        if sv == 0:
            unsupported -= 1
        if sv == acnt[v]:
            out_unsupported -= 1
        for t, w in adj[v]:
            a = alive[t]
            if a:
                if a == 1:
                    nw = incident[t] - w
                    incident[t] = nw
                    heappush(heap, (nw, t))
                    pushes += 1
                if w > s:
                    st = scnt[t] - 1
                    scnt[t] = st
                    if st == 0:
                        unsupported += 1
                    if st == acnt[t]:
                        out_unsupported += 1
        totals[j], supported[j] = total, unsupported == 0
        out_totals[j], out_supported[j] = out_total, out_unsupported == 0
        if j == 0:
            break

    if stats is not None:
        stats.pops += pops
        stats.pushes += pushes
        stats.removals += len(order)

    outside_order = tuple(order)
    outside = PeelRun(
        PeelTrace(outside_order),
        [0.0, *map(truediv, out_totals[1:], range(1, m + 1))],
        out_supported,
    )
    if na:
        run = PeelRun(
            PeelTrace(outside_order + tuple(sorted(pins))),
            [0.0] * na + list(map(truediv, totals, range(na, n_alive + 1))),
            bytearray(na) + supported,
            na,
        )
    else:
        run, outside = outside, None
    profile = PeelProfile() if into is None else into
    profile.run, profile.outside = run, outside
    for r in profile.runs():
        profile.add_run(r)

    k = run.best_size(c.p)
    if not k:
        return Solution.empty(), profile
    return Solution(run.trace.members_at(k), totals[k - na], run.alphas[k]), profile
