"""Greedy min-incident-weight peeling with per-size best-subgraph recording.

A peel starts from the whole node set (after a similarity prefilter),
repeatedly removes the member with the smallest incident weight, and records
for every intermediate size the average similarity and whether every member
still has a qualifying edge. Sizes are recorded as a removal order plus
per-size values, so a peel of n nodes costs O(n) memory instead of the
O(n^2) it would take to store every intermediate set. None of it depends on
the size floor p: the best feasible set for any p is picked afterwards.

A peel may pin an anchor group, a ``graph._Group``: its members stay alive
and are never removed, so the one removal order records both the anchor
plus the outside nodes still alive and those outside nodes alone, at every
size. The group's W and every node's weight (``inw``) and strongest edge
(``top``) into it are all a peel needs to know of the anchor, so it touches
only the edges of the nodes it may remove. Each run's starting total is a
left-to-right sum over the outside nodes in id order.

The loop keeps its candidates in a threshold front: a heap with an entry
for every removable node whose incident weight is at most a bound, plus
stale entries a drop in weight left behind. A node whose weight drops is
pushed only when its new weight is at or below the bound. Every alive
removable node at or below the bound has a valid entry and every valid
entry is at or below it, so each removal is the least (incident weight,
id) among all alive removable nodes, whatever else the front holds. When
the front runs empty, the bound rises to the ``_FRONT``-th least incident
weight still alive and the front is rebuilt from the nodes at or below it.
When it has grown by more than ``max(4 * _FRONT, left // 4)`` entries
since it was last built or looked at, with ``left`` the removable nodes
alive then, that weight is found again, and if it lies below the bound
the bound falls to it and the front is rebuilt the same way, every old
entry dropped. A look costs O(left), no more than four times the entries
pushed since the last one, and a bound that cannot fall (nodes tied at
it) rebuilds nothing. The last ``_FRONT`` removals skip the heap: they
run on a dense block of the edges among the nodes left, one numpy step
per removal (an ``argmin`` over their weights, then one subtraction of
the removed node's row), which makes the same subtractions in the same
order, so every weight keeps its bits. The loop reads a removed node's row
through memoryview slices of the CSR ``indices`` and ``weights``, which
yield builtin ints and floats in row order with no array slice or list per
removal; ``indptr`` is read as a list. The weights alive and the support flags of
every size are worked out after the loop from the removal order, in a few
array passes. A run's per-size values and a profile's per-size entries are
numpy arrays indexed by size, so picking a size or merging a run into a
profile is a few array operations, not a loop over the sizes.

Outside the loop, a floored peel reads its degree bound from the graph's
``strength`` arrays and no row. A peel whose removable nodes are most of
the graph (``_most``) and whose start set holds every node, as a
whole-graph peel's and a session repair's do, takes its prefilter and
starting weights from them too, and reads no row but the rows next to the
nodes its prefilter drops. Other peels gather the rows of their removable
nodes for those. A support pass over a removal order of most of the graph
is one ``maximum.reduceat`` over every row; a smaller one gathers the
order's rows.
"""

from __future__ import annotations

import heapq
import math
from array import array
from dataclasses import dataclass, replace
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import ParameterError
from .graph import ConstraintPair, SimGraph, Solution, _Group

# How many of the least-weight outside nodes a peel's front takes in at a
# refill, and how many nodes its dense tail removes; 32 to 256 measured
# alike for the front, 1024 slower.
_FRONT = 128


@dataclass
class PeelStats:
    """Operation counters, filled in by peels that are handed an instance:
    entries put on a peel's front (a rebuild's entries included), entries
    taken off it, and nodes removed. Pushes and pops count the front only:
    a removal in a peel's dense tail (its last ``_FRONT`` removals) is
    neither, and the stale entries a rebuild drops are not pops."""

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

    def supported(self, g: SimGraph, s: float) -> np.ndarray:
        """For every size k, True when each member of the set of size k has
        an edge above ``s`` in ``g`` to another member. A member stays
        supported while the last to go of its neighbours above ``s`` in the
        trace is still present, so one pass over the members' edges answers
        every size."""
        return _supported_by_order(_last_strong(g, np.array(self.order, dtype=np.int64), s)[0])


class PeelProfile:
    """Best objective value and best subgraph recorded per subgraph size.

    An entry is (alpha, trace), and the set of size k is always the last k
    nodes of ``trace.order``. The entries live in three arrays indexed by
    size: the best alpha, the trace (an object array) and whether the size
    holds an entry; all three grow when a size past their end is recorded.
    A trace lives while some size holds it. ``alpha_at(k)`` is -1.0 for
    sizes never reached, matching the convention that an unrecorded size
    holds the empty set. ``add_run`` merges every size of a peel run with
    one array compare, and the first entry recorded for a size keeps it on
    an exact tie. ``run`` and ``outside`` are the runs of the last peel
    ``modified_sgsel`` merged into the profile: ``outside`` is None unless
    that peel pinned an anchor, and both are None in a profile no peel went
    into or after a floored peel that ran none (see ``floor``). Every alpha
    the profile hands out is a builtin float.
    """

    def __init__(self):
        self._alpha = np.empty(0)
        self._trace = np.empty(0, dtype=object)
        self._held = np.empty(0, dtype=bool)
        self.run: PeelRun | None = None
        self.outside: PeelRun | None = None

    def runs(self) -> tuple[PeelRun, ...]:
        """The distinct runs of the last peel merged in."""
        return tuple(r for r in (self.run, self.outside) if r is not None)

    def _reserve(self, size: int) -> None:
        """Make room for sizes up to ``size``."""
        cap = len(self._alpha)
        if size >= cap:
            grow = max(size + 1, 2 * cap) - cap
            self._alpha = np.concatenate((self._alpha, np.full(grow, -1.0)))
            self._trace = np.concatenate((self._trace, np.empty(grow, dtype=object)))
            self._held = np.concatenate((self._held, np.zeros(grow, dtype=bool)))

    def add_run(self, run: PeelRun) -> None:
        """Merge every size ``run`` recorded, as ``record`` would."""
        lo, hi = run.first, len(run.trace.order) + 1
        if lo >= hi:
            return
        self._reserve(hi - 1)
        alphas = run.alphas[lo:hi]
        cur, held = self._alpha[lo:hi], self._held[lo:hi]
        better = ~held | (alphas > cur)
        cur[better] = alphas[better]
        held[better] = True
        self._trace[lo:hi][better] = run.trace

    def takes(self, size: int, alpha: float) -> bool:
        """True when ``record`` would keep an entry of ``alpha`` for ``size``:
        the size holds none, or alpha beats the stored value."""
        return not self._has(size) or alpha > self._alpha[size]

    def record(self, size: int, alpha: float, trace: PeelTrace) -> None:
        """Keep (alpha, trace) for ``size`` if alpha beats the stored value."""
        self._reserve(size)
        if self.takes(size, alpha):
            self._alpha[size] = alpha
            self._trace[size] = trace
            self._held[size] = True

    def _has(self, size: int) -> bool:
        return 0 <= size < len(self._held) and bool(self._held[size])

    def alpha_at(self, size: int) -> float:
        return float(self._alpha[size]) if self._has(size) else -1.0

    def members_at(self, size: int) -> frozenset[int]:
        if not self._has(size):
            return frozenset()
        return self._trace[size].members_at(size)

    def sizes(self) -> list[int]:
        return np.flatnonzero(self._held).tolist()

    def items(self) -> Iterator[tuple[int, float, PeelTrace]]:
        """(size, alpha, trace) for every recorded size."""
        sizes = np.flatnonzero(self._held)
        return zip(sizes.tolist(), self._alpha[sizes].tolist(), self._trace[sizes].tolist())

    def ranked(self, p: int, floor: float) -> Iterator[tuple[int, PeelTrace]]:
        """(size, trace) for every recorded size above ``p`` whose alpha
        exceeds ``floor``, the highest alpha first and the smaller size
        first on an exact tie."""
        sizes = np.flatnonzero(self._held)
        sizes = sizes[(sizes > p) & (self._alpha[sizes] > floor)]
        sizes = sizes[np.lexsort((sizes, -self._alpha[sizes]))]
        return zip(sizes.tolist(), self._trace[sizes].tolist())

    def __len__(self) -> int:
        return int(np.count_nonzero(self._held))


@dataclass
class _Start:
    """The start set of a peel after its similarity prefilter: the marks
    ``alive`` (1 removable, 2 pinned, 0 not in it), the removable nodes
    ``free`` in id order and, once weighed, every node's weight into the
    alive nodes (``incident_at``; only the entries of ``free`` are read)."""

    alive: np.ndarray
    free: np.ndarray
    incident_at: np.ndarray | None = None

    def weighed(self, g: SimGraph, s: float) -> _Start:
        """The start with its weights read. A start set-up left unweighed
        (see ``_setup``) takes each node's weighted degree from
        ``g.strength()``, and only the free rows next to a node the start
        lacks (one the prefilter dropped or left out) are summed again, over
        their edges to alive nodes: a lacking neighbour's weight becomes
        +0.0, which leaves a row-order sum as it was, so every weight has
        the bits a sum over the alive neighbours alone gives."""
        if self.incident_at is None:
            alive = self.alive
            incident_at = g.strength()[0].copy()
            lacking = np.flatnonzero(alive == 0)
            if lacking.size:
                near = np.zeros(g.n, dtype=bool)
                near[g.indices[g.gather(lacking)[1]]] = True
                rows = np.flatnonzero(near & (alive == 1))
                src, pos = g.gather(rows)
                w = np.where(alive[g.indices[pos]] != 0, g.weights[pos], 0.0)
                incident_at[rows] = np.bincount(src, weights=w, minlength=g.n)[rows]
            self.incident_at = incident_at
        return self


def _most(g: SimGraph, k: int) -> bool:
    """True when ``k`` nodes are most of ``g``. A prefilter or support pass
    over that many nodes reads the graph's per-node arrays or every row in
    one pass, not a gather of their rows."""
    return 2 * k > g.n


def _setup(g: SimGraph, s: float, alive: np.ndarray, anchor: _Group | None = None,
           tau: float | None = None) -> _Start | None:
    """Prefilter the start set of a peel and weigh what its loop starts from.

    ``alive`` marks each node 1 when the peel may remove it, 2 when it is
    pinned and 0 when it is not in the start set. The similarity prefilter
    sets to 0 every node marked 1 without an edge above ``s`` to an alive
    node. Returns the start, weighed when set-up read rows: for every node,
    its weight into the alive nodes, summed in neighbour-id order (for
    surviving nodes marked 1).

    Given ``tau`` and the pinned ``anchor``, returns None instead, before
    the prefilter and without reading a row, when M, the largest
    ``(deg(u) + inw(u)) / 2`` over the nodes u marked 1, is below tau
    (Charikar's degree bound, APPROX 2000): with ``deg(u)`` u's weighted
    degree, read from the graph's ``strength`` arrays, an outside set has
    alpha at most M and the anchor joined by outside nodes at most a
    mediant of its own alpha and M.

    When the nodes marked 1 are most of the graph (``_most``) and every
    node is in the start set, as in a whole-graph peel and every session
    repair, a node's edge above s to an alive node is its strongest edge,
    so the prefilter reads no row and the start comes back unweighed (see
    ``_Start.weighed`` and ``_core``). Otherwise the rows of the nodes
    marked 1 are read.
    """
    n = g.n
    nodes = np.flatnonzero(alive == 1)
    if tau is not None:
        deg = g.strength()[0][nodes]
        if float((deg + anchor.inw[nodes]).max(initial=-math.inf)) / 2.0 < tau:
            return None
    if _most(g, len(nodes)) and alive.all():
        weak = g.strength()[1][nodes] <= s
        alive[nodes[weak]] = 0
        return _Start(alive, nodes[~weak])
    src, pos = g.gather(nodes)
    w = g.weights[pos]
    dst = g.indices[pos]
    cnt = np.bincount(src[(w > s) & (alive[dst] != 0)], minlength=n)
    # Edges are symmetric: when u has an edge above s to an alive t, t has
    # the same edge to u. So dropping the nodes without any such edge
    # strands no other node; one round reaches the prefilter's fixpoint.
    alive[nodes[cnt[nodes] == 0]] = 0
    keep = (alive[src] != 0) & (alive[dst] != 0)
    # bincount adds each bin's weights in input order, that is row by row
    return _Start(alive, np.flatnonzero(alive == 1), np.bincount(src[keep], weights=w[keep], minlength=n))


def _last_strong(g: SimGraph, order: np.ndarray, s: float,
                 pinned: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """For each position of a removal order, the position in it of the last
    to go of the node's neighbours over an edge above ``s`` (-1 for none);
    and the same for each node of ``pinned``, ids not in the order (empty
    when not given).

    An order that is most of the graph (``_most``) takes every row's
    greatest position in one ``maximum.reduceat`` over all rows; a smaller
    one gathers its own rows, which hold the pinned nodes' edges to it."""
    n = len(order)
    pinned = np.empty(0, dtype=np.int64) if pinned is None else pinned
    pos = np.full(g.n, -1, dtype=np.int64)
    pos[order] = np.arange(n)
    if _most(g, n):
        ptr = g.indptr
        rows = np.flatnonzero(ptr[1:] > ptr[:-1])
        last = np.full(g.n, -1, dtype=np.int64)
        last[rows] = np.maximum.reduceat(np.where(g.weights > s, pos[g.indices], -1), ptr[rows])
        return last[order], last[pinned]
    src, at = g.gather(order)
    above = g.weights[at] > s
    row, dst = pos[src[above]], g.indices[at[above]]
    pos[pinned] = -2
    to = pos[dst]
    last = np.full(n, -1, dtype=np.int64)
    np.maximum.at(last, row[to >= 0], to[to >= 0])
    into = to == -2
    pin_last = np.full(g.n, -1, dtype=np.int64)
    np.maximum.at(pin_last, dst[into], row[into])
    return last, pin_last[pinned]


def _supported_by_order(last: np.ndarray) -> np.ndarray:
    """Support of every size of a removal order of n nodes, from ``last``:
    for each position, the position of the last to go of the node's
    neighbours over an edge above s (n for one that never goes, -1 for
    none).
    The set of size k holds the last k positions, and its member at
    position i is supported while i's ``last`` is among them, so the set is
    supported when the least ``last`` of positions n-k..n-1 is at least
    n-k. Returns flags for sizes 0..n; the empty set counts as supported."""
    n = len(last)
    ok = np.ones(n + 1, dtype=bool)
    ok[1:] = np.minimum.accumulate(last[::-1]) >= np.arange(n - 1, -1, -1)
    return ok


def _running_sum(x: np.ndarray) -> float:
    """x[0] + x[1] + ... added left to right, as a plain loop would; np.sum
    adds pairwise and builtin sum() is compensated from Python 3.12 on,
    either of which would change the bits of an alpha."""
    return float(np.cumsum(x)[-1]) if x.size else 0.0


@dataclass(frozen=True)
class PeelRun:
    """Everything one peel computes that does not depend on p.

    The set alive at size k is the last k nodes of ``trace.order``;
    ``alphas[k]`` (a float64 array) is its average similarity and
    ``supported[k]`` (a bool array) is True when each of its members has an
    edge above s to another member. Sizes below ``first`` are never reached
    (index 0 always, and every size below the anchor's of an anchored
    peel's union run). A run depends only on the graph, s, the start set
    and the anchor, so one run answers the peel's question for every p.

    A cored run (see ``modified_sgsel``'s ``floor``) stops short of the full
    run: the full run would also record ``skipped`` larger sizes, each with
    alpha below ``bound``. A full run skips none, and its bound is -inf.
    """

    trace: PeelTrace
    alphas: np.ndarray
    supported: np.ndarray
    first: int = 1
    skipped: int = 0
    bound: float = -math.inf

    @classmethod
    def of(cls, order: tuple[int, ...], totals: Sequence[float], supported: np.ndarray, first: int = 1) -> PeelRun:
        """The run whose set at size ``first + i`` weighs ``totals[i]`` and
        has support flag ``supported[first + i]``. Each alpha is one IEEE
        division, so it has the bits ``totals[i] / (first + i)`` has."""
        alphas = np.zeros(len(order) + 1)
        np.divide(np.array(totals, dtype=np.float64), np.arange(first, len(order) + 1), out=alphas[first:])
        return cls(PeelTrace(order), alphas, supported, first)

    def sizes(self) -> range:
        """Every size the run recorded."""
        return range(self.first, len(self.trace.order) + 1)

    def best_size(self, p: int) -> int:
        """Size of the best supported set above ``p`` nodes, 0 if none; the
        largest one wins an exact tie."""
        n = len(self.trace.order)
        lo = max(p, self.first - 1) + 1
        if lo > n:
            return 0
        # largest size first, so argmax's first maximum is the largest size
        masked = np.where(self.supported[lo:], self.alphas[lo:], -1.0)[::-1]
        i = int(masked.argmax())
        return n - i if masked[i] > -1.0 else 0

    def best(self, p: int) -> frozenset[int]:
        """The set ``modified_sgsel`` returns for size floor ``p``."""
        return self.trace.members_at(self.best_size(p))


def _peel_tail(g: SimGraph, rest: np.ndarray, incident_at: np.ndarray) -> list[int]:
    """Remove every node of ``rest``, the alive outside nodes of a peel in
    id order, in the order the loop would, and return them in that order.

    The weights of the edges among them go into a dense block, one row per
    node. Each step takes the least incident weight, the first on a tie and
    so the lowest id, and subtracts the removed node's row from every
    weight: a neighbour loses the edge's weight in the same subtraction the
    loop makes, and anyone else loses +0.0, which keeps its bits. Each
    node's weight at its removal is written back into ``incident_at``.
    """
    k = len(rest)
    rows, pos = g.gather(rest)
    dst = g.indices[pos]
    j = np.minimum(np.searchsorted(rest, dst), k - 1)
    inner = rest[j] == dst
    block = np.zeros((k, k))
    block[np.searchsorted(rest, rows[inner]), j[inner]] = g.weights[pos[inner]]
    keys = incident_at[rest]
    taken = []
    for _ in range(k):
        i = int(keys.argmin())
        taken.append(i)
        incident_at[rest[i]] = keys[i]
        keys -= block[i]
        keys[i] = math.inf
    return rest[taken].tolist()


def modified_sgsel(
    g: SimGraph,
    c: ConstraintPair,
    within: Iterable[int] | None = None,
    stats: PeelStats | None = None,
    anchor: _Group | None = None,
    into: PeelProfile | None = None,
    floor: float | None = None,
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

    ``anchor``, a ``_Group`` of ``g``, pins its members: they join the start
    set, stay alive, count toward every incident weight and support, and
    are never removed; the other nodes are prefiltered and peeled as usual,
    and set-up visits only their edges, reading the group's W, ``inw`` and
    ``top`` for the anchor's share. ``run`` then records each union of the anchor with the
    outside nodes still alive, so ``run.best(p)`` is the best superset of
    the anchor, and the profile's ``outside`` run records the outside nodes
    alone along the same removal order; without an anchor ``outside`` is
    None.

    ``floor``, with an anchor only, is tau = the alpha of the anchor, which
    must be feasible under ``c`` (so it holds more than ``c.p`` nodes). Only
    a set with alpha above tau can replace the anchor, so the peel runs
    only as far as such a set may lie. With tau' = tau (1 - 1e-9 (|A| + 1))
    for an anchor A, the margin that keeps A plus one node clear of
    rounding error, the peel has two exits, each proving that every set
    its runs would record has alpha below tau:

    - the degree bound (``_setup``): no outside node is heavy enough, M
      is below tau';
    - the empty core (``_core``): dropping, round by round, the outside
      nodes whose weight into the nodes left is below tau' leaves none, so
      every superset of A has alpha at most tau (1 - 1e-9) and every
      outside set below tau'.

    An exit returns the empty Solution and a profile with no runs: it
    counts no removals and records nothing. Otherwise a non-empty core C
    is the cut: a peel removes every other outside node before any node of
    C, each with a weight below tau, so the cored runs record the same sets
    as the full runs at every size they reach, and every larger size of
    the full runs has alpha below the run's ``bound``. The cored runs are
    kept only when both are certified (``_certified``); otherwise, and
    whenever the cut does not apply, the full peel runs. A cored run's
    ``skipped`` is the number of outside nodes it dropped.

    Deciding a floored peel costs O(n) plus the rows of the candidates:
    the degree bound reads ``g.strength()`` and no row, and when the
    outside nodes are most of the graph and every node is in the start set
    (``within`` the anchor's complement, as in a session repair) the
    prefilter reads the strongest edges and the core reads only the rows of
    the outside nodes whose weighted degree reaches tau' (see ``_core``).
    All outside rows are read only when the cut does not apply or does not
    certify.
    Any peel, floored or not, of a start set that is most of the graph
    and holds every node takes its starting weights from ``g.strength()``
    too (see ``_Start.weighed``).

    The peel's records go into ``into`` when given, which is then the
    profile returned, so a caller that keeps one profile across peels
    builds no other.
    """
    s, n = c.s, g.n
    pins = anchor.members if anchor is not None else ()
    alive = np.zeros(n, dtype=np.uint8)
    if pins:
        pinned = np.sort(np.fromiter(pins, np.int64, len(pins)))
        g._check_node(int(pinned[0]))
        g._check_node(int(pinned[-1]))
    else:
        pinned = np.empty(0, dtype=np.int64)
    if within is None:
        alive[:] = 1
    else:
        start = within if isinstance(within, np.ndarray) else np.fromiter(within, np.int64)
        if start.size:
            g._check_node(int(start.min()))
            g._check_node(int(start.max()))
        alive[start] = 1
    if pins:
        alive[pinned] = 2

    profile = PeelProfile() if into is None else into
    profile.run = profile.outside = None
    tau = floor - 1e-9 * floor * (len(pins) + 1) if floor is not None and pins else None
    start = _setup(g, s, alive, anchor, tau)
    if start is None:
        return Solution.empty(), profile
    run = outside = None
    if tau is not None and (cored := _core(g, s, start, tau)) is not None:
        if not len(cored.free):
            return Solution.empty(), profile
        run, outside, totals = _peel_runs(g, s, cored, anchor, pinned, stats)
        skipped = len(start.free) - len(cored.free)
        run, outside = (_certified(r, floor, skipped, c.p) for r in (run, outside))
    if run is None or outside is None:
        run, outside, totals = _peel_runs(g, s, start.weighed(g, s), anchor, pinned, stats)
    profile.run, profile.outside = run, outside
    for r in profile.runs():
        profile.add_run(r)

    k = run.best_size(c.p)
    if not k:
        return Solution.empty(), profile
    return Solution(run.trace.members_at(k), float(totals[k - len(pins)]), float(run.alphas[k])), profile


def _core(g: SimGraph, s: float, start: _Start, tau: float) -> _Start | None:
    """The weighted tau-core of a prefiltered anchored start set: the outside
    nodes left once those whose weight into the alive nodes is below tau are
    dropped, round by round, until none drops. Returns the cored start: the
    marks with the dropped nodes unmarked, the core in id order, which may
    be empty, every node's weight into the nodes left (summed as ``_setup``
    sums it, for the core's nodes); or None when the cut does not apply:
    nothing is dropped, or the core keeps more than half of ``free``.

    A node's weight into any alive set is a row-order sum of some of the
    terms of its weighted degree, and rounding is monotone, so it is at most
    that degree. The rounds therefore start from the nodes whose degree
    (``g.strength()``) reaches tau and read only their rows; a start not yet
    weighed is weighed in full only when every node's does. Weight into a
    set never falls as the set grows, so the rounds reach the same core from
    any start set that holds it: the largest set each of whose nodes keeps
    a weight of at least tau into it and the anchor."""
    free = start.free
    low = g.strength()[0][free] < tau
    if not low.any():
        # every node may stay: only the weights can tell
        low = start.weighed(g, s).incident_at[free] < tau
        if not low.any():
            return None
    core = free[~low]
    inside = start.alive.copy()
    inside[free[low]] = 0
    src, pos = g.gather(core)
    dst, w = g.indices[pos], g.weights[pos]
    while True:
        keep = (inside[src] != 0) & (inside[dst] != 0)
        src, dst, w = src[keep], dst[keep], w[keep]
        # bincount adds each bin's weights in input order, that is row by row
        weight = np.bincount(src, weights=w, minlength=g.n)
        low = weight[core] < tau
        if not low.any():
            break
        inside[core[low]] = 0
        core = core[~low]
    if 2 * len(core) > len(free):
        return None
    return _Start(inside, core, weight)


def _certified(run: PeelRun, tau: float, skipped: int, p: int) -> PeelRun | None:
    """``run``, a cored run, with its ``bound`` and ``skipped`` set, when it
    is certified; else None.

    Each of the ``skipped`` dropped nodes left the full peel with a weight
    below tau, so the full run's set of size n0 + j weighs below W0 + j tau,
    with W0 and n0 the weight and size of the run's largest set. That alpha
    is a mediant of W0 / n0 and tau, so it is below B, the larger of its
    values at j = 1 and j = skipped. The run is certified when B is below
    tau (no such set can beat the anchor) or its pick for ``p`` exceeds B
    (it is the full run's pick too), each by a relative margin of 1e-9."""
    n0 = len(run.trace.order)
    w0 = float(run.alphas[n0]) * n0
    bound = max((w0 + tau) / (n0 + 1), (w0 + skipped * tau) / (n0 + skipped))
    k = run.best_size(p)
    if bound < tau * (1 - 1e-9) or (k and run.alphas[k] > bound * (1 + 1e-9)):
        return replace(run, skipped=skipped, bound=bound)
    return None


def _peel_runs(
    g: SimGraph,
    s: float,
    start: _Start,
    anchor: _Group | None,
    pinned: np.ndarray,
    stats: PeelStats | None,
) -> tuple[PeelRun, PeelRun | None, np.ndarray]:
    """Peel the outside nodes of a weighed ``start`` (those marked 1 in its
    ``alive``, ``free`` in id order) from its weights ``incident_at`` into
    the nodes alive, with the nodes marked 2, ``anchor``'s members
    ``pinned`` in id order, never removed. Returns the run, the outside run
    (None without an anchor) and the weight alive at each number of outside
    nodes alive. The start is not changed."""
    alive, incident_at, free = start.alive, start.incident_at, start.free
    m, na = len(free), len(pinned)
    if not na:
        total = _running_sum(incident_at[free]) / 2.0
    else:
        # every edge was counted from both ends, the anchor's own edges
        # excepted
        anc = anchor.inw
        keys, anc_at = incident_at[free], anc[free]
        total = _running_sum(keys + anc_at) / 2.0 + anchor.weight
        out_total = _running_sum(keys - anc_at) / 2.0

    # builtin floats and bytes for the loop, numpy views of the same memory
    # for the refills and the passes after it; the loop reads a row through
    # memoryview slices of the CSR arrays, which yield builtin ints and
    # floats without an array slice or a list per removal; indptr stays a
    # list, since a memoryview of it made whole-graph peels no faster
    incident = array("d", incident_at.tobytes())
    incident_at = np.frombuffer(incident, dtype=np.float64)
    alive = bytearray(alive.tobytes())
    alive_at = np.frombuffer(alive, dtype=np.uint8)
    ptr, indices, weights = g.indptr.tolist(), memoryview(g.indices), memoryview(g.weights)
    order: list[int] = []
    # The front holds an entry for every alive outside node whose incident
    # weight is at most bound, plus stale entries, and every valid entry is
    # at most bound; so the least valid entry is the least (incident
    # weight, id) of all alive outside nodes. A front that is empty is
    # rebuilt from the _FRONT least. One that has grown by more entries
    # than a look costs is rebuilt the same way only when that lowers the
    # bound: a rebuild keeps every node tied at the bound, which may be
    # far more than _FRONT. The last _FRONT nodes go in the dense tail.
    front: list[tuple[float, int]] = []
    bound = -math.inf
    rest = free  # the outside nodes alive at the last look
    pops = pushes = 0
    heappop, heappush = heapq.heappop, heapq.heappush
    left = m
    most = 0  # the most entries the front holds before its next look
    while left > _FRONT:
        if not front or len(front) > most:
            rest = rest[alive_at[rest] != 0]
            keys = incident_at[rest]
            cut = float(np.partition(keys, _FRONT - 1)[_FRONT - 1])
            if not front or cut < bound:
                bound = cut
                near = keys <= bound
                front = list(zip(keys[near].tolist(), rest[near].tolist()))
                heapq.heapify(front)
                pushes += len(front)
            most = len(front) + max(4 * _FRONT, left // 4)
        iw, v = heappop(front)
        pops += 1
        if not alive[v] or iw != incident[v]:
            continue  # stale
        alive[v] = 0
        order.append(v)
        left -= 1
        lo, hi = ptr[v], ptr[v + 1]
        for t, w in zip(indices[lo:hi], weights[lo:hi]):
            if alive[t] == 1:
                nw = incident[t] - w
                incident[t] = nw
                if nw <= bound:
                    heappush(front, (nw, t))
                    pushes += 1
    if left:
        order += _peel_tail(g, rest[alive_at[rest] != 0], incident_at)

    if stats is not None:
        stats.pops += pops
        stats.pushes += pushes
        stats.removals += m

    # A removed node's incident weight is left as it was when it went, so
    # the weight alive after each removal is a running difference; a - b
    # and a + -b round alike. Entry i is the weight with m - i nodes alive.
    at = np.array(order, dtype=np.int64)
    gone = incident_at[at]
    totals = np.cumsum(np.concatenate(([total], -gone)))[::-1]

    # support after the loop, from the edges above s of the outside nodes
    last, pin_last = _last_strong(g, at, s, pinned)
    outside_order = tuple(order)
    out_ok = _supported_by_order(last)
    if not na:
        return PeelRun.of(outside_order, totals[1:], out_ok), None, totals
    out_totals = np.cumsum(np.concatenate(([out_total], -(gone - anc[at]))))[::-1]
    outside = PeelRun.of(outside_order, out_totals[1:], out_ok)
    # an outside node with an edge above s into the anchor is supported
    # for good; an anchor node is when its strongest edge into the
    # anchor is above s, and otherwise while its last outside neighbour
    # above s is alive
    ok = _supported_by_order(np.where(anchor.top[at] > s, m, last))
    pin_last[anchor.top[pinned] > s] = m
    ok[:m - int(pin_last.min())] = False
    run = PeelRun.of(outside_order + tuple(pinned.tolist()), totals, np.concatenate((np.zeros(na, bool), ok)), na)
    return run, outside, totals
