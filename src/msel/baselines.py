"""Comparison selectors: reference-ball peeling and three simple removal rules.

The simple rules (random, degree, average) peel the whole node set by their
metric with no shortcuts, recording every size they pass through as a
``PeelRun`` and picking the best state that satisfied both constraints
through it, exactly like the main peel.
They exist to be fair strawmen in benchmarks, not to be fast.
"""

from __future__ import annotations

import heapq
import random

import numpy as np

from .graph import ConstraintPair, SimGraph, Solution, _distinct
from .peel import PeelRun, PeelTrace, _running_sum, modified_sgsel


def sgsel(g: SimGraph, c: ConstraintPair) -> Solution:
    """Best peel over every reference node's distance-2 ball, plus one
    unrestricted peel.

    For each node v, the candidate pool is v plus everything reachable over
    at most two similarity edges; the pool is peeled by minimum incident
    weight and the best feasible state kept. A ball can never span groups
    whose members sit more than two hops apart, so one whole-graph pool runs
    first; a strictly better ball result then beats it, ties staying with
    the earlier pool. Infeasible everywhere yields the empty solution.
    """
    best, _ = modified_sgsel(g, c)
    indptr, indices = g.indptr, g.indices
    for v in range(g.n):
        nb = indices[indptr[v]:indptr[v + 1]]
        ball = _distinct(np.concatenate(([v], nb, indices[g.gather(nb)[1]])))
        sol, _ = modified_sgsel(g, c, within=ball)
        if sol.alpha > best.alpha:
            best = sol
    return best


def random_peel(g: SimGraph, c: ConstraintPair, seed: int) -> Solution:
    """Peel in a seeded uniform-random order, keeping the best feasible state."""
    rng = random.Random(seed)
    order = list(range(g.n))
    rng.shuffle(order)
    rank = [0] * g.n
    for pos, u in enumerate(order):
        rank[u] = pos
    return _metric_peel(g, c, lambda u, deg, iw: rank[u])


def degree_peel(g: SimGraph, c: ConstraintPair) -> Solution:
    """Peel by minimum surviving neighbor count, ties by id."""
    return _metric_peel(g, c, lambda u, deg, iw: deg)


def average_peel(g: SimGraph, c: ConstraintPair) -> Solution:
    """Peel by minimum incident weight per surviving neighbor, ties by id.

    A node with no surviving neighbors scores 0, so strays go first.
    """
    return _metric_peel(g, c, lambda u, deg, iw: iw / deg if deg else 0.0)


def _metric_peel(g, c, key_fn) -> Solution:
    """Remove argmin key_fn(u, deg, incident) nodes one by one from the whole
    graph, recording each size's total weight, take every size's support
    from the removal order (``PeelTrace.supported``) and return the set
    ``PeelRun.best_size`` picks, as the main peel does.

    The initial untouched state is a candidate too. Keys are recomputed for a
    node whenever one of its neighbors is removed.
    """
    n = g.n
    if n == 0:
        return Solution.empty()
    alive = bytearray(b"\x01") * n
    incident_at = g.strength()[0]
    total = _running_sum(incident_at) / 2.0
    incident = incident_at.tolist()
    deg = np.diff(g.indptr).tolist()
    # rows are read through memoryview slices, as the main peel reads them
    ptr, indices, weights = g.indptr.tolist(), memoryview(g.indices), memoryview(g.weights)

    key = [key_fn(u, deg[u], incident[u]) for u in range(n)]
    heap = [(key[u], u) for u in range(n)]
    heapq.heapify(heap)

    size = n
    # the weight alive, indexed by size
    totals = [0.0] * (n + 1)
    totals[n] = total
    order: list[int] = []

    while heap:
        k, v = heapq.heappop(heap)
        if not alive[v] or k != key[v]:
            continue
        alive[v] = 0
        order.append(v)
        total -= incident[v]
        size -= 1
        lo, hi = ptr[v], ptr[v + 1]
        for t, w in zip(indices[lo:hi], weights[lo:hi]):
            if not alive[t]:
                continue
            incident[t] -= w
            deg[t] -= 1
            key[t] = key_fn(t, deg[t], incident[t])
            heapq.heappush(heap, (key[t], t))
        totals[size] = total
        if size == 0:
            break

    trace = PeelTrace(tuple(order))
    run = PeelRun.of(trace.order, totals[1:], trace.supported(g, c.s))
    k = run.best_size(c.p)
    if not k:
        return Solution.empty()
    return Solution(run.trace.members_at(k), totals[k], float(run.alphas[k]))
