"""Synthetic similarity-graph generators for tests and benchmarks."""

from __future__ import annotations

import random
from typing import Callable

from .errors import ParameterError
from .graph import SimGraph


def random_graph(n: int, m: int, seed: int, w_lo: float = 0.05, w_hi: float = 1.0) -> SimGraph:
    """Uniform random simple graph with ``m`` distinct edges, weights in (w_lo, w_hi].

    Edge endpoints are sampled uniformly; duplicates are rejected until ``m``
    distinct pairs exist, so ``m`` must fit under n*(n-1)/2.
    """
    if n < 0 or m < 0:
        raise ParameterError("n and m must be nonnegative")
    if m > n * (n - 1) // 2:
        raise ParameterError(f"m={m} exceeds the {n * (n - 1) // 2} possible pairs")
    if not (0.0 <= w_lo < w_hi <= 1.0):
        raise ParameterError("need 0 <= w_lo < w_hi <= 1")
    rng = random.Random(seed)

    def weight() -> float:
        w = rng.uniform(w_lo, w_hi)
        return w_hi if w <= w_lo else w

    return SimGraph(n, _sample_pairs(rng, n, m, [], weight))


def planted_community_graph(
    n: int,
    m: int,
    seed: int,
    community: int = 150,
    w_in: tuple[float, float] = (0.7, 1.0),
    w_out: tuple[float, float] = (0.05, 0.3),
) -> SimGraph:
    """Sparse background graph with one dense high-weight community planted in it.

    Nodes 0..community-1 form a clique with weights drawn from ``w_in``; the
    remaining edge budget is spent on uniform background pairs with weights
    from ``w_out``. The community clique counts against ``m``.
    """
    if community > n:
        raise ParameterError(f"community={community} larger than n={n}")
    clique_m = community * (community - 1) // 2
    if clique_m > m:
        raise ParameterError(f"community clique needs {clique_m} edges, only m={m} allowed")
    rng = random.Random(seed)
    clique = [(u, v, rng.uniform(*w_in)) for u in range(community) for v in range(u + 1, community)]
    limit = n * (n - 1) // 2
    if m > limit:
        raise ParameterError(f"m={m} exceeds the {limit} possible pairs")
    return SimGraph(n, _sample_pairs(rng, n, m, clique, lambda: rng.uniform(*w_out)))


def _sample_pairs(rng: random.Random, n: int, m: int, edges: list[tuple[int, int, float]],
                  weight: Callable[[], float]) -> list[tuple[int, int, float]]:
    """Extend ``edges`` (pairs u < v) to ``m`` distinct pairs: endpoints are
    drawn uniformly, self-loops and repeats rejected, and each new pair
    weighted by ``weight()``, drawn right after its endpoints."""
    seen = {u * n + v for u, v, _ in edges}
    while len(edges) < m:
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u == v:
            continue
        if u > v:
            u, v = v, u
        key = u * n + v
        if key in seen:
            continue
        seen.add(key)
        edges.append((u, v, weight()))
    return edges
