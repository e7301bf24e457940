"""Slow, obviously-correct recomputations used to cross-check the package."""

import math

from msel import SimGraph


def naive_total_weight(F, g):
    members = sorted(F)
    acc = 0.0
    for i, u in enumerate(members):
        for v in members[i + 1:]:
            acc += g.weight(u, v)
    return acc


def naive_alpha(F, g):
    if not F:
        return 0.0
    return naive_total_weight(F, g) / len(F)


def naive_incident(u, F, g):
    return sum(g.weight(u, v) for v in F if v != u)


def naive_feasible(F, g, c):
    if len(set(F)) <= c.p:
        return False
    return all(any(g.weight(u, v) > c.s for v in F if v != u) for u in F)


def assert_close(a, b, rel=1e-9, abs_tol=1e-12):
    assert math.isclose(a, b, rel_tol=rel, abs_tol=abs_tol), f"{a!r} != {b!r}"


def gnp_graph(rng, n, prob=0.5, w_lo=0.05, w_hi=1.0):
    """Erdos-Renyi style graph with uniform weights, driven by a seeded rng."""
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < prob:
                edges.append((u, v, rng.uniform(w_lo, w_hi)))
    return SimGraph(n, edges)


TIED_WEIGHTS = (0.25, 0.5, 0.75, 1.0)


def tied_graph(rng, n, prob=0.5):
    """Erdos-Renyi style graph whose weights are drawn from TIED_WEIGHTS, so
    that many incident weights tie exactly and the id breaks the tie."""
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < prob:
                edges.append((u, v, rng.choice(TIED_WEIGHTS)))
    return SimGraph(n, edges)


def planted_clique_graph(rng, n, k, tied=False, degree=4):
    """Sparse background graph on ``n`` nodes, about ``degree`` edges per
    node, holding a clique on ``k`` nodes drawn at random. Clique edges
    weigh more than background ones; with ``tied`` both draw from the two
    upper or the two lower TIED_WEIGHTS, so incident weights tie exactly."""
    clique = sorted(rng.sample(range(n), k))
    inside = set(clique)
    edges = []
    for i, u in enumerate(clique):
        for v in clique[i + 1:]:
            edges.append((u, v, rng.choice(TIED_WEIGHTS[2:]) if tied else rng.uniform(0.5, 1.0)))
    prob = degree / n
    for u in range(n):
        for v in range(u + 1, n):
            if not (u in inside and v in inside) and rng.random() < prob:
                edges.append((u, v, rng.choice(TIED_WEIGHTS[:2]) if tied else rng.uniform(0.05, 0.5)))
    return SimGraph(n, edges)
