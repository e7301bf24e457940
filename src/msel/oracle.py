"""Exhaustive exact solver for small instances, used to certify the heuristics.

All 2^n subsets are scored with a bitmask dynamic program: the pairwise
weight of a mask extends the mask without its lowest bit by that bit's
incident weight into the rest, so no pair is ever rescanned. Feasibility of
a mask is checked with per-node bitmasks of strong neighbors.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CapacityError, UndefinedRatioError
from .graph import ConstraintPair, SimGraph, Solution

EXACT_MAX_NODES = 20


@dataclass(frozen=True)
class OracleResult:
    """Best feasible subset found by enumeration."""

    opt_set: frozenset[int]
    opt_alpha: float
    feasible: bool


def exact_msp(g: SimGraph, c: ConstraintPair) -> OracleResult:
    """Best feasible subset by exhaustive enumeration.

    Ties in the objective go to the lexicographically smallest sorted member
    tuple, so results are reproducible. Guarded at EXACT_MAX_NODES.
    """
    n = g.n
    if n > EXACT_MAX_NODES:
        raise CapacityError(f"exact search on {n} nodes exceeds the {EXACT_MAX_NODES} node cap")
    if n == 0:
        return OracleResult(frozenset(), 0.0, False)

    # nbr_above[v]: bitmask of neighbors joined to v by weight above c.s.
    nbr_above = [0] * n
    inc_w: list[list[float]] = [[0.0] * n for _ in range(n)]
    for u in range(n):
        for t, w in g.neighbors(u):
            inc_w[u][t] = w
            if w > c.s:
                nbr_above[u] |= 1 << t

    size = bytearray(1 << n)
    weight = [0.0] * (1 << n)
    best_alpha = -1.0
    best_mask = 0
    best_members: tuple[int, ...] | None = None

    for mask in range(1, 1 << n):
        low = mask & -mask
        v = low.bit_length() - 1
        rest = mask ^ low
        size[mask] = size[rest] + 1
        iw = 0.0
        row = inc_w[v]
        r = rest
        while r:
            b = r & -r
            iw += row[b.bit_length() - 1]
            r ^= b
        weight[mask] = weight[rest] + iw

        if size[mask] <= c.p:
            continue
        feasible = True
        r = mask
        while r:
            b = r & -r
            if not (nbr_above[b.bit_length() - 1] & mask & ~b):
                feasible = False
                break
            r ^= b
        if not feasible:
            continue
        alpha = weight[mask] / size[mask]
        if alpha > best_alpha:
            best_alpha = alpha
            best_mask = mask
            best_members = None
        elif alpha == best_alpha:
            if best_members is None:
                best_members = _mask_members(best_mask)
            cand = _mask_members(mask)
            if cand < best_members:
                best_mask, best_members = mask, cand

    if best_alpha < 0.0:
        return OracleResult(frozenset(), 0.0, False)
    return OracleResult(frozenset(_mask_members(best_mask)), best_alpha, True)


def _mask_members(mask: int) -> tuple[int, ...]:
    out = []
    while mask:
        b = mask & -mask
        out.append(b.bit_length() - 1)
        mask ^= b
    return tuple(out)


def ratio_check(g: SimGraph, c: ConstraintPair, algo_solution: Solution) -> float:
    """Objective ratio of a heuristic's solution against the exact optimum.

    Returns alpha(algo) / alpha(OPT); an empty heuristic solution on a
    feasible instance scores 0. Raises when no feasible subset exists at all,
    since the ratio is undefined there.
    """
    res = exact_msp(g, c)
    if not res.feasible:
        raise UndefinedRatioError("instance has no feasible subset; ratio undefined")
    if not algo_solution:
        return 0.0
    return algo_solution.alpha / res.opt_alpha
