"""Exhaustive exact solver for small instances, used to certify the heuristics.

All 2^n subsets are scored with a subset dynamic program on arrays. The
weight of a mask is the weight of the mask without its lowest bit v, plus
v's cross weight into that rest. The masks whose lowest bit is v are
``(hi << (v + 1)) | (1 << v)``, a strided slice, and v runs from n - 1 down
to 0, so every rest is filled before the masks that extend it. v's cross
weight for every ``hi`` is built by doubling on ``hi``'s bits from the
lowest: ``cross[b:2b] = cross[:b] + w[v, v + 1 + k]`` for ``b = 1 << k``,
starting from 0.0. So each mask's weight is its rest's weight plus v's row
summed over the rest's members in increasing id order from 0.0: the same
terms in the same order as a scalar loop over the masks, bit for bit.
(Doubling on the highest bit of the whole mask instead regroups the sum and
drifts by an ulp at 20 nodes.) Feasibility of all masks is one array test
per node against its bitmask of strong neighbours.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, UndefinedRatioError
from .graph import ConstraintPair, SimGraph, Solution

EXACT_MAX_NODES = 20


@dataclass(frozen=True)
class OracleResult:
    """Best feasible subset found by enumeration."""

    opt_set: frozenset[int]
    opt_alpha: float
    feasible: bool

    def ratio(self, algo_solution: Solution) -> float:
        """alpha(algo) / alpha(OPT); an empty heuristic solution scores 0.
        Raises when no feasible subset exists, since the ratio is undefined
        there."""
        if not self.feasible:
            raise UndefinedRatioError("instance has no feasible subset; ratio undefined")
        if not algo_solution:
            return 0.0
        return algo_solution.alpha / self.opt_alpha


def exact_msp(g: SimGraph, c: ConstraintPair) -> OracleResult:
    """Best feasible subset by exhaustive enumeration.

    Ties in the objective go to the lexicographically smallest sorted member
    tuple, so results are reproducible. Guarded at EXACT_MAX_NODES.
    """
    n = g.n
    if n > EXACT_MAX_NODES:
        raise CapacityError(f"exact search on {n} nodes exceeds the {EXACT_MAX_NODES} node cap")

    w = np.zeros((n, n))
    w[np.repeat(np.arange(n), np.diff(g.indptr)), g.indices] = g.weights
    weight = np.zeros(1 << n)
    size = np.zeros(1 << n, dtype=np.uint8)
    for v in range(n - 1, -1, -1):
        # cross[hi]: v's weights to the members of hi << (v + 1), in id order
        cross = np.zeros(1 << (n - 1 - v))
        for k in range(n - 1 - v):
            b = 1 << k
            cross[b:2 * b] = cross[:b] + w[v, v + 1 + k]
        # the masks whose lowest bit is v, and their rests filled at higher v
        step = 2 << v
        weight[1 << v::step] = weight[::step] + cross
        size[1 << v::step] = size[::step] + 1

    masks = np.arange(1 << n, dtype=np.int32)
    # strong[u]: bitmask of u's neighbours joined to it by weight above c.s
    strong = ((w > c.s) << np.arange(n, dtype=np.int32)).sum(axis=1, dtype=np.int32)
    ok = size > c.p
    for u in range(n):
        ok &= ((masks & (1 << u)) == 0) | ((masks & strong[u]) != 0)
    alpha = np.divide(weight, size, out=np.full(1 << n, -1.0), where=ok)
    best = alpha.max()
    if best < 0.0:
        return OracleResult(frozenset(), 0.0, False)
    mask = min(np.flatnonzero(alpha == best).tolist(), key=_mask_members)
    return OracleResult(frozenset(_mask_members(mask)), float(best), True)


def _mask_members(mask: int) -> tuple[int, ...]:
    return tuple(u for u in range(mask.bit_length()) if mask >> u & 1)


def ratio_check(g: SimGraph, c: ConstraintPair, algo_solution: Solution) -> float:
    """Objective ratio of a heuristic's solution against the exact optimum
    (``OracleResult.ratio``)."""
    return exact_msp(g, c).ratio(algo_solution)
