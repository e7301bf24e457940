import itertools
import random
from pathlib import Path

import pytest

from msel import (
    CapacityError,
    ConstraintPair,
    SimGraph,
    Solution,
    UndefinedRatioError,
    avg_similarity,
    exact_msp,
    is_feasible,
    modified_sgsel,
    ratio_check,
)
from msel.synth import random_graph

from helpers import assert_close, gnp_graph, tied_graph

DATA = Path(__file__).parent / "data"


def brute_force(g, c):
    """Reference optimum by direct enumeration, ties to the smallest tuple."""
    best_alpha = -1.0
    best = frozenset()
    for r in range(c.p + 1, g.n + 1):
        for combo in itertools.combinations(range(g.n), r):
            fs = frozenset(combo)
            if not is_feasible(fs, g, c):
                continue
            a = avg_similarity(fs, g)
            if a > best_alpha or (a == best_alpha and combo < tuple(sorted(best))):
                best_alpha = a
                best = fs
    return best, (best_alpha if best else 0.0)


def test_triangle_optimum(triangle):
    res = exact_msp(triangle, ConstraintPair(s=0.45, p=1))
    assert res.feasible
    assert res.opt_set == frozenset({0, 1, 2})
    assert_close(res.opt_alpha, 0.6)


def test_two_triangles_optimum(two_triangles):
    res = exact_msp(two_triangles, ConstraintPair(s=0.05, p=1))
    assert res.opt_set == frozenset({0, 1, 2})
    assert_close(res.opt_alpha, 0.9)


def test_two_cluster_forced_merge(two_cluster):
    res = exact_msp(two_cluster, ConstraintPair(s=0.05, p=5))
    assert res.opt_set == frozenset(range(8))
    assert_close(res.opt_alpha, 0.7125)


def test_infeasible_instance_reported(triangle):
    res = exact_msp(triangle, ConstraintPair(s=0.8, p=1))
    assert not res.feasible
    assert res.opt_set == frozenset()
    assert res.opt_alpha == 0.0


def test_empty_graph_is_infeasible():
    res = exact_msp(SimGraph(0, []), ConstraintPair(s=0.5, p=0))
    assert not res.feasible


def test_node_budget_guard():
    g = SimGraph(21, [(0, 1, 0.5)])
    with pytest.raises(CapacityError):
        exact_msp(g, ConstraintPair(s=0.1, p=1))


def test_matches_brute_force_enumeration():
    rng = random.Random(404)
    for _ in range(50):
        g = gnp_graph(rng, rng.randint(2, 8))
        c = ConstraintPair(s=rng.uniform(0.05, 0.6), p=rng.randint(0, 3))
        res = exact_msp(g, c)
        ref_set, ref_alpha = brute_force(g, c)
        assert res.feasible == bool(ref_set)
        assert_close(res.opt_alpha, ref_alpha)
        assert res.opt_set == ref_set


def test_ratio_check_values(two_triangles):
    c = ConstraintPair(s=0.05, p=1)
    sol, _ = modified_sgsel(two_triangles, c)
    assert_close(ratio_check(two_triangles, c, sol), 1.0)
    assert ratio_check(two_triangles, c, Solution.empty()) == 0.0


def test_ratio_check_partial_solution(two_cluster):
    c = ConstraintPair(s=0.05, p=2)
    weaker = Solution.from_members(two_cluster, {3, 4, 5, 6, 7})
    r = ratio_check(two_cluster, c, weaker)
    assert_close(r, weaker.alpha / 0.9)
    assert r < 1.0


def test_ratio_check_undefined_when_infeasible(triangle):
    c = ConstraintPair(s=0.9, p=1)
    with pytest.raises(UndefinedRatioError):
        ratio_check(triangle, c, Solution.empty())


def test_peel_ratio_bound_holds_everywhere():
    # the selector's guarantee, checked exactly on small instances
    rng = random.Random(406)
    checked = 0
    while checked < 60:
        g = gnp_graph(rng, rng.randint(3, 9))
        c = ConstraintPair(s=rng.uniform(0.05, 0.5), p=rng.randint(0, 3))
        res = exact_msp(g, c)
        if not res.feasible:
            continue
        sol, _ = modified_sgsel(g, c)
        assert sol.members
        assert ratio_check(g, c, sol) >= 1.0 / 3.0 - 1e-9
        checked += 1


def _golden_oracle_instances():
    """(name, graph, constraints) for every search that data/oracle.golden
    pins: random graphs of every size from 0 to 20 nodes, four more at the
    20-node cap, graphs whose weights tie exactly, and instances where
    nothing is feasible."""
    rng = random.Random(1901)
    for n in range(21):
        g = gnp_graph(rng, n, prob=rng.choice([0.2, 0.5, 0.8]))
        yield f"gnp-{n}", g, ConstraintPair(s=rng.choice([0.1, 0.3, 0.5]), p=rng.randint(0, 4))
    for i, m in enumerate((40, 80, 120, 190)):
        c = ConstraintPair(s=rng.choice([0.2, 0.4, 0.6]), p=rng.randint(1, 6))
        yield f"random20-{i}", random_graph(20, m, seed=1901 + i), c
    for i in range(12):
        g = tied_graph(rng, rng.randint(4, 18), prob=rng.choice([0.2, 0.3, 0.5]))
        yield f"tied-{i}", g, ConstraintPair(s=rng.choice([0.25, 0.5]), p=rng.randint(0, 5))
    yield "tied20", tied_graph(rng, 20, prob=0.3), ConstraintPair(s=0.5, p=3)
    yield "infeasible-s", gnp_graph(rng, 12, w_hi=0.5), ConstraintPair(s=0.6, p=1)
    yield "infeasible-p", gnp_graph(rng, 9, prob=0.9), ConstraintPair(s=0.1, p=9)


def _golden_oracle_lines():
    """One tab-separated line per search of ``_golden_oracle_instances``:
    name, sorted optimum, the repr of its alpha and the feasible flag."""
    lines = []
    for name, g, c in _golden_oracle_instances():
        res = exact_msp(g, c)
        lines.append(f"{name}\t{sorted(res.opt_set)}\t{res.opt_alpha!r}\t{res.feasible}")
    return lines


def test_searches_match_golden_optima():
    # data/oracle.golden holds the lines _golden_oracle_lines returned when
    # it was written; every member, alpha bit and feasible flag must stay
    want = (DATA / "oracle.golden").read_text(encoding="utf-8").splitlines()
    assert _golden_oracle_lines() == want
