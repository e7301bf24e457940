import random
from pathlib import Path

import pytest

from msel import (
    ConstraintPair,
    ParameterError,
    SimGraph,
    average_peel,
    degree_peel,
    is_feasible,
    modified_sgsel,
    planted_community_graph,
    random_peel,
    sgsel,
)

from helpers import assert_close, gnp_graph

DATA = Path(__file__).parent / "data"


def test_sgsel_finds_strong_triangle(two_triangles):
    sol = sgsel(two_triangles, ConstraintPair(s=0.05, p=1))
    assert sol.members == frozenset({0, 1, 2})
    assert_close(sol.alpha, 0.9)


def test_sgsel_matches_walkthrough(walkthrough):
    sol = sgsel(walkthrough, ConstraintPair(s=0.1, p=1))
    assert sol.members == frozenset({0, 2, 4, 5})
    assert_close(sol.alpha, 0.525)


def test_random_peel_is_seed_deterministic(two_cluster):
    c = ConstraintPair(s=0.05, p=2)
    a = random_peel(two_cluster, c, seed=7)
    b = random_peel(two_cluster, c, seed=7)
    assert a.members == b.members
    assert_close(a.alpha, b.alpha)


def test_random_peel_seeds_differ_somewhere():
    rng = random.Random(11)
    g = gnp_graph(rng, 12, prob=0.7)
    c = ConstraintPair(s=0.05, p=3)
    outcomes = {random_peel(g, c, seed=k).members for k in range(8)}
    assert len(outcomes) > 1


def test_degree_peel_on_uniform_clique_keeps_everything():
    n = 6
    g = SimGraph(n, [(u, v, 0.4) for u in range(n) for v in range(u + 1, n)])
    c = ConstraintPair(s=0.1, p=2)
    for algo in (degree_peel, average_peel, sgsel):
        sol = algo(g, c)
        assert sol.members == frozenset(range(n))
        assert_close(sol.alpha, 0.4 * (n - 1) / 2)


def _triangle_with_stray():
    # nodes 0..2 form a triangle above the threshold; node 3 touches all of
    # them but only through edges at or below it, so no state containing 3
    # is ever feasible at s=0.1
    return SimGraph(4, [
        (0, 1, 0.3), (0, 2, 0.3), (1, 2, 0.3),
        (0, 3, 0.05), (1, 3, 0.05), (2, 3, 0.05),
    ])


def test_degree_peel_can_strand_itself():
    # all four nodes tie on degree, so the id tie break eats the triangle
    # before the stray; with no prefilter the run ends empty handed
    sol = degree_peel(_triangle_with_stray(), ConstraintPair(s=0.1, p=1))
    assert not sol.members
    assert sol.alpha == 0.0


def test_average_peel_sheds_the_stray_first():
    sol = average_peel(_triangle_with_stray(), ConstraintPair(s=0.1, p=1))
    assert sol.members == frozenset({0, 1, 2})
    assert_close(sol.alpha, 0.3)


def test_global_peel_prefilter_saves_the_same_instance():
    # the guaranteed selector screens out the stray up front
    sol, _ = modified_sgsel(_triangle_with_stray(), ConstraintPair(s=0.1, p=1))
    assert sol.members == frozenset({0, 1, 2})
    assert_close(sol.alpha, 0.3)


def test_baselines_never_return_infeasible_nonempty():
    rng = random.Random(17)
    c_pool = [ConstraintPair(s=0.2, p=1), ConstraintPair(s=0.35, p=2), ConstraintPair(s=0.5, p=3)]
    for _ in range(30):
        g = gnp_graph(rng, rng.randint(3, 12))
        for c in c_pool:
            for algo in (sgsel, degree_peel, average_peel):
                sol = algo(g, c)
                if sol.members:
                    assert is_feasible(sol.members, g, c)
            sol = random_peel(g, c, seed=rng.randint(0, 999))
            if sol.members:
                assert is_feasible(sol.members, g, c)


def test_ball_restarts_never_lose_to_single_peel():
    # sgsel's pools include one unrestricted peel, so it can only match
    # or beat the single global run
    rng = random.Random(23)
    for _ in range(25):
        g = gnp_graph(rng, rng.randint(4, 12))
        c = ConstraintPair(s=rng.uniform(0.1, 0.4), p=rng.randint(1, 3))
        best, _ = modified_sgsel(g, c)
        local = sgsel(g, c)
        assert local.alpha >= best.alpha - 1e-12
        if best.members:
            assert local.members


def test_baselines_reject_bad_constraints(two_triangles):
    with pytest.raises(ParameterError):
        sgsel(two_triangles, ConstraintPair(s=0.5, p=-1))


def _golden_planted():
    """(seed, graph, constraints) of the three planted instances the golden
    files of this module pin."""
    for seed, n, m, community, w_in, w_out, c in (
        (1, 500, 2500, 30, (0.3, 0.7), (0.05, 0.6), ConstraintPair(s=0.3, p=8)),
        (2, 400, 2400, 40, (0.2, 0.6), (0.1, 0.7), ConstraintPair(s=0.4, p=12)),
        (5, 600, 3000, 25, (0.4, 0.8), (0.05, 0.8), ConstraintPair(s=0.5, p=4)),
    ):
        yield seed, planted_community_graph(n, m, seed=seed, community=community, w_in=w_in, w_out=w_out), c


def _golden_sgsel_lines():
    """One tab-separated line per solve that data/sgsel.golden pins: input,
    algorithm, sorted members and the repr of alpha. ``sgsel`` runs one
    peel per node's distance-2 ball on these sparse graphs (a median ball
    holds 83-96 nodes, so most ball peels run wholly in the dense tail)
    next to one whole-graph peel; on all three a ball peel sums the
    planted community to an alpha a few ulps above the whole-graph peel's,
    so the line pins that ball peel's bits."""
    lines = []
    for seed, g, c in _golden_planted():
        for name, sol in (("sgsel", sgsel(g, c)), ("msgsel", modified_sgsel(g, c)[0])):
            lines.append(f"planted-{seed}\t{name}\t{sorted(sol.members)}\t{sol.alpha!r}")
    return lines


def test_ball_peels_match_golden_solutions():
    # data/sgsel.golden holds the lines _golden_sgsel_lines returned when it
    # was written; every member and alpha bit must stay
    want = (DATA / "sgsel.golden").read_text(encoding="utf-8").splitlines()
    assert _golden_sgsel_lines() == want


def _golden_metric_lines():
    """One tab-separated line per solve that data/metric.golden pins: input,
    algorithm, sorted members and the repr of alpha, for the three simple
    removal rules on the planted instances above (``random_peel`` with seed
    3). Each peels the whole graph and reads a row at every removal; the
    random order reaches no supported set above p on these, so its lines
    hold the empty set."""
    lines = []
    for seed, g, c in _golden_planted():
        for name, sol in (("random", random_peel(g, c, seed=3)), ("degree", degree_peel(g, c)),
                          ("average", average_peel(g, c))):
            lines.append(f"planted-{seed}\t{name}\t{sorted(sol.members)}\t{sol.alpha!r}")
    return lines


def test_metric_peels_match_golden_solutions():
    # data/metric.golden holds the lines _golden_metric_lines returned when
    # it was written; every member and alpha bit must stay
    want = (DATA / "metric.golden").read_text(encoding="utf-8").splitlines()
    assert _golden_metric_lines() == want
