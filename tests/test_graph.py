import random

import pytest

from msel import (
    ConstraintPair,
    InvalidNodeError,
    ParameterError,
    PreconditionError,
    SimGraph,
    Solution,
    avg_similarity,
    cross_weight,
    disjoint_union,
    incident_weight,
    is_feasible,
    total_weight,
)

from helpers import assert_close, gnp_graph, naive_incident, naive_total_weight


def test_total_weight_singleton(triangle):
    assert total_weight({0}, triangle) == 0.0


def test_total_weight_single_edge():
    g = SimGraph(2, [(0, 1, 0.8)])
    assert total_weight({0, 1}, g) == 0.8


def test_total_weight_triangle(triangle):
    assert_close(total_weight({0, 1, 2}, triangle), 1.8)


def test_total_weight_rejects_bad_member(triangle):
    with pytest.raises(InvalidNodeError):
        total_weight({0, 3}, triangle)


def test_avg_similarity_values(triangle):
    assert avg_similarity(set(), triangle) == 0.0
    assert avg_similarity({1}, triangle) == 0.0
    g = SimGraph(2, [(0, 1, 0.8)])
    assert_close(avg_similarity({0, 1}, g), 0.4)
    assert_close(avg_similarity({0, 1, 2}, triangle), 0.6)


def test_incident_weight_no_neighbors_in_group():
    g = SimGraph(4, [(0, 1, 0.5)])
    assert incident_weight(0, {2, 3}, g) == 0.0


def test_incident_weight_walkthrough_value():
    # node 0 joined to the group by 0.3 and 0.4; membership of 0 is irrelevant
    g = SimGraph(3, [(0, 1, 0.3), (0, 2, 0.4)])
    assert_close(incident_weight(0, {0, 1, 2}, g), 0.7)
    assert_close(incident_weight(0, {1, 2}, g), 0.7)


def test_incident_weight_uniform_star():
    w = 0.25
    g = SimGraph(5, [(4, i, w) for i in range(4)])
    assert_close(incident_weight(4, {0, 1, 2, 3, 4}, g), 4 * w)


def test_incident_weight_order_independent(walkthrough):
    a = incident_weight(2, [0, 4, 5], walkthrough)
    b = incident_weight(2, [5, 0, 4], walkthrough)
    assert a == b


def test_cross_weight_cases():
    g = SimGraph(6, [(0, 3, 0.2), (1, 4, 0.3), (2, 5, 0.4), (0, 1, 0.9)])
    assert cross_weight({0, 1, 2}, {3, 4, 5}, g) == pytest.approx(0.9, rel=1e-9)
    g2 = SimGraph(4, [(0, 2, 0.5)])
    assert cross_weight({0, 1}, {2, 3}, g2) == 0.5
    assert cross_weight({1}, {3}, g2) == 0.0


def test_cross_weight_rejects_overlap(triangle):
    with pytest.raises(PreconditionError):
        cross_weight({0, 1}, {1, 2}, triangle)


def test_is_feasible_strict_size(triangle):
    c = ConstraintPair(s=0.1, p=3)
    assert not is_feasible({0, 1, 2}, triangle, c)


def test_is_feasible_strict_similarity():
    g = SimGraph(2, [(0, 1, 0.4)])
    assert not is_feasible({0, 1}, g, ConstraintPair(s=0.4, p=1))
    assert is_feasible({0, 1}, g, ConstraintPair(s=0.39, p=1))


def test_is_feasible_triangle(triangle):
    assert is_feasible({0, 1, 2}, triangle, ConstraintPair(s=0.45, p=2))


def test_is_feasible_needs_in_group_edge():
    # node 2's strong edge leaves the group, so {0, 1, 2} fails even though
    # node 2 has a qualifying edge somewhere in the graph
    g = SimGraph(4, [(0, 1, 0.9), (0, 2, 0.1), (2, 3, 0.9)])
    c = ConstraintPair(s=0.5, p=1)
    assert not is_feasible({0, 1, 2}, g, c)
    assert is_feasible({0, 1}, g, c)


def test_constraint_pair_validation():
    with pytest.raises(ParameterError):
        ConstraintPair(s=0.0, p=1)
    with pytest.raises(ParameterError):
        ConstraintPair(s=1.0, p=1)
    with pytest.raises(ParameterError):
        ConstraintPair(s=0.5, p=-1)


def test_graph_rejects_bad_edges():
    with pytest.raises(ParameterError):
        SimGraph(2, [(0, 0, 0.5)])
    with pytest.raises(ParameterError):
        SimGraph(2, [(0, 1, 0.0)])
    with pytest.raises(ParameterError):
        SimGraph(2, [(0, 1, 1.5)])
    with pytest.raises(InvalidNodeError):
        SimGraph(2, [(0, 2, 0.5)])
    with pytest.raises(ParameterError):
        SimGraph(3, [(0, 1, 0.5), (1, 0, 0.5)])
    with pytest.raises(ParameterError):
        SimGraph(2, [(0, 1, 0.5)], labels=("a",))


def test_graph_accessors(triangle):
    assert triangle.n == 3 and triangle.m == 3
    assert triangle.degree(0) == 2
    assert triangle.weight(1, 2) == 0.7
    assert triangle.weight(2, 1) == 0.7
    assert list(triangle.edges()) == [(0, 1, 0.5), (0, 2, 0.6), (1, 2, 0.7)]
    assert triangle.max_incident_weight(0) == 0.6
    iso = SimGraph(2, [])
    assert iso.weight(0, 1) == 0.0
    assert iso.max_incident_weight(0) == 0.0
    with pytest.raises(InvalidNodeError):
        triangle.neighbors(5)


def test_neighbors_sorted_regardless_of_insert_order():
    g = SimGraph(4, [(0, 3, 0.3), (0, 1, 0.1), (0, 2, 0.2)])
    assert [t for t, _ in g.neighbors(0)] == [1, 2, 3]


def test_solution_from_members(triangle):
    sol = Solution.from_members(triangle, {0, 1, 2})
    assert_close(sol.total_weight, 1.8)
    assert_close(sol.alpha, 0.6)
    assert sol.size == 3 and bool(sol)
    empty = Solution.empty()
    assert empty.alpha == 0.0 and not empty


def test_peel_decomposition_identity():
    """Removing v lowers the total weight by exactly v's incident weight."""
    rng = random.Random(7)
    for _ in range(40):
        g = gnp_graph(rng, rng.randint(2, 24))
        F = {u for u in range(g.n) if rng.random() < 0.6}
        if not F:
            continue
        v = rng.choice(sorted(F))
        lhs = total_weight(F - {v}, g)
        rhs = total_weight(F, g) - incident_weight(v, F, g)
        assert_close(lhs, rhs)


def test_union_decomposition_identity():
    rng = random.Random(8)
    for _ in range(40):
        g = gnp_graph(rng, rng.randint(2, 24))
        nodes = list(range(g.n))
        rng.shuffle(nodes)
        cut = rng.randint(0, g.n)
        A, B = set(nodes[:cut]), set(nodes[cut:])
        lhs = total_weight(A | B, g)
        rhs = total_weight(A, g) + total_weight(B, g)
        if A and B:
            rhs += cross_weight(A, B, g)
        assert_close(lhs, rhs)


def test_weight_arithmetic_matches_naive():
    rng = random.Random(9)
    for _ in range(25):
        g = gnp_graph(rng, rng.randint(1, 16))
        F = {u for u in range(g.n) if rng.random() < 0.5}
        assert_close(total_weight(F, g), naive_total_weight(F, g))
        if g.n:
            u = rng.randrange(g.n)
            assert_close(incident_weight(u, F, g), naive_incident(u, F, g))


def test_disjoint_union_layout(two_triangles):
    extra = SimGraph(2, [(0, 1, 0.5)], labels=("x", "y"))
    base_adj = [list(two_triangles.neighbors(u)) for u in range(two_triangles.n)]
    extra_adj = [list(extra.neighbors(u)) for u in range(extra.n)]
    bridges = [(2, 0, 0.25), (0, 1, 0.75), (2, 1, 1.0)]
    merged = disjoint_union(two_triangles, extra, bridges=bridges)
    assert merged.n == 8
    assert merged.m == two_triangles.m + extra.m + len(bridges)
    assert merged.weight(6, 7) == 0.5
    assert merged.weight(2, 6) == 0.25
    # base labels default to empty strings when only one side has labels
    assert merged.labels == ("", "", "", "", "", "", "x", "y")
    # the merged graph shares adjacency with its inputs but never edits them
    assert [list(two_triangles.neighbors(u)) for u in range(two_triangles.n)] == base_adj
    assert [list(extra.neighbors(u)) for u in range(extra.n)] == extra_adj
    # same layout as a graph built from the full edge list
    full = list(two_triangles.edges())
    full += [(u + 6, v + 6, w) for u, v, w in extra.edges()]
    full += [(u, v + 6, w) for u, v, w in bridges]
    rebuilt = SimGraph(8, full)
    assert list(merged.edges()) == list(rebuilt.edges())
    assert all(merged.neighbors(u) == rebuilt.neighbors(u) for u in range(8))
    with pytest.raises(PreconditionError):
        disjoint_union(two_triangles, extra, bridges=[(9, 0, 0.5)])
    with pytest.raises(PreconditionError):
        disjoint_union(two_triangles, extra, bridges=[(0, 5, 0.5)])
    for w in (0.0, -0.5, 1.5):
        with pytest.raises(ParameterError):
            disjoint_union(two_triangles, extra, bridges=[(0, 0, w)])
    with pytest.raises(ParameterError):
        disjoint_union(two_triangles, extra, bridges=[(1, 1, 0.5), (1, 1, 0.6)])
    # failed unions leave the inputs as they were, too
    assert [list(two_triangles.neighbors(u)) for u in range(two_triangles.n)] == base_adj
