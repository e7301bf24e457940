import random

import numpy as np
import pytest

from msel import (
    AttributeMatrix,
    CapacityError,
    ConstraintPair,
    InvalidNodeError,
    ParameterError,
    PreconditionError,
    SimGraph,
    Solution,
    avg_similarity,
    build_similarity_graph,
    cross_weight,
    disjoint_union,
    incident_weight,
    is_feasible,
    read_msg1,
    total_weight,
)

from helpers import assert_close, gnp_graph, naive_feasible, naive_incident, naive_total_weight


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
    with pytest.raises(InvalidNodeError, match="member id 3 outside 0..2"):
        is_feasible({0, 3}, triangle, ConstraintPair(s=0.1, p=0))


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


def test_graph_node_count_bound():
    # ids are stored as int32: a larger count is refused before any array
    # is made, so these allocate nothing
    with pytest.raises(CapacityError):
        SimGraph(2**31 + 1, [])
    big = SimGraph.__new__(SimGraph)
    big.n = 2**31
    with pytest.raises(CapacityError):
        disjoint_union(big, SimGraph(1, []))


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
        for s in (0.1, 0.5, 0.9):
            c = ConstraintPair(s=s, p=rng.randint(0, 3))
            assert is_feasible(F, g, c) == naive_feasible(F, g, c)


def test_max_incident_weight_after_a_bridged_union(two_triangles):
    extra = SimGraph(3, [(0, 1, 0.4)])
    merged = disjoint_union(two_triangles, extra, bridges=[(3, 0, 0.6), (0, 1, 0.2)])
    # a bridge heavier than node 3's own edges raises its maximum, a lighter
    # one leaves node 0's alone, and both reach into the added graph
    assert merged.max_incident_weight(3) == 0.6
    assert merged.max_incident_weight(0) == 0.9
    assert merged.max_incident_weight(6) == 0.6
    assert merged.max_incident_weight(7) == 0.4
    # an added node with no edge at all
    assert merged.max_incident_weight(8) == 0.0
    # the base graph is unchanged
    assert two_triangles.max_incident_weight(3) == 0.1


def test_disjoint_union_layout(two_triangles):
    extra = SimGraph(2, [(0, 1, 0.5)])
    base_adj = [list(two_triangles.neighbors(u)) for u in range(two_triangles.n)]
    extra_adj = [list(extra.neighbors(u)) for u in range(extra.n)]
    bridges = [(2, 0, 0.25), (0, 1, 0.75), (2, 1, 1.0)]
    merged = disjoint_union(two_triangles, extra, bridges=bridges)
    assert merged.n == 8
    assert merged.m == two_triangles.m + extra.m + len(bridges)
    assert merged.weight(6, 7) == 0.5
    assert merged.weight(2, 6) == 0.25
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


def assert_csr(g, edges):
    """``g``'s arrays hold ``edges`` (u, v, w triples, any order) in sorted,
    symmetric, read-only rows, and ``neighbors`` reads them as before."""
    ptr, idx, wts = g.indptr, g.indices, g.weights
    assert (ptr.dtype, idx.dtype, wts.dtype) == (np.int64, np.int32, np.float64)
    assert not (ptr.flags.writeable or idx.flags.writeable or wts.flags.writeable)
    with pytest.raises(ValueError):
        idx[:1] = 0
    assert len(ptr) == g.n + 1 and ptr[0] == 0 and ptr[-1] == len(idx) == len(wts) == 2 * g.m
    rows = np.repeat(np.arange(g.n), np.diff(ptr))
    for u in range(g.n):
        assert (np.diff(idx[ptr[u]:ptr[u + 1]]) > 0).all()
    entries = list(zip(rows.tolist(), idx.tolist(), wts.tolist()))
    assert sorted(entries) == entries
    assert sorted((v, u, w) for u, v, w in entries) == entries
    expect = [[] for _ in range(g.n)]
    for u, v, w in edges:
        expect[u].append((v, w))
        expect[v].append((u, w))
    assert [g.neighbors(u) for u in range(g.n)] == [sorted(x) for x in expect]
    assert list(g.edges()) == sorted((min(u, v), max(u, v), w) for u, v, w in edges)


def test_csr_layout_of_every_constructor(tmp_path, two_triangles):
    rng = random.Random(10)
    for _ in range(20):
        g = gnp_graph(rng, rng.randint(0, 20))
        edges = [(v, u, w) if rng.random() < 0.5 else (u, v, w) for u, v, w in g.edges()]
        rng.shuffle(edges)
        assert_csr(SimGraph(g.n, edges), edges)
    path = tmp_path / "c.msg1"
    path.write_text("# head\nMSG1\n\n4 3\n# edges\n2 3 0.5\n\n0 3 0.25\n  # last\n0 1 1.0\n", encoding="utf-8")
    assert_csr(read_msg1(path), [(2, 3, 0.5), (0, 3, 0.25), (0, 1, 1.0)])
    extra = SimGraph(3, [(1, 2, 0.4), (0, 2, 0.3)])
    bridges = [(5, 0, 0.2), (0, 2, 0.7), (5, 1, 0.6), (3, 0, 0.8)]
    merged = disjoint_union(two_triangles, extra, bridges)
    assert_csr(merged, list(two_triangles.edges()) + [(u + 6, v + 6, w) for u, v, w in extra.edges()]
               + [(u, v + 6, w) for u, v, w in bridges])
    values = (np.random.default_rng(3).random((12, 5)) < 0.5).astype(float)
    attrs = AttributeMatrix(values=values, ids=tuple(range(12)))
    for g in (build_similarity_graph(attrs, mode="edges", edges=[(0, 5), (5, 0), (3, 1), (7, 2)]),
              build_similarity_graph(attrs, mode="knn", k=3)):
        assert_csr(g, list(g.edges()))


def test_every_edge_order_and_form_builds_the_sorted_arrays():
    # sorted input skips the sort; shuffled, flipped, array and record
    # input must build the same arrays, bit for bit
    rows = np.dtype([("u", np.int64), ("v", np.int64), ("w", np.float64)])
    rng = random.Random(11)
    for n in [0, 1, 2, 5, 40] + [rng.randint(3, 200) for _ in range(20)]:
        g = gnp_graph(rng, n)
        ordered = list(g.edges())
        assert_csr(SimGraph(n, ordered), ordered)
        want = [g.indptr, g.indices, g.weights]
        flipped = [(v, u, w) if rng.random() < 0.5 else (u, v, w) for u, v, w in ordered]
        rng.shuffle(flipped)
        for edges in (flipped, np.array(flipped, dtype=np.float64).reshape(-1, 3),
                      np.array(ordered, dtype=rows), np.array(flipped, dtype=rows)):
            got = SimGraph(n, edges)
            assert got.m == g.m
            for a, b in zip((got.indptr, got.indices, got.weights), want):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    # a repeat, as given or flipped, names the smallest pair repeated
    for edges in ([(0, 1, 0.5), (1, 3, 0.5), (0, 1, 0.25)], [(1, 3, 0.5), (3, 1, 0.5), (2, 1, 0.5), (1, 2, 0.4)]):
        for form in (list, lambda e: np.array(e, dtype=rows)):
            with pytest.raises(ParameterError) as err:
                SimGraph(4, form(edges))
            assert str(err.value) == f"duplicate edge ({min(edges)[0]},{min(edges)[1]})"


def test_graph_errors_name_the_first_bad_edge():
    cases = [
        ([(0, 1, 0.5), (2, 2, 0.5), (0, 9, 0.5)], ParameterError, "self-loop on node 2"),
        ([(0, 1, 1.5), (0, 9, 0.5)], ParameterError, "edge (0,1) weight 1.5 outside (0,1]"),
        ([(0, 1, 0.5), (0, 9, 0.0)], InvalidNodeError, "edge (0,9) outside id range 0..3"),
        ([(0, 1, float("nan"))], ParameterError, "edge (0,1) weight nan outside (0,1]"),
        # the smallest pair repeated, in either orientation
        ([(2, 3, 0.5), (1, 2, 0.5), (3, 2, 0.1), (2, 1, 0.4)], ParameterError, "duplicate edge (1,2)"),
    ]
    for edges, kind, message in cases:
        with pytest.raises(kind) as err:
            SimGraph(4, edges)
        assert str(err.value) == message
        with pytest.raises(kind):
            SimGraph(4, np.array(edges, dtype=np.float64))
    with pytest.raises(InvalidNodeError):
        SimGraph(4, [(0, float("nan"), 0.5)])


def test_disjoint_union_names_a_repeated_bridge_like_a_row_scan(two_triangles):
    extra = SimGraph(2, [])
    # the ends in order of first appearance are 0, 7, 2: node 7 repeats 2 first
    with pytest.raises(ParameterError) as err:
        disjoint_union(two_triangles, extra, [(0, 1, 0.5), (2, 1, 0.5), (2, 1, 0.6)])
    assert str(err.value) == "duplicate edge (7,2)"


def test_merged_graphs_inherit_their_strength_arrays():
    # a merged graph starts its strength arrays from those its inputs built
    # and sums only the other rows again; every bit must be what a graph
    # built from the merged edges computes over all its rows
    rng = random.Random(29)
    cases = 0
    for _ in range(60):
        g1 = gnp_graph(rng, rng.randint(1, 30), prob=rng.choice([0.1, 0.4]))
        if rng.random() < 0.3:
            g1 = disjoint_union(g1, gnp_graph(rng, rng.randint(1, 5)), [(0, 0, 0.5)])
        g2 = gnp_graph(rng, rng.randint(1, 12), prob=rng.choice([0.0, 0.3]))  # some nodes lack edges
        ends = sorted({(rng.randrange(g1.n), rng.randrange(g2.n)) for _ in range(rng.choice([0, 1, 6]))})
        if ends and rng.random() < 0.5:
            # one base node bridged to several added ones
            ends = sorted({(ends[0][0], v) for v in range(g2.n)})
        bridges = [(u, v, round(rng.uniform(0.01, 1.0), 2)) for u, v in ends]
        for built in (g1, g2):
            if rng.random() < 0.7:
                built.strength()
        merged = disjoint_union(g1, g2, bridges)
        cases += merged._parts is not None
        want = SimGraph(merged.n, list(merged.edges())).strength()
        for got, ref in zip(merged.strength(), want):
            assert got.tobytes() == ref.tobytes() and not got.flags.writeable
        for u in range(merged.n):
            acc = 0.0
            for w in merged.row(u)[1]:
                acc += w
            assert want[0][u] == acc and want[1][u] == max(merged.row(u)[1], default=0.0)
    assert cases > 20
