import math
import random
from types import SimpleNamespace

import numpy as np
import pytest

from msel import (
    ConstraintPair,
    InvalidNodeError,
    ParameterError,
    PeelStats,
    PeelTrace,
    SimGraph,
    avg_similarity,
    incident_weight,
    is_feasible,
    modified_sgsel,
    total_weight,
)

from msel.dcsel import _Group
from msel.peel import _setup

from helpers import assert_close, gnp_graph


def test_uniform_clique_keeps_everything():
    # on a uniform clique the average only grows with size, so the full
    # graph is the best state the peel ever sees
    c = 0.4
    for n in (3, 5, 6):
        g = SimGraph(n, [(u, v, c) for u in range(n) for v in range(u + 1, n)])
        sol, _ = modified_sgsel(g, ConstraintPair(s=0.1, p=1))
        assert sol.members == frozenset(range(n))
        assert_close(sol.alpha, c * (n - 1) / 2)


def test_two_triangles_picks_strong_one(two_triangles):
    sol, _ = modified_sgsel(two_triangles, ConstraintPair(s=0.05, p=2))
    assert sol.members == frozenset({0, 1, 2})
    assert_close(sol.alpha, 0.9)


def test_all_edges_below_threshold_gives_empty(two_triangles):
    sol, profile = modified_sgsel(two_triangles, ConstraintPair(s=0.95, p=1))
    assert not sol
    assert sol.size == 0
    assert len(profile) == 0


def test_infeasible_size_floor_gives_empty(triangle):
    sol, _ = modified_sgsel(triangle, ConstraintPair(s=0.1, p=3))
    assert not sol


def test_walkthrough_solution(walkthrough):
    sol, profile = modified_sgsel(walkthrough, ConstraintPair(s=0.1, p=1))
    assert sol.members == frozenset({0, 2, 4, 5})
    assert_close(sol.alpha, 0.525)
    # the recorded size-3 state is {2, 4, 5}, reached right after node 0 goes
    assert profile.members_at(3) == frozenset({2, 4, 5})
    assert_close(profile.alpha_at(3), 0.5)


def test_profile_members_match_alphas():
    rng = random.Random(11)
    for _ in range(30):
        g = gnp_graph(rng, rng.randint(2, 30))
        c = ConstraintPair(s=rng.uniform(0.1, 0.5), p=rng.randint(1, 3))
        _, profile = modified_sgsel(g, c)
        for size in profile.sizes():
            members = profile.members_at(size)
            assert len(members) == size
            assert_close(avg_similarity(members, g), profile.alpha_at(size))


def test_profile_unrecorded_size_conventions():
    g = SimGraph(2, [(0, 1, 0.5)])
    _, profile = modified_sgsel(g, ConstraintPair(s=0.1, p=1))
    assert profile.alpha_at(17) == -1.0
    assert profile.members_at(17) == frozenset()


def test_solution_dominates_feasible_profile_entries():
    rng = random.Random(12)
    for _ in range(30):
        g = gnp_graph(rng, rng.randint(2, 30))
        c = ConstraintPair(s=rng.uniform(0.1, 0.5), p=rng.randint(1, 3))
        sol, profile = modified_sgsel(g, c)
        for size in profile.sizes():
            if size <= c.p:
                continue
            members = profile.members_at(size)
            if is_feasible(members, g, c):
                assert sol.alpha >= profile.alpha_at(size) - 1e-12


def test_solution_weight_matches_recomputation():
    rng = random.Random(13)
    for _ in range(30):
        g = gnp_graph(rng, rng.randint(2, 40))
        sol, _ = modified_sgsel(g, ConstraintPair(s=0.2, p=1))
        if sol:
            assert_close(sol.total_weight, total_weight(sol.members, g))
            assert is_feasible(sol.members, g, ConstraintPair(s=0.2, p=1))


def test_prefilter_drops_unsupported_nodes():
    # node 3 has no edge above s and must never appear in any recorded set
    g = SimGraph(4, [(0, 1, 0.8), (1, 2, 0.7), (2, 3, 0.2)])
    c = ConstraintPair(s=0.3, p=1)
    sol, profile = modified_sgsel(g, c)
    assert 3 not in sol.members
    for size in profile.sizes():
        assert 3 not in profile.members_at(size)
    # survivors are exactly the fixpoint of the support relation
    assert max(profile.sizes()) == 3


def test_within_restricts_the_search():
    g = SimGraph(6, [(0, 1, 0.9), (0, 2, 0.9), (1, 2, 0.9), (3, 4, 0.6), (4, 5, 0.6), (3, 5, 0.6)])
    sol, profile = modified_sgsel(g, ConstraintPair(s=0.1, p=1), within=[3, 4, 5])
    assert sol.members == frozenset({3, 4, 5})
    for size in profile.sizes():
        assert profile.members_at(size) <= frozenset({3, 4, 5})


def test_within_order_and_duplicates_do_not_matter():
    rng = random.Random(16)
    g = gnp_graph(rng, 40, prob=0.2)
    c = ConstraintPair(s=0.2, p=2)
    nodes = rng.sample(range(g.n), 25)
    messy = nodes + nodes[:7]
    rng.shuffle(messy)
    results = []
    for within in (messy, sorted(set(messy))):
        stats = PeelStats()
        sol, profile = modified_sgsel(g, c, within=within, stats=stats)
        entries = [(k, a, profile.members_at(k)) for k, a, _ in profile.items()]
        results.append((sol, entries, stats))
    assert results[0] == results[1]
    assert results[0][0]
    with pytest.raises(InvalidNodeError):
        modified_sgsel(g, c, within=[3, g.n])
    # pinned ids are checked too: -1 must not pin the last node
    for bad in (-1, g.n):
        anchor = SimpleNamespace(members=[3, bad], weight=0.0, inw=[0.0] * g.n, top=[0.0] * g.n)
        with pytest.raises(InvalidNodeError):
            modified_sgsel(g, c, anchor=anchor)


def test_run_picks_the_peel_result_for_every_p():
    # one peel's run answers for any size floor exactly as a new peel would
    rng = random.Random(17)
    for _ in range(30):
        g = gnp_graph(rng, rng.randint(3, 14))
        s = rng.uniform(0.1, 0.5)
        for within in (None, rng.sample(range(g.n), rng.randint(1, g.n))):
            run = modified_sgsel(g, ConstraintPair(s=s, p=0), within=within)[1].run
            for p in range(g.n + 2):
                sol, _ = modified_sgsel(g, ConstraintPair(s=s, p=p), within=within)
                assert run.best(p) == sol.members


def test_exact_tie_goes_to_the_larger_set():
    # all six nodes and the last triangle alone both average exactly 0.5
    g = SimGraph(6, [(0, 1, 0.5), (0, 2, 0.5), (1, 2, 0.5), (3, 4, 0.5), (3, 5, 0.5), (4, 5, 0.5)])
    sol, profile = modified_sgsel(g, ConstraintPair(s=0.1, p=1))
    assert profile.alpha_at(3) == profile.alpha_at(6) == 0.5
    assert sol.members == frozenset(range(6))
    assert profile.run.best(2) == sol.members


def test_feasible_instance_never_returns_empty():
    """Whenever some feasible group exists, the peel must surface one.

    The prefilter never removes a member of a feasible group (its support
    lives inside the group), and the initial post-filter state is itself
    feasible, so a nonempty answer is guaranteed.
    """
    rng = random.Random(14)
    from msel import exact_msp

    found = 0
    while found < 40:
        g = gnp_graph(rng, rng.randint(3, 11))
        c = ConstraintPair(s=rng.uniform(0.1, 0.5), p=rng.randint(1, 3))
        if not exact_msp(g, c).feasible:
            continue
        found += 1
        sol, _ = modified_sgsel(g, c)
        assert sol
        assert is_feasible(sol.members, g, c)


def test_empty_graph():
    sol, profile = modified_sgsel(SimGraph(0, []), ConstraintPair(s=0.5, p=0))
    assert not sol and len(profile) == 0


def test_operation_counters_are_linear():
    # lazy deletion pushes at most one entry per edge beyond the initial heap
    rng = random.Random(15)
    g = gnp_graph(rng, 60, prob=0.2)
    stats = PeelStats()
    modified_sgsel(g, ConstraintPair(s=0.1, p=1), stats=stats)
    assert stats.pushes <= g.n + g.m
    assert stats.pops <= stats.pushes
    assert stats.removals <= g.n


def test_peel_trace_materialization():
    trace = PeelTrace((4, 2, 7, 9))
    assert trace.members_at(0) == frozenset()
    assert trace.members_at(1) == frozenset({9})
    assert trace.members_at(3) == frozenset({2, 7, 9})
    assert trace.members_at(4) == frozenset({2, 4, 7, 9})
    with pytest.raises(ParameterError):
        trace.members_at(5)


def test_anchored_runs_match_recomputation():
    # one anchored peel records, for every size, the union with the anchor
    # and the outside nodes alone; the anchor is never removed
    rng = random.Random(18)
    for _ in range(40):
        g = gnp_graph(rng, rng.randint(3, 16), prob=rng.uniform(0.2, 0.7))
        s = rng.uniform(0.1, 0.6)
        c0 = ConstraintPair(s=s, p=0)
        anchor = frozenset(rng.sample(range(g.n), rng.randint(1, g.n - 1)))
        stats = PeelStats()
        # a session's group state is what a session pins
        sol, profile = modified_sgsel(g, ConstraintPair(s=s, p=1), anchor=_Group(g, anchor), stats=stats)
        run, outside = profile.run, profile.outside
        removed = outside.trace.order
        assert stats.removals == len(removed)
        assert not anchor & set(removed)
        assert run.trace.order[:len(removed)] == removed
        assert frozenset(run.trace.order[len(removed):]) == anchor
        for k in run.sizes():
            members = run.trace.members_at(k)
            assert anchor <= members
            assert_close(run.alphas[k], avg_similarity(members, g))
            assert run.supported[k] == is_feasible(members, g, c0)
        for k in outside.sizes():
            members = outside.trace.members_at(k)
            assert_close(outside.alphas[k], avg_similarity(members, g))
            assert outside.supported[k] == is_feasible(members, g, c0)
        assert sol.members == run.best(1)
        # every node a whole-graph prefilter keeps is in the anchored start set
        whole = modified_sgsel(g, c0)[1].run
        assert set(whole.trace.order) <= set(run.trace.order)


def _naive_prefilter(g, s, free, pinned):
    """Drop free nodes without an edge above s to a live node, one at a
    time, until none is left to drop."""
    live = set(free)
    while True:
        drop = {u for u in live if not any(w > s and (t in live or t in pinned) for t, w in g.neighbors(u))}
        if not drop:
            return live
        live -= drop


def test_setup_kernels_match_a_naive_prefilter_and_incident_weights():
    rng = random.Random(808)
    for _ in range(150):
        g = gnp_graph(rng, rng.randint(1, 22), prob=rng.choice([0.15, 0.4, 0.7]))
        s = rng.choice([0.1, 0.4, 0.7, 0.9])
        marks = [rng.choice((0, 1, 1, 1, 2)) for _ in range(g.n)]
        free = {u for u, a in enumerate(marks) if a == 1}
        pinned = {u for u, a in enumerate(marks) if a == 2}
        alive = np.array(marks, dtype=np.uint8)
        incident, scnt, acnt = _setup(g, s, alive)
        live = _naive_prefilter(g, s, free, pinned)
        assert set(np.flatnonzero(alive == 1).tolist()) == live
        assert set(np.flatnonzero(alive == 2).tolist()) == pinned
        members = live | pinned
        for u in live:
            # the same terms in the same order: equal bits, not just close
            assert incident[u] == incident_weight(u, members, g)
            assert scnt[u] == sum(1 for t, w in g.neighbors(u) if w > s and t in members)
            assert acnt[u] == sum(1 for t, w in g.neighbors(u) if w > s and t in pinned)
        for u in pinned:
            assert scnt[u] == sum(1 for t, w in g.neighbors(u) if w > s and t in live)


def test_group_fill_matches_adding_members_one_by_one():
    rng = random.Random(809)
    for _ in range(100):
        g = gnp_graph(rng, rng.randint(1, 22), prob=rng.choice([0.2, 0.5, 0.9]))
        grp = _Group(g, {u for u in range(g.n) if rng.random() < 0.5})
        for u in range(g.n):
            # the deleted per-edge loop: members in the set's order
            inw, top = 0.0, 0.0
            for x in grp.members:
                inw += g.weight(x, u)
                top = max(top, g.weight(x, u))
            assert grp.inw[u] == inw
            assert_close(grp.inw[u], incident_weight(u, grp.members, g))
            assert grp.top[u] == max((w for t, w in g.neighbors(u) if t in grp.members), default=0.0) == top
            assert grp.mask[u] == (u in grp.members)
        assert grp.settled
        assert grp.weight == math.fsum(grp.inw[u] for u in grp.members) / 2.0
