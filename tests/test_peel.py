import hashlib
import heapq
import math
import random
import weakref
from pathlib import Path
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
    planted_community_graph,
    random_graph,
    total_weight,
)

from msel.baselines import average_peel, degree_peel, random_peel
from msel.dcsel import (
    ScheduleEvent,
    _Group,
    augment_graph,
    init_session,
    run_schedule,
)
import msel.peel
from msel.peel import PeelProfile, PeelRun, _setup

from helpers import assert_close, gnp_graph, planted_clique_graph, tied_graph

DATA = Path(__file__).parent / "data"


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
    # lazy deletion pushes at most one entry per edge beyond the initial
    # heap; the graph has more than _FRONT nodes, so the front makes all
    # but the last _FRONT removals, which take no entry
    rng = random.Random(15)
    g = gnp_graph(rng, 400, prob=0.05)
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
        incident = _setup(g, s, alive).weighed(g, s).incident_at
        live = _naive_prefilter(g, s, free, pinned)
        assert set(np.flatnonzero(alive == 1).tolist()) == live
        assert set(np.flatnonzero(alive == 2).tolist()) == pinned
        members = live | pinned
        for u in live:
            # the same terms in the same order: equal bits, not just close
            assert incident[u] == incident_weight(u, members, g)


def _assert_group_state(grp):
    """Each node's weight into ``grp`` has the bits ``incident_weight``
    gives, its ``top`` is the largest weight of its edges to members, and
    W is the exactly rounded sum of the members' weights halved."""
    g = grp.graph
    # an empty group's arrays too, so that later moves keep their bits
    assert grp.inw.dtype == grp.top.dtype == np.float64
    for u in range(g.n):
        assert bool(grp.mask[u]) == (u in grp.members)
        # the same terms in the same order: equal bits, not just close
        assert repr(float(grp.inw[u])) == repr(incident_weight(u, grp.members, g))
        assert grp.top[u] == max((w for t, w in g.neighbors(u) if t in grp.members), default=0.0)
    assert grp.weight == math.fsum(float(grp.inw[u]) for u in grp.members) / 2.0


def test_group_weights_are_row_order_sums():
    rng = random.Random(809)
    for _ in range(100):
        g = gnp_graph(rng, rng.randint(1, 22), prob=rng.choice([0.2, 0.5, 0.9]))
        _assert_group_state(_Group(g, {u for u in range(g.n) if rng.random() < 0.5}))


def test_group_state_depends_on_the_member_set_alone():
    # a walk of single-node moves, moves onto random sets and copies: after
    # every change the group's weights and W are those of a group built
    # afresh on its members, and a copy changes apart from its source
    rng = random.Random(811)
    for _ in range(60):
        g = gnp_graph(rng, rng.randint(1, 16), prob=rng.choice([0.2, 0.5, 0.9]))
        groups = [_Group(g, {u for u in range(g.n) if rng.random() < 0.5})]
        for _ in range(30):
            grp = rng.choice(groups)
            roll = rng.random()
            if roll < 0.7:
                grp.move_to(set(grp.members) ^ {rng.randrange(g.n)})
            elif roll < 0.9:
                grp.move_to({u for u in range(g.n) if rng.random() < rng.random()})
            else:
                grp = grp.copy()
                groups.append(grp)
            _assert_group_state(grp)
            assert repr(grp.weight) == repr(_Group(g, grp.members).weight)
        for grp in groups:
            _assert_group_state(grp)
            assert grp.alpha == (grp.weight / len(grp.members) if grp.members else 0.0)


def _reference_peel(g, s, anchor=None, within=None):
    """The peel written plainly: prefilter, then remove the outside node
    with the least (incident weight, id) found by a scan, subtracting its
    edges from its neighbours' weights in row order. Returns the removal
    order and, per size, (total, supported) for the union with the anchor
    and for the outside nodes alone, with each starting total summed as
    ``modified_sgsel`` sums it."""
    pinned = frozenset(anchor.members) if anchor is not None else frozenset()
    start = set(range(g.n)) if within is None else set(within)
    live = _naive_prefilter(g, s, start - pinned, pinned)
    free = sorted(live)
    incident = {u: incident_weight(u, live | pinned, g) for u in free}
    anc = anchor.inw.tolist() if anchor is not None else [0.0] * g.n
    total = 0.0
    for u in free:
        total += incident[u] + anc[u]
    total = total / 2.0 + (anchor.weight if anchor is not None else 0.0)
    out_total = 0.0
    for u in free:
        out_total += incident[u] - anc[u]
    out_total /= 2.0

    strong = {u: {t for t, w in g.neighbors(u) if w > s} for u in live | pinned}

    def supported(members):
        return all(not strong[u].isdisjoint(members) for u in members)

    union, alone = {}, {}
    order = []
    while True:
        union[len(live)] = (total, supported(live | pinned))
        alone[len(live)] = (out_total, supported(live))
        if not live:
            break
        iw, v = min((incident[u], u) for u in live)
        live.discard(v)
        order.append(v)
        total -= iw
        out_total -= iw - anc[v]
        for t, w in g.neighbors(v):
            if t in live:
                incident[t] -= w
    return order, union, alone


def _assert_run_matches(run, order, per_size, offset):
    assert run.trace.order[:len(order)] == tuple(order)
    for k in run.sizes():
        total, ok = per_size[k - offset]
        assert repr(float(run.alphas[k])) == repr(total / k)
        assert run.supported[k] == ok


@pytest.mark.parametrize("front", [1, 2, msel.peel._FRONT])
def test_peel_matches_a_reference_peel_bit_for_bit(front, monkeypatch):
    # small fronts refill after every few removals; graphs larger than the
    # default front refill it too, and tied weights leave the id to break
    # most ties; the last `front` removals of every peel run on the dense
    # block of the edges among them, and a planted clique makes that block
    # dense, with its nodes spread over the ids
    monkeypatch.setattr(msel.peel, "_FRONT", front)
    rng = random.Random(1401)
    for i in range(72):
        if i < 60:
            g = gnp_graph(rng, rng.randint(2, 24), prob=rng.choice([0.15, 0.4, 0.8]))
        elif i < 66:
            g = tied_graph(rng, rng.randint(150, 260), prob=rng.choice([0.03, 0.08]))
        else:
            g = planted_clique_graph(rng, rng.randint(150, 400), rng.randint(30, 120), tied=i % 2 == 0)
        s = rng.choice([0.1, 0.3, 0.6] if i < 66 else [0.1, 0.3])
        anchor = within = None
        if (i % 2 if i < 66 else i % 3 == 2):
            anchor = _Group(g, rng.sample(range(g.n), rng.randint(1, min(g.n // 2, 40) or 1)))
        if i >= 66 and i % 3 == 1:
            within = rng.sample(range(g.n), g.n * 3 // 4)
        _, profile = modified_sgsel(g, ConstraintPair(s=s, p=1), within=within, anchor=anchor)
        order, union, alone = _reference_peel(g, s, anchor, within)
        assert len(order) > front or g.n < 100
        na = len(anchor.members) if anchor is not None else 0
        _assert_run_matches(profile.run, order, union, na)
        if anchor is not None:
            _assert_run_matches(profile.outside, order, alone, 0)


def test_threshold_front_keeps_the_removal_order():
    # stale entries pile up on this graph: a heap that holds every node
    # and pushes every decrement takes 6,923 entries for 1,717 removals,
    # and pops 5,950 unless it drops the stale ones; the front takes only
    # the nodes and decrements at or below its bound, and the last _FRONT
    # removals, made on the dense block of the edges among those nodes,
    # take none
    g = planted_community_graph(2000, 6000, seed=3, community=40)
    stats = PeelStats()
    _, profile = modified_sgsel(g, ConstraintPair(s=0.2, p=1), stats=stats)
    order, union, _ = _reference_peel(g, 0.2)
    _assert_run_matches(profile.run, order, union, 0)
    assert stats.removals == len(order) == 1717
    assert stats.pops <= 2 * stats.removals
    assert stats.pops <= stats.pushes
    assert stats.pushes < 6923


class _FrontSpy:
    """Stands in for ``heapq`` in ``msel.peel`` and records each rebuild of
    a peel's front made while the old front still held entries: how many
    entries the old front gained since it was built, its bound, the new
    bound (each front's largest key) and how many new entries share it."""

    heappop, heappush = heapq.heappop, heapq.heappush

    def __init__(self):
        self.front = None
        self.early = []

    def heapify(self, front):
        keys = [k for k, _ in front]
        bound = max(keys)
        if self.front:
            self.early.append((len(self.front) - self.built, self.bound, bound, keys.count(bound)))
        self.front, self.built, self.bound = front, len(front), bound
        heapq.heapify(front)


def test_front_is_rebuilt_when_entries_pile_up(monkeypatch):
    # once a random graph thins below the front's bound, most decrements
    # are pushed; a front that has grown by more than max(4 _FRONT,
    # left // 4) entries since its last rebuild is rebuilt before it runs
    # empty when that lowers the bound, which drops the stale entries, and
    # the removal order stays exact. A front rebuilt only when empty pushes
    # 6,088 entries here
    spy = _FrontSpy()
    monkeypatch.setattr(msel.peel, "heapq", spy)
    g = random_graph(1500, 15000, seed=1)
    stats = PeelStats()
    _, profile = modified_sgsel(g, ConstraintPair(s=0.1, p=1), stats=stats)
    order, union, _ = _reference_peel(g, 0.1)
    _assert_run_matches(profile.run, order, union, 0)
    assert stats.removals == len(order) == 1500
    assert stats.pushes < 6088
    front = msel.peel._FRONT
    assert spy.early
    assert all(grown > 4 * front and new < old for grown, old, new, _ in spy.early)


@pytest.mark.parametrize("front", [8, msel.peel._FRONT])
def test_front_rebuilt_among_tied_weights_takes_the_lowest_id_first(front, monkeypatch):
    # tied weights make many incident weights equal, so a rebuild's bound
    # is shared by many nodes: each of them goes in, and the lowest id of
    # the least weight still goes first. A front of 8 rebuilt early
    # reaches the nodes at its bound before its next rebuild
    monkeypatch.setattr(msel.peel, "_FRONT", front)
    spy = _FrontSpy()
    monkeypatch.setattr(msel.peel, "heapq", spy)
    g = tied_graph(random.Random(2302), 600, prob=0.05)
    _, profile = modified_sgsel(g, ConstraintPair(s=0.25, p=1))
    order, union, _ = _reference_peel(g, 0.25)
    _assert_run_matches(profile.run, order, union, 0)
    assert any(tied > 1 for _, _, _, tied in spy.early)


def test_front_is_not_rebuilt_while_its_bound_cannot_fall():
    # every node of a 4-regular graph with one weight ties at the start,
    # and a removal lowers only a few others, so the _FRONT-th least weight
    # stays the bound and a rebuild would put every node back in. The
    # front grows past its size trigger, but is rebuilt only when empty:
    # each node goes in once and each edge pushes at most once
    n = 2000
    g = SimGraph(n, [(u, (u + k) % n, 0.5) for u in range(n) for k in (1, 7)])
    stats = PeelStats()
    _, profile = modified_sgsel(g, ConstraintPair(s=0.2, p=1), stats=stats)
    order, union, _ = _reference_peel(g, 0.2)
    _assert_run_matches(profile.run, order, union, 0)
    assert stats.removals == n
    assert stats.pushes <= g.n + g.m


def test_dense_tail_peels_a_clique_without_the_heap():
    # a peel of at most _FRONT outside nodes runs wholly on the block of
    # the edges among them: no entry is pushed or popped, and ties on the
    # tied weights still go to the lowest id
    rng = random.Random(1601)
    g = planted_clique_graph(rng, 100, 100, tied=True)
    stats = PeelStats()
    _, profile = modified_sgsel(g, ConstraintPair(s=0.1, p=1), stats=stats)
    assert stats == PeelStats(pushes=0, pops=0, removals=100)
    order, union, _ = _reference_peel(g, 0.1)
    _assert_run_matches(profile.run, order, union, 0)


def _feasible_group(rng, g, s):
    """A random group drawn from the nodes of highest weighted degree, and a
    size floor under which it is feasible at ``s``."""
    by_degree = sorted(range(g.n), key=lambda u: (-sum(w for _, w in g.neighbors(u)), u))
    while True:
        pool = by_degree[:rng.randint(3, 60)]
        grp = _Group(g, rng.sample(pool, rng.randint(2, len(pool))))
        c = ConstraintPair(s=s, p=rng.randint(0, len(grp.members) - 1))
        if grp.feasible(c):
            return grp, c


def test_cored_peel_records_what_the_full_peel_records():
    # a peel floored at alpha of a feasible anchor either runs none, when
    # every set the full peel records but the anchor lies below that
    # alpha, or is the full peel, bit for bit, or returns its pick and its
    # runs hold the full runs' sets at every size they reach, and every
    # size they skip lies below their bound
    rng = random.Random(1801)
    cored = exits = 0
    for i in range(300):
        n = rng.randint(40, 200)
        g = planted_clique_graph(rng, n, rng.randint(6, min(40, n // 3)), tied=i % 3 == 0)
        grp, c = _feasible_group(rng, g, rng.choice([0.1, 0.2, 0.4]))
        within = [u for u in range(n) if u not in grp.members]
        stats = PeelStats()
        sol, profile = modified_sgsel(g, c, within=within, stats=stats, anchor=grp, floor=grp.alpha)
        full_sol, full = modified_sgsel(g, c, within=within, anchor=grp)
        if not profile.runs():
            exits += 1
            assert not sol and stats == PeelStats() and len(profile) == 0
            union, alone = full.runs()
            assert (union.alphas[union.first + 1:] < grp.alpha).all()
            assert (alone.alphas[alone.first:] < grp.alpha).all()
            continue
        if not profile.run.skipped:
            assert sol == full_sol
            for run, whole in zip(profile.runs(), full.runs()):
                assert run.trace == whole.trace and run.skipped == 0
                assert run.alphas.tobytes() == whole.alphas.tobytes()
            continue
        cored += 1
        assert sol.members == full_sol.members
        assert math.isclose(sol.alpha, full_sol.alpha, rel_tol=1e-12)
        skipped = len(full.outside.trace.order) - len(profile.outside.trace.order)
        assert len(grp.members) + len(profile.outside.trace.order) > c.p
        assert 2 * len(profile.outside.trace.order) <= len(full.outside.trace.order)
        for run, whole in zip(profile.runs(), full.runs()):
            assert run.skipped == skipped
            for k in run.sizes():
                assert run.trace.members_at(k) == whole.trace.members_at(k)
                assert run.supported[k] == whole.supported[k]
                # an outside set that weighs 0 telescopes to a few ulps of
                # the run's totals, so that is the absolute tolerance
                assert math.isclose(run.alphas[k], whole.alphas[k], rel_tol=1e-12, abs_tol=1e-12 * grp.alpha)
            top = len(run.trace.order)
            assert (whole.alphas[top + 1:] < run.bound * (1 + 1e-12)).all()
    assert 150 < cored < 250


def test_profile_ties_keep_the_first_entry_and_sizes_grow():
    first, second = PeelTrace((5, 1, 2)), PeelTrace((7, 8, 9))
    profile = PeelProfile()
    profile.record(2, 0.5, first)
    profile.record(2, 0.5, second)
    assert profile.members_at(2) == frozenset({1, 2})
    profile.add_run(PeelRun.of((7, 8, 9), [0.2, 1.0, 0.9], np.array([0, 1, 1, 1], bool)))
    # size 2 ties at 0.5 and stays; size 1 is new, size 3 is new
    assert profile.members_at(2) == frozenset({1, 2})
    assert profile.sizes() == [1, 2, 3]
    assert profile.alpha_at(3) == 0.3
    profile.add_run(PeelRun.of((9, 8, 7), [0.2, 1.2, 0.9], np.array([0, 1, 1, 1], bool)))
    assert profile.members_at(2) == frozenset({8, 7})
    assert profile.alpha_at(2) == 0.6
    # a size far past everything recorded so far
    profile.record(40, 2.0, PeelTrace(tuple(range(40))))
    assert profile.sizes() == [1, 2, 3, 40] and len(profile) == 4
    assert profile.members_at(40) == frozenset(range(40))
    for size in (-1, 0, 4, 39, 41, 10_000):
        assert profile.alpha_at(size) == -1.0
        assert profile.members_at(size) == frozenset()


def test_profile_frees_a_trace_once_no_size_holds_it():
    profile = PeelProfile()
    run = PeelRun.of((3, 2, 1, 0), [0.1, 0.2, 0.3, 0.4], np.ones(5, bool))
    gone = weakref.ref(run.trace)
    profile.add_run(run)
    kept = PeelRun.of((0, 1, 2, 3), [1.0, 2.0, 3.0, 4.0], np.ones(5, bool))
    profile.add_run(kept)
    del run
    # the second run beat the first at every size, so nothing holds it
    assert gone() is None
    assert [t for _, _, t in profile.items()] == [kept.trace] * 4
    # a trace that still holds one size lives on
    partial = PeelTrace((9, 8, 7, 6))
    held = weakref.ref(partial)
    profile.record(4, 2.0, partial)
    del partial
    assert held() is not None and profile.members_at(4) == frozenset({6, 7, 8, 9})
    # and one that record displaces goes at once
    profile.record(4, 3.0, PeelTrace((5, 4, 3, 2)))
    assert held() is None


def test_session_profile_grows_past_the_first_graph():
    g = SimGraph(4, [(0, 1, 0.5), (1, 2, 0.5), (0, 2, 0.5), (2, 3, 0.2)])
    sess = init_session(g, ConstraintPair(s=0.1, p=1))
    n = 6
    extra = SimGraph(n, [(u, v, 0.9) for u in range(n) for v in range(u + 1, n)])
    augment_graph(sess, extra, [(3, 0, 0.9)])
    assert max(sess.profile.sizes()) > g.n
    for size, alpha, _ in sess.profile.items():
        members = sess.profile.members_at(size)
        assert len(members) == size
        assert_close(alpha, avg_similarity(members, sess.graph))


def test_profile_ranked_is_the_sorted_order():
    rng = random.Random(1402)
    for _ in range(40):
        g = gnp_graph(rng, rng.randint(2, 18), prob=rng.choice([0.3, 0.7]))
        profile = PeelProfile()
        for _ in range(rng.randint(1, 4)):
            s = rng.choice([0.1, 0.4])
            within = rng.sample(range(g.n), rng.randint(1, g.n))
            modified_sgsel(g, ConstraintPair(s=s, p=0), within=within, into=profile)
            size = rng.randint(1, g.n)
            # equal alphas across sizes exercise the tie order
            profile.record(size, rng.choice([0.25, 0.5, profile.alpha_at(size)]), PeelTrace(tuple(range(size))))
        for p in range(-1, g.n + 1):
            for floor in (-1.0, 0.25, rng.uniform(0.0, 1.0)):
                old = sorted((e for e in profile.items() if e[0] > p and e[1] > floor),
                             key=lambda e: (-e[1], e[0]))
                assert list(profile.ranked(p, floor)) == [(k, t) for k, _, t in old]


def test_run_best_size_rules():
    # sizes 1..5 with alphas 0.25, 0.5, 0.5, 0.375, 0.5; size 5 is unsupported
    run = PeelRun.of((4, 3, 2, 1, 0), [0.25, 1.0, 1.5, 1.5, 2.5], np.array([1, 1, 1, 1, 1, 0], bool))
    assert run.best_size(0) == 3  # ties between 2 and 3 go to the larger
    assert run.best_size(2) == 3
    assert run.best_size(3) == 4
    assert run.best_size(4) == 0  # only size 5 is left, and it is unsupported
    assert run.best_size(5) == run.best_size(50) == 0
    assert run.best(0) == frozenset({0, 1, 2})
    # a union run records nothing below its anchor's size
    union = PeelRun.of((9, 8, 7, 6), [3.0, 3.0], np.array([0, 0, 0, 1, 1], bool), first=3)
    assert list(union.sizes()) == [3, 4]
    assert union.best_size(0) == 3
    assert union.best_size(3) == 4
    assert union.best_size(4) == 0
    assert PeelRun.of((), [], np.ones(1, bool)).best_size(0) == 0


def _traces_at_scale(rng):
    """(graph, order, s) on a 600-node graph of one-decimal weights, a
    tenth of them tied with s: a whole-graph peel's trace, a random order
    of most of the nodes, and a random order of a few nodes joined by edges
    of at least s."""
    g = random_graph(600, 3000, seed=1403)
    g = SimGraph(g.n, [(u, v, round(w, 1) or 0.1) for u, v, w in g.edges()])
    for s in (0.3, 0.5):
        yield g, modified_sgsel(g, ConstraintPair(s=s, p=0))[1].run.trace.order, s
        yield g, rng.sample(range(g.n), g.n * 4 // 5), s
        few = [0]
        for u in few:
            few += [t for t, w in g.neighbors(u) if w >= s and t not in few][:12 - len(few)]
        yield g, rng.sample(few, len(few)), s


def test_trace_support_matches_feasibility_at_every_size():
    # small random graphs, then traces of most and of few nodes of a larger
    # one: support over most of a graph is read in one pass over every row
    rng = random.Random(1403)
    small = []
    for _ in range(40):
        g = gnp_graph(rng, rng.randint(1, 16), prob=rng.choice([0.2, 0.5]))
        small.append((g, rng.sample(range(g.n), rng.randint(0, g.n)), rng.choice([0.1, 0.5, 0.8])))
    for g, order, s in small + list(_traces_at_scale(rng)):
        ok = PeelTrace(tuple(order)).supported(g, s)
        assert len(ok) == len(order) + 1
        for k in range(1, len(order) + 1):
            members = frozenset(order[len(order) - k:])
            assert ok[k] == is_feasible(members, g, ConstraintPair(s=s, p=0))


def test_alphas_leave_the_package_as_builtin_floats():
    rng = random.Random(1404)
    g = gnp_graph(rng, 30, prob=0.3)
    c = ConstraintPair(s=0.2, p=2)
    sol, profile = modified_sgsel(g, c)
    assert type(sol.alpha) is float
    assert all(type(a) is float for _, a, _ in profile.items())
    assert all(type(profile.alpha_at(k)) is float for k in range(-1, g.n + 2))
    for solve in (degree_peel, average_peel):
        assert type(solve(g, c).alpha) is float
    assert type(random_peel(g, c, seed=1).alpha) is float
    sess = init_session(g, c)
    run_schedule(sess, [
        ScheduleEvent("size_delta", 3), ScheduleEvent("size_delta", -4),
        ScheduleEvent("similarity_delta", 0.2), ScheduleEvent("similarity_delta", -0.3),
        ScheduleEvent("size_set", 3), ScheduleEvent("similarity_set", 0.25),
    ])
    assert all(type(r.alpha) is float for r in sess.history)
    assert type(sess.current.alpha) is float


def _golden_peels():
    """(name, graph, constraints, within, anchor) for every peel that
    data/peel.golden pins: unanchored, ``within`` and anchored peels on small
    random graphs, peels on larger graphs whose weights tie exactly, and
    whole and anchored peels of one 5,000-node graph."""
    rng = random.Random(1501)
    for i in range(8):
        g = gnp_graph(rng, rng.randint(2, 40), prob=rng.choice([0.15, 0.4, 0.8]))
        yield f"plain-{i}", g, ConstraintPair(s=rng.choice([0.1, 0.3, 0.6]), p=1), None, None
    for i in range(4):
        g = gnp_graph(rng, rng.randint(5, 40), prob=rng.choice([0.2, 0.5]))
        within = rng.sample(range(g.n), rng.randint(1, g.n))
        yield f"within-{i}", g, ConstraintPair(s=rng.choice([0.1, 0.3]), p=2), within, None
    for i in range(8):
        g = gnp_graph(rng, rng.randint(3, 40), prob=rng.choice([0.15, 0.4, 0.8]))
        anchor = _Group(g, rng.sample(range(g.n), rng.randint(1, g.n // 2)))
        yield f"anchored-{i}", g, ConstraintPair(s=rng.choice([0.1, 0.3, 0.6]), p=1), None, anchor
    for i in range(6):
        g = tied_graph(rng, rng.randint(150, 400), prob=rng.choice([0.02, 0.05, 0.1]))
        c = ConstraintPair(s=rng.choice([0.25, 0.5, 0.75]), p=rng.randint(1, 20))
        within = rng.sample(range(g.n), g.n * 3 // 4) if i % 3 == 1 else None
        anchor = _Group(g, rng.sample(range(g.n), rng.randint(1, 30))) if i % 3 == 2 else None
        yield f"tied-{i}", g, c, within, anchor
    g = random_graph(5000, 50000, seed=4)
    c = ConstraintPair(s=0.1, p=10)
    yield "bulk5000", g, c, None, None
    yield "bulk5000-anchored", g, c, None, _Group(g, range(0, 5000, 50))


def _peel_digest(profile, sol):
    """sha256 over a peel's removal order, the repr of every alpha and the
    support flag of every size its runs record, its profile entries and its
    Solution."""
    h = hashlib.sha256()
    traces = {}
    for r in profile.runs():
        traces.setdefault(id(r.trace), (len(traces), r.trace))
        h.update(repr((r.trace.order, r.first, [repr(a) for a in r.alphas.tolist()],
                       r.supported[r.first:].tobytes())).encode())
    for size, alpha, trace in profile.items():
        i, _ = traces.setdefault(id(trace), (len(traces), trace))
        h.update(repr((size, repr(alpha), i)).encode())
    h.update(repr((sorted(sol.members), repr(sol.total_weight), repr(sol.alpha))).encode())
    return h.hexdigest()


def _golden_peel_lines():
    """One tab-separated line per peel of ``_golden_peels``: name, removals
    and ``_peel_digest``."""
    lines = []
    for name, g, c, within, anchor in _golden_peels():
        sol, profile = modified_sgsel(g, c, within=within, anchor=anchor)
        removals = len(profile.runs()[-1].trace.order)
        lines.append(f"{name}\t{removals}\t{_peel_digest(profile, sol)}")
    return lines


def test_peels_match_golden_digests():
    # data/peel.golden holds the lines _golden_peel_lines returned when it
    # was written; every removal, alpha bit and support flag must stay
    want = (DATA / "peel.golden").read_text(encoding="utf-8").splitlines()
    assert _golden_peel_lines() == want


def _uncertified_cases():
    """Two graphs around the anchor A = {0, 1, 2} at s = 0.35, where the
    cut applies but a cored run cannot be certified: A's core C = 3..12,
    pads 13.. that join C nodes by 0.4 and pairs after them with one edge
    above s, both falling below alpha(A) in the first round. Yields the graph,
    the best anchored set and the best outside set of the full peel."""
    # C's 0.3 clique edges are below s, so no cored set beyond A alone is
    # supported; the pads support C, and with them both runs' best sets lie
    # above alpha(A) = 0.9: neither run can be certified
    edges = [(0, 1, 0.9), (0, 2, 0.9), (1, 2, 0.9)]
    edges += [(u, v, 0.3) for u in range(3, 13) for v in range(u + 1, 13)]
    edges += [(13 + i, 3 + 2 * i + j, 0.4) for i in range(5) for j in range(2)]
    edges += [(u, u + 1, 0.4) for u in range(18, 38, 2)]
    yield SimGraph(38, edges), frozenset(range(18)), frozenset(range(3, 18))
    # C has no edge of its own, so its alone run is certified (its bound is
    # below alpha(A) = 0.6), but its 0.3 edges into A, below s, lift the
    # union of A and C above alpha(A) unsupported: the cored union run picks
    # A, under its bound, while the full one picks A, C and one pad per node
    edges = [(0, 1, 0.6), (0, 2, 0.6), (1, 2, 0.6)]
    edges += [(a, u, 0.3) for a in range(3) for u in range(3, 13)]
    edges += [(u, u + 10, 0.4) for u in range(3, 13)]
    edges += [(u, u + 1, 0.36) for u in range(23, 31, 2)]
    yield SimGraph(31, edges), frozenset(range(23)), None


def test_an_uncertified_cored_peel_runs_in_full():
    c = ConstraintPair(s=0.35, p=1)
    for g, best, alone in _uncertified_cases():
        grp = _Group(g, {0, 1, 2})
        alive = np.ones(g.n, dtype=np.uint8)
        alive[:3] = 2
        core = msel.peel._core(g, c.s, _setup(g, c.s, alive), grp.alpha)
        assert core is not None and core.free.tolist() == list(range(3, 13))
        within = range(3, g.n)
        sol, profile = modified_sgsel(g, c, within=within, anchor=grp, floor=grp.alpha)
        full_sol, full = modified_sgsel(g, c, within=within, anchor=grp)
        assert sol == full_sol and sol.members == best
        if alone is not None:
            assert profile.outside.best(c.p) == alone
        for run, whole in zip(profile.runs(), full.runs()):
            assert run.skipped == 0 and run.trace == whole.trace
