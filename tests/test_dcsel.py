import random

import pytest

from msel import (
    ConstraintPair,
    InvalidNodeError,
    ParameterError,
    PeelProfile,
    PreconditionError,
    ScheduleError,
    ScheduleEvent,
    Session,
    SimGraph,
    Solution,
    apply_similarity_delta,
    apply_size_delta,
    augment_graph,
    avg_similarity,
    exact_msp,
    expand_greedy,
    init_session,
    is_feasible,
    parse_schedule,
    run_schedule,
    total_weight,
    write_msg1,
)

from msel.cli import replay

from helpers import assert_close, gnp_graph


# ---------------------------------------------------------------- events


def test_schedule_event_validation():
    with pytest.raises(ParameterError):
        ScheduleEvent("resize", 1)
    with pytest.raises(ParameterError):
        ScheduleEvent("size_delta", 0.5)
    with pytest.raises(ParameterError):
        ScheduleEvent("similarity_delta", 1)
    with pytest.raises(ParameterError):
        ScheduleEvent("augment", 3)
    with pytest.raises(ParameterError):
        ScheduleEvent("size_delta", 1, bridges="b.txt")


def test_schedule_event_text():
    assert ScheduleEvent("size_delta", 3).text() == "p+=3"
    assert ScheduleEvent("size_delta", -2).text() == "p-=2"
    assert ScheduleEvent("size_set", 5).text() == "p=5"
    assert ScheduleEvent("similarity_delta", 0.05).text() == "s+=0.05"
    assert ScheduleEvent("similarity_delta", -0.05).text() == "s-=0.05"
    assert ScheduleEvent("similarity_set", 0.3).text() == "s=0.3"
    assert ScheduleEvent("augment", "/tmp/somewhere/extra.msg1").text() == "augment extra.msg1"


# ---------------------------------------------------------------- sessions


def test_init_session_solves_and_records(two_cluster):
    sess = init_session(two_cluster, ConstraintPair(s=0.05, p=2))
    assert sess.current.members == frozenset({0, 1, 2})
    assert_close(sess.current.alpha, 0.9)
    rec = sess.history[0]
    assert rec.step == 0 and rec.event == "init" and rec.feasible
    assert rec.wall_ns > 0


def test_init_session_rejects_empty_graph():
    with pytest.raises(PreconditionError):
        init_session(SimGraph(0, []), ConstraintPair(s=0.5, p=0))


def test_init_session_infeasible_start_is_not_an_error(two_triangles):
    sess = init_session(two_triangles, ConstraintPair(s=0.95, p=1))
    assert not sess.current
    assert not sess.history[0].feasible


def test_size_increase_merges_residual_group(two_cluster):
    sess = init_session(two_cluster, ConstraintPair(s=0.05, p=2))
    sol = apply_size_delta(sess, 3)
    assert sess.constraints.p == 5
    assert sol.members == frozenset(range(8))
    assert_close(sol.alpha, 0.7125)
    assert is_feasible(sol.members, sess.graph, sess.constraints)
    # that happens to be the exact optimum here
    res = exact_msp(sess.graph, sess.constraints)
    assert res.opt_set == sol.members
    assert_close(res.opt_alpha, sol.alpha)
    # the merge really did peel the complement
    assert sess.event_removals > 0


def test_size_increase_already_satisfied_is_free(two_triangles):
    sess = init_session(two_triangles, ConstraintPair(s=0.05, p=0))
    before = sess.current
    apply_size_delta(sess, 2)
    assert sess.constraints.p == 2
    assert sess.current == before
    assert sess.event_removals == 0


def test_size_increase_falls_back_to_full_solve_for_mixed_groups():
    # the only group of size > 2 mixes the incumbent pair with node 2,
    # which a peel of the complement alone can never produce
    g = SimGraph(3, [(0, 1, 0.9), (0, 2, 0.15)])
    sess = init_session(g, ConstraintPair(s=0.1, p=1))
    assert sess.current.members == frozenset({0, 1})
    sol = apply_size_delta(sess, 1)
    assert sol.members == frozenset({0, 1, 2})
    assert is_feasible(sol.members, g, sess.constraints)
    assert_close(sol.alpha, 1.05 / 3)


def test_size_decrease_reads_profile(two_cluster):
    sess = init_session(two_cluster, ConstraintPair(s=0.05, p=5))
    assert sess.current.members == frozenset(range(8))
    removals_before = sess.event_removals
    sol = apply_size_delta(sess, -3)
    assert sol.members == frozenset({0, 1, 2})
    assert_close(sol.alpha, 0.9)
    # answered from the profile, no peeling
    assert sess.event_removals == removals_before


def test_size_decrease_keeps_incumbent_when_nothing_better(two_triangles):
    sess = init_session(two_triangles, ConstraintPair(s=0.05, p=2))
    before = sess.current
    apply_size_delta(sess, -1)
    assert sess.current == before


def test_size_delta_zero_is_a_recorded_noop(two_triangles):
    sess = init_session(two_triangles, ConstraintPair(s=0.05, p=1))
    before = sess.current
    apply_size_delta(sess, 0)
    assert sess.current == before
    assert len(sess.history) == 2
    assert sess.history[1].event == "p+=0"


def test_size_delta_below_zero_rejected(two_triangles):
    sess = init_session(two_triangles, ConstraintPair(s=0.05, p=1))
    with pytest.raises(ParameterError):
        apply_size_delta(sess, -2)
    assert len(sess.history) == 1


def test_similarity_increase_strips_dead_members():
    g = SimGraph(4, [(0, 1, 0.9), (0, 2, 0.9), (1, 2, 0.9), (0, 3, 0.95)])
    sess = init_session(g, ConstraintPair(s=0.3, p=0))
    assert sess.current.members == frozenset({0, 1, 2, 3})
    sol = apply_similarity_delta(sess, 0.62)
    assert sol.members == frozenset({0, 3})
    assert_close(sol.alpha, 0.475)
    assert is_feasible(sol.members, g, sess.constraints)


def test_similarity_increase_switches_to_surviving_region():
    # raising s kills the whole incumbent triangle; the weaker pair survives
    g = SimGraph(5, [
        (0, 1, 0.7), (0, 2, 0.7), (1, 2, 0.7),
        (3, 4, 0.9),
    ])
    sess = init_session(g, ConstraintPair(s=0.2, p=1))
    assert sess.current.members == frozenset({0, 1, 2})
    sol = apply_similarity_delta(sess, 0.55)
    assert sol.members == frozenset({3, 4})
    assert is_feasible(sol.members, g, sess.constraints)


def test_similarity_increase_can_end_infeasible_honestly():
    g = SimGraph(2, [(0, 1, 0.5)])
    sess = init_session(g, ConstraintPair(s=0.3, p=1))
    apply_similarity_delta(sess, 0.6)
    rec = sess.history[-1]
    assert not rec.feasible
    assert not exact_msp(g, sess.constraints).feasible


def test_similarity_decrease_never_worsens(two_triangles):
    sess = init_session(two_triangles, ConstraintPair(s=0.45, p=1))
    assert sess.current.members == frozenset({0, 1, 2})
    sol = apply_similarity_delta(sess, -0.4)
    assert sol.members == frozenset({0, 1, 2})
    assert_close(sol.alpha, 0.9)


def test_similarity_decrease_adopts_newly_legal_region():
    # at s=0.87 only the pair qualifies; lowering s reveals the triangle
    g = SimGraph(5, [
        (0, 1, 0.9),
        (2, 3, 0.85), (2, 4, 0.85), (3, 4, 0.85),
    ])
    sess = init_session(g, ConstraintPair(s=0.87, p=1))
    assert sess.current.members == frozenset({0, 1})
    sol = apply_similarity_delta(sess, -0.5)
    assert sol.members == frozenset({2, 3, 4})
    assert_close(sol.alpha, 0.85)


def test_similarity_delta_range_checked(two_triangles):
    sess = init_session(two_triangles, ConstraintPair(s=0.5, p=1))
    with pytest.raises(ParameterError):
        apply_similarity_delta(sess, 0.5)
    with pytest.raises(ParameterError):
        apply_similarity_delta(sess, -0.5)


def test_improvement_pass_finds_mixed_group_after_thaw():
    """A feasible group mixing incumbent and outside nodes is still found.

    After p rises to 2 nothing feasible exists, so the incumbent goes stale;
    when s then drops, the only feasible group uses both incumbent members
    and the previously unsupported node 2.
    """
    g = SimGraph(3, [(0, 1, 0.9), (0, 2, 0.2), (1, 2, 0.2)])
    sess = init_session(g, ConstraintPair(s=0.3, p=1))
    assert sess.current.members == frozenset({0, 1})

    apply_size_delta(sess, 1)
    assert not sess.history[-1].feasible
    assert not exact_msp(g, sess.constraints).feasible

    sol = apply_similarity_delta(sess, -0.15)
    assert sol.members == frozenset({0, 1, 2})
    assert is_feasible(sol.members, g, sess.constraints)
    assert_close(sol.alpha, 1.3 / 3)


def test_size_decrease_recovers_from_infeasible_incumbent():
    # same stale state as above, repaired by lowering p instead of s
    g = SimGraph(3, [(0, 1, 0.9), (0, 2, 0.2), (1, 2, 0.2)])
    sess = init_session(g, ConstraintPair(s=0.3, p=1))
    apply_size_delta(sess, 1)
    assert not sess.history[-1].feasible
    sol = apply_size_delta(sess, -1)
    assert is_feasible(sol.members, g, sess.constraints)
    assert sol.members == frozenset({0, 1})


# ---------------------------------------------------------------- expansion


def test_expand_greedy_absorbs_strong_neighbor():
    g = SimGraph(3, [(0, 1, 0.2), (0, 2, 0.3), (1, 2, 0.3)])
    sess = Session(
        graph=g,
        constraints=ConstraintPair(s=0.1, p=1),
        current=Solution.from_members(g, {0, 1}),
        profile=PeelProfile(),
    )
    sol = expand_greedy(sess)
    assert sol.members == frozenset({0, 1, 2})
    assert_close(sol.alpha, 0.8 / 3)
    assert sess.history[-1].event == "expand"


def test_expand_greedy_boundary_node_stays_out():
    # node 2's pull equals the current average exactly, so it is not taken
    g = SimGraph(3, [(0, 1, 0.2), (0, 2, 0.1)])
    sess = Session(
        graph=g,
        constraints=ConstraintPair(s=0.05, p=1),
        current=Solution.from_members(g, {0, 1}),
        profile=PeelProfile(),
    )
    sol = expand_greedy(sess)
    assert sol.members == frozenset({0, 1})


def test_session_rejects_members_outside_the_graph(two_triangles):
    sess = init_session(two_triangles, ConstraintPair(s=0.05, p=1))
    for bad in (6, -1):
        sess.current = Solution(frozenset({0, 1, bad}), 0.9, 0.3)
        with pytest.raises(InvalidNodeError):
            apply_size_delta(sess, 1)


def test_expand_greedy_needs_a_group(two_triangles):
    sess = init_session(two_triangles, ConstraintPair(s=0.95, p=1))
    with pytest.raises(PreconditionError):
        expand_greedy(sess)


# ---------------------------------------------------------------- augmentation


def test_augment_with_bridges_improves(two_triangles):
    base = SimGraph(3, [(0, 1, 0.9), (0, 2, 0.9), (1, 2, 0.9)])
    sess = init_session(base, ConstraintPair(s=0.05, p=1))
    extra = SimGraph(3, [(0, 1, 0.9), (0, 2, 0.9), (1, 2, 0.9)])
    bridges = [(u, v, 0.9) for u in range(3) for v in range(3)]
    sol = augment_graph(sess, extra, bridges)
    assert sess.graph.n == 6
    assert sol.members == frozenset(range(6))
    assert_close(sol.alpha, 2.25)
    res = exact_msp(sess.graph, sess.constraints)
    assert_close(res.opt_alpha, 2.25)


def test_augment_empty_graph_is_noop(two_triangles):
    sess = init_session(two_triangles, ConstraintPair(s=0.05, p=1))
    before = sess.current
    augment_graph(sess, SimGraph(0, []))
    assert sess.graph.n == 6
    assert sess.current == before
    assert sess.history[-1].event == "augment"


def test_augment_keeps_old_ids_intact(walkthrough):
    sess = init_session(walkthrough, ConstraintPair(s=0.1, p=1))
    old = sess.current.members
    extra = SimGraph(2, [(0, 1, 0.3)])
    augment_graph(sess, extra)
    assert sess.graph.n == 8
    assert sess.graph.weight(6, 7) == 0.3
    # disconnected weak extra cannot beat the incumbent
    assert sess.current.members == old


# ---------------------------------------------------------------- schedules


def test_run_schedule_applies_events_in_order(two_cluster):
    sess = init_session(two_cluster, ConstraintPair(s=0.05, p=2))
    events = [
        ScheduleEvent("size_delta", 3),
        ScheduleEvent("size_delta", -3),
        ScheduleEvent("similarity_delta", 0.05),
    ]
    records = run_schedule(sess, events)
    assert [r.event for r in records] == ["p+=3", "p-=3", "s+=0.05"]
    assert [r.step for r in records] == [1, 2, 3]
    assert len(sess.history) == 4
    assert sess.constraints == ConstraintPair(s=0.1, p=2)


def test_run_schedule_set_events(two_cluster):
    sess = init_session(two_cluster, ConstraintPair(s=0.05, p=2))
    run_schedule(sess, [ScheduleEvent("size_set", 5), ScheduleEvent("similarity_set", 0.2)])
    assert sess.constraints == ConstraintPair(s=0.2, p=5)


def test_run_schedule_set_events_take_the_exact_value():
    # 0.1 + (0.45 - 0.1) is 0.44999999999999996, under which the 0.45 triangle
    # would count as supported although the strict rule says it is not
    g = SimGraph(3, [(0, 1, 0.45), (0, 2, 0.45), (1, 2, 0.45)])
    sess = init_session(g, ConstraintPair(s=0.1, p=1))
    assert sess.history[-1].feasible
    run_schedule(sess, [ScheduleEvent("similarity_set", 0.45)])
    assert sess.constraints.s == 0.45
    assert not sess.history[-1].feasible
    assert not exact_msp(g, sess.constraints).feasible
    run_schedule(sess, [ScheduleEvent("similarity_set", 0.1), ScheduleEvent("size_set", 2)])
    assert sess.constraints == ConstraintPair(s=0.1, p=2)
    assert sess.history[-1].feasible
    # the incremental engine and a re-solving baseline agree step by step
    events = [ScheduleEvent("similarity_set", 0.45)]
    for algo in ("dcsel", "msgsel"):
        records = replay(algo, g, ConstraintPair(s=0.1, p=1), events, seed=0)
        assert [r.feasible for r in records] == [True, False]


def test_run_schedule_wraps_failures_with_step(two_cluster):
    sess = init_session(two_cluster, ConstraintPair(s=0.05, p=2))
    events = [ScheduleEvent("size_delta", 1), ScheduleEvent("size_delta", -100)]
    with pytest.raises(ScheduleError) as err:
        run_schedule(sess, events)
    assert err.value.step == 2
    # the first event was applied before the failure
    assert sess.constraints.p == 3


def test_run_schedule_augment_event(tmp_path, two_triangles):
    extra = SimGraph(2, [(0, 1, 0.8)])
    gpath = tmp_path / "extra.msg1"
    write_msg1(extra, gpath)
    (tmp_path / "br.txt").write_text("0 0 0.9\n1 1 0.9\n", encoding="utf-8")
    sess = init_session(two_triangles, ConstraintPair(s=0.05, p=1))
    run_schedule(sess, [ScheduleEvent("augment", str(gpath), bridges=str(tmp_path / "br.txt"))])
    assert sess.graph.n == 8
    assert sess.graph.weight(6, 7) == 0.8
    assert sess.graph.weight(0, 6) == 0.9
    assert sess.history[-1].event == "augment extra.msg1"


def test_parse_schedule_golden(tmp_path):
    text = "\n".join([
        "# weekly constraint plan",
        "init p=2 s=0.3",
        "",
        "p += 2",
        "s -= 0.05",
        "p = 4",
        "s = 0.2",
        "augment extra.msg1 bridges br.txt",
        "p -= 1",
    ]) + "\n"
    path = tmp_path / "plan.sched"
    path.write_text(text, encoding="utf-8")
    init, events = parse_schedule(path)
    assert init == ConstraintPair(s=0.3, p=2)
    kinds = [e.kind for e in events]
    assert kinds == [
        "size_delta", "similarity_delta", "size_set",
        "similarity_set", "augment", "size_delta",
    ]
    assert events[0].value == 2
    assert events[1].value == -0.05
    assert events[2].value == 4
    assert events[3].value == 0.2
    assert events[4].value.endswith("extra.msg1")
    assert events[4].bridges.endswith("br.txt")
    assert events[5].value == -1


def test_parse_schedule_errors(tmp_path):
    from msel import ParseError

    cases = {
        "empty.sched": ("", "no init"),
        "noinit.sched": ("p += 1\n", "first directive"),
        "badnum.sched": ("init p=1 s=0.3\np += x\n", "unrecognized"),
        "badinit.sched": ("init p=-1 s=0.3\n", "init"),
        "unknown.sched": ("init p=1 s=0.3\ns *= 2\n", "unrecognized"),
    }
    for name, (text, _) in cases.items():
        p = tmp_path / name
        p.write_text(text, encoding="utf-8")
        with pytest.raises(ParseError):
            parse_schedule(p)
    with pytest.raises(ParseError):
        parse_schedule(tmp_path / "missing.sched")


# ---------------------------------------------------------------- fuzzing


def _assert_bookkeeping(sess):
    """The session's kept weights and support agree with a recomputation."""
    g, sol = sess.graph, sess.current
    assert_close(sol.total_weight, total_weight(sol.members, g))
    assert_close(sol.alpha, avg_similarity(sol.members, g))
    assert sess.history[-1].feasible == is_feasible(sol.members, g, sess.constraints)
    # the per-node state behind those answers, which later events reuse
    grp = sess._group
    assert grp.graph is g and grp.members == sol.members
    for u in range(g.n):
        into = [w for t, w in g.neighbors(u) if t in sol.members]
        assert grp.mask[u] == (u in sol.members)
        assert grp.top[u] == max(into, default=0.0)
        assert_close(grp.inw[u], sum(into))


def _random_session_walk(rng, n_events=4):
    """One random instance plus a short delta schedule, oracle-checked."""
    g = gnp_graph(rng, rng.randint(4, 11))
    p = rng.randint(1, 3)
    s = rng.uniform(0.1, 0.4)
    sess = init_session(g, ConstraintPair(s=s, p=p))
    for _ in range(rng.randint(1, n_events)):
        if rng.random() < 0.5:
            dp = rng.choice([-2, -1, 1, 2])
            if sess.constraints.p + dp < 0:
                dp = -dp
            apply_size_delta(sess, dp)
        else:
            ds = rng.choice([-0.15, -0.05, 0.05, 0.15])
            s_new = sess.constraints.s + ds
            if not (0.01 < s_new < 0.95):
                ds = -ds
            apply_similarity_delta(sess, ds)
        _assert_bookkeeping(sess)
        res = exact_msp(g, sess.constraints)
        rec = sess.history[-1]
        if res.feasible:
            # whenever anything feasible exists the session must hold one
            assert rec.feasible, (g.n, sess.constraints, sorted(sess.current.members))
            assert sess.current.alpha >= res.opt_alpha / 3.0 - 1e-9
        else:
            assert not rec.feasible


def test_random_walks_track_the_oracle():
    rng = random.Random(2024)
    for _ in range(40):
        _random_session_walk(rng)


def test_random_augments_track_the_oracle():
    rng = random.Random(2025)
    done = 0
    while done < 15:
        g = gnp_graph(rng, rng.randint(4, 8))
        c = ConstraintPair(s=rng.uniform(0.1, 0.4), p=rng.randint(1, 2))
        sess = init_session(g, c)
        extra = gnp_graph(rng, rng.randint(2, 6))
        bridges = []
        for u in range(g.n):
            for v in range(extra.n):
                if rng.random() < 0.3:
                    bridges.append((u, v, rng.uniform(0.05, 1.0)))
        alpha_before = sess.current.alpha
        feasible_before = sess.history[-1].feasible
        augment_graph(sess, extra, bridges)
        _assert_bookkeeping(sess)
        merged = sess.graph
        res = exact_msp(merged, sess.constraints)
        rec = sess.history[-1]
        if res.feasible:
            assert rec.feasible
            assert sess.current.alpha >= res.opt_alpha / 3.0 - 1e-9
            if feasible_before:
                # augmentation only ever adds options
                assert sess.current.alpha >= alpha_before - 1e-12
        else:
            assert not rec.feasible
        done += 1


def test_profile_entries_stay_consistent_after_events(two_cluster):
    from msel import avg_similarity

    sess = init_session(two_cluster, ConstraintPair(s=0.05, p=2))
    apply_size_delta(sess, 3)
    apply_similarity_delta(sess, 0.1)
    apply_size_delta(sess, -4)
    for size in sess.profile.sizes():
        members = sess.profile.members_at(size)
        assert len(members) == size
        assert_close(avg_similarity(members, sess.graph), sess.profile.alpha_at(size))
