import hashlib
import math
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from msel import (
    ConstraintPair,
    InvalidNodeError,
    ParameterError,
    PeelStats,
    PreconditionError,
    ScheduleError,
    ScheduleEvent,
    SimGraph,
    Solution,
    apply_similarity_delta,
    apply_size_delta,
    augment_graph,
    avg_similarity,
    disjoint_union,
    exact_msp,
    init_session,
    is_feasible,
    modified_sgsel,
    parse_schedule,
    planted_community_graph,
    random_graph,
    read_msg1,
    run_schedule,
    total_weight,
    write_msg1,
)

import msel.peel
from msel import dcsel
from msel.cli import replay

from helpers import assert_close, gnp_graph

ROOT = Path(__file__).parents[1]
DATA = Path(__file__).parent / "data"


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
    # reals in their shortest round-trip form, so labels tell values apart
    assert ScheduleEvent("similarity_set", 0.123456789).text() == "s=0.123456789"
    assert ScheduleEvent("similarity_delta", 0.123456789).text() == "s+=0.123456789"
    assert ScheduleEvent("similarity_set", 1e-07).text() == "s=1e-07"
    assert ScheduleEvent("similarity_delta", -1e-07).text() == "s-=1e-07"
    # `s -= 0.0` parses to -0.0, which compares equal to 0.0; the sign bit
    # tells them apart
    assert ScheduleEvent("similarity_delta", -0.0).text() == "s-=0.0"
    assert ScheduleEvent("similarity_delta", 0.0).text() == "s+=0.0"
    assert ScheduleEvent("augment", "/tmp/somewhere/extra.msg1").text() == "augment extra.msg1"


# ---------------------------------------------------------------- sessions


def test_init_session_solves_and_records(two_cluster):
    sess = init_session(two_cluster, ConstraintPair(s=0.05, p=2))
    assert sess.current.members == frozenset({0, 1, 2})
    assert_close(sess.current.alpha, 0.9)
    rec = sess.history[0]
    assert rec.step == 0 and rec.event == "init" and rec.feasible
    assert rec.wall_ns > 0
    # the initial solve's work is counted in stats only, as one fresh peel's
    stats = PeelStats()
    modified_sgsel(two_cluster, ConstraintPair(s=0.05, p=2), stats=stats)
    assert sess.stats == stats and stats.removals > 0
    assert sess.event_removals == 0


def test_init_session_rejects_empty_graph():
    with pytest.raises(PreconditionError):
        init_session(SimGraph(0, []), ConstraintPair(s=0.5, p=0))


def test_init_session_infeasible_start_is_not_an_error(two_triangles):
    sess = init_session(two_triangles, ConstraintPair(s=0.95, p=1))
    assert not sess.current
    assert not sess.history[0].feasible


def test_size_increase_merges_residual_group(two_cluster):
    sess = init_session(two_cluster, ConstraintPair(s=0.05, p=2))
    # with no whole-graph run kept to take a pick from, one anchored peel
    # around the triangle has to find the superset
    sess._whole = None
    sol = apply_size_delta(sess, 3)
    assert sess.constraints.p == 5
    assert sol.members == frozenset(range(8))
    assert_close(sol.alpha, 0.7125)
    assert is_feasible(sol.members, sess.graph, sess.constraints)
    # that happens to be the exact optimum here
    res = exact_msp(sess.graph, sess.constraints)
    assert res.opt_set == sol.members
    assert_close(res.opt_alpha, sol.alpha)
    # the anchored peel really did peel the complement
    assert sess.event_removals > 0
    # with the init run kept, it answers the same event at no peel cost
    kept = init_session(two_cluster, ConstraintPair(s=0.05, p=2))
    assert apply_size_delta(kept, 3) == sol
    assert kept.event_removals == 0


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


def test_similarity_raise_strips_exactly_the_members_without_a_strong_edge(monkeypatch):
    # the strip reads the graph's strongest edges and no row; it must drop
    # exactly the members whose strongest edge anywhere is not above s
    rng = random.Random(2301)
    for _ in range(60):
        n = rng.randint(2, 120)
        g = random_graph(n, rng.randint(0, min(4 * n, n * (n - 1) // 2)), seed=rng.randint(0, 10**6))
        grp = dcsel._Group(g, rng.sample(range(n), rng.randint(0, n)))
        s = rng.choice([0.1, 0.3, 0.6, 0.85, 0.95])
        g.strength()
        got, rows = _spied_rows(monkeypatch, lambda: dcsel._unsupported(g, grp, s).tolist())
        assert got == sorted(u for u in grp.members if g.max_incident_weight(u) <= s)
        assert rows == []


def test_similarity_increase_keeps_members_with_an_edge_outside():
    # at s = 0.81 member 3's strongest edge into {0, 2, 3, 4, 5, 6} is 0.51,
    # but its 0.9 edge to outside node 1 keeps it: the stripped group
    # {0, 3, 5, 6} fails, and the peel around it adds 1. Stripping 3 too
    # would leave {0, 5, 6} feasible at alpha 0.613 and stop there.
    g = SimGraph(7, [
        (0, 2, .73), (0, 5, .93), (0, 6, .91), (1, 3, .9), (2, 3, .34), (2, 4, .55),
        (2, 5, .51), (2, 6, .37), (3, 4, .51), (3, 5, .44), (4, 5, .19), (4, 6, .15),
    ])
    sess = init_session(g, ConstraintPair(s=0.5, p=1))
    assert sess.current.members == frozenset({0, 2, 3, 4, 5, 6})
    sol = apply_similarity_delta(sess, 0.31)
    best = exact_msp(g, sess.constraints)
    assert sol.members == best.opt_set == frozenset({0, 1, 3, 5, 6})
    assert_close(sol.alpha, 0.636)
    assert sess.history[-1].feasible


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


def test_session_rejects_members_outside_the_graph(two_triangles):
    sess = init_session(two_triangles, ConstraintPair(s=0.05, p=1))
    for bad in (6, -1):
        sess.current = Solution(frozenset({0, 1, bad}), 0.9, 0.3)
        with pytest.raises(InvalidNodeError):
            apply_size_delta(sess, 1)


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


def test_set_events_find_the_group_a_fresh_solve_finds():
    # s = 0.8 empties the group. At s = 0.65 the residual peel finds {0, 1},
    # and absorbing node 4 (no edge above 0.65) into it would leave the step
    # infeasible although {0, 1} is feasible.
    g = SimGraph(5, [(0, 1, 0.76), (0, 3, 0.23), (0, 4, 0.48), (1, 4, 0.14), (2, 3, 0.35), (2, 4, 0.17)])
    init = ConstraintPair(s=0.2, p=1)
    events = [ScheduleEvent("similarity_set", 0.8), ScheduleEvent("similarity_set", 0.65)]
    sess = init_session(g, init)
    run_schedule(sess, events)
    res = exact_msp(g, sess.constraints)
    assert sess.history[-1].feasible
    assert sess.current.members == res.opt_set == frozenset({0, 1})
    assert_close(sess.current.alpha, res.opt_alpha)
    dcsel, msgsel = (replay(algo, g, init, events, seed=0) for algo in ("dcsel", "msgsel"))
    assert [r.feasible for r in dcsel] == [r.feasible for r in msgsel] == [True, False, True]


def test_tighter_events_after_an_empty_fresh_peel_cost_nothing():
    # p += 5 leaves no group of more than 6 nodes on 4; the fallback peel
    # proves that, so events that only tighten need no peel at all
    g = SimGraph(4, [(0, 1, 0.5), (1, 2, 0.6), (2, 3, 0.7)])
    sess = init_session(g, ConstraintPair(s=0.1, p=1))
    apply_size_delta(sess, 5)
    assert not sess.history[-1].feasible
    tighter = [ScheduleEvent("size_delta", 0)] * 3 + [
        ScheduleEvent("similarity_delta", 0.1), ScheduleEvent("size_delta", 1)]
    for ev in tighter:
        before = sess.event_removals
        run_schedule(sess, [ev])
        assert sess.event_removals == before, ev.text()
        assert not sess.history[-1].feasible
    run_schedule(sess, [ScheduleEvent("size_set", 1)])
    res = exact_msp(g, sess.constraints)
    assert sess.history[-1].feasible
    assert sess.current.alpha == res.opt_alpha


def test_fallback_reuses_the_init_peel():
    # p = 2 rules out {0, 1} and the residual peel around it finds nothing,
    # so the fallback would peel the whole graph again at init's s
    g = SimGraph(3, [(0, 1, 0.9), (0, 2, 0.15)])
    sess = init_session(g, ConstraintPair(s=0.1, p=1))
    assert sess.current.members == frozenset({0, 1})
    apply_size_delta(sess, 1)
    assert sess.event_removals == 0
    assert sess.history[-1].feasible
    assert sess.current.members == frozenset({0, 1, 2})


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
        "empty.sched": ("", "schedule has no init line"),
        "noinit.sched": ("p += 1\n", "noinit.sched:1: first directive must be"),
        "badnum.sched": ("init p=1 s=0.3\np += x\n", "badnum.sched:2: bad number 'x'"),
        "badinit.sched": ("init p=-1 s=0.3\n", "badinit.sched:1: first directive must be"),
        "unknown.sched": ("init p=1 s=0.3\ns *= 2\n", "unknown.sched:2: unrecognized directive 's \\*= 2'"),
    }
    for name, (text, message) in cases.items():
        p = tmp_path / name
        p.write_text(text, encoding="utf-8")
        with pytest.raises(ParseError, match=message):
            parse_schedule(p)
    with pytest.raises(ParseError, match="cannot read schedule"):
        parse_schedule(tmp_path / "missing.sched")


@pytest.mark.parametrize("event, message", [
    ("s = 1.5", "similarity threshold s=1.5 outside \\(0,1\\)"),
    ("s = 0", "similarity threshold s=0.0 outside \\(0,1\\)"),
    ("s=-0.2", "similarity threshold s=-0.2 outside \\(0,1\\)"),
    ("p = -1", "size threshold p=-1 must be a nonnegative integer"),
])
def test_parse_schedule_rejects_out_of_range_set_events(tmp_path, event, message):
    # as on the init line, at parse time and naming the line
    from msel import ParseError

    path = tmp_path / "range.sched"
    path.write_text(f"init p=1 s=0.3\np += 1\n{event}\n", encoding="utf-8")
    with pytest.raises(ParseError, match=rf"range\.sched:3: {message}") as err:
        parse_schedule(path)
    assert err.value.line == 3


def test_parse_schedule_leaves_deltas_to_run_time(tmp_path):
    # a delta's result depends on the events before it, so it parses
    path = tmp_path / "delta.sched"
    path.write_text("init p=1 s=0.3\ns += 1.5\np -= 5\ns = 0.9\np = 0\n", encoding="utf-8")
    _, events = parse_schedule(path)
    assert [ev.text() for ev in events] == ["s+=1.5", "p-=5", "s=0.9", "p=0"]


@pytest.mark.parametrize("event", ["s += nan", "s -= inf", "s = inf", "s = -inf", "s += 1e400", "s=NaN"])
def test_parse_schedule_rejects_non_finite_similarity(tmp_path, event):
    # the init line already refuses them; an event must too, at parse time
    # and naming its line, not at run time
    from msel import ParseError

    path = tmp_path / "nan.sched"
    path.write_text(f"init p=1 s=0.3\np += 1\n{event}\n", encoding="utf-8")
    with pytest.raises(ParseError, match=r"nan\.sched:3: bad number") as err:
        parse_schedule(path)
    assert err.value.line == 3


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
        # a row-order sum, whatever path led to the members
        assert grp.inw[u] == sum(into, 0.0)
    # every profile entry names a set of its size with its recorded average
    for size in sess.profile.sizes():
        members = sess.profile.members_at(size)
        assert len(members) == size
        assert_close(sess.profile.alpha_at(size), avg_similarity(members, g))


# largest merged graph a random walk builds, to keep the oracle quick
WALK_MAX_N = 16


def _random_event(rng, sess):
    """Apply one random event: a delta, a set event or a bridged augment."""
    roll = rng.random()
    if roll < 0.15 and sess.graph.n < WALK_MAX_N:
        extra = gnp_graph(rng, rng.randint(1, min(6, WALK_MAX_N - sess.graph.n)))
        bridges = [
            (u, v, rng.uniform(0.05, 1.0))
            for u in range(sess.graph.n) for v in range(extra.n) if rng.random() < 0.3
        ]
        augment_graph(sess, extra, bridges)
    elif roll < 0.35:
        dp = rng.choice([-2, -1, 1, 2])
        if sess.constraints.p + dp < 0:
            dp = -dp
        apply_size_delta(sess, dp)
    elif roll < 0.55:
        ds = rng.choice([-0.15, -0.05, 0.05, 0.15])
        s_new = sess.constraints.s + ds
        if not (0.01 < s_new < 0.95):
            ds = -ds
        apply_similarity_delta(sess, ds)
    elif roll < 0.75:
        run_schedule(sess, [ScheduleEvent("size_set", rng.randint(0, 4))])
    else:
        run_schedule(sess, [ScheduleEvent("similarity_set", round(rng.uniform(0.05, 0.9), 2))])


def _random_session_walk(rng, n_events=4, oracle=True):
    """One random instance plus a short schedule of deltas, set events and
    bridged augments, checked against a recomputation and the oracle after
    every event unless ``oracle`` is False."""
    g = gnp_graph(rng, rng.randint(4, 11))
    p = rng.randint(1, 3)
    s = rng.uniform(0.1, 0.4)
    sess = init_session(g, ConstraintPair(s=s, p=p))
    for _ in range(rng.randint(1, n_events)):
        _random_event(rng, sess)
        if not oracle:
            continue
        _assert_bookkeeping(sess)
        res = exact_msp(sess.graph, sess.constraints)
        rec = sess.history[-1]
        if res.feasible:
            # whenever anything feasible exists the session must hold one
            assert rec.feasible, (sess.graph.n, sess.constraints, sorted(sess.current.members))
            assert sess.current.alpha >= res.opt_alpha / 3.0 - 1e-9
        else:
            assert not rec.feasible
    return sess


def test_random_walks_track_the_oracle():
    rng = random.Random(1)
    for _ in range(100):
        _random_session_walk(rng, n_events=6)


def test_random_walks_track_the_oracle_on_a_second_stream():
    # walk 9 of this stream merges a graph whose best group mixes the
    # incumbent with new nodes, which only a peel around the incumbent sees
    rng = random.Random(37)
    for _ in range(100):
        _random_session_walk(rng, n_events=6)


def test_random_walks_track_the_oracle_on_more_streams():
    for seed in range(2, 17):
        rng = random.Random(seed)
        for _ in range(100):
            _random_session_walk(rng, n_events=6)


def test_same_set_gets_the_same_alpha_bits_by_any_path():
    # p = 45 then p -= 10 and p = 10 come back to the community init chose,
    # through a peel of the whole graph and a profile scan
    for seed in range(5):
        g = planted_community_graph(1000, 3000, seed=seed, community=30)
        sess = init_session(g, ConstraintPair(s=0.2, p=2))
        first = sess.current
        run_schedule(sess, [ScheduleEvent("size_set", 45), ScheduleEvent("size_delta", -10),
                            ScheduleEvent("size_set", 10)])
        assert sess.current.members == first.members
        assert repr(sess.current.alpha) == repr(first.alpha)


def _played_steps(monkeypatch, play, *patches):
    """Run ``play()`` with each ``(owner, name, value)`` of ``patches`` set.
    Returns its steps, as (event, repr(alpha), size, feasible, members), and
    what ``play`` returned."""
    record = dcsel._record
    steps = []

    def capture(sess, event, t0):
        rec = record(sess, event, t0)
        steps.append((rec.event, repr(rec.alpha), rec.size, rec.feasible, sess.current.members))
        return rec

    with monkeypatch.context() as m:
        m.setattr(dcsel, "_record", capture)
        for owner, name, value in patches:
            m.setattr(owner, name, value)
        return steps, play()


def _with_and_without_exits(monkeypatch, play):
    """Run ``play()`` as it is and again with the floored peel's two exits
    off: the degree bound is not checked, and an empty core runs the full
    peel. Returns for each run its ``_played_steps``, then the number of
    floored peels the exits answered."""
    peel, setup, core = dcsel.modified_sgsel, msel.peel._setup, msel.peel._core
    skips = 0

    def counted(*args, **kwargs):
        nonlocal skips
        sol, profile = peel(*args, **kwargs)
        skips += not profile.runs()
        return sol, profile

    def unbounded(g, s, alive, anchor=None, tau=None):
        return setup(g, s, alive)

    def never_empty(*args):
        cored = core(*args)
        return cored if cored is None or len(cored.free) else None

    on = _played_steps(monkeypatch, play, (dcsel, "modified_sgsel", counted))
    off = _played_steps(monkeypatch, play, (msel.peel, "_setup", unbounded), (msel.peel, "_core", never_empty))
    return on, off, skips


def test_outclassed_incumbent_skips_the_anchored_peel(monkeypatch):
    # the 40-node community (alpha 16.6) outweighs every outside node's
    # degree bound, so a lowered floor cannot bring in a better group: the
    # floored peel runs none
    g = planted_community_graph(3000, 9000, seed=1, community=40)
    for ev in (ScheduleEvent("similarity_delta", -0.05), ScheduleEvent("similarity_set", 0.15)):
        def play():
            sess = init_session(g, ConstraintPair(s=0.2, p=2))
            run_schedule(sess, [ev])
            return sess

        (on, sess), (off, peeled), skips = _with_and_without_exits(monkeypatch, play)
        assert skips == 1
        assert sess.event_removals == 0 < peeled.event_removals
        assert on == off


def test_an_empty_core_skips_the_anchored_peel():
    # the triangle A = {0, 1, 2} (alpha 0.9) wins. The star's centre has
    # degree 3.0, so the degree bound (1.5) leaves the outside in play; but
    # the leaves weigh 0.5 and go in the first round, the centre after
    # them, so the 0.9-core is empty and A stands without a peel
    edges = [(0, 1, 0.9), (0, 2, 0.9), (1, 2, 0.9)] + [(3, u, 0.5) for u in range(4, 10)]
    g = SimGraph(10, edges)
    alive = np.array([2, 2, 2] + [1] * 7, dtype=np.uint8)
    assert msel.peel._setup(g, 0.15, alive, dcsel._Group(g, {0, 1, 2}), 0.9) is not None
    sess = init_session(g, ConstraintPair(s=0.2, p=2))
    assert sess.current.members == {0, 1, 2}
    apply_similarity_delta(sess, -0.05)
    assert sess.current.members == {0, 1, 2} and sess.history[-1].feasible
    assert sess.event_removals == 0


def test_outclass_check_lets_a_denser_merge_peel():
    # a merged 60-node community of alpha 25 beats the incumbent's 16.6
    g = planted_community_graph(3000, 9000, seed=1, community=40)
    sess = init_session(g, ConstraintPair(s=0.2, p=2))
    extra = planted_community_graph(200, 2000, seed=2, community=60)
    augment_graph(sess, extra, [(0, 0, 0.9)])
    assert sess.event_removals > 0
    assert sess.current.members == set(range(3000, 3060))


def test_outclass_check_changes_no_result(monkeypatch):
    # random walks, then mid-size schedules whose lowered floors and merges
    # the floored peel's exits answer, each played with the exits and
    # without them
    events = [ScheduleEvent(k, v) for k, v in (
        ("similarity_delta", -0.05), ("size_set", 60), ("similarity_set", 0.1),
        ("size_delta", -40), ("similarity_delta", 0.25), ("similarity_set", 0.15),
        ("size_set", 5), ("similarity_delta", -0.05), ("size_delta", 30))]

    def play():
        rng = random.Random(13)
        for _ in range(150):
            _random_session_walk(rng, n_events=8, oracle=False)
        for seed in range(3):
            g = planted_community_graph(1500, 4500, seed=seed, community=30)
            extra = planted_community_graph(300, 900, seed=seed + 3, community=20 + 10 * seed)
            bridges = [(rng.randrange(g.n), rng.randrange(extra.n), rng.uniform(0.05, 1.0))
                       for _ in range(5)]
            sess = init_session(g, ConstraintPair(s=0.2, p=2))
            run_schedule(sess, events)
            augment_graph(sess, extra, bridges)
            run_schedule(sess, events)

    (on, _), (off, _), skips = _with_and_without_exits(monkeypatch, play)
    assert skips > 0
    assert on == off


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


def test_challenger_beats_the_group_only_when_feasible_and_better():
    from msel.dcsel import _Group

    # triangles A = {0, 1, 2} and B = {3, 4, 5} with equal weights, and a
    # weaker triangle C = {6, 7, 8}
    edges = []
    for base, w in ((0, 0.5), (3, 0.5), (6, 0.2)):
        edges += [(base, base + 1, w), (base, base + 2, w), (base + 1, base + 2, w)]
    g = SimGraph(9, edges)
    loose, tight = ConstraintPair(s=0.1, p=2), ConstraintPair(s=0.1, p=3)
    grp = _Group(g, {0, 1, 2})
    # its own member set, an exact tie and a weaker group never beat it
    assert grp.challenger(frozenset({0, 1, 2}), loose) is None
    assert grp.challenger(frozenset({3, 4, 5}), loose) is None
    assert grp.challenger(frozenset({6, 7, 8}), loose) is None
    # an infeasible candidate never beats it, even an infeasible group
    assert grp.challenger(frozenset({3, 4, 5}), tight) is None
    # a feasible candidate beats an infeasible group at the same alpha
    cand = grp.challenger(frozenset(range(6)), tight)
    assert cand is not None and cand.members == set(range(6))
    assert cand.alpha == grp.alpha
    # and at a lower one
    pair = _Group(g, {0, 1})
    cand = pair.challenger(frozenset({6, 7, 8}), loose)
    assert cand is not None and cand.alpha < pair.alpha
    # a strictly better feasible candidate beats a feasible group
    weak = _Group(g, {6, 7, 8})
    assert weak.challenger(frozenset({0, 1, 2}), loose).members == {0, 1, 2}
    assert weak.members == {6, 7, 8}


def test_one_member_set_gets_one_weight():
    # a 40-node set built three ways iterates in three orders; every reader
    # sums its weights through one group build, so all give the same bits
    g = random_graph(400, 20000, seed=3)
    rng = random.Random(3)
    for _ in range(300):
        F = rng.sample(range(g.n), 40)
        grp = dcsel._Group(g, F)
        want = (repr(grp.weight), repr(grp.alpha))
        for members in (frozenset(F), frozenset(reversed(F)), frozenset(sorted(F))):
            sol = Solution.from_members(g, members)
            assert (repr(total_weight(members, g)), repr(avg_similarity(members, g))) == want
            assert (repr(sol.total_weight), repr(sol.alpha)) == want


def test_session_alpha_is_avg_similarity():
    g = planted_community_graph(3000, 12000, seed=1, community=40)
    sess = init_session(g, ConstraintPair(s=0.2, p=5))
    assert sess.current.size == 40
    assert repr(avg_similarity(sess.current.members, g)) == repr(sess.current.alpha)


def _counting_challenger(calls):
    """``_Group.challenger`` that appends every candidate to ``calls``."""
    challenger = dcsel._Group.challenger

    def counted(grp, members, c):
        calls.append(members)
        return challenger(grp, members, c)

    return counted


def test_size_decrease_skips_unsupported_profile_entries(monkeypatch):
    # at s = 0.95 almost every set the init peel recorded (at s = 0.05) has
    # a member without a strong edge; the scan used to hand all 2,935 of
    # them above the new floor to challenger, copying the group each time
    g = planted_community_graph(3000, 9000, seed=1, community=28)
    sess = init_session(g, ConstraintPair(s=0.05, p=2))
    run_schedule(sess, [ScheduleEvent("similarity_set", 0.95), ScheduleEvent("size_set", 200)])
    calls = []
    monkeypatch.setattr(dcsel._Group, "challenger", _counting_challenger(calls))
    apply_size_delta(sess, -150)
    rec = sess.history[-1]
    assert (rec.size, rec.feasible, repr(rec.alpha)) == (28, False, "11.447025516517574")
    # only the first set from each trace reaches challenger unchecked
    traces = {id(t) for _, _, t in sess.profile.items()}
    strict = ConstraintPair(s=0.95, p=0)
    assert len(calls) <= len(traces)
    assert sum(not is_feasible(m, g, strict) for m in calls) <= len(traces)


def test_support_skip_changes_no_result(monkeypatch):
    # the same walks and schedules with every recorded set taken as
    # supported, so that every candidate reaches challenger
    events = [ScheduleEvent(k, v) for k, v in (
        ("similarity_set", 0.9), ("size_set", 120), ("size_delta", -100),
        ("similarity_set", 0.3), ("size_set", 60), ("size_delta", -55),
        ("similarity_delta", 0.4), ("size_delta", 30), ("size_delta", -28))]

    def play():
        rng = random.Random(14)
        for _ in range(150):
            _random_session_walk(rng, n_events=8, oracle=False)
        g = planted_community_graph(500, 1500, seed=0, community=20)
        run_schedule(init_session(g, ConstraintPair(s=0.05, p=2)), events)

    def all_supported(trace, g, s):
        return np.ones(len(trace.order) + 1, dtype=bool)

    skipping, everything = [], []
    on = _played_steps(monkeypatch, play, (dcsel._Group, "challenger", _counting_challenger(skipping)))
    off = _played_steps(monkeypatch, play, (dcsel._Group, "challenger", _counting_challenger(everything)),
                        (dcsel.PeelTrace, "supported", all_supported))
    assert on == off
    assert len(skipping) < len(everything)


# ---------------------------------------------------------------- bench-scale sessions


def _digest(values) -> str:
    return hashlib.sha256(" ".join(map(str, values)).encode()).hexdigest()


def _golden_session_lines(tmp_path):
    """One tab-separated line per step of the benchmark's sessions (bulk
    seed 1, four instances; planted seed 1): instance, step, event,
    repr(alpha), size, feasible and a sha256 of the sorted members. Each
    instance ends with a line for its final profile: a sha256 of every
    recorded size, its repr(alpha) and its trace's removal order. The inputs
    come from ``bench/gen.py`` run as a script, as the benchmark makes them."""
    lines = []
    for workload in ("bulk", "planted"):
        out = tmp_path / workload
        subprocess.run([sys.executable, str(ROOT / "bench" / "gen.py"), workload, "1", str(out)],
                       check=True)
        for inst in sorted(p for p in out.iterdir() if p.is_dir()):
            name = f"{workload}/{inst.name}"
            init_c, events = parse_schedule(inst / "plan.sched")
            sess = init_session(read_msg1(inst / "graph.msg1"), init_c)
            steps = [(sess.history[0], sess.current.members)]
            for ev in events:
                run_schedule(sess, [ev])
                steps.append((sess.history[-1], sess.current.members))
            lines += [f"{name}\t{r.step}\t{r.event}\t{r.alpha!r}\t{r.size}\t{r.feasible}"
                      f"\t{_digest(sorted(m))}" for r, m in steps]
            items = list(sess.profile.items())
            orders = {id(t): t for _, _, t in items}
            orders = {i: _digest(t.order) for i, t in orders.items()}
            entries = [(k, repr(a), orders[id(t)]) for k, a, t in items]
            lines.append(f"{name}\tprofile\t{len(entries)}\t{_digest(entries)}")
    return lines


def test_bench_sessions_match_golden(tmp_path):
    # data/session.golden holds the lines _golden_session_lines returned
    # when it was written; every step must keep its members and alpha bits
    want = (DATA / "session.golden").read_text(encoding="utf-8").splitlines()
    assert _golden_session_lines(tmp_path) == want


# ---------------------------------------------------------------- cored repairs


def _two_communities(rng, n):
    """A sparse background on ``n`` nodes with two cliques planted on its
    first nodes, the second with weights spread lower. Returns the graph and
    the number of clique nodes."""
    k1, k2 = rng.randint(8, 20), rng.randint(8, 30)
    edges = {}
    for lo, base, k in ((0.6, 0, k1), (rng.uniform(0.2, 0.6), k1, k2)):
        for u in range(base, base + k):
            for v in range(u + 1, base + k):
                edges[u, v] = rng.uniform(lo, 1.0)
    while len(edges) < 3 * n + (k1 * k1 + k2 * k2) // 2:
        u, v = sorted(rng.sample(range(n), 2))
        edges.setdefault((u, v), rng.uniform(0.05, rng.choice([0.3, 0.6])))
    return SimGraph(n, [(u, v, w) for (u, v), w in edges.items()]), k1 + k2


def test_size_decrease_completes_a_cored_run(monkeypatch):
    # s -= 0.19 is a cored repair around the 18-node incumbent; s = 0.29
    # keeps it, and p = 114 takes the kept init run's pick at no peel, whose
    # alpha is below the cored run's bound; p -= 38 must then run the full
    # peel the cut skipped, whose sets the scan needs
    rng = random.Random(227)
    g, k = _two_communities(rng, rng.randint(300, 900))
    s0 = round(rng.uniform(0.15, 0.5), 2)
    events = [ScheduleEvent("similarity_delta", -round(rng.uniform(0.05, s0 - 0.06), 2)),
              ScheduleEvent("similarity_set", s0), ScheduleEvent("size_set", big := rng.randint(k, 120)),
              ScheduleEvent("size_delta", -rng.randint(5, big))]
    p0 = rng.randint(1, 5)
    assert [ev.text() for ev in events] == ["s-=0.19", "s=0.29", "p=114", "p-=38"]
    trail = []

    def play():
        trail.clear()
        sess = init_session(g, ConstraintPair(s=s0, p=p0))
        for ev in events:
            before = sess.event_removals
            run_schedule(sess, [ev])
            trail.append((len(sess._partial), sess.event_removals - before))

    cut, _ = _played_steps(monkeypatch, play)
    # one partial run, kept without a peel until p -= 38 completed it
    assert [n for n, _ in trail] == [1, 1, 1, 0]
    assert trail[1][1] == trail[2][1] == 0 < trail[3][1]
    full, _ = _played_steps(monkeypatch, play, (msel.peel, "_core", lambda *args: None))
    assert cut == full
    # without the completion the scan settles for a worse group
    skipped, _ = _played_steps(monkeypatch, play, (dcsel, "_complete", lambda sess, floor: None))
    assert skipped[:-1] == cut[:-1] and skipped[-1][1] < cut[-1][1]


def test_repeated_cored_peels_keep_one_small_entry():
    # each s -= 0.1 re-runs the same cored peel around the same 21-node
    # anchor; the session keeps one entry for it, holding the anchor's ids
    # and no graph-sized array
    g, _ = _two_communities(random.Random(0), 3000)
    sess = init_session(g, ConstraintPair(s=0.4, p=3))
    run_schedule(sess, [ScheduleEvent("similarity_delta", d) for d in (-0.1, 0.1) * 50])
    assert len(sess._partial) == 1
    ((graph, s, ids), bound), = sess._partial.items()
    members = np.frombuffer(ids, np.int64)
    assert graph is g and s == 0.4 - 0.1 and isinstance(bound, float)
    assert len(members) == 21 and len(ids) == 8 * 21
    assert (np.diff(members) > 0).all() and members[-1] < g.n
    # cored peels of that anchor at other floors keep the larger bound
    grp = dcsel._Group(g, members.tolist())
    for floor in (0.9 * grp.alpha, 1.1 * grp.alpha):
        runs = dcsel._peel(sess, ConstraintPair(s=s, p=3), grp, floor)
        bound = max(bound, *(r.bound for r in runs))
        assert list(sess._partial.values()) == [bound]
    assert bound > grp.alpha


def test_cored_runs_never_prove_the_session_empty(monkeypatch):
    # anchored repairs around part of a 40-node community, under every size
    # floor at which that part is feasible: a cored run's start set counts
    # the nodes it skipped, so no floor below that start set proves that
    # nothing is feasible
    g = planted_community_graph(3000, 9000, seed=3, community=40)
    sess = init_session(g, ConstraintPair(s=0.2, p=2))
    cored = 0
    for size in (20, 30, 36):
        grp = dcsel._Group(g, range(size))
        for p in range(0, size, 4):
            sess.constraints = c = ConstraintPair(s=0.2, p=p)
            assert grp.feasible(c)
            runs = dcsel._peel(sess, c, grp, grp.alpha)
            with monkeypatch.context() as m:
                m.setattr(msel.peel, "_core", lambda *args: None)
                full = dcsel._peel(sess, c, grp)
            assert len(runs[0].trace.order) + runs[0].skipped == len(full[0].trace.order) > p
            cored += bool(runs[0].skipped)
            assert sess._empty_at is None and not dcsel._proven_empty(sess)
    assert cored > 10


def _gathering_setup(g, s, alive, anchor=None, tau=None):
    """A peel's set-up that reads every outside row, as one did before the
    graph's ``strength`` arrays: the degree bound sums the gathered rows,
    the prefilter counts their edges above s to alive nodes, and the start
    comes back weighed."""
    n = g.n
    nodes = np.flatnonzero(alive == 1)
    src, pos = g.gather(nodes)
    dst, w = g.indices[pos], g.weights[pos]
    if tau is not None:
        deg = np.bincount(src, weights=w, minlength=n)[nodes]
        if float((deg + anchor.inw[nodes]).max(initial=-math.inf)) / 2.0 < tau:
            return None
    cnt = np.bincount(src[(w > s) & (alive[dst] != 0)], minlength=n)
    alive[nodes[cnt[nodes] == 0]] = 0
    keep = (alive[src] != 0) & (alive[dst] != 0)
    return msel.peel._Start(alive, np.flatnonzero(alive == 1), np.bincount(src[keep], weights=w[keep], minlength=n))


def _gathering_support(g, order, s, pinned=None):
    """A support pass that gathers the removal order's rows, whatever the
    order's size, as one did before the pass over all rows: the edges above
    s are compacted and each row's last neighbour found by
    ``np.maximum.at``; likewise each pinned node's last order neighbour."""
    pinned = np.empty(0, dtype=np.int64) if pinned is None else pinned
    pos = np.full(g.n, -1, dtype=np.int64)
    pos[order] = np.arange(len(order))
    src, at = g.gather(order)
    above = g.weights[at] > s
    row, dst = pos[src[above]], g.indices[at[above]]
    to = pos[dst]
    last = np.full(len(order), -1, dtype=np.int64)
    np.maximum.at(last, row[to >= 0], to[to >= 0])
    pin_last = np.full(g.n, -1, dtype=np.int64)
    np.maximum.at(pin_last, dst, row)
    return last, pin_last[pinned]


def _random_anchor(rng, g, k):
    """Part of the planted communities (the first ``k`` nodes), sometimes
    with a few background nodes."""
    size = rng.randint(3, k)
    members = set(rng.sample(range(k), size))
    if rng.random() < 0.3:
        members |= set(rng.sample(range(k, g.n), rng.randint(1, 4)))
    return dcsel._Group(g, members)


def test_floored_setup_matches_one_that_gathers_every_row(monkeypatch):
    # random anchors, floors and s on random two-community graphs, and
    # unfloored and unanchored peels of all, most or few nodes: a peel over
    # most of the graph reads its strength arrays, only the rows that may
    # reach the floor or lie next to a node the start lacks, and its support
    # in one pass over every row; it must record, pick and count what a
    # set-up reading every outside row and a support pass gathering the
    # removal order's rows do
    rng = random.Random(2028)
    seen = {"exit": 0, "cored": 0, "full": 0, "complement": 0, "subset": 0, "unweighed": 0,
            "unfloored": 0, "unanchored": 0, "whole": 0, "drops": 0}
    setup = msel.peel._setup

    def counted_setup(g, s, alive, *args):
        free = int(np.count_nonzero(alive == 1))
        start = setup(g, s, alive, *args)
        if start is not None:
            seen["unweighed"] += start.incident_at is None
            seen["drops"] += len(start.free) < free
        return start

    trials = 0
    while trials < 280:
        g, k = _two_communities(rng, rng.randint(60, 400))
        if rng.random() < 0.5:
            # weights of two decimals, as s has: some edges tie with s
            g = SimGraph(g.n, [(u, v, round(w, 2) or 0.01) for u, v, w in g.edges()])
        kind = rng.choice(["floored", "floored", "floored", "unfloored", "unanchored"])
        s = round(rng.uniform(0.1, 0.7), 2)
        if kind == "unanchored":
            grp = floor = None
            c = ConstraintPair(s=s, p=rng.randint(0, 20))
            outside = np.arange(g.n)
        else:
            grp = _random_anchor(rng, g, k)
            c = ConstraintPair(s=s, p=rng.randint(0, len(grp.members) - 1))
            if not grp.feasible(c):
                continue
            floor = grp.alpha * rng.choice([1.0, 1.0, rng.uniform(0.5, 1.5)]) if kind == "floored" else None
            outside = np.flatnonzero(~grp.mask)
        trials += 1
        within = outside
        if rng.random() < 0.25:
            # a start set that leaves nodes out, most of the graph or few
            within = np.sort(rng.sample(outside.tolist(), rng.choice([len(outside) * 3 // 4, 12])))
            seen["subset"] += 1
        elif kind == "unanchored" and rng.random() < 0.5:
            within = None
            seen["whole"] += 1
        else:
            seen["complement"] += 1
        got = [], PeelStats()
        want = [], PeelStats()
        for runs, stats in (got, want):
            with monkeypatch.context() as m:
                if runs is want[0]:
                    m.setattr(msel.peel, "_setup", _gathering_setup)
                    m.setattr(msel.peel, "_last_strong", _gathering_support)
                else:
                    m.setattr(msel.peel, "_setup", counted_setup)
                sol, profile = modified_sgsel(g, c, within=within, stats=stats, anchor=grp, floor=floor)
            runs.extend(profile.runs())
            runs.append(sol)
        assert got[1] == want[1]
        assert got[0][-1] == want[0][-1]
        assert len(got[0]) == len(want[0])
        for a, b in zip(got[0][:-1], want[0][:-1]):
            assert a.trace == b.trace and a.first == b.first
            assert a.skipped == b.skipped and repr(a.bound) == repr(b.bound)
            assert a.alphas.tobytes() == b.alphas.tobytes()
            assert np.array_equal(a.supported, b.supported)
            assert [a.best_size(p) for p in range(0, len(a.trace.order), 7)] == \
                [b.best_size(p) for p in range(0, len(b.trace.order), 7)]
        runs = got[0][:-1]
        if kind == "floored":
            seen["exit" if not runs else "cored" if runs[0].skipped else "full"] += 1
        else:
            seen[kind] += 1
    assert min(seen.values()) >= 10, seen


def _spied_rows(monkeypatch, call):
    """``call()`` with every row ``SimGraph.gather`` reads recorded: the
    result and the rows, in the order read."""
    rows = []
    gather = SimGraph.gather

    def spy(self, nodes):
        rows.extend(np.asarray(nodes).tolist())
        return gather(self, nodes)

    with monkeypatch.context() as m:
        m.setattr(SimGraph, "gather", spy)
        return call(), rows


def test_whole_graph_peels_read_only_the_tail_and_the_rows_next_to_drops(monkeypatch):
    # every node of the 3,000-node graph has an edge: at s = 0.04 (weights
    # start at 0.05) the prefilter drops none, and a whole-graph peel reads
    # only its dense tail's rows; at s = 0.5 it drops the nodes whose
    # strongest edge is at most s, and reads beside the tail only their rows
    # and their neighbours'
    g = random_graph(3000, 15000, seed=2)
    front = msel.peel._FRONT
    for s, drops in ((0.04, 0), (0.5, 20)):
        (sol, profile), rows = _spied_rows(monkeypatch, lambda: modified_sgsel(g, ConstraintPair(s=s, p=2)))
        order = profile.run.trace.order
        tail = sorted(order[-front:])
        dropped = np.flatnonzero(g.strength()[1] <= s).tolist()
        assert len(dropped) == drops and len(order) == g.n - drops and sol
        assert rows[-front:] == tail
        near = {t for u in dropped for t in g.row(u)[0]}.difference(dropped)
        assert rows[:drops] == dropped and set(rows[drops:-front]) == near
    assert len(near) < len(order) // 10


def test_floored_peels_read_only_rows_that_can_reach_the_floor(monkeypatch):
    # the 40-node community (alpha 16.6) outweighs every outside node's
    # degree bound: a floored peel around it reads no row, whether the
    # outside nodes are fewer than half the graph (20 of 60) or most of it
    c = ConstraintPair(s=0.15, p=2)
    for g in (planted_community_graph(60, 800, seed=1, community=40),
              planted_community_graph(3000, 9000, seed=1, community=40)):
        grp = dcsel._Group(g, range(40))
        within = np.flatnonzero(~grp.mask)
        (sol, profile), rows = _spied_rows(monkeypatch, lambda: modified_sgsel(g, c, within=within, anchor=grp,
                                                                             floor=grp.alpha))
        assert not sol and not profile.runs() and rows == []
    # merged with a denser 60-node community: the cored peel finds it and
    # reads only the rows of outside nodes whose degree reaches the floor
    extra = planted_community_graph(200, 2000, seed=2, community=60)
    merged = disjoint_union(g, extra, [(0, 0, 0.9)])
    grp.extend_graph(merged, [(0, 0, 0.9)])
    within = np.flatnonzero(~grp.mask)
    (sol, profile), rows = _spied_rows(monkeypatch, lambda: modified_sgsel(merged, c, within=within,
                                                                         anchor=grp, floor=grp.alpha))
    assert profile.outside.best(c.p) == set(range(3000, 3060)) and profile.run.skipped > 0
    tau = grp.alpha * (1 - 1e-9 * (len(grp.members) + 1))
    heavy = set(within[merged.strength()[0][within] >= tau].tolist())
    assert rows and set(rows) <= heavy and len(heavy) < len(within) // 10
