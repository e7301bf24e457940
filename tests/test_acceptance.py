"""Release gate: every shipped guarantee, checked end to end at its stated
tolerance. Each test prints one [acceptance] PASS/FAIL line so the gate can
be read off a plain pytest run.
"""

import csv
import math
import os
import random
import shutil
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from msel import (
    ConstraintPair,
    SimGraph,
    avg_similarity,
    dataset_stats,
    exact_msp,
    incident_weight,
    init_session,
    load_content_cites,
    modified_sgsel,
    random_graph,
    planted_community_graph,
    ratio_check,
    read_msg1,
    run_schedule,
    sgsel,
    to_sim_graph,
    total_weight,
    write_msg1,
    apply_size_delta,
    augment_graph,
    ScheduleEvent,
)
from msel.peel import _setup

from helpers import assert_close, gnp_graph

DATA = Path(__file__).parent / "data"
RATIO_TOL = 1.0 / 3.0 - 1e-9


@contextmanager
def criterion(capsys, label):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"\n[acceptance] {label}: FAIL")
        raise
    with capsys.disabled():
        print(f"\n[acceptance] {label}: PASS")


def _net_zero_schedule(rng, p, s):
    """Up to five delta events that end on the starting constraint pair."""
    k = rng.choice([1, 2, 3])
    d = rng.choice([0.05, 0.1, 0.2])
    patterns = [
        [("p", k), ("p", -k)],
        [("s", d), ("s", -d)],
        [("p", k), ("s", d), ("s", -d), ("p", -k)],
        [("s", d), ("p", k), ("p", -k), ("s", -d)],
    ]
    events = []
    for kind, v in rng.choice(patterns):
        if kind == "p":
            events.append(ScheduleEvent("size_delta", v))
        else:
            events.append(ScheduleEvent("similarity_delta", v))
    return events


def test_ratio_bound_on_random_instances(capsys):
    with criterion(capsys, "1 one-third ratio on 200 feasible instances"):
        t0 = time.perf_counter()
        rng = random.Random(1001)
        checked = 0
        attempts = 0
        while checked < 200:
            attempts += 1
            assert attempts < 2000, "instance generator starved"
            g = gnp_graph(rng, rng.randint(4, 12))
            c = ConstraintPair(s=rng.uniform(0.1, 0.5), p=rng.randint(1, 4))
            res = exact_msp(g, c)
            if not res.feasible:
                continue
            # one-shot global peel
            best, _ = modified_sgsel(g, c)
            assert best.members, (g.n, c)
            assert ratio_check(g, c, best) >= RATIO_TOL
            # reference-ball peel
            local = sgsel(g, c)
            assert ratio_check(g, c, local) >= RATIO_TOL
            # incremental engine after a short random schedule
            sess = init_session(g, c)
            run_schedule(sess, _net_zero_schedule(rng, c.p, c.s))
            res_final = exact_msp(g, sess.constraints)
            assert sess.history[-1].feasible == res_final.feasible
            if res_final.feasible:
                assert sess.current.alpha >= res_final.opt_alpha * RATIO_TOL
            checked += 1
        assert time.perf_counter() - t0 < 60.0


def test_greedy_add_identity(capsys):
    with criterion(capsys, "2 greedy-add identity on 1000 cases plus boundary"):
        rng = random.Random(1002)
        done = 0
        while done < 1000:
            g = gnp_graph(rng, rng.randint(5, 10))
            nodes = list(range(g.n))
            rng.shuffle(nodes)
            F = set(nodes[: rng.randint(2, min(6, g.n - 1))])
            alpha = avg_similarity(F, g)
            cands = [
                u for u in nodes
                if u not in F and incident_weight(u, F, g) > alpha + 1e-9
            ]
            if not cands:
                continue
            u = rng.choice(cands)
            W = total_weight(F, g)
            inc = incident_weight(u, F, g)
            grown = avg_similarity(F | {u}, g)
            assert grown > alpha
            assert_close(grown, (W + inc) / (len(F) + 1), rel=1e-9)
            done += 1

        # boundary: an outside node pulling exactly the current average
        for _ in range(200):
            k = rng.randint(2, 5)
            c_w = rng.uniform(0.05, min(1.0, 2.0 / (k - 1)))
            edges = [(u, v, c_w) for u in range(k) for v in range(u + 1, k)]
            W = c_w * k * (k - 1) / 2
            w_u = W / k
            assert 0.0 < w_u <= 1.0
            g2 = SimGraph(k + 1, edges + [(0, k, w_u)])
            F = set(range(k))
            alpha = avg_similarity(F, g2)
            assert incident_weight(k, F, g2) == pytest.approx(alpha, rel=1e-12)
            assert_close(avg_similarity(F | {k}, g2), alpha, rel=1e-9)


def test_disjoint_merge_property(capsys):
    with criterion(capsys, "3 disjoint merge beats the weaker side, 1000 pairs"):
        rng = random.Random(1003)
        done = 0
        while done < 1000:
            g = gnp_graph(rng, rng.randint(6, 12))
            nodes = list(range(g.n))
            rng.shuffle(nodes)
            ka = rng.randint(2, 4)
            kb = rng.randint(2, min(5, g.n - ka))
            A = frozenset(nodes[:ka])
            B = frozenset(nodes[ka:ka + kb])
            aa, ab = avg_similarity(A, g), avg_similarity(B, g)
            if aa > ab:
                A, B, aa, ab = B, A, ab, aa
            if ab - aa <= 1e-9:
                continue
            assert avg_similarity(A | B, g) > aa
            done += 1


def test_incremental_engine_efficiency(capsys):
    with criterion(capsys, "4 session beats from-scratch reruns at matched quality"):
        t0 = time.perf_counter()
        sess_total = 0
        rerun_total = 0
        matched = 0
        steps = 0
        for trial in range(20):
            g = planted_community_graph(2500, 5000, seed=trial, community=80)
            c = ConstraintPair(s=0.2, p=5)
            sess = init_session(g, c)
            for _ in range(10):
                apply_size_delta(sess, 7)
            sess_total += sum(r.wall_ns for r in sess.history)

            p = c.p
            t = time.perf_counter_ns()
            base, _ = modified_sgsel(g, c)
            rerun_total += time.perf_counter_ns() - t
            for i in range(10):
                p += 7
                cc = ConstraintPair(s=c.s, p=p)
                t = time.perf_counter_ns()
                redo, _ = modified_sgsel(g, cc)
                rerun_total += time.perf_counter_ns() - t
                steps += 1
                if sess.history[i + 1].alpha >= 0.95 * redo.alpha:
                    matched += 1
        assert sess_total <= 0.5 * rerun_total, (sess_total, rerun_total)
        assert matched >= 0.9 * steps, (matched, steps)
        assert time.perf_counter() - t0 < 300.0


@pytest.fixture(scope="module")
def big_graph():
    return random_graph(100_000, 1_000_000, seed=42)


def _fresh_removals(g, s):
    """Removals of a fresh ``modified_sgsel``: it peels every node its
    similarity prefilter keeps, so counting the survivors is enough."""
    alive = np.ones(g.n, dtype=np.uint8)
    _setup(g, s, alive)
    return int(np.count_nonzero(alive))


def test_event_cost_at_scale(capsys, big_graph):
    with criterion(capsys, "4b no event peels more than a fresh solve at 100k nodes"):
        sess = init_session(big_graph, ConstraintPair(s=0.1, p=10))
        extra = SimGraph(3, [(0, 1, 0.9), (0, 2, 0.9), (1, 2, 0.9)])
        events = [
            ScheduleEvent("size_delta", 5),
            ScheduleEvent("size_delta", -3),
            ScheduleEvent("similarity_delta", 0.1),
            ScheduleEvent("similarity_delta", -0.1),
            None,  # a 3-node graph bridged to three incumbent members
            ScheduleEvent("similarity_set", 0.85),
            ScheduleEvent("size_set", 99_000),
        ]
        fresh = {}
        for ev in events:
            before = sess.event_removals
            if ev is None:
                ends = sorted(sess.current.members)[:3]
                augment_graph(sess, extra, [(u, i, 0.5) for i, u in enumerate(ends)])
            else:
                run_schedule(sess, [ev])
            cost = sess.event_removals - before
            key = (sess.graph, sess.constraints.s)
            if key not in fresh:
                fresh[key] = _fresh_removals(*key)
            assert cost <= fresh[key], (sess.history[-1].event, cost, fresh[key])


def test_peel_mechanics_and_scale(capsys, big_graph):
    with criterion(capsys, "5 peel bookkeeping exact and fast at scale"):
        rng = random.Random(1005)
        for _ in range(100):
            n = rng.randint(5, 200)
            max_m = n * (n - 1) // 2
            g = random_graph(n, rng.randint(min(n, max_m), min(3 * n, max_m)), seed=rng.randint(0, 10**6))
            adj = [list(g.neighbors(u)) for u in range(n)]
            alive = set(range(n))
            inc = [sum(w for _, w in adj[u]) for u in range(n)]
            W = sum(inc) / 2.0
            checkpoints = set(rng.sample(range(n), min(8, n)))
            for step in range(n):
                v = min(alive, key=lambda u: (inc[u], u))
                # telescoped removal
                W -= inc[v]
                alive.discard(v)
                for t, w in adj[v]:
                    if t in alive:
                        inc[t] -= w
                if step in checkpoints and alive:
                    fresh_inc = {
                        u: sum(w for t, w in adj[u] if t in alive) for u in alive
                    }
                    fresh_W = sum(fresh_inc.values()) / 2.0
                    for u in alive:
                        assert math.isclose(inc[u], fresh_inc[u], rel_tol=1e-9, abs_tol=1e-9)
                    assert math.isclose(W, fresh_W, rel_tol=1e-9, abs_tol=1e-9)
            assert math.isclose(W, 0.0, abs_tol=1e-9)

        t0 = time.perf_counter()
        sol, prof = modified_sgsel(big_graph, ConstraintPair(s=0.05, p=10))
        elapsed = time.perf_counter() - t0
        assert elapsed < 10.0, f"large peel took {elapsed:.2f}s"
        assert sol.members
        assert len(prof) > 0


def test_size_decrease_monotonicity(capsys):
    with criterion(capsys, "6 size decreases never hurt the objective"):
        rng = random.Random(1006)
        done = 0
        while done < 100:
            g = gnp_graph(rng, rng.randint(5, 14))
            p0 = rng.randint(1, 4)
            c = ConstraintPair(s=rng.uniform(0.05, 0.4), p=p0)
            sess = init_session(g, c)
            if not sess.history[-1].feasible:
                continue
            before = sess.current.alpha
            dp = rng.randint(1, p0)
            apply_size_delta(sess, -dp)
            rec = sess.history[-1]
            assert sess.current.alpha >= before
            assert rec.feasible
            assert sess.current.size > p0 - dp
            done += 1


def _find_dataset(root: Path, name: str):
    for candidate in (root / name / f"{name}.content", root / f"{name}.content"):
        cites = candidate.with_suffix(".cites")
        if candidate.exists() and cites.exists():
            return candidate, cites
    return None


def test_dataset_fidelity(capsys):
    """Checks published corpus shapes when the files are present; otherwise
    falls back to the frozen toy golden file round trip."""
    expected = {
        "cora": (2485, 5069, {1433}),
        "citeseer": (2110, 3668, {3703, 53703}),
        "pubmed": (19717, 44324, {500}),
    }
    root = Path(os.environ.get("MSEL_DATA_DIR", "data"))
    found = {name: _find_dataset(root, name) for name in expected}
    if all(found.values()):
        with criterion(capsys, "7 dataset shapes match the published counts"):
            for name, (n, m, dims) in expected.items():
                content, cites = found[name]
                ds = load_content_cites(content, cites)
                got_n, got_m, got_d = dataset_stats(ds)
                assert (got_n, got_m) == (n, m), name
                assert got_d in dims, name
        return
    with criterion(capsys, "7 golden round trip (corpus files not present)"):
        raw = load_content_cites(DATA / "toy.content", DATA / "toy.cites")
        assert dataset_stats(raw) == (6, 5, 4)
        g = to_sim_graph(raw)
        out = Path(os.environ.get("TMPDIR", "/tmp")) / "msel_accept7.msg1"
        write_msg1(g, out)
        assert out.read_bytes() == (DATA / "golden.msg1").read_bytes()
        h = read_msg1(out)
        assert (h.n, h.m) == (g.n, g.m)
        for u, v, w in g.edges():
            assert h.weight(u, v) == w
        out.unlink()


def _strip_wall(path: Path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    idx = rows[0].index("wall_ns")
    return [[c for i, c in enumerate(r) if i != idx] for r in rows]


def test_cli_determinism(capsys, tmp_path, two_cluster):
    with criterion(capsys, "8 identical runs produce identical CSV"):
        gpath = tmp_path / "g.msg1"
        write_msg1(two_cluster, gpath)
        extra = SimGraph(3, [(0, 1, 0.8), (0, 2, 0.8), (1, 2, 0.8)])
        epath = tmp_path / "extra.msg1"
        write_msg1(extra, epath)
        (tmp_path / "br.txt").write_text("0 0 0.75\n3 1 0.75\n", encoding="utf-8")
        sched = tmp_path / "mixed.sched"
        sched.write_text(
            "init p=2 s=0.05\n"
            "p += 3\n"
            "s += 0.1\n"
            "augment extra.msg1 bridges br.txt\n"
            "p -= 1\n"
            "s -= 0.05\n",
            encoding="utf-8",
        )
        exe = shutil.which("msel")
        base = [exe] if exe else [sys.executable, "-m", "msel.cli"]
        outs = []
        for k in range(2):
            out = tmp_path / f"det{k}.csv"
            cmd = base + [
                "run",
                "--graph", str(gpath),
                "--schedule", str(sched),
                "--algo", "dcsel",
                "--seed", "7",
                "--out", str(out),
            ]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
            outs.append(out)
        a, b = _strip_wall(outs[0]), _strip_wall(outs[1])
        assert a == b
        assert len(a) == 7  # header + init + five events
