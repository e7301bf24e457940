"""Tests of the benchmark's own parts: generators, checker, metric names.

    python3 -m pytest bench -q
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import check  # noqa: E402
import clock  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
from msel import SimGraph, planted_community_graph, random_graph  # noqa: E402
from msel.similarity import AttributeMatrix, build_similarity_graph, pair_weight  # noqa: E402


def test_generators_draw_the_package_graphs():
    assert sorted(gen.random_edges(300, 2_000, 7)) == list(random_graph(300, 2_000, 7).edges())
    ours = sorted(gen.planted_edges(400, 1_500, 3, community=20))
    assert ours == list(planted_community_graph(400, 1_500, 3, community=20).edges())


def test_inputs_depend_only_on_the_seed(tmp_path):
    gen.convert_inputs(5, tmp_path / "a")
    gen.convert_inputs(5, tmp_path / "b")
    gen.convert_inputs(6, tmp_path / "c")
    for name in (gen.CONTENT, gen.CITES):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    assert (tmp_path / "c" / gen.CITES).read_bytes() != (tmp_path / "a" / gen.CITES).read_bytes()
    truth = gen.read_truth(tmp_path / "a")
    assert truth.dropped > 0 and truth.features.shape == (gen.CONVERT_N, gen.CONVERT_DIM)


def test_set_events_take_the_written_value():
    steps = check.derive_steps("init p=1 s=0.85\ns = 0.1\np += 4\ns -= 0.05\np = 2\naugment x.msg1\n")
    assert [s.kind for s in steps] == ["init", "s_set", "p_up", "s_down", "p_set", "augment"]
    assert steps[1].s == 0.1  # 0.85 + (0.1 - 0.85) would be 0.09999999999999998
    assert [s.p for s in steps] == [1, 1, 5, 5, 2, 2]
    assert [s.version for s in steps] == [0, 0, 0, 0, 0, 1]


# A strong triangle 0-1-2, a weak pair 3-4, and a 0.2 edge from 2 to 3.
EDGES = [(0, 1, 0.9), (0, 2, 0.8), (1, 2, 0.7), (3, 4, 0.1), (2, 3, 0.2)]
ARR = check.EdgeArrays.from_edges(5, EDGES)
STEP = check.Step("p = 2", "p_set", 2, 0.5, 0)
TRIANGLE = np.array([0, 1, 2])
GOOD = check.Reference(True, 0.8)


def failed(members, alpha, size, feasible, step=STEP, ref=GOOD):
    return check.check_step(ARR, step, np.array(members, dtype=np.int64), alpha, size, feasible, ref)


def test_a_correct_step_passes():
    assert failed(TRIANGLE, 2.4 / 3, 3, True) == []
    # nothing feasible exists and nothing is held: also correct
    assert failed([], 0.0, 0, False, ref=check.Reference(False, 0.0)) == []


@pytest.mark.parametrize("members, alpha, size, feasible, severity, words", [
    ([0, 1, 2, 3], 2.6 / 4, 4, True, check.INVALID, "feasible flag"),     # 3 lacks an edge > s
    ([0, 1, 2], 0.81, 3, True, check.INVALID, "fsum"),                    # wrong alpha
    ([0, 1, 2], 2.4 / 3, 2, True, check.INVALID, "reported size"),
    ([0, 1], 0.45, 2, True, check.INVALID, "|F|=2 <= p=2"),               # too small
    ([], 0.0, 0, False, check.INVALID, "fresh solve finds one"),          # holds none
])
def test_a_bad_step_is_flagged(members, alpha, size, feasible, severity, words):
    found = failed(members, alpha, size, feasible)
    assert any(sev == severity and words in msg for sev, msg in found), found


def test_a_step_far_below_the_fresh_solve_is_a_quality_failure():
    found = failed(TRIANGLE, 2.4 / 3, 3, True, ref=check.Reference(True, 2.5))
    assert found == [(check.QUALITY, found[0][1])]
    assert "a third" in found[0][1]


def test_a_converted_graph_with_a_wrong_weight_or_edge_is_flagged():
    rng = np.random.default_rng(0)
    values = (rng.random((6, 8)) < 0.5).astype(float)
    pairs = {(0, 1), (1, 2), (3, 5)}
    lines = [(u, v, pair_weight(values[u], values[v])) for u, v in sorted(pairs)]
    assert check.check_converted("edges", None, 6, lines, values, pairs, pair_weight, [0, 1, 2]) == []
    wrong = lines[:2] + [(3, 5, lines[2][2] * 0.5)]
    found = check.check_converted("edges", None, 6, wrong, values, pairs, pair_weight, [2])
    assert any("sampled weights" in msg for _, msg in found)
    found = check.check_converted("edges", None, 6, lines[:2], values, pairs, pair_weight, [])
    assert any("differ from the citation pairs" in msg for _, msg in found)


def test_a_knn_graph_with_a_wrong_neighbour_is_flagged():
    values = np.random.default_rng(1).random((40, 16))   # real-valued: no ties
    g = build_similarity_graph(AttributeMatrix(values, tuple(range(40))), "knn", k=3)
    lines = list(g.edges())
    nodes = list(range(40))
    assert check.check_converted("knn", 3, 40, lines, values, set(), pair_weight, [], nodes) == []
    # Swap node 0's most similar row for its least similar one: degrees and
    # weights stay right, only the selection is wrong.
    w = np.array([pair_weight(values[0], values[v]) for v in range(40)])
    w[0] = np.nan
    best, worst = int(np.nanargmax(w)), int(np.nanargmin(w))
    assert all((0, worst) != (u, v) for u, v, _ in lines)
    wrong = [(0, worst, w[worst]) if (u, v) == (0, best) else (u, v, x) for u, v, x in lines]
    found = check.check_converted("knn", 3, 40, sorted(wrong), values, set(), pair_weight, [], nodes)
    assert any("most similar rows" in msg for _, msg in found), found


def test_msg1_written_by_the_generator_reads_back(tmp_path):
    edges = gen.random_edges(50, 200, 1)
    gen.write_msg1(tmp_path / "g.msg1", 50, edges)
    n, lines = check.parse_msg1_edges(tmp_path / "g.msg1")
    assert n == 50 and lines == sorted(edges)
    assert list(SimGraph(50, edges).edges()) == lines


def test_benchmark_json_names_what_run_reports():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == list(run.PER_LAYER)
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert m["unit"] == run.unit_of(m["name"]), m


def test_the_clock_scales_walls_to_the_reference_speed(monkeypatch):
    # The machine runs at half the reference speed for the first step and at
    # the reference speed for the second, which follows right after it.
    ticks = iter([0.0, 0.0, 0.3, 0.3, 0.3001, 0.3001, 0.4001, 0.4001])
    kernels = iter([2 * clock.REF_S, 2 * clock.REF_S, clock.REF_S])
    monkeypatch.setattr(clock, "now", lambda: next(ticks))
    monkeypatch.setattr(clock, "kernel_s", lambda: next(kernels))
    c = clock.Clock()
    assert c.stop(c.start()) == pytest.approx(0.15)
    assert c.stop(c.start()) == pytest.approx(0.1 / 1.5)
    assert c.kernels == [2 * clock.REF_S, 2 * clock.REF_S, clock.REF_S]
