import csv
import os
import subprocess
import sys
from pathlib import Path

import pytest

import msel
from msel import write_msg1
from msel.cli import ALGORITHMS, BENCH_HEADER, RUN_HEADER, main, replay
from msel.dcsel import parse_schedule
from msel.synth import planted_community_graph, random_graph

DATA = Path(__file__).parent / "data"


@pytest.fixture
def cluster_graph(tmp_path, two_cluster):
    path = tmp_path / "cluster.msg1"
    write_msg1(two_cluster, path)
    return path


@pytest.fixture
def delta_schedule(tmp_path):
    path = tmp_path / "deltas.sched"
    path.write_text(
        "init p=2 s=0.05\np += 3\np -= 3\ns += 0.05\n",
        encoding="utf-8",
    )
    return path


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def test_convert_reports_dataset_shape(tmp_path, capsys):
    out = tmp_path / "toy.msg1"
    rc = main([
        "convert",
        "--content", str(DATA / "toy.content"),
        "--cites", str(DATA / "toy.cites"),
        "--out", str(out),
    ])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "nodes=6 edges=5 features=4"
    assert lines[1] == "dropped_citations=1"
    assert lines[2].startswith("wrote") and "(n=6 m=4)" in lines[2]
    assert out.read_bytes() == (DATA / "golden.msg1").read_bytes()


def _convert_toy(tmp_path, mode, content="toy.content"):
    out = tmp_path / "toy.msg1"
    rc = main([
        "convert",
        "--content", str(DATA / content),
        "--cites", str(DATA / "toy.cites"),
        "--mode", mode,
        "--out", str(out),
    ])
    assert rc == 0
    return out.read_bytes()


def test_convert_knn_mode(tmp_path, capsys):
    """The knn graph of the toy data is the bytes written when the golden
    file was made."""
    assert _convert_toy(tmp_path, "knn:2") == (DATA / "golden_knn2.msg1").read_bytes()


def test_convert_full_mode(tmp_path, capsys):
    assert _convert_toy(tmp_path, "full") == (DATA / "golden_full.msg1").read_bytes()


@pytest.mark.parametrize("mode, golden", [("edges", "golden_real.msg1"), ("knn:2", "golden_real_knn2.msg1")])
def test_convert_real_valued_content(tmp_path, capsys, mode, golden):
    """Real-valued features, one column constant, go through min-max
    scaling; the graphs are the bytes written when the golden files were
    made."""
    assert _convert_toy(tmp_path, mode, "toy_real.content") == (DATA / golden).read_bytes()


@pytest.mark.parametrize("mode", ["edges", "knn:2", "full"])
def test_convert_empty_cites_file(tmp_path, capsys, mode):
    cites = tmp_path / "empty.cites"
    cites.write_text("", encoding="utf-8")
    out = tmp_path / "toy.msg1"
    rc = main([
        "convert",
        "--content", str(DATA / "toy.content"),
        "--cites", str(cites),
        "--mode", mode,
        "--out", str(out),
    ])
    assert rc == 0
    assert "edges=0" in capsys.readouterr().out
    assert out.read_text(encoding="utf-8").startswith("MSG1\n6 ")


def test_convert_bad_mode_is_input_error(tmp_path, capsys):
    rc = main([
        "convert",
        "--content", str(DATA / "toy.content"),
        "--cites", str(DATA / "toy.cites"),
        "--mode", "cosine",
        "--out", str(tmp_path / "x.msg1"),
    ])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_run_writes_per_step_rows(tmp_path, capsys, cluster_graph, delta_schedule):
    out = tmp_path / "run.csv"
    rc = main([
        "run",
        "--graph", str(cluster_graph),
        "--schedule", str(delta_schedule),
        "--algo", "dcsel",
        "--out", str(out),
    ])
    assert rc == 0
    rows = read_csv(out)
    assert rows[0] == RUN_HEADER
    body = rows[1:]
    assert [r[0] for r in body] == ["0", "1", "2", "3"]
    assert [r[1] for r in body] == ["init", "p+=3", "p-=3", "s+=0.05"]
    assert all(r[2] == "dcsel" for r in body)
    assert [r[3] for r in body] == ["0.900000", "0.712500", "0.900000", "0.900000"]
    assert [r[4] for r in body] == ["3", "8", "3", "3"]
    assert all(r[5] == "true" for r in body)
    assert all(int(r[6]) > 0 for r in body)


def test_run_every_algorithm_smoke(tmp_path, cluster_graph, delta_schedule, capsys):
    for algo in ALGORITHMS:
        out = tmp_path / f"{algo}.csv"
        rc = main([
            "run",
            "--graph", str(cluster_graph),
            "--schedule", str(delta_schedule),
            "--algo", algo,
            "--out", str(out),
        ])
        assert rc == 0
        assert len(read_csv(out)) == 5


def _golden_replay_lines(tmp_path):
    """One tab-separated line per (algorithm, step) of a fixed schedule:
    algo, step, event, repr(alpha), size, feasible. The schedule holds p and
    s deltas, p and s sets and one bridged augment; the graph is small
    enough that all six replays take about a second."""
    g = planted_community_graph(100, 450, seed=5, community=10)
    write_msg1(random_graph(30, 120, seed=9), tmp_path / "extra.msg1")
    (tmp_path / "extra.bridges").write_text(
        "0 0 0.95\n3 1 0.9\n5 2 0.85\n90 7 0.6\n", encoding="utf-8")
    sched = tmp_path / "golden.sched"
    sched.write_text(
        "init p=4 s=0.1\np += 9\np -= 6\ns += 0.3\ns -= 0.25\np = 25\ns = 0.2\n"
        "augment extra.msg1 bridges extra.bridges\np -= 20\ns += 0.5\np = 3\ns -= 0.45\n",
        encoding="utf-8",
    )
    init_c, events = parse_schedule(sched)
    return [
        f"{algo}\t{r.step}\t{r.event}\t{r.alpha!r}\t{r.size}\t{r.feasible}"
        for algo in ALGORITHMS
        for r in replay(algo, g, init_c, events, seed=3)
    ]


def test_replay_matches_golden_for_every_algorithm(tmp_path):
    # data/replay.golden holds the lines _golden_replay_lines returned when
    # it was written; every alpha must keep its bits
    want = (DATA / "replay.golden").read_text(encoding="utf-8").splitlines()
    assert _golden_replay_lines(tmp_path) == want


def test_run_unknown_algo(tmp_path, cluster_graph, delta_schedule, capsys):
    rc = main([
        "run",
        "--graph", str(cluster_graph),
        "--schedule", str(delta_schedule),
        "--algo", "solver9000",
        "--out", str(tmp_path / "x.csv"),
    ])
    assert rc == 2


def test_run_missing_graph_is_input_error(tmp_path, delta_schedule, capsys):
    rc = main([
        "run",
        "--graph", str(tmp_path / "absent.msg1"),
        "--schedule", str(delta_schedule),
        "--out", str(tmp_path / "x.csv"),
    ])
    assert rc == 2


@pytest.mark.parametrize("bad", ["content", "graph", "schedule", "bridges", "csv"])
def test_undecodable_file_is_input_error(tmp_path, capsys, cluster_graph, delta_schedule, bad):
    # a file that is not UTF-8 is bad input wherever it is read, a bridges
    # file read by an augment step included
    path = tmp_path / f"bad.{bad}"
    path.write_bytes(b"0 1 0.5\xff\n")
    sched = tmp_path / "augment.sched"
    sched.write_text(f"init p=2 s=0.05\naugment {cluster_graph.name} bridges {path.name}\n", encoding="utf-8")
    out = str(tmp_path / "out")
    argv = {
        "content": ["convert", "--content", str(path), "--cites", str(DATA / "toy.cites"), "--out", out],
        "graph": ["run", "--graph", str(path), "--schedule", str(delta_schedule), "--out", out],
        "schedule": ["run", "--graph", str(cluster_graph), "--schedule", str(path), "--out", out],
        "bridges": ["run", "--graph", str(cluster_graph), "--schedule", str(sched), "--out", out],
        "csv": ["plot", "--in", str(path), "--out", out],
    }[bad]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(path) in err
    assert "can't decode byte 0xff" in err


def test_run_non_finite_schedule_value_is_input_error(tmp_path, capsys, cluster_graph):
    sched = tmp_path / "nan.sched"
    sched.write_text("init p=2 s=0.05\ns += nan\n", encoding="utf-8")
    argv = ["run", "--graph", str(cluster_graph), "--schedule", str(sched), "--out", str(tmp_path / "x.csv")]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {sched}:2: bad number 'nan'\n"
    assert not (tmp_path / "x.csv").exists()


def test_run_out_of_range_set_event_is_input_error(tmp_path, capsys, cluster_graph):
    sched = tmp_path / "range.sched"
    sched.write_text("init p=2 s=0.05\np += 1\ns = 1.5\n", encoding="utf-8")
    argv = ["run", "--graph", str(cluster_graph), "--schedule", str(sched), "--out", str(tmp_path / "x.csv")]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {sched}:3: similarity threshold s=1.5 outside (0,1)\n"
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("n", ["100000000000000000000", "10000000000000"])
def test_run_oversized_header_is_input_error(tmp_path, capsys, delta_schedule, n):
    # any other exception would escape main and end the process with a traceback
    graph = tmp_path / "big.msg1"
    graph.write_text(f"MSG1\n{n} 0\n", encoding="utf-8")
    argv = ["run", "--graph", str(graph), "--schedule", str(delta_schedule), "--out", str(tmp_path / "x.csv")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err == f"error: {graph}:2: node count {n} exceeds the 2147483648 node limit\n"


def test_run_failing_schedule_is_schedule_error(tmp_path, cluster_graph, capsys):
    sched = tmp_path / "bad.sched"
    sched.write_text("init p=2 s=0.05\np -= 100\n", encoding="utf-8")
    rc = main([
        "run",
        "--graph", str(cluster_graph),
        "--schedule", str(sched),
        "--out", str(tmp_path / "x.csv"),
    ])
    assert rc == 3
    assert "step 1" in capsys.readouterr().err


def test_bench_aggregates_repeats(tmp_path, capsys, cluster_graph, delta_schedule):
    out = tmp_path / "bench.csv"
    rc = main([
        "bench",
        "--graph", str(cluster_graph),
        "--schedule", str(delta_schedule),
        "--algos", "sgsel,dcsel",
        "--repeat", "3",
        "--out", str(out),
    ])
    assert rc == 0
    rows = read_csv(out)
    assert rows[0] == BENCH_HEADER
    body = rows[1:]
    assert len(body) == 8  # 2 algorithms x 4 steps
    # sorted by algorithm, steps in order within each
    assert [r[2] for r in body] == ["dcsel"] * 4 + ["sgsel"] * 4
    assert [r[0] for r in body[:4]] == ["0", "1", "2", "3"]
    for r in body:
        assert int(r[6]) <= int(float(r[7])) or int(r[6]) <= round(float(r[7])) + 1
        assert int(r[6]) > 0


def test_bench_rejects_bad_arguments(tmp_path, cluster_graph, delta_schedule, capsys):
    common = [
        "bench",
        "--graph", str(cluster_graph),
        "--schedule", str(delta_schedule),
        "--out", str(tmp_path / "x.csv"),
    ]
    assert main(common + ["--algos", "dcsel", "--repeat", "0"]) == 2
    assert main(common + ["--algos", "warp", "--repeat", "1"]) == 2
    assert main(common + ["--algos", " , ", "--repeat", "1"]) == 2


def test_oracle_reports_ratio(tmp_path, capsys, triangle):
    gpath = tmp_path / "tri.msg1"
    write_msg1(triangle, gpath)
    rc = main(["oracle", "--graph", str(gpath), "--p", "1", "--s", "0.45"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "OPT = 0 1 2"
    assert lines[1] == "alpha(OPT) = 0.600000"
    assert lines[2] == "alpha(dcsel) = 0.600000"
    assert lines[3] == "ratio = 1.000000"


def test_oracle_searches_once(tmp_path, capsys, triangle, monkeypatch):
    # the ratio comes from the search already printed, not from a second one
    import msel.cli
    import msel.oracle

    search, calls = msel.oracle.exact_msp, []

    def counted(g, c):
        calls.append(c)
        return search(g, c)

    monkeypatch.setattr(msel.oracle, "exact_msp", counted)
    monkeypatch.setattr(msel.cli, "exact_msp", counted)
    gpath = tmp_path / "tri.msg1"
    write_msg1(triangle, gpath)
    assert main(["oracle", "--graph", str(gpath), "--p", "1", "--s", "0.45"]) == 0
    assert capsys.readouterr().out.splitlines()[3] == "ratio = 1.000000"
    assert len(calls) == 1


def test_oracle_at_the_node_cap_matches_golden_output(capsys):
    # data/oracle20.out holds what `msel oracle` printed for this 20-node
    # graph when it was written; CI compares the console script's output too
    rc = main(["oracle", "--graph", str(DATA / "oracle20.msg1"), "--p", "3", "--s", "0.3"])
    assert rc == 0
    assert capsys.readouterr().out == (DATA / "oracle20.out").read_text(encoding="utf-8")


def test_oracle_infeasible_prints_and_succeeds(tmp_path, capsys, triangle):
    gpath = tmp_path / "tri.msg1"
    write_msg1(triangle, gpath)
    rc = main(["oracle", "--graph", str(gpath), "--p", "1", "--s", "0.95"])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "INFEASIBLE"


def test_oracle_too_large_graph(tmp_path, capsys):
    from msel import SimGraph

    gpath = tmp_path / "big.msg1"
    write_msg1(SimGraph(30, [(0, 1, 0.5)]), gpath)
    rc = main(["oracle", "--graph", str(gpath), "--p", "1", "--s", "0.1"])
    assert rc == 2


def test_plot_renders_run_output(tmp_path, capsys, cluster_graph, delta_schedule):
    run_csv = tmp_path / "run.csv"
    main([
        "run",
        "--graph", str(cluster_graph),
        "--schedule", str(delta_schedule),
        "--out", str(run_csv),
    ])
    out = tmp_path / "run.svg"
    rc = main(["plot", "--in", str(run_csv), "--out", str(out)])
    assert rc == 0
    svg = out.read_text(encoding="utf-8")
    assert svg.startswith("<svg")
    assert "dcsel" in svg


def test_plot_rejects_wrong_csv(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b\n1,2\n", encoding="utf-8")
    rc = main(["plot", "--in", str(bad), "--out", str(tmp_path / "x.svg")])
    assert rc == 2


def test_plot_rejects_malformed_rows(tmp_path, capsys):
    header = "step,event,algo,alpha,size,feasible,wall_ns\n"
    good = "0,init,dcsel,0.900000,3,true,10\n"
    cases = {
        "alpha.csv": good + "1,p+=1,dcsel,oops,3,true,10\n",
        "step.csv": good + "x,p+=1,dcsel,0.9,3,true,10\n",
        "short.csv": good + "1,p+=1\n",
        "alpha_nan.csv": good + "1,p+=1,dcsel,nan,3,true,10\n",
        "alpha_inf.csv": good + "1,p+=1,dcsel,inf,3,true,10\n",
        "step_nan.csv": good + "nan,p+=1,dcsel,0.9,3,true,10\n",
        "step_inf.csv": good + "-inf,p+=1,dcsel,0.9,3,true,10\n",
    }
    for name, body in cases.items():
        path = tmp_path / name
        path.write_text(header + body, encoding="utf-8")
        rc = main(["plot", "--in", str(path), "--out", str(tmp_path / "x.svg")])
        assert rc == 2
        assert f"{path}:3:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["convert", "run", "bench", "plot"])
def test_unwritable_out_is_input_error(tmp_path, capsys, cluster_graph, delta_schedule, command):
    """An --out path in a missing directory is bad input: one error line
    naming it, exit 2, nothing written."""
    out = tmp_path / "missing" / "out.txt"
    inputs = {
        "convert": ["--content", str(DATA / "toy.content"), "--cites", str(DATA / "toy.cites")],
        "run": ["--graph", str(cluster_graph), "--schedule", str(delta_schedule)],
        "bench": ["--graph", str(cluster_graph), "--schedule", str(delta_schedule), "--algos", "dcsel"],
        "plot": ["--in", str(DATA / "toy_run.csv")],
    }[command]
    rc = main([command, *inputs, "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 2
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {out}:cannot write: "), err
    assert captured.out == ""
    assert not out.parent.exists()


def test_module_entry_point(tmp_path, cluster_graph, delta_schedule):
    out = tmp_path / "mod.csv"
    proc = subprocess.run(
        [
            sys.executable, "-m", "msel.cli",
            "run",
            "--graph", str(cluster_graph),
            "--schedule", str(delta_schedule),
            "--out", str(out),
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert out.exists()


def test_convert_and_augment_leave_numpy_ma_unimported(tmp_path):
    # a plain np.unique call imports numpy.ma (numpy 2.4), which costs a
    # small convert or augment more than its own work; a child process
    # starts with a clean module table
    (tmp_path / "toy.sched").write_text("init p=1 s=0.3\naugment toy.msg1 bridges b.txt\n", encoding="utf-8")
    (tmp_path / "b.txt").write_text("0 0 0.9\n1 3 0.7\n", encoding="utf-8")
    code = (
        "import sys, numpy\n"
        "print('numpy.ma' in sys.modules)\n"
        "from msel.cli import main\n"
        "main(['convert', '--content', sys.argv[1], '--cites', sys.argv[2], '--out', 'toy.msg1'])\n"
        "main(['run', '--graph', 'toy.msg1', '--schedule', 'toy.sched', '--out', 'toy.csv'])\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(msel.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", code, str(DATA / "toy.content"), str(DATA / "toy.cites")],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    if lines[0] == "True":
        pytest.skip("importing numpy loads numpy.ma")
    assert lines[-1] == "False"
    with open(tmp_path / "toy.csv", encoding="utf-8") as fh:
        steps = list(csv.reader(fh))
    assert [row[1] for row in steps[1:]] == ["init", "augment toy.msg1"]
