"""Command-line entry points: convert, run, bench, oracle, plot.

Exit codes: 0 success, 2 bad input (files, formats, parameters), 3 failure
while executing a schedule. `run` emits one CSV row per schedule step;
`bench` repeats whole runs and aggregates wall times per (algorithm, step).
The env var MSEL_THREADS caps bench parallelism: unset or 1 means serial
(keeps timings quiet), 0 means one worker per CPU.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from .baselines import average_peel, degree_peel, random_peel, sgsel
from .dataio import (
    dataset_stats,
    load_content_cites,
    parse_bridges,
    read_msg1,
    to_sim_graph,
    write_msg1,
)
from .dcsel import (
    ScheduleEvent,
    StepRecord,
    init_session,
    next_constraints,
    parse_schedule,
    run_schedule,
)
from .errors import (
    CapacityError,
    DataError,
    InvalidNodeError,
    MselError,
    ParameterError,
    ParseError,
    PreconditionError,
    ScheduleError,
)
from .graph import ConstraintPair, SimGraph, Solution, disjoint_union, is_feasible
from .oracle import exact_msp, ratio_check
from .peel import modified_sgsel
from .plotting import render_alpha_svg

ALGORITHMS = ("dcsel", "sgsel", "msgsel", "random", "degree", "average")

RUN_HEADER = ["step", "event", "algo", "alpha", "size", "feasible", "wall_ns"]
BENCH_HEADER = ["step", "event", "algo", "alpha", "size", "feasible", "wall_ns_min", "wall_ns_mean"]


def worker_count() -> int:
    raw = os.environ.get("MSEL_THREADS", "").strip()
    if not raw:
        return 1
    try:
        v = int(raw)
    except ValueError:
        raise ParameterError(f"MSEL_THREADS must be an integer, got {raw!r}") from None
    if v < 0:
        raise ParameterError("MSEL_THREADS must be >= 0")
    return v if v > 0 else (os.cpu_count() or 1)


def solve_once(algo: str, g: SimGraph, c: ConstraintPair, seed: int) -> Solution:
    """One from-scratch solve with the named algorithm."""
    if algo == "dcsel" or algo == "msgsel":
        return modified_sgsel(g, c)[0]
    if algo == "sgsel":
        return sgsel(g, c)
    if algo == "random":
        return random_peel(g, c, seed)
    if algo == "degree":
        return degree_peel(g, c)
    if algo == "average":
        return average_peel(g, c)
    raise ParameterError(f"unknown algorithm {algo!r}; choose from {', '.join(ALGORITHMS)}")


def replay(
    algo: str,
    g: SimGraph,
    init_c: ConstraintPair,
    events: list[ScheduleEvent],
    seed: int,
) -> list[StepRecord]:
    """Run one schedule under an algorithm and return one record per step.

    dcsel maintains a single incremental session across the events. Every
    other algorithm re-solves from scratch after each event, under whatever
    constraints and graph the events have accumulated to at that step.
    """
    if algo not in ALGORITHMS:
        raise ParameterError(f"unknown algorithm {algo!r}; choose from {', '.join(ALGORITHMS)}")
    if algo == "dcsel":
        sess = init_session(g, init_c)
        run_schedule(sess, events)
        return list(sess.history)

    records: list[StepRecord] = []
    c = init_c

    def step(idx: int, label: str) -> None:
        t0 = time.perf_counter_ns()
        sol = solve_once(algo, g, c, seed)
        wall = time.perf_counter_ns() - t0
        records.append(
            StepRecord(idx, label, sol.alpha, sol.size, is_feasible(sol.members, g, c), wall)
        )

    step(0, "init")
    for i, ev in enumerate(events, start=1):
        try:
            if ev.kind == "augment":
                extra = read_msg1(ev.value)
                bridges = parse_bridges(ev.bridges) if ev.bridges else []
                g = disjoint_union(g, extra, bridges)
            else:
                c = next_constraints(c, ev)
        except MselError as e:
            raise ScheduleError(str(e), step=i) from e
        step(i, ev.text())
    return records


def _write_csv(path: str, header: list[str], rows: list[list[str]]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)


def _run_rows(algo: str, records: list[StepRecord]) -> list[list[str]]:
    return [
        [
            str(r.step),
            r.event,
            algo,
            f"{r.alpha:.6f}",
            str(r.size),
            "true" if r.feasible else "false",
            str(r.wall_ns),
        ]
        for r in records
    ]


def _parse_mode(raw: str) -> tuple[str, int | None]:
    if raw in ("edges", "full"):
        return raw, None
    if raw.startswith("knn:"):
        try:
            k = int(raw[4:])
        except ValueError:
            raise ParameterError(f"bad knn mode {raw!r}; expected knn:<int>") from None
        return "knn", k
    raise ParameterError(f"unknown mode {raw!r}; expected edges, knn:<k>, or full")


def cmd_convert(args: argparse.Namespace) -> int:
    mode, k = _parse_mode(args.mode)
    ds = load_content_cites(args.content, args.cites)
    n, m, d = dataset_stats(ds)
    g = to_sim_graph(ds, mode=mode, k=k)
    write_msg1(g, args.out)
    print(f"nodes={n} edges={m} features={d}")
    if ds.dropped_citations:
        print(f"dropped_citations={ds.dropped_citations}")
    print(f"wrote {args.out} (n={g.n} m={g.m})")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    g = read_msg1(args.graph)
    init_c, events = parse_schedule(args.schedule)
    records = replay(args.algo, g, init_c, events, args.seed)
    _write_csv(args.out, RUN_HEADER, _run_rows(args.algo, records))
    print(f"wrote {args.out} ({len(records)} steps)")
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    if args.repeat < 1:
        raise ParameterError("--repeat must be >= 1")
    algos = [a.strip() for a in args.algos.split(",") if a.strip()]
    if not algos:
        raise ParameterError("--algos is empty")
    for a in algos:
        if a not in ALGORITHMS:
            raise ParameterError(f"unknown algorithm {a!r}; choose from {', '.join(ALGORITHMS)}")
    g = read_msg1(args.graph)
    init_c, events = parse_schedule(args.schedule)

    tasks = [(a, r) for a in algos for r in range(args.repeat)]
    workers = worker_count()
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            outs = list(pool.map(lambda t: replay(t[0], g, init_c, events, args.seed), tasks))
    else:
        outs = [replay(a, g, init_c, events, args.seed) for a, _ in tasks]
    by_algo: dict[str, list[list[StepRecord]]] = {a: [] for a in algos}
    for (a, _), recs in zip(tasks, outs):
        by_algo[a].append(recs)

    rows: list[list[str]] = []
    for a in sorted(algos):
        repeats = by_algo[a]
        for i, rec in enumerate(repeats[0]):
            walls = [rep[i].wall_ns for rep in repeats]
            rows.append(
                [
                    str(rec.step),
                    rec.event,
                    a,
                    f"{rec.alpha:.6f}",
                    str(rec.size),
                    "true" if rec.feasible else "false",
                    str(min(walls)),
                    str(round(sum(walls) / len(walls))),
                ]
            )
    _write_csv(args.out, BENCH_HEADER, rows)
    print(f"wrote {args.out} ({len(rows)} rows)")
    return 0


def cmd_oracle(args: argparse.Namespace) -> int:
    g = read_msg1(args.graph)
    c = ConstraintPair(s=args.s, p=args.p)
    res = exact_msp(g, c)
    if not res.feasible:
        print("INFEASIBLE")
        return 0
    print(f"OPT = {' '.join(str(u) for u in sorted(res.opt_set))}")
    print(f"alpha(OPT) = {res.opt_alpha:.6f}")
    sol = solve_once(args.algo, g, c, args.seed)
    ratio = ratio_check(g, c, sol)
    print(f"alpha({args.algo}) = {sol.alpha:.6f}")
    print(f"ratio = {ratio:.6f}")
    return 0


def cmd_plot(args: argparse.Namespace) -> int:
    series: dict[str, list[tuple[float, float]]] = {}
    try:
        with open(args.inp, "r", encoding="utf-8", newline="") as fh:
            reader = csv.DictReader(fh)
            fields = reader.fieldnames or []
            for col in ("step", "algo", "alpha"):
                if col not in fields:
                    raise ParseError(f"CSV lacks required column {col!r}", path=args.inp)
            for row in reader:
                series.setdefault(row["algo"], []).append(
                    (float(row["step"]), float(row["alpha"]))
                )
    except OSError as e:
        raise ParseError(f"cannot open: {e}", path=args.inp) from None
    if not series:
        raise ParseError("CSV has no data rows", path=args.inp)
    svg = render_alpha_svg(series)
    Path(args.out).write_text(svg, encoding="utf-8")
    print(f"wrote {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="msel",
        description="Dense-group selection under size and similarity constraints.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("convert", help="turn a content/cites dataset into an MSG1 graph file")
    p.add_argument("--content", required=True)
    p.add_argument("--cites", required=True)
    p.add_argument("--mode", default="edges", help="edges | knn:<k> | full")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_convert)

    p = sub.add_parser("run", help="run a constraint schedule and write per-step CSV")
    p.add_argument("--graph", required=True)
    p.add_argument("--schedule", required=True)
    p.add_argument("--algo", default="dcsel", help=f"one of {', '.join(ALGORITHMS)}")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("bench", help="time several algorithms over the same schedule")
    p.add_argument("--graph", required=True)
    p.add_argument("--schedule", required=True)
    p.add_argument("--algos", required=True, help="comma-separated algorithm names")
    p.add_argument("--repeat", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser("oracle", help="exact optimum on a small graph, plus a ratio check")
    p.add_argument("--graph", required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--algo", default="dcsel", help=f"one of {', '.join(ALGORITHMS)}")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_oracle)

    p = sub.add_parser("plot", help="render a per-step objective SVG from a CSV")
    p.add_argument("--in", dest="inp", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_plot)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ScheduleError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except (
        ParseError,
        ParameterError,
        DataError,
        CapacityError,
        PreconditionError,
        InvalidNodeError,
    ) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except MselError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
