"""Command-line entry points: convert, run, bench, oracle, plot.

Exit codes: 0 success, 2 bad input (files, formats, parameters), 3 failure
while executing a schedule. `run` emits one CSV row per schedule step;
`bench` repeats whole runs, one after another, and aggregates wall times
per (algorithm, step).
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import sys
import time
from pathlib import Path
from typing import Callable

from .baselines import average_peel, degree_peel, random_peel, sgsel
from .dataio import (
    dataset_stats,
    load_content_cites,
    read_msg1,
    to_sim_graph,
    write_msg1,
    write_text,
)
from .dcsel import (
    ScheduleEvent,
    StepRecord,
    init_session,
    load_augment,
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
from .oracle import exact_msp
from .peel import modified_sgsel
from .plotting import render_alpha_svg


def _modified(g: SimGraph, c: ConstraintPair, seed: int) -> Solution:
    return modified_sgsel(g, c)[0]


# One from-scratch solve per algorithm name, in the order help and errors
# list them. dcsel solves like msgsel; only its replay keeps a session.
_SOLVERS: dict[str, Callable[[SimGraph, ConstraintPair, int], Solution]] = {
    "dcsel": _modified,
    "sgsel": lambda g, c, seed: sgsel(g, c),
    "msgsel": _modified,
    "random": random_peel,
    "degree": lambda g, c, seed: degree_peel(g, c),
    "average": lambda g, c, seed: average_peel(g, c),
}
ALGORITHMS = tuple(_SOLVERS)

RUN_HEADER = ["step", "event", "algo", "alpha", "size", "feasible", "wall_ns"]
BENCH_HEADER = ["step", "event", "algo", "alpha", "size", "feasible", "wall_ns_min", "wall_ns_mean"]


def _solver(algo: str) -> Callable[[SimGraph, ConstraintPair, int], Solution]:
    """The from-scratch solve named ``algo``; an unknown name is a ParameterError."""
    try:
        return _SOLVERS[algo]
    except KeyError:
        raise ParameterError(f"unknown algorithm {algo!r}; choose from {', '.join(ALGORITHMS)}") from None


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
    solve = _solver(algo)
    if algo == "dcsel":
        sess = init_session(g, init_c)
        run_schedule(sess, events)
        return list(sess.history)

    records: list[StepRecord] = []
    c = init_c

    def step(idx: int, label: str) -> None:
        t0 = time.perf_counter_ns()
        sol = solve(g, c, seed)
        wall = time.perf_counter_ns() - t0
        records.append(
            StepRecord(idx, label, sol.alpha, sol.size, is_feasible(sol.members, g, c), wall)
        )

    step(0, "init")
    for i, ev in enumerate(events, start=1):
        try:
            if ev.kind == "augment":
                g = disjoint_union(g, *load_augment(ev))
            else:
                c = next_constraints(c, ev)
        except MselError as e:
            raise ScheduleError(str(e), step=i) from e
        step(i, ev.text())
    return records


def _write_csv(path: str, header: list[str], rows: list[list[str]]) -> None:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    w.writerows(rows)
    write_text(Path(path), buf.getvalue())


def _row(algo: str, r: StepRecord) -> list[str]:
    """The columns `run` and `bench` share: step through feasible."""
    return [str(r.step), r.event, algo, f"{r.alpha:.6f}", str(r.size), "true" if r.feasible else "false"]


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
    _write_csv(args.out, RUN_HEADER, [_row(args.algo, r) + [str(r.wall_ns)] for r in records])
    print(f"wrote {args.out} ({len(records)} steps)")
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    if args.repeat < 1:
        raise ParameterError("--repeat must be >= 1")
    algos = [a.strip() for a in args.algos.split(",") if a.strip()]
    if not algos:
        raise ParameterError("--algos is empty")
    for a in algos:
        _solver(a)
    g = read_msg1(args.graph)
    init_c, events = parse_schedule(args.schedule)

    by_algo = {a: [replay(a, g, init_c, events, args.seed) for _ in range(args.repeat)] for a in algos}
    rows: list[list[str]] = []
    for a in sorted(algos):
        repeats = by_algo[a]
        for i, rec in enumerate(repeats[0]):
            walls = [rep[i].wall_ns for rep in repeats]
            rows.append(_row(a, rec) + [str(min(walls)), str(round(sum(walls) / len(walls)))])
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
    sol = _solver(args.algo)(g, c, args.seed)
    print(f"alpha({args.algo}) = {sol.alpha:.6f}")
    print(f"ratio = {res.ratio(sol):.6f}")
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
                if None in row.values():
                    raise ParseError("row has fewer fields than the header", path=args.inp, line=reader.line_num)
                try:
                    point = (float(row["step"]), float(row["alpha"]))
                    if not all(map(math.isfinite, point)):
                        raise ValueError(f"step and alpha must be finite, got {point}")
                except ValueError as e:
                    raise ParseError(f"bad number: {e}", path=args.inp, line=reader.line_num) from None
                series.setdefault(row["algo"], []).append(point)
    except (OSError, UnicodeDecodeError) as e:
        raise ParseError(f"cannot open: {e}", path=args.inp) from None
    if not series:
        raise ParseError("CSV has no data rows", path=args.inp)
    svg = render_alpha_svg(series)
    write_text(Path(args.out), svg)
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


# bad input (files, formats, parameters) exits 2, any other package error 3;
# a file an augment event names that cannot be read or parsed is bad input
# too, although the schedule step that reads it reports it
_INPUT_ERRORS = (ParseError, ParameterError, DataError, CapacityError, PreconditionError, InvalidNodeError)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except MselError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2 if isinstance(e, _INPUT_ERRORS) or isinstance(e.__cause__, ParseError) else 3


if __name__ == "__main__":
    sys.exit(main())
