#!/usr/bin/env python3
"""Seeded end-to-end benchmark for msel.

    python3 bench/run.py --workload bulk --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/`` directory and nowhere else. Workloads (BENCHMARK.json says why each
exists):

  bulk     4 instances of random_graph(5_000, 50_000, seed) and a 9-event
           schedule
  planted  planted_community_graph(10_000, 30_000, seed, community=100) and a
           13-event schedule
  convert  `msel convert` in process on a 3,000-node content/cites pair,
           --mode edges, then --mode knn:10

Load model: one process and one caller in a closed loop; each schedule event
is sent only after the previous one returns. numpy's BLAS is held to one
thread, so the knn kernel does not compete with the machine's other tenants
for a second CPU.

A run generates its inputs from ``--seed`` into ``.bench_out/`` in a child
process (``gen.py``), so the measuring process holds only what the program
reads. It then repeats whole passes (init and every event of every
instance, or both converts) for ``--seconds`` seconds, after the first
pass on a session workload, which also solves every step afresh, and at
least MIN_PASSES times. Before each instance's pass the previous one's data is
dropped and collected, and one set-up (reading the inputs) is timed whose
result the pass then uses, so the set-ups spread over the run like the
steps. Every set-up and step is timed by ``clock.Clock``: its wall time
scaled to a reference machine speed measured by a fixed kernel run right
before and after it, which cancels the drift of a shared machine's speed.
Set-up and each step report their median over the passes.
Every pass is checked by ``check.py`` against graphs it parses from the
generated files itself; a failed check is reported, never aborted on. The
last line of output is one JSON object.

End-to-end metrics (``--trace 0``), the same names on every workload; times
are at the reference speed:

  setup_s         median set-up of a pass: read_msg1 + parse_schedule of every
                  instance, or load_content_cites
  work_s          init_session and every event of every instance, or both
                  converts, each step at its median over the passes
  checks_ok_frac  steps passing every check / steps checked, i.e. 1 - fail_frac
  peak_rss_mb     peak resident memory of the process after the first pass
                  of the first instance: imports, one set-up and one pass,
                  nothing of the generator or the checker

The median and the slowest event are reported per layer
(``dcsel.event_p50_ms``, ``dcsel.event_max_ms``), not end to end. A schedule
has 9 to 13 events, too few for any percentile above the median to have ten
samples beyond it. The events fall into a cheap and a dear cluster, and
which one holds the median moves from seed to seed. Which events take a
slow path, and so the slowest event, depends on the graph drawn from the
seed: over five seeds on bulk its spread was 0.09-0.13, where work_s,
summed over four graphs, spread 0.04-0.05.

``--trace 1`` makes the same untraced passes, then one traced pass with the
package's layer entry points rebound by ``spans.py``, and reports the
per-layer metrics in PER_LAYER; a layer that does no work on a workload
reads 0. The spans are written to ``.bench_out/trace-<workload>-<seed>.jsonl``.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import gc
import hashlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

if __name__ == "__main__":
    # One BLAS thread (see the load model above), set before numpy is first
    # imported, by clock below.
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"

from clock import REF_S, Clock, now  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
MIN_PASSES = 3
FRESH_REPEATS = 3   # fresh solves per graph and constraints in a traced run
KNN_K = 10
WEIGHT_SAMPLE = 200
KNN_NODE_SAMPLE = 50
WORKLOADS = ("bulk", "planted", "convert")
EVENT_KINDS = ("p_up", "p_down", "p_set", "s_up", "s_down", "s_set", "augment")

END_TO_END = ("setup_s", "work_s", "checks_ok_frac", "peak_rss_mb")
PER_LAYER = (
    "dataio.read_msg1_s", "dataio.parse_schedule_s", "dataio.augment_read_s",
    "dataio.load_content_cites_s", "dataio.write_msg1_s",
    "graph.build_s",
    "graph.incident_weight.calls", "graph.incident_weight_s",
    "graph.from_members.calls", "graph.from_members_s",
    "graph.is_feasible.calls", "graph.is_feasible_s",
    "graph.cross_weight.calls", "graph.cross_weight_s",
    "graph.disjoint_union_s",
    "peel.init_s", "peel.residual.calls", "peel.residual_s",
    "peel.fallback.calls", "peel.fallback_s",
    "peel.removals", "peel.pushes", "peel.pops", "peel.event_removals", "peel.fresh_s",
    "dcsel.init_s", "dcsel.schedule_s", "dcsel.event_p50_ms", "dcsel.event_max_ms",
    "dcsel.alpha_mean", "dcsel.self_s",
    *(f"dcsel.{k}_ms" for k in EVENT_KINDS),
    *(f"dcsel.{k}.vs_fresh" for k in EVENT_KINDS),
    "dcsel.no_peel_frac", "dcsel.removals_vs_fresh", "dcsel.alpha_vs_fresh_min",
    "similarity.normalize_s", "similarity.edges_s", "similarity.knn_s",
    "cli.convert_s", "cli.convert_self_s",
    "trace_overhead_frac",
)
UNITS = {"_s": "s", "_ms": "ms", ".calls": "count", "_mb": "MB"}


def unit_of(name: str) -> str:
    for suffix, unit in UNITS.items():
        if name.endswith(suffix):
            return unit
    if name.startswith("peel."):
        return "count"
    return "alpha" if name.endswith("alpha_mean") else "ratio"


def load_package() -> None:
    """Import msel from this checkout's src/, or exit without a result."""
    src = ROOT / "src"
    if not (src / "msel" / "__init__.py").is_file():
        raise SystemExit(f"error: no package source at {src / 'msel'}")
    sys.path.insert(0, str(src))
    import msel

    if Path(msel.__file__).resolve().parent != (src / "msel").resolve():
        raise SystemExit(f"error: imported msel from {msel.__file__}, not from {src}")


median = statistics.median


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def no_span(*args, **kwargs):
    return contextlib.nullcontext()


def generate(workload: str, seed: int, work: Path) -> None:
    """Write the workload's inputs from a child process."""
    subprocess.run([sys.executable, str(HERE / "gen.py"), workload, str(seed), str(work)],
                   check=True)


def timed_setup(fn, clock: Clock) -> tuple[float, object]:
    """(seconds, result) of one set-up call, made after collecting garbage."""
    gc.collect()
    tok = clock.start()
    out = fn()
    return clock.stop(tok), out


def keep_measuring(passes: list, started: float, seconds: float) -> bool:
    return len(passes) < MIN_PASSES or now() - started < seconds


def step_times(times: list[list[float]]) -> list[float]:
    """Each step's median time over the passes."""
    return [median(col) for col in zip(*times)]




def at_reference_speed(clock: Clock, since: int) -> float:
    """The factor that puts walls of the traced pass at the reference speed,
    from the kernel runs the clock made from index ``since`` on."""
    return REF_S / median(clock.kernels[since:])


def report_speed(clock: Clock) -> None:
    k = sorted(clock.kernels)
    print(f"reference kernel: {len(k)} runs, median {median(k) * 1e3:.2f} ms, "
          f"quartiles {k[len(k) // 4] * 1e3:.2f}-{k[3 * len(k) // 4] * 1e3:.2f} ms "
          f"(times below are at {1e3 * REF_S:g} ms)")


@dataclass
class Outcome:
    """What a workload hands back to the reporter."""

    e2e: dict[str, float]
    layers: dict[str, float]
    steps: int                              # steps checked
    errors: int                             # operations that raised
    failures: list[tuple[str, str, str]]    # (step label, severity, message)


# -- session workloads ------------------------------------------------------


@dataclass
class Snapshot:
    members: object      # np.ndarray of member ids
    alpha: float
    size: int
    feasible: bool
    graph: object        # the session's graph after the step


@dataclass
class SessionPass:
    """One pass over one or more instances, steps in instance order."""

    times: list[float]                  # per instance: init, then one per event
    snaps: list[Snapshot | None]        # None where the event raised
    errors: list[str]
    removals: int                       # the sessions' PeelStats, summed
    pushes: int
    pops: int
    event_removals: int

    @classmethod
    def merge(cls, parts: list["SessionPass"]) -> "SessionPass":
        return cls(
            [t for p in parts for t in p.times],
            [s for p in parts for s in p.snaps],
            [e for p in parts for e in p.errors],
            *(sum(getattr(p, f) for p in parts)
              for f in ("removals", "pushes", "pops", "event_removals")),
        )

    def drop_graphs(self) -> None:
        for snap in self.snaps:
            if snap is not None:
                snap.graph = None


@dataclass
class Instance:
    """One generated graph and schedule, and the steps the checker derives."""

    index: int
    dir: Path
    steps: list        # check.Step

    def setup(self):
        import msel.dataio as dataio
        import msel.dcsel as dcsel
        import gen

        return dataio.read_msg1(self.dir / gen.GRAPH), dcsel.parse_schedule(self.dir / gen.SCHEDULE)

    def label(self, step) -> str:
        return f"[{self.index}] {step.label}"


def _snapshot(sess) -> Snapshot:
    import numpy as np

    rec = sess.history[-1]
    members = np.fromiter(sess.current.members, dtype=np.int64, count=sess.current.size)
    return Snapshot(members, rec.alpha, rec.size, rec.feasible, sess.graph)


def session_pass(g, init_c, events, inst: Instance, clock: Clock, span=no_span) -> SessionPass:
    import msel.dcsel as dcsel
    from msel.errors import MselError

    if len(events) != len(inst.steps) - 1:
        raise SystemExit(f"error: schedule has {len(events)} events, "
                         f"checker derived {len(inst.steps) - 1}")
    tok = clock.start()
    with span("dcsel.init"):
        sess = dcsel.init_session(g, init_c)
    times = [clock.stop(tok)]
    snaps: list[Snapshot | None] = [_snapshot(sess)]
    errors: list[str] = []
    for ev, step in zip(events, inst.steps[1:]):
        n_hist = len(sess.history)
        tok = clock.start()
        try:
            with span("dcsel.event", kind=step.kind, label=inst.label(step)):
                dcsel.run_schedule(sess, [ev])
        except MselError as e:
            errors.append(f"{inst.label(step)}: {e}")
        times.append(clock.stop(tok))
        snaps.append(_snapshot(sess) if len(sess.history) > n_hist else None)
    st = sess.stats
    return SessionPass(times, snaps, errors, st.removals, st.pushes, st.pops, sess.event_removals)


def fresh_solves(inst: Instance, snaps, repeats: int, clock: Clock) -> dict:
    """``repeats`` fresh ``modified_sgsel`` per distinct (graph, p, s) of the
    instance's steps, timed like the steps.

    Returns {(instance, version, p, s): (members, median seconds, PeelStats of one solve)}.
    """
    import numpy as np
    from msel.graph import ConstraintPair
    from msel.peel import PeelStats, modified_sgsel

    out = {}
    for step, snap in zip(inst.steps, snaps):
        key = (inst.index, step.version, step.p, step.s)
        if snap is None or key in out:
            continue
        secs = []
        for _ in range(repeats):
            stats = PeelStats()
            tok = clock.start()
            sol, _ = modified_sgsel(snap.graph, ConstraintPair(s=step.s, p=step.p), stats=stats)
            secs.append(clock.stop(tok))
        members = np.fromiter(sol.members, dtype=np.int64, count=sol.size)
        out[key] = (members, median(secs), stats)
    return out


def checker_arrays(inst: Instance) -> list:
    """The checker's graphs, indexed by Step.version, parsed from the input files."""
    import check
    import gen

    base = check.EdgeArrays.from_edges(*check.parse_msg1_edges(inst.dir / gen.GRAPH))
    n_extra, extra = check.parse_msg1_edges(inst.dir / gen.EXTRA)
    return [base, base.augmented(n_extra, extra, check.parse_bridges(inst.dir / gen.BRIDGES))]


def session_workload(name: str, seed: int, seconds: float, trace: bool, work: Path) -> Outcome:
    import check
    import gen

    generate(name, seed, work)
    insts = [Instance(i, d, check.derive_steps((d / gen.SCHEDULE).read_text(encoding="utf-8")))
             for i, d in enumerate(gen.instance_dirs(name, work))]
    flat = [(inst, step) for inst in insts for step in inst.steps]

    clock = Clock()
    setups: list[float] = []
    passes: list[SessionPass] = []
    fresh: dict = {}
    started = now()
    while keep_measuring(passes, started, seconds):
        parts, setup_s = [], 0.0
        for inst in insts:
            secs, (g, (init_c, events)) = timed_setup(inst.setup, clock)
            setup_s += secs
            part = session_pass(g, init_c, events, inst, clock)
            del g, init_c, events
            if not passes:
                if not parts:
                    rss = peak_rss_mb()
                # only the first pass's graphs are solved afresh
                fresh.update(fresh_solves(inst, part.snaps, FRESH_REPEATS if trace else 1, clock))
            part.drop_graphs()
            parts.append(part)
        setups.append(setup_s)
        passes.append(SessionPass.merge(parts))
        if len(passes) == 1:
            started = now()     # the run's seconds start after the fresh solves
    times = [ps.times for ps in passes]

    arrays = {inst.index: checker_arrays(inst) for inst in insts}
    refs = {(i, v, p, s): (check.reference_of(arrays[i][v], members, p, s), secs, stats)
            for (i, v, p, s), (members, secs, stats) in fresh.items()}
    failures: list[tuple[str, str, str]] = []
    failed_steps = 0
    for ps in passes:
        for (inst, step), snap in zip(flat, ps.snaps):
            ref = refs.get((inst.index, step.version, step.p, step.s))
            if snap is None or ref is None:
                found = [(check.INVALID, "the event raised")]
            else:
                found = check.check_step(arrays[inst.index][step.version], step, snap.members,
                                         snap.alpha, snap.size, snap.feasible, ref[0])
            failures.extend((inst.label(step), sev, msg) for sev, msg in found)
            failed_steps += bool(found)
    checked = len(flat) * len(passes)

    report_speed(clock)
    for (inst, step), secs in zip(flat, step_times(times)):
        print(f"step {inst.label(step)}: median {secs * 1e3:.1f} ms of {len(passes)} passes")
    e2e = {"setup_s": median(setups), "work_s": sum(step_times(times))}
    e2e["checks_ok_frac"] = 1.0 - failed_steps / checked
    e2e["peak_rss_mb"] = rss
    layers = {}
    if trace:
        layers = session_layers(name, seed, insts, passes, refs, failures, clock)
    return Outcome(e2e, layers, checked, sum(len(ps.errors) for ps in passes), failures)


def session_layers(name, seed, insts: list[Instance], passes: list[SessionPass],
                   refs, failures, clock: Clock) -> dict[str, float]:
    import check
    from spans import Tracer

    flat = [(inst, step) for inst in insts for step in inst.steps]
    base = passes[0]
    gc.collect()
    tracer = Tracer(f"{name}-{seed}")
    n_kernels = len(clock.kernels)
    tracer.install()
    try:
        parts = []
        for inst in insts:
            with tracer.span("bench.setup"):
                g, (init_c, events) = inst.setup()
            parts.append(session_pass(g, init_c, events, inst, clock, tracer.span))
            del g, init_c, events
            parts[-1].drop_graphs()
        traced = SessionPass.merge(parts)
    finally:
        tracer.uninstall()
    OUT.mkdir(exist_ok=True)
    tracer.write_jsonl(OUT / f"trace-{name}-{seed}.jsonl")
    tracer.scale = at_reference_speed(clock, n_kernels)
    for (inst, step), a, b in zip(flat, base.snaps, traced.snaps):
        if (a is None) != (b is None) or (a is not None and (a.alpha, a.size) != (b.alpha, b.size)):
            failures.append((inst.label(step), check.INVALID, "the traced pass selected differently"))

    is_event = [step.kind != "init" for _, step in flat]
    typ = step_times([ps.times for ps in passes])
    event_typ = [t for t, e in zip(typ, is_event) if e]
    typical = median([sum(ps.times) for ps in passes])
    event_spans = tracer.named("dcsel.event")
    peeled = {s.parent.id for s in tracer.spans if s.name.startswith("peel.") and s.parent}

    def in_event(span) -> bool:
        return span.within("dcsel.event")

    L: dict[str, float] = {
        "dataio.read_msg1_s": tracer.self_s("dataio.read_msg1", lambda s: not in_event(s)),
        "dataio.parse_schedule_s": tracer.self_s("dataio.parse_schedule"),
        "dataio.augment_read_s": (tracer.self_s("dataio.read_msg1", in_event)
                                  + tracer.self_s("dataio.parse_bridges")),
        "graph.build_s": tracer.self_s("graph.build"),
        "graph.disjoint_union_s": tracer.self_s("graph.disjoint_union"),
        "peel.init_s": tracer.self_s("peel.init"),
        "peel.removals": traced.removals,
        "peel.pushes": traced.pushes,
        "peel.pops": traced.pops,
        "peel.event_removals": traced.event_removals,
        "peel.fresh_s": median([secs for _, secs, _ in refs.values()]),
        "dcsel.init_s": sum(t for t, e in zip(typ, is_event) if not e),
        "dcsel.schedule_s": sum(event_typ),
        "dcsel.event_p50_ms": median(event_typ) * 1e3,
        "dcsel.event_max_ms": max(event_typ) * 1e3,
        "dcsel.alpha_mean": statistics.fmean(s.alpha for s in base.snaps if s is not None),
        "dcsel.self_s": tracer.self_s("dcsel.event"),
        "dcsel.no_peel_frac": sum(s.id not in peeled for s in event_spans) / len(event_spans),
        "trace_overhead_frac": (sum(traced.times) - typical) / typical,
    }
    for leaf in ("incident_weight", "from_members", "is_feasible", "cross_weight"):
        L[f"graph.{leaf}.calls"], L[f"graph.{leaf}_s"] = tracer.leaf(f"graph.{leaf}")
    for kind in ("residual", "fallback"):
        L[f"peel.{kind}.calls"] = len(tracer.named(f"peel.{kind}"))
        L[f"peel.{kind}_s"] = tracer.self_s(f"peel.{kind}")

    # Event cost against a fresh solve on the same post-event graph and
    # constraints, median time against median time; per kind, the worst event
    # of that kind.
    fresh_removals = 0
    for (inst, step), secs, ev in zip(flat, typ, is_event):
        if not ev:
            continue
        ms, vs = f"dcsel.{step.kind}_ms", f"dcsel.{step.kind}.vs_fresh"
        L[ms] = max(L.get(ms, 0.0), secs * 1e3)
        ref = refs.get((inst.index, step.version, step.p, step.s))
        if ref is not None:
            L[vs] = max(L.get(vs, 0.0), secs / ref[1])
            fresh_removals += ref[2].removals
    L["dcsel.removals_vs_fresh"] = traced.event_removals / fresh_removals if fresh_removals else 0.0
    ratios = [snap.alpha / ref[0].alpha
              for (inst, step), snap in zip(flat, base.snaps)
              if snap is not None
              and (ref := refs.get((inst.index, step.version, step.p, step.s))) is not None
              and ref[0].feasible and ref[0].alpha > 0]
    L["dcsel.alpha_vs_fresh_min"] = min(ratios, default=0.0)

    traced_s = sum(s.ns for s in event_spans) / 1e9 * tracer.scale
    untraced_s = median([sum(t for t, e in zip(ps.times, is_event) if e) for ps in passes])
    print(f"accounting at the reference speed: event child spans "
          f"{traced_s - L['dcsel.self_s']:.3f} s + dcsel.self_s {L['dcsel.self_s']:.3f} s = "
          f"traced schedule {traced_s:.3f} s; untraced schedule {untraced_s:.3f} s "
          f"(median pass), {traced_s / untraced_s - 1:+.1%}")
    return L


# -- convert workload -------------------------------------------------------


CONVERT_MODES = ("edges", f"knn:{KNN_K}")


def convert_pass(work: Path, clock: Clock, span=no_span):
    import msel.cli as cli

    import gen

    times, outs = [], []
    for mode in CONVERT_MODES:
        out = work / f"{mode.replace(':', '')}.msg1"
        buf = io.StringIO()
        tok = clock.start()
        with span("cli.convert", mode=mode), contextlib.redirect_stdout(buf):
            rc = cli.main(["convert", "--content", str(work / gen.CONTENT), "--cites",
                           str(work / gen.CITES), "--mode", mode, "--out", str(out)])
        times.append(clock.stop(tok))
        outs.append((mode, out, rc, buf.getvalue()))
    return times, outs


def check_convert(truth, values, mode: str, out: Path, rc: int, stdout: str, seed: int):
    import msel.dataio as dataio
    from msel.similarity import pair_weight

    import check

    if rc != 0:
        return [(check.INVALID, f"convert exited with {rc}")]
    found = []
    if truth.dropped and f"dropped_citations={truth.dropped}" not in stdout.split():
        found.append((check.INVALID, f"did not report dropped_citations={truth.dropped}"))
    again = out.with_suffix(".readback")
    dataio.write_msg1(dataio.read_msg1(out), again)
    if again.read_bytes() != out.read_bytes():
        found.append((check.INVALID, "read-back of the written graph is not bit-identical"))
    n, lines = check.parse_msg1_edges(out)
    rng = random.Random(f"convert-sample-{seed}-{mode}")
    sample = rng.sample(range(len(lines)), min(WEIGHT_SAMPLE, len(lines)))
    nodes = rng.sample(range(n), min(KNN_NODE_SAMPLE, n))
    kind, _, k = mode.partition(":")
    return found + check.check_converted(kind, int(k) if k else None, n, lines, values,
                                         truth.pairs, pair_weight, sample, nodes)


def convert_workload(seed: int, seconds: float, trace: bool, work: Path) -> Outcome:
    import msel.dataio as dataio

    import check
    import gen

    generate("convert", seed, work)

    def setup():
        return dataio.load_content_cites(work / gen.CONTENT, work / gen.CITES)

    clock = Clock()
    setups: list[float] = []
    times: list[list[float]] = []
    failures: list[tuple[str, str, str]] = []
    failed_steps = errors = 0
    digests: dict[str, str] = {}
    started = now()
    while keep_measuring(times, started, seconds):
        setups.append(timed_setup(setup, clock)[0])
        pass_times, outs = convert_pass(work, clock)
        times.append(pass_times)
        if len(times) == 1:
            rss = peak_rss_mb()
            truth = gen.read_truth(work)
            values = check.normalize(truth.features)
        for mode, out, rc, stdout in outs:
            label = f"convert --mode {mode}"
            errors += rc != 0
            digest = hashlib.sha256(out.read_bytes()).hexdigest() if rc == 0 else ""
            if mode not in digests:     # the first pass is checked in full
                digests[mode] = digest
                found = check_convert(truth, values, mode, out, rc, stdout, seed)
            elif digest != digests[mode]:
                found = [(check.INVALID, "output differs from the first pass")]
            else:
                found = []
            failures.extend((label, sev, msg) for sev, msg in found)
            failed_steps += bool(found)
    checked = len(CONVERT_MODES) * len(times)

    report_speed(clock)
    typ = step_times(times)
    for mode, secs in zip(CONVERT_MODES, typ):
        print(f"step convert --mode {mode}: median {secs * 1e3:.1f} ms of {len(times)} passes")
    e2e = {"setup_s": median(setups), "work_s": sum(typ)}
    e2e["checks_ok_frac"] = 1.0 - failed_steps / checked
    e2e["peak_rss_mb"] = rss
    layers = {}
    if trace:
        from spans import Tracer

        gc.collect()
        tracer = Tracer(f"convert-{seed}")
        n_kernels = len(clock.kernels)
        tracer.install()
        try:
            with tracer.span("bench.setup"):
                setup()
            traced_times, _ = convert_pass(work, clock, tracer.span)
        finally:
            tracer.uninstall()
        OUT.mkdir(exist_ok=True)
        tracer.write_jsonl(OUT / f"trace-convert-{seed}.jsonl")
        tracer.scale = at_reference_speed(clock, n_kernels)
        typical = median(map(sum, times))
        layers = {
            "dataio.load_content_cites_s": tracer.self_s("dataio.load_content_cites"),
            "dataio.write_msg1_s": tracer.self_s("dataio.write_msg1"),
            "graph.build_s": tracer.self_s("graph.build"),
            "similarity.normalize_s": tracer.self_s("similarity.normalize"),
            "similarity.edges_s": tracer.self_s("similarity.edges"),
            "similarity.knn_s": tracer.self_s("similarity.knn"),
            "cli.convert_s": sum(typ),
            "cli.convert_self_s": tracer.self_s("cli.convert"),
            "trace_overhead_frac": (sum(traced_times) - typical) / typical,
        }
    return Outcome(e2e, layers, checked, errors, failures)


# -- driver -----------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="Seeded end-to-end benchmark for msel.")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    load_package()
    sys.path.insert(0, str(HERE))

    work = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    t_start = now()
    try:
        if args.workload == "convert":
            res = convert_workload(args.seed, args.seconds, bool(args.trace), work)
        else:
            res = session_workload(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"run took {now() - t_start:.1f} s")
    for (label, sev, msg), times in collections.Counter(res.failures).items():
        print(f"check failed [{sev}] {label} ({times}x): {msg}")
    print(f"fail_frac {1.0 - res.e2e['checks_ok_frac']:.6g} ({len(res.failures)} failed checks)")
    if args.trace:
        names, values = PER_LAYER, {**dict.fromkeys(PER_LAYER, 0.0), **res.layers}
    else:
        names, values = END_TO_END, res.e2e
    metrics = {n: {"value": float(values[n]), "unit": unit_of(n)} for n in names}
    for n in names:
        print(f"{n} {metrics[n]['value']:.6g} {metrics[n]['unit']}")
    print(json.dumps({
        "correct": not any(sev == "invalid" for _, sev, _ in res.failures),
        "attempted": res.steps,
        "failed": res.errors,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
