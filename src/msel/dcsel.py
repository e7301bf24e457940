"""Incremental maintenance of a selected group under changing constraints.

A Session wraps one graph plus the current constraint pair and solution. When
a constraint changes, the session reuses what earlier peels already computed:
size decreases are answered from the recorded per-size profile, a similarity
raise the group still satisfies keeps it, and every other repair (a size
increase the group falls short of, a similarity raise the stripped group
fails, a similarity decrease, a graph merge) is one anchored peel: the
incumbent stays pinned while the nodes outside it are peeled, which records
for every size both the best superset of the incumbent and the outside nodes
alone. The repair proposes the best of the incumbent and those two picks.
Every peel folds its per-size records into the session profile, so later
decreases see them too. Every event runs through one step: its repair
proposes a group, the step alone adopts it, and an event that would end on
an infeasible group is repaired once more from a fresh peel of the whole
graph, unless a peel proved that no group is feasible.

A peel's removal order and per-size records depend on the graph, s, the
nodes it starts from and the nodes it pins, never on p. The session keeps
the run of its last whole-graph peel, and while the graph and s are still
that run's, a repair takes the run's pick at no peel cost instead of
peeling.

An anchored peel around a feasible A is floored at tau = alpha(A)
(``modified_sgsel``'s ``floor``), the one place that decides whether, and
how much of, it runs. It runs none when it cannot win, by one of two exits
with a margin of 1e-9 tau (|A| + 1): no outside node u has
(deg(u) + inw(u)) / 2 as high as tau, with deg(u) u's weighted degree and
inw(u) its weight into A (Charikar's degree bound), or the weighted
tau-core of the outside nodes is empty. Then A stands: the peel counts no
work and folds no records (every set it would record but A lies below
alpha(A)), and a later event that needs it runs it then. Otherwise a
min-incident-weight peel removes the core C last, each node before it
leaving with a weight below tau, so the peel drops those nodes in numpy
rounds and peels only C. Every larger set the full peel would record then
has alpha below a bound B, a mediant of the run's largest set and tau;
each cored run is kept only when B is below tau (no such set can replace
A) or its pick is above B (the full run's pick is its own), and otherwise
the full peel runs. A cored peel is a partial run: the session keeps its B
and a copy of A, and a later size decrease whose floor is not above B runs
the full peel into the profile first. Whole-graph peels are never floored.
Deciding a floored repair costs O(n) plus the rows of the outside nodes
whose weighted degree reaches tau, the only ones that can stay in the core,
when the outside nodes are most of the graph. Each node's weighted degree
and strongest edge come from arrays the graph builds once
(``SimGraph.strength``), which a merged graph starts from its base graph's:
every floored peel reads its degree bound there, every peel of most of the
graph (the whole-graph solve and fallback too) its prefilter and starting
weights, reading no row outside its loop but those next to the nodes its
prefilter drops, and a raise of s strips the members whose strongest edge
is not above it.

The session keeps its incumbent as a ``graph._Group``: the membership mask
and each node's weight into the group and strongest edge into it. A change
recomputes both for the neighbours of the nodes that change, each weight a
row-order sum over the node's edges to members, so they depend on the
member set alone, and a set gets the alpha bits ``avg_similarity`` gives it
by any path. Bookkeeping for an event therefore costs the degrees of the
changed nodes' neighbours; only peels touch the whole graph. The group is
also the anchor an anchored peel pins.
"""

from __future__ import annotations

import math
import re
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from .dataio import read_text
from .errors import (
    MselError,
    ParameterError,
    ParseError,
    PreconditionError,
    ScheduleError,
)
# cross_weight, incident_weight and is_feasible are not called here, but stay
# names of this module: bench/spans.py rebinds them, with the other graph
# entry points, to time the layers of a session.
from .graph import (  # noqa: F401
    ConstraintPair,
    SimGraph,
    Solution,
    _check_members,
    _Group,
    cross_weight,
    disjoint_union,
    incident_weight,
    is_feasible,
)
from .peel import PeelProfile, PeelRun, PeelStats, PeelTrace, modified_sgsel

EVENT_KINDS = ("size_set", "size_delta", "similarity_set", "similarity_delta", "augment")


@dataclass(frozen=True)
class ScheduleEvent:
    """One constraint change: a size/similarity set or delta, or a graph merge."""

    kind: str
    value: int | float | str
    bridges: str | None = None

    def __post_init__(self):
        if self.kind not in EVENT_KINDS:
            raise ParameterError(f"unknown event kind {self.kind!r}")
        if self.kind.startswith("size") and not isinstance(self.value, int):
            raise ParameterError(f"{self.kind} needs an integer value, got {self.value!r}")
        if self.kind.startswith("similarity") and not isinstance(self.value, float):
            raise ParameterError(f"{self.kind} needs a real value, got {self.value!r}")
        if self.kind == "augment" and not isinstance(self.value, str):
            raise ParameterError(f"augment needs a file path, got {self.value!r}")
        if self.bridges is not None and self.kind != "augment":
            raise ParameterError("bridges only accompany augment events")

    def text(self) -> str:
        """Canonical one-token-spacing form, used as the history label. A
        real value is written in its shortest round-trip form, so two
        different schedules never get the same label."""
        if self.kind == "size_set":
            return f"p={self.value}"
        if self.kind == "size_delta":
            v = self.value
            return f"p+={v}" if v >= 0 else f"p-={-v}"
        if self.kind == "similarity_set":
            return f"s={self.value!r}"
        if self.kind == "similarity_delta":
            v = self.value
            # the sign bit, so that -0.0 reads as a decrease
            return f"s+={v!r}" if math.copysign(1.0, v) > 0 else f"s-={-v!r}"
        return f"augment {Path(self.value).name}"


@dataclass(frozen=True)
class StepRecord:
    step: int
    event: str
    alpha: float
    size: int
    feasible: bool
    wall_ns: int


@dataclass
class Session:
    """Mutable solver state: graph, constraints, solution, profile, history.

    ``event_removals`` counts peel removals caused by constraint events, so
    tests can compare incremental work against from-scratch re-solving; the
    initial solve's removals live only in ``stats``. ``_group`` mirrors
    ``current``; it is rebuilt whenever ``graph`` or ``current`` is assigned
    from outside the event functions, with the same bits as the kept one,
    since its state is a function of the member set. ``_empty_at`` holds
    the graph and constraints of the last peel that proved no group
    feasible.

    ``_whole`` keeps the last whole-graph peel as ``(graph, s, run)``. While
    the graph and s still hold, a repair takes that run's pick instead of
    peeling; the kept run costs no work and folds no records, which are in
    ``profile`` already.

    ``_partial`` keeps each cored peel, keyed by its graph, s and the bytes
    of its anchor's sorted member ids (int64), which fix the full peel to
    run (``_complete``): the largest bound on the alpha of every size its
    runs skipped. A repeat of a cored peel adds no entry.
    """

    graph: SimGraph
    constraints: ConstraintPair
    current: Solution
    profile: PeelProfile
    history: list[StepRecord] = field(default_factory=list)
    stats: PeelStats = field(default_factory=PeelStats)
    event_removals: int = 0
    _group: _Group | None = field(default=None, repr=False, compare=False)
    _empty_at: tuple[SimGraph, ConstraintPair] | None = field(default=None, repr=False, compare=False)
    _whole: tuple[SimGraph, float, PeelRun] | None = field(default=None, repr=False, compare=False)
    _partial: dict[tuple[SimGraph, float, bytes], float] = field(default_factory=dict, repr=False, compare=False)


def _proven_empty(sess: Session) -> bool:
    """True when no group can be feasible: a peel of this graph that started
    from every node (pinned or not) its similarity prefilter kept held at
    most p nodes, under constraints no tighter than the current ones. Every
    group feasible under tighter constraints survives a whole-graph
    prefilter, and every node that survives it is in an anchored peel's
    start set too. A cored peel's start set counts the nodes it skipped."""
    e, c = sess._empty_at, sess.constraints
    return e is not None and e[0] is sess.graph and c.p >= e[1].p and c.s >= e[1].s


def _group_of(sess: Session) -> _Group:
    """The state of ``sess.current``, built afresh if it went stale."""
    grp = sess._group
    if grp is None or grp.graph is not sess.graph or grp.solution is not sess.current:
        grp = _Group(sess.graph, _check_members(sess.current.members, sess.graph))
        grp.solution = sess.current
        sess._group = grp
    return grp


def _adopt(sess: Session, grp: _Group) -> None:
    """Make ``grp`` the incumbent."""
    if grp.solution is None:
        if grp.members:
            grp.solution = Solution(grp.members, grp.weight, grp.alpha)
        else:
            grp.solution = Solution.empty()
    sess.current = grp.solution
    sess._group = grp


def _record(sess: Session, event: str, t0: int) -> StepRecord:
    sol = sess.current
    rec = StepRecord(
        step=len(sess.history),
        event=event,
        alpha=sol.alpha,
        size=sol.size,
        feasible=_group_of(sess).feasible(sess.constraints),
        wall_ns=time.perf_counter_ns() - t0,
    )
    sess.history.append(rec)
    return rec


def init_session(g: SimGraph, c: ConstraintPair) -> Session:
    """Solve from scratch and open a session around the result.

    An infeasible start (nothing satisfies the constraints) is not an error:
    the session opens with an empty solution and feasible=false in history.
    """
    if g.n == 0:
        raise PreconditionError("cannot open a session on an empty graph")
    t0 = time.perf_counter_ns()
    sess = Session(graph=g, constraints=c, current=Solution.empty(), profile=PeelProfile())
    members = _peel(sess, c)[0].best(c.p)
    sess.event_removals = 0  # the initial solve is not an event
    _adopt(sess, _Group(g, members))
    _record(sess, "init", t0)
    return sess


def _remember_current(sess: Session) -> None:
    """Store the adopted solution in the profile so later decreases can see
    it; its trace, a sort of its members, is built only when the profile
    takes it."""
    sol = sess.current
    if sol and sess.profile.takes(sol.size, sol.alpha):
        sess.profile.record(sol.size, sol.alpha, PeelTrace(tuple(sorted(sol.members))))


def _kept_run(sess: Session, s: float) -> PeelRun | None:
    """The kept whole-graph run, if it is of the session's graph and ``s``."""
    kept = sess._whole
    return kept[2] if kept is not None and kept[0] is sess.graph and kept[1] == s else None


def _peel(sess: Session, c: ConstraintPair, anchor: _Group | None = None,
          floor: float | None = None) -> tuple[PeelRun, ...]:
    """The run of a peel of the whole graph (``anchor`` None or empty), or
    the union and outside runs of one with ``anchor``'s members pinned,
    cored at ``floor`` when the cut applies and certifies; none when
    ``floor`` proves that no run could beat the anchor.

    The kept whole-graph run answers a whole-graph peel of its graph and s,
    at no peel cost. Any other peel runs: its work is counted and its
    records go into the session profile, and a whole-graph one becomes the
    kept run, a cored one a partial run. A start set of at most p nodes
    proves that no group is feasible.
    """
    g = sess.graph
    pinned = anchor is not None and bool(anchor.members)
    kept = None if pinned else _kept_run(sess, c.s)
    if kept is not None:
        runs = (kept,)
    else:
        runs = _run_peel(sess, g, c, anchor if pinned else None, floor)
        if not runs:
            return runs
        if not pinned:
            sess._whole = (g, c.s, runs[0])
        elif runs[0].skipped:
            key = (anchor.graph, c.s, np.flatnonzero(anchor.mask).astype(np.int64).tobytes())
            sess._partial[key] = max(sess._partial.get(key, -math.inf), *(r.bound for r in runs))
    if len(runs[0].trace.order) + runs[0].skipped <= c.p:
        sess._empty_at = (g, c)
    return runs


def _run_peel(sess: Session, g: SimGraph, c: ConstraintPair, anchor: _Group | None,
              floor: float | None = None) -> tuple[PeelRun, ...]:
    """Peel ``g`` whole, or with ``anchor`` pinned and its outside nodes as
    the start set, into the session profile, counting the work."""
    within = None if anchor is None else np.flatnonzero(~anchor.mask)
    before = sess.stats.removals
    # the group's state carries all a peel needs to know of its anchor
    runs = modified_sgsel(g, c, within=within, stats=sess.stats, anchor=anchor,
                          into=sess.profile, floor=floor)[1].runs()
    sess.event_removals += sess.stats.removals - before
    return runs


def _complete(sess: Session, floor: float) -> None:
    """Run the full peel of every partial run that may have skipped a set
    with alpha above ``floor``, so that the profile holds what the full
    peels would have recorded; the margin keeps rounding of the bound from
    deciding."""
    for key, bound in list(sess._partial.items()):
        if bound * (1 + 1e-9) >= floor:
            g, s, ids = key
            del sess._partial[key]
            _run_peel(sess, g, ConstraintPair(s=s, p=0), _Group(g, np.frombuffer(ids, np.int64).tolist()))


def _step(sess: Session, label: str, repair: Callable[..., _Group | None], *args) -> Solution:
    """Run one event and record it.

    ``repair(sess, *args)`` applies the event and returns the group it
    proposes, or None when the incumbent stands. An infeasible outcome is
    repaired once more from a peel of the whole graph, unless a peel proved
    that nothing is feasible: only that peel sees groups that mix part of
    the incumbent with outside nodes. The outcome is adopted here and
    nowhere else, and stored in the profile only if it is feasible.
    """
    t0 = time.perf_counter_ns()
    grp = repair(sess, *args)
    c = sess.constraints
    if grp is None and not _group_of(sess).feasible(c):
        grp = _group_of(sess)
    if grp is not None:
        if not grp.feasible(c) and not _proven_empty(sess):
            grp = _repair(sess, grp, whole=True)
        _adopt(sess, grp)
        if grp.feasible(c):
            _remember_current(sess)
    _record(sess, label, t0)
    return sess.current


def _repair(sess: Session, grp: _Group, whole: bool = False) -> _Group:
    """Propose the better of ``grp`` and the best feasible group one peel
    finds: the pick of a whole-graph peel when ``whole`` is set or the
    session's kept whole-graph run is of this graph and s, otherwise the
    better of the best superset of ``grp`` and the best group outside it,
    from one anchored peel around ``grp``. The two picks are ranked by their
    runs' alphas, and the winner replaces ``grp`` only if it beats it
    (``challenger``).

    Around a feasible ``grp`` the anchored peel is floored at tau = alpha
    of ``grp`` (``modified_sgsel``'s ``floor``), since only a group with a
    higher alpha can replace ``grp``. It runs none when the degree bound or
    an empty tau-core shows that none can, and ``grp`` stands; otherwise it
    is cored, and each of the certified cored runs proposes what the full
    run would, or a group below tau. The sizes a cored run skipped have
    alpha below its bound; a later size decrease whose floor is not above
    that bound first runs the full peel (``_complete``)."""
    c = sess.constraints
    whole = whole or _kept_run(sess, c.s) is not None
    floor = grp.alpha if not whole and grp.feasible(c) else None
    runs = _peel(sess, c, None if whole else grp, floor)
    picks = [(run.alphas[k], k, run) for run in runs if (k := run.best_size(c.p))]
    if not picks:
        return grp
    _, k, run = max(picks, key=lambda e: e[0])
    cand = grp.challenger(run.trace.members_at(k), c)
    return grp if cand is None else cand


def next_constraints(c: ConstraintPair, ev: ScheduleEvent) -> ConstraintPair:
    """The constraints in force after ``ev``. Set events take their value
    exactly, deltas add to the current value, and augment changes nothing."""
    if ev.kind == "size_set":
        return ConstraintPair(s=c.s, p=ev.value)
    if ev.kind == "size_delta":
        return ConstraintPair(s=c.s, p=c.p + ev.value)
    if ev.kind == "similarity_set":
        return ConstraintPair(s=ev.value, p=c.p)
    if ev.kind == "similarity_delta":
        return ConstraintPair(s=c.s + ev.value, p=c.p)
    return c


def _unsupported(g: SimGraph, grp: _Group, s: float) -> np.ndarray:
    """The members of ``grp`` without any edge above ``s`` in ``g``, in id
    order: those whose strongest edge (``g.strength()``) is not above s."""
    return np.flatnonzero(grp.mask & (g.strength()[1] <= s))


def _retarget(sess: Session, c_new: ConstraintPair) -> _Group | None:
    """Move the constraints to ``c_new`` and propose a repaired group, by
    the rules ``apply_size_delta`` and ``apply_similarity_delta`` describe."""
    c_old = sess.constraints
    sess.constraints = c_new
    if _proven_empty(sess):
        return None
    grp = _group_of(sess)

    if c_new.p < c_old.p:
        # An infeasible incumbent never sets the bar: any feasible group beats it.
        floor = grp.alpha if grp.feasible(c_new) else -1.0
        _complete(sess, floor)
        # challenger rejects a set some member of which has no edge above s
        # to another member; a trace's support at every size is one array
        # pass, made only once a set from that trace other than the
        # incumbent's own has lost
        support: dict[int, np.ndarray] = {}
        for size, trace in sess.profile.ranked(c_new.p, floor):
            ok = support.get(id(trace))
            if ok is not None and not ok[size]:
                continue
            members = trace.members_at(size)
            if (cand := grp.challenger(members, c_new)) is not None:
                return cand
            if ok is None and members != grp.members:
                support[id(trace)] = trace.supported(sess.graph, c_new.s)
        return None
    if c_new.p > c_old.p:
        if sess.current and c_new.p < sess.current.size:
            return None
        return _repair(sess, grp)
    if c_new.s < c_old.s:
        return _repair(sess, grp)
    if c_new.s > c_old.s:
        if grp.feasible(c_new):
            return grp
        grp.move_to(grp.members.difference(_unsupported(sess.graph, grp, c_new.s).tolist()))
        return grp if grp.feasible(c_new) else _repair(sess, grp)
    return None


def apply_size_delta(sess: Session, dp: int) -> Solution:
    """Move the size floor by ``dp`` and repair the solution.

    Decreases consult the profile: a feasible group strictly better than the
    incumbent is adopted (or the best feasible one, if the incumbent is not
    itself feasible). Recorded sets without support at the current s are
    skipped once a set of the same removal order has lost. Increases that
    the current group already satisfies are free; otherwise one anchored
    peel around the group proposes the best of the group, its best
    feasible superset and the best feasible group outside it.
    """
    ev = ScheduleEvent("size_delta", int(dp))
    return _step(sess, ev.text(), _retarget, next_constraints(sess.constraints, ev))


def apply_similarity_delta(sess: Session, ds: float) -> Solution:
    """Move the similarity floor by ``ds`` and repair the solution.

    A raise the group still satisfies keeps it. Otherwise the members
    without any edge above the new floor are stripped, which reads only the
    edges of members with no edge above it into the group; a feasible
    stripped group is kept, any other is repaired by one anchored peel
    around it. A lowered floor is searched by one anchored peel. Around a
    feasible group that peel is floored at the group's alpha: it runs none
    when it cannot beat the group, and otherwise is cored and keeps its
    partial runs for later size decreases (see ``_repair``).
    """
    ev = ScheduleEvent("similarity_delta", float(ds))
    return _step(sess, ev.text(), _retarget, next_constraints(sess.constraints, ev))


def _merge(sess: Session, extra: SimGraph, bridges: list[tuple[int, int, float]]) -> _Group | None:
    grp = _group_of(sess)
    merged = disjoint_union(sess.graph, extra, bridges)
    grp.extend_graph(merged, bridges)
    sess.graph = merged
    if extra.n == 0 and not bridges:
        return None
    return _repair(sess, grp)


def augment_graph(sess: Session, extra: SimGraph, bridges: list[tuple[int, int, float]] | None = None) -> Solution:
    """Merge a second graph (ids remapped past the current ones) plus optional
    bridge edges, then search the enlarged space for a better group.

    The adopted result is the best candidate of one anchored peel around
    current: its best feasible superset, the best feasible group outside it,
    or current unchanged. Around a feasible current the peel is floored at
    its alpha: it runs none when it cannot beat current, and otherwise
    peels only the merged nodes and the old ones heavy enough to beat it,
    unless the cut cannot be certified (see ``_repair``).
    With an empty extra graph and no bridges nothing changes.
    """
    return _step(sess, "augment", _merge, extra, list(bridges) if bridges else [])


def load_augment(ev: ScheduleEvent) -> tuple[SimGraph, list[tuple[int, int, float]]]:
    """The extra graph and the bridge edges an augment event names."""
    from .dataio import parse_bridges, read_msg1

    return read_msg1(ev.value), parse_bridges(ev.bridges) if ev.bridges else []


def run_schedule(sess: Session, events: list[ScheduleEvent]) -> list[StepRecord]:
    """Apply events in order, aborting on the first invalid one.

    Returns the history records the events appended, one per event; the error
    for an invalid event carries its 1-based position in the list.
    """
    records: list[StepRecord] = []
    for i, ev in enumerate(events, start=1):
        try:
            if ev.kind == "augment":
                _step(sess, ev.text(), _merge, *load_augment(ev))
            else:
                _step(sess, ev.text(), _retarget, next_constraints(sess.constraints, ev))
        except MselError as e:
            raise ScheduleError(str(e), step=i) from e
        records.append(sess.history[-1])
    return records


_INIT_RE = re.compile(r"^init\s+p\s*=\s*(\d+)\s+s\s*=\s*([0-9.eE+-]+)$")
_DELTA_RE = re.compile(r"^([ps])\s*(\+=|-=|=)\s*(\S+)$")
_AUGMENT_RE = re.compile(r"^augment\s+(\S+)(?:\s+bridges\s+(\S+))?$")


def parse_schedule(path: str | Path) -> tuple[ConstraintPair, list[ScheduleEvent]]:
    """Read a schedule file: an init line, then one constraint event per line.

    Grammar: `init p=<int> s=<real>` first, then `p += <int>`, `p -= <int>`,
    `p = <int>`, the same three forms for `s` with finite reals, or
    `augment <path> [bridges <path>]`. Blank lines and `#` comments are
    skipped. Relative event paths resolve against the schedule's directory.
    A set event's value must be in range, as on the init line (s in (0,1),
    p >= 0); a delta is range-checked when it runs.
    """
    path = Path(path)
    text = read_text(path, "cannot read schedule")

    init: ConstraintPair | None = None
    events: list[ScheduleEvent] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if init is None:
            m = _INIT_RE.match(line)
            if not m:
                raise ParseError(
                    f"first directive must be 'init p=<int> s=<real>', got {line!r}",
                    path=str(path), line=lineno,
                )
            try:
                init = ConstraintPair(s=float(m.group(2)), p=int(m.group(1)))
            except (MselError, ValueError) as e:
                raise ParseError(str(e), path=str(path), line=lineno) from e
            continue
        m = _AUGMENT_RE.match(line)
        if m:
            gpath = str((path.parent / m.group(1)).resolve())
            bpath = str((path.parent / m.group(2)).resolve()) if m.group(2) else None
            events.append(ScheduleEvent("augment", gpath, bridges=bpath))
            continue
        m = _DELTA_RE.match(line)
        if m:
            var, op, val = m.groups()
            try:
                if var == "p":
                    num: int | float = int(val)
                    kind = "size_set" if op == "=" else "size_delta"
                else:
                    num = float(val)
                    if not math.isfinite(num):
                        raise ValueError(val)
                    kind = "similarity_set" if op == "=" else "similarity_delta"
            except ValueError as e:
                raise ParseError(f"bad number {val!r}", path=str(path), line=lineno) from e
            if op == "-=":
                num = -num
            ev = ScheduleEvent(kind, num)
            if op == "=":
                # a set event's value is known here, a delta's result only
                # once the events before it have run
                try:
                    next_constraints(init, ev)
                except MselError as e:
                    raise ParseError(str(e), path=str(path), line=lineno) from e
            events.append(ev)
            continue
        raise ParseError(f"unrecognized directive {line!r}", path=str(path), line=lineno)

    if init is None:
        raise ParseError("schedule has no init line", path=str(path))
    return init, events
