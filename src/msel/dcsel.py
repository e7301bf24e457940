"""Incremental maintenance of a selected group under changing constraints.

A Session wraps one graph plus the current constraint pair and solution. When
a constraint changes, the session reuses what earlier peels already computed:
size decreases are answered from the recorded per-size profile, size increases
peel only the nodes outside the current group, and similarity changes shrink
or regrow the group around its surviving core. Every peel performed along the
way folds its per-size records back into the session profile: a residual
peel's entry of size k becomes the group plus the last k nodes it removed,
stored at the combined size, so later decreases see them too. Every event runs
through one step: its repair proposes a group, and an event that would end
on an infeasible group gets one fresh peel of the whole graph, unless an
earlier one proved that no group is feasible.

A peel's removal order and per-size records depend on the graph, s and the
nodes it starts from, never on p. The session keeps its last whole-graph
peel and its last residual peel, so an event that would repeat one of them
with only p changed picks its answer from the kept run instead of peeling.

The session keeps the incumbent's membership mask, each node's weight into
the group and the group's support at the current similarity floor up to
date as members come and go. Bookkeeping for an event therefore costs the
degrees of the nodes that change; only residual and fresh peels touch the
whole graph.
"""

from __future__ import annotations

import heapq
import math
import re
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable

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
        """Canonical one-token-spacing form, used as the history label."""
        if self.kind == "size_set":
            return f"p={self.value}"
        if self.kind == "size_delta":
            v = self.value
            return f"p+={v}" if v >= 0 else f"p-={-v}"
        if self.kind == "similarity_set":
            return f"s={self.value:g}"
        if self.kind == "similarity_delta":
            v = self.value
            return f"s+={v:g}" if v >= 0 else f"s-={-v:g}"
        return f"augment {Path(self.value).name}"


@dataclass(frozen=True)
class StepRecord:
    step: int
    event: str
    alpha: float
    size: int
    feasible: bool
    wall_ns: int


class _Group:
    """The incumbent's membership plus every node's weight into it.

    For each node u, member or not, ``inw[u]`` sums the weights of u's edges
    to members and ``top[u]`` is the largest of them (0.0 without any), so
    the group is supported at s exactly when every member's ``top`` exceeds
    s. ``weight`` is W of the group. Adding or removing a node costs its
    degree, which lets an event pay for the nodes that change instead of
    rescanning the whole group. ``solution`` is the Solution the group was
    last adopted as, and None once a member changes.
    """

    __slots__ = ("graph", "members", "mask", "inw", "top", "weight", "solution", "_low")

    def __init__(self, g: SimGraph, members: Iterable[int] = ()):
        self.graph = g
        self._fill(members)

    def _fill(self, members: Iterable[int]) -> None:
        g = self.graph
        adj = g._adj
        self.members = set(members)
        self.mask = mask = bytearray(g.n)
        self.inw = inw = [0.0] * g.n
        self.top = top = [0.0] * g.n
        for u in self.members:
            mask[u] = 1
        for u in self.members:
            for t, w in adj[u]:
                inw[t] += w
                if w > top[t]:
                    top[t] = w
        self.weight = math.fsum(inw[u] for u in self.members) / 2.0
        self.solution = None
        self._low: float | None = None

    def copy(self) -> "_Group":
        new = _Group.__new__(_Group)
        new.graph = self.graph
        new.members = set(self.members)
        new.mask = bytearray(self.mask)
        new.inw = self.inw.copy()
        new.top = self.top.copy()
        new.weight = self.weight
        new.solution = self.solution
        new._low = self._low
        return new

    @property
    def alpha(self) -> float:
        return self.weight / len(self.members) if self.members else 0.0

    def _lowest_top(self) -> float:
        """Smallest ``top`` over members, recomputed only after it went stale."""
        if self._low is None:
            self._low = min(map(self.top.__getitem__, self.members), default=math.inf)
        return self._low

    def feasible(self, c: ConstraintPair) -> bool:
        """Same answer as ``is_feasible(members, graph, c)``."""
        return len(self.members) > c.p and self._lowest_top() > c.s

    def add(self, u: int) -> None:
        mask, inw, top, low = self.mask, self.inw, self.top, self._low
        mask[u] = 1
        self.members.add(u)
        self.weight += inw[u]
        for t, w in self.graph._adj[u]:
            inw[t] += w
            if w > top[t]:
                if mask[t] and top[t] == low:
                    low = None
                top[t] = w
        if low is not None and top[u] < low:
            low = top[u]
        self._low = low
        self.solution = None

    def remove(self, u: int) -> None:
        adj = self.graph._adj
        mask, inw, top, low = self.mask, self.inw, self.top, self._low
        mask[u] = 0
        self.members.discard(u)
        self.weight = self.weight - inw[u] if self.members else 0.0
        if top[u] == low:
            low = None
        for t, w in adj[u]:
            inw[t] -= w
            if w == top[t]:
                top[t] = max((w2 for x, w2 in adj[t] if mask[x]), default=0.0)
                if mask[t] and low is not None and top[t] < low:
                    low = top[t]
        self._low = low
        self.solution = None

    def move_to(self, target: frozenset[int]) -> None:
        """Make ``target`` the member set: node by node, or by refilling from
        scratch when more nodes change than ``target`` holds. The refill also
        keeps ``weight`` a sum over the group's own edges rather than a long
        chain of differences ending at a much smaller group."""
        gone = self.members - target
        new = target - self.members
        if len(gone) + len(new) > len(target):
            self._fill(target)
            return
        for u in gone:
            self.remove(u)
        for u in new:
            self.add(u)

    def absorb(self, floor: float | None = None) -> None:
        """Add outside nodes while the best one's weight into the group beats α.

        Each accepted node strictly raises the average, so the loop terminates.
        Candidates are outside nodes with an edge into the group and, when
        ``floor`` is given, a largest incident weight above it; ties break to
        the lowest id.
        """
        if not self.members:
            return
        adj, mask, inw = self.graph._adj, self.mask, self.inw
        maxw = self.graph._max_weights() if floor is not None else None
        heap = [
            (-iw, u) for u, iw in enumerate(inw)
            if iw > 0.0 and not mask[u] and (maxw is None or maxw[u] > floor)
        ]
        heapq.heapify(heap)
        size = len(self.members)
        while heap:
            niw, u = heapq.heappop(heap)
            iw = -niw
            if mask[u] or iw != inw[u]:
                continue
            if iw * size <= self.weight:
                break
            self.add(u)
            size += 1
            for t, _ in adj[u]:
                if not mask[t] and (maxw is None or maxw[t] > floor):
                    heapq.heappush(heap, (-inw[t], t))

    def extend_graph(self, g: SimGraph, bridges: list[tuple[int, int, float]]) -> None:
        """Move onto ``g = disjoint_union(self.graph, extra, bridges)``; the
        added nodes start outside, so only bridge ends change weight."""
        offset = self.graph.n
        k = g.n - offset
        self.graph = g
        self.mask.extend(bytes(k))
        self.inw.extend([0.0] * k)
        self.top.extend([0.0] * k)
        for u, v, w in bridges:
            if self.mask[u]:
                v += offset
                self.inw[v] += float(w)
                self.top[v] = max(self.top[v], float(w))


@dataclass
class Session:
    """Mutable solver state: graph, constraints, solution, profile, history.

    ``event_removals`` counts peel removals caused by constraint events, so
    tests can compare incremental work against from-scratch re-solving; the
    initial solve's removals live only in ``stats``. ``_group`` mirrors
    ``current``; it is rebuilt whenever ``graph`` or ``current`` is assigned
    from outside the event functions. ``_empty_at`` holds the graph and
    constraints of the last whole-graph peel that found nothing.

    ``_runs`` keeps the last whole-graph peel (key True) and the last
    residual peel (key False) as ``(graph, s, start mask, run)``, the mask
    being None for a whole-graph peel and the bytes of the group peeled
    around otherwise. A peel of the same graph with the same s and start
    set is answered from the kept run; only peels actually run count in
    ``stats`` and ``event_removals``.
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
    _runs: dict[bool, tuple[SimGraph, float, bytes | None, PeelRun]] = field(
        default_factory=dict, repr=False, compare=False)


def _proven_empty(sess: Session) -> bool:
    """True when no group can be feasible: a whole-graph peel of this graph
    found nothing under constraints no tighter than the current ones. A peel
    finds nothing only when its similarity prefilter leaves at most its p
    nodes, and every group feasible under tighter constraints survives that
    prefilter."""
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
    """Make ``grp`` the incumbent, with its weight summed over its own edges."""
    if grp.solution is None:
        if grp.members:
            grp.solution = Solution(frozenset(grp.members), grp.weight, grp.alpha)
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
    stats = PeelStats()
    sol, profile = modified_sgsel(g, c, stats=stats)
    sess = Session(graph=g, constraints=c, current=sol, profile=profile, stats=stats,
                   _empty_at=None if sol else (g, c), _runs={True: (g, c.s, None, profile.run)})
    _adopt(sess, _Group(g, sol.members))
    _record(sess, "init", t0)
    return sess


def _remember_current(sess: Session) -> None:
    """Store the adopted solution in the profile so later decreases can see it."""
    sol = sess.current
    if sol:
        sess.profile.record(sol.size, sol.alpha, PeelTrace(tuple(sorted(sol.members))))


def _fold_residual(sess: Session, base: _Group | None, run: PeelRun) -> None:
    """Merge a seeded peel's per-size records into the session profile.

    Records from a peel of V minus ``base`` describe residual sets; the folded
    entry at size |base|+k describes base union the residual set of size k,
    with the objective recomputed to include the base weight and the weight
    crossing between base and residual nodes. Its trace is the residual
    order followed by the base members, so its last |base|+k nodes are that
    union. A peel removes every node it starts with, so it holds a record
    for every k.
    """
    order, alphas = run.trace.order, run.alphas
    if not order:
        return
    if base is None or not base.members:
        for k in range(1, len(order) + 1):
            sess.profile.record(k, alphas[k], run.trace)
        return
    inw = base.inw
    folded = PeelTrace(order + tuple(sorted(base.members)))
    cross = 0.0
    nb = len(base.members)
    n_resid = len(order)
    for j in range(n_resid - 1, -1, -1):
        cross += inw[order[j]]
        k = n_resid - j
        combined_w = base.weight + alphas[k] * k + cross
        sess.profile.record(nb + k, combined_w / (nb + k), folded)


def _peel(sess: Session, c: ConstraintPair, outside: _Group | None = None) -> frozenset[int]:
    """The members of the best feasible group among the nodes outside
    ``outside`` (the whole graph when None), folding the per-size records
    into the session profile.

    The session's kept run of the same kind answers when its graph, s and
    start set match, at no peel cost; otherwise the peel runs, its work is
    counted and its run replaces the kept one. The fold runs either way,
    against the group's weights as they are now, so the profile gets the
    same entries as from a new peel.
    """
    g, whole = sess.graph, outside is None
    mask = None if whole else bytes(outside.mask)
    kept = sess._runs.get(whole)
    if kept is not None and kept[0] is g and kept[1] == c.s and kept[2] == mask:
        run = kept[3]
    else:
        within = None if whole else [u for u, inside in enumerate(mask) if not inside]
        before = sess.stats.removals
        run = modified_sgsel(g, c, within=within, stats=sess.stats)[1].run
        sess.event_removals += sess.stats.removals - before
        sess._runs[whole] = (g, c.s, mask, run)
    _fold_residual(sess, outside, run)
    return run.best(c.p)


def _fresh_fallback(sess: Session, grp: _Group, c: ConstraintPair) -> None:
    """Peel the whole graph once and move ``grp`` onto the result if it is
    feasible. Groups that mix incumbent members with outside nodes are
    invisible to a residual peel; only this decides whether any exist."""
    fresh = _peel(sess, c)
    if fresh:  # a peel returns a feasible group or none
        grp.move_to(fresh)
    else:
        sess._empty_at = (sess.graph, c)


def _step(sess: Session, label: str, repair: Callable[..., _Group | None], *args) -> Solution:
    """Run one event and record it.

    ``repair(sess, *args)`` applies the event and returns the group it
    proposes, or None when the incumbent stands. An outcome that is
    infeasible under the constraints now in force gets one fresh peel of the
    whole graph, unless an earlier one proved that nothing is feasible; only
    then is a proposed group adopted, and only a feasible one is stored in
    the profile.
    """
    t0 = time.perf_counter_ns()
    grp = repair(sess, *args)
    c = sess.constraints
    if grp is None and not _group_of(sess).feasible(c):
        grp = _group_of(sess)
    if grp is not None:
        if not grp.feasible(c) and not _proven_empty(sess):
            _fresh_fallback(sess, grp, c)
        _adopt(sess, grp)
        if grp.feasible(c):
            _remember_current(sess)
    _record(sess, label, t0)
    return sess.current


def _refill(sess: Session, grp: _Group, c: ConstraintPair, budget: int, floor: float | None = None) -> _Group:
    """Peel outside ``grp`` with size floor ``budget``, merge the best residual
    group in and absorb outside nodes (none whose largest weight is at most
    ``floor``)."""
    for u in _peel(sess, ConstraintPair(s=c.s, p=budget), grp):
        grp.add(u)
    grp.absorb(floor)
    return grp


def _grow(sess: Session) -> _Group:
    grp = _group_of(sess)
    grp.absorb()
    return grp


def expand_greedy(sess: Session, label: str = "expand") -> Solution:
    """Grow the current group by the absorb rule and record the outcome."""
    if not sess.current:
        raise PreconditionError("expansion needs a nonempty current solution")
    return _step(sess, label, _grow)


def _constraints(p: int, s: float) -> ConstraintPair:
    if p < 0:
        raise ParameterError(f"size constraint would become {p}")
    if not (0.0 < s < 1.0):
        raise ParameterError(f"similarity constraint would become {s}")
    return ConstraintPair(s=s, p=p)


def next_constraints(c: ConstraintPair, ev: ScheduleEvent) -> ConstraintPair:
    """The constraints in force after ``ev``. Set events take their value
    exactly, deltas add to the current value, and augment changes nothing."""
    if ev.kind == "size_set":
        return _constraints(ev.value, c.s)
    if ev.kind == "size_delta":
        return _constraints(c.p + ev.value, c.s)
    if ev.kind == "similarity_set":
        return _constraints(c.p, ev.value)
    if ev.kind == "similarity_delta":
        return _constraints(c.p, c.s + ev.value)
    return c


def _improve_pass(sess: Session) -> _Group:
    """Peel outside the current group, then propose the best of: the union of
    current and the residual group (absorbed), the residual group alone
    (absorbed), or the unchanged current. Feasibility outranks the objective,
    and the incumbent wins exact ties."""
    c = sess.constraints
    grp = _group_of(sess)
    resid = _peel(sess, c, grp)

    candidates: list[_Group] = []
    if grp.members or resid:
        union = grp.copy()
        for u in resid:
            union.add(u)
        union.absorb()
        candidates.append(union)
    if grp.members and resid:
        alone = _Group(sess.graph, resid)
        alone.absorb()
        candidates.append(alone)

    best = grp
    best_key = (grp.feasible(c), sess.current.alpha)
    for cand in candidates:
        key = (cand.feasible(c), cand.alpha)
        if key > best_key:
            best, best_key = cand, key
    return best


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
        floor = sess.current.alpha if grp.feasible(c_new) else -1.0
        ranked = sorted(
            (e for e in sess.profile.items() if e[0] > c_new.p and e[1] > floor),
            key=lambda e: (-e[1], e[0]),
        )
        for size, _, trace in ranked:
            cand = grp.copy()
            cand.move_to(trace.members_at(size))
            if cand.alpha > floor and cand.feasible(c_new):
                # adopted here rather than proposed: the profile holds it already
                _adopt(sess, cand)
                break
        return None
    if c_new.p > c_old.p:
        if sess.current and c_new.p < sess.current.size:
            return None
        return _refill(sess, grp, c_new, c_new.p - c_old.p)
    if c_new.s < c_old.s:
        return _improve_pass(sess)
    if c_new.s > c_old.s:
        maxw = sess.graph._max_weights()
        grp.move_to(frozenset(u for u in grp.members if maxw[u] > c_new.s))
        if len(grp.members) > c_new.p and grp.feasible(c_new):
            return grp
        return _refill(sess, grp, c_new, max(c_new.p - len(grp.members), 0), floor=c_new.s)
    return None


def apply_size_delta(sess: Session, dp: int, label: str | None = None) -> Solution:
    """Move the size floor by ``dp`` and repair the solution.

    Decreases consult the profile: a feasible group strictly better than the
    incumbent is adopted (or the best feasible one, if the incumbent is not
    itself feasible). Increases that the current group already satisfies are
    free; otherwise the nodes outside the group are peeled with size budget
    ``dp``, the best residual group is merged in, and the absorb rule runs
    on the union.
    """
    c_new = _constraints(sess.constraints.p + dp, sess.constraints.s)
    label = ScheduleEvent("size_delta", int(dp)).text() if label is None else label
    return _step(sess, label, _retarget, c_new)


def apply_similarity_delta(sess: Session, ds: float, label: str | None = None) -> Solution:
    """Move the similarity floor by ``ds`` and repair the solution.

    Raising the floor strips nodes that no longer have any qualifying edge;
    if the stripped group is still valid it is kept, otherwise the gap is
    refilled by a seeded peel of the remaining search space. Lowering the
    floor enlarges the search space, which is handled as an improvement pass
    over everything outside the current group.
    """
    c_new = _constraints(sess.constraints.p, sess.constraints.s + ds)
    label = ScheduleEvent("similarity_delta", float(ds)).text() if label is None else label
    return _step(sess, label, _retarget, c_new)


def _merge(sess: Session, extra: SimGraph, bridges: list[tuple[int, int, float]]) -> _Group | None:
    grp = _group_of(sess)
    merged = disjoint_union(sess.graph, extra, bridges)
    grp.extend_graph(merged, bridges)
    sess.graph = merged
    if extra.n == 0 and not bridges:
        return None
    return _improve_pass(sess)


def augment_graph(
    sess: Session,
    extra: SimGraph,
    bridges: list[tuple[int, int, float]] | None = None,
    label: str = "augment",
) -> Solution:
    """Merge a second graph (ids remapped past the current ones) plus optional
    bridge edges, then search the enlarged space for a better group.

    The adopted result is the best feasible candidate among: current absorbed
    into the merged residual group, the residual group alone, or current
    unchanged. With an empty extra graph and no bridges nothing changes.
    """
    return _step(sess, label, _merge, extra, list(bridges) if bridges else [])


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
                augment_graph(sess, *load_augment(ev), label=ev.text())
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
    `p = <int>`, the same three forms for `s` with reals, or
    `augment <path> [bridges <path>]`. Blank lines and `#` comments are
    skipped. Relative event paths resolve against the schedule's directory.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as e:
        raise ParseError(f"cannot read schedule: {e}", path=str(path)) from e

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
                    kind = "similarity_set" if op == "=" else "similarity_delta"
            except ValueError as e:
                raise ParseError(f"bad number {val!r}", path=str(path), line=lineno) from e
            if op == "-=":
                num = -num
            events.append(ScheduleEvent(kind, num))
            continue
        raise ParseError(f"unrecognized directive {line!r}", path=str(path), line=lineno)

    if init is None:
        raise ParseError("schedule has no init line", path=str(path))
    return init, events
