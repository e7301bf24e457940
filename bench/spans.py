"""In-memory span recording around the package's layer entry points.

A traced run rebinds, for its own process only, the module attributes
through which one layer calls the next (``msel.dcsel.modified_sgsel``,
``msel.dataio.SimGraph``, ``msel.cli.write_msg1`` ...), so each call opens a
span: name, start, end, parent span and run id. Calls that happen hundreds of
thousands of times per event (``incident_weight``, ``is_feasible``,
``cross_weight``, ``Solution.from_members``) are leaves: each is counted and
timed into its enclosing span instead of getting a span of its own, which
keeps the tracer's memory and time small. A span's self time is its duration
minus its child spans and leaves. Spans are written as JSON lines at the end.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path

import msel.cli
import msel.dataio
import msel.dcsel
import msel.graph
import msel.similarity

_now = time.perf_counter_ns


class Span:
    __slots__ = ("id", "name", "parent", "start", "end", "attrs", "leaves", "child_ns")

    def __init__(self, sid: int, name: str, parent: "Span | None", attrs: dict):
        self.id = sid
        self.name = name
        self.parent = parent
        self.attrs = attrs
        self.leaves: dict[str, list[int]] = {}
        self.child_ns = 0
        self.start = _now()
        self.end = self.start

    @property
    def ns(self) -> int:
        return self.end - self.start

    @property
    def self_ns(self) -> int:
        return self.ns - self.child_ns - sum(t for _, t in self.leaves.values())

    def within(self, name: str) -> bool:
        """True when some enclosing span has this name."""
        s = self.parent
        while s is not None:
            if s.name == name:
                return True
            s = s.parent
        return False


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._root = Span(-1, "root", None, {})
        self._undo: list[tuple[object, str, object]] = []
        # Seconds read from the record are multiplied by this, so a caller
        # can put them at the reference speed of clock.Clock.
        self.scale = 1.0

    @contextmanager
    def span(self, name: str, **attrs):
        parent = self._stack[-1] if self._stack else None
        sp = Span(len(self.spans), name, parent, attrs)
        self.spans.append(sp)
        self._stack.append(sp)
        try:
            yield sp
        finally:
            sp.end = _now()
            self._stack.pop()
            if parent is not None:
                parent.child_ns += sp.ns

    def _spanned(self, fn, name_of):
        def wrapper(*args, **kwargs):
            with self.span(name_of(args, kwargs)):
                return fn(*args, **kwargs)
        return wrapper

    def _leaf(self, fn, name: str):
        stack = self._stack
        root = self._root

        def wrapper(*args, **kwargs):
            t0 = _now()
            try:
                return fn(*args, **kwargs)
            finally:
                acc = (stack[-1] if stack else root).leaves.setdefault(name, [0, 0])
                acc[0] += 1
                acc[1] += _now() - t0
        return wrapper

    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Rebind the cross-module entry points; ``uninstall`` restores them."""

        def peel_name(args, kwargs):
            if kwargs.get("within", args[2] if len(args) > 2 else None) is not None:
                return "peel.residual"
            top = self._stack[-1] if self._stack else None
            return "peel.init" if top is not None and top.name == "dcsel.init" else "peel.fallback"

        def build_name(args, kwargs):
            return f"similarity.{kwargs.get('mode', args[1] if len(args) > 1 else 'edges')}"

        spans = [
            (msel.dcsel, "disjoint_union", "graph.disjoint_union"),
            (msel.dataio, "SimGraph", "graph.build"),
            (msel.similarity, "SimGraph", "graph.build"),
            (msel.dataio, "read_msg1", "dataio.read_msg1"),
            (msel.dataio, "parse_bridges", "dataio.parse_bridges"),
            (msel.dcsel, "parse_schedule", "dataio.parse_schedule"),
            (msel.dataio, "load_content_cites", "dataio.load_content_cites"),
            (msel.cli, "load_content_cites", "dataio.load_content_cites"),
            (msel.cli, "write_msg1", "dataio.write_msg1"),
            (msel.dataio, "normalize_attributes", "similarity.normalize"),
        ]
        for owner, attr, name in spans:
            self._patch(owner, attr, self._spanned(getattr(owner, attr), lambda a, k, name=name: name))
        self._patch(msel.dcsel, "modified_sgsel", self._spanned(msel.dcsel.modified_sgsel, peel_name))
        self._patch(msel.dataio, "build_similarity_graph",
                    self._spanned(msel.dataio.build_similarity_graph, build_name))
        for attr in ("incident_weight", "is_feasible", "cross_weight"):
            self._patch(msel.dcsel, attr, self._leaf(getattr(msel.dcsel, attr), f"graph.{attr}"))
        from_members = vars(msel.graph.Solution)["from_members"].__func__
        self._patch(msel.graph.Solution, "from_members",
                    classmethod(self._leaf(from_members, "graph.from_members")))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    # -- reading the record -------------------------------------------------

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def self_s(self, name: str, pred=lambda s: True) -> float:
        return sum(s.self_ns for s in self.spans if s.name == name and pred(s)) / 1e9 * self.scale

    def leaf(self, name: str) -> tuple[int, float]:
        """(calls, seconds) of a leaf over the whole run."""
        calls = ns = 0
        for s in [self._root, *self.spans]:
            c, t = s.leaves.get(name, (0, 0))
            calls += c
            ns += t
        return calls, ns / 1e9 * self.scale

    def write_jsonl(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "run": self.run_id,
                    "id": s.id,
                    "name": s.name,
                    "parent": s.parent.id if s.parent is not None else None,
                    "start_ns": s.start,
                    "end_ns": s.end,
                    "self_ns": s.self_ns,
                    "attrs": s.attrs,
                    "leaves": s.leaves,
                }) + "\n")
