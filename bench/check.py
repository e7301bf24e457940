"""Output checks for the benchmark, independent of the package under test.

Graphs are held as flat numpy edge arrays parsed from the generator's files
by this module, and constraints are re-derived from the schedule text, so a check
never trusts the package's graph, arithmetic or constraint bookkeeping. A
set event takes the written value exactly: `s = 0.1` means 0.1, however the
package arrives at its own value.

A failed check carries a severity. ``invalid`` means the output breaks the
problem's rules: a group that is too small or has an unsupported member, an
``alpha`` that is not W(F)/|F|, a wrong ``feasible`` flag, or no group held
while one exists. ``quality`` means a valid group whose ``alpha`` is below a
third of a fresh peel's, which breaks the factor-3 promise because the fresh
peel's ``alpha`` is at most the optimum.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

INVALID = "invalid"
QUALITY = "quality"


@dataclass(frozen=True)
class EdgeArrays:
    """Undirected edge list as parallel arrays, endpoints ``u < v``."""

    n: int
    u: np.ndarray
    v: np.ndarray
    w: np.ndarray

    @classmethod
    def from_edges(cls, n: int, edges) -> "EdgeArrays":
        arr = np.array(edges, dtype=np.float64).reshape(-1, 3)
        return cls(n, arr[:, 0].astype(np.int64), arr[:, 1].astype(np.int64), arr[:, 2].copy())

    def augmented(self, n_extra: int, extra, bridges) -> "EdgeArrays":
        """This graph with ``extra`` appended past its ids, joined by ``bridges``."""
        ex = EdgeArrays.from_edges(n_extra, extra)
        br = EdgeArrays.from_edges(n_extra, bridges)
        off = self.n
        return EdgeArrays(
            self.n + n_extra,
            np.concatenate([self.u, ex.u + off, br.u]),
            np.concatenate([self.v, ex.v + off, br.v + off]),
            np.concatenate([self.w, ex.w, br.w]),
        )

    def weigh(self, members: np.ndarray, s: float) -> tuple[float, bool]:
        """(fsum of in-group weights, every member has an in-group edge above s)."""
        mask = np.zeros(self.n, dtype=bool)
        mask[members] = True
        inside = mask[self.u] & mask[self.v]
        total = math.fsum(self.w[inside].tolist())
        strong = inside & (self.w > s)
        supported = np.zeros(self.n, dtype=bool)
        supported[self.u[strong]] = True
        supported[self.v[strong]] = True
        return total, bool(supported[members].all())


@dataclass(frozen=True)
class Step:
    """One schedule step as the schedule text defines it."""

    label: str
    kind: str       # init, p_up, p_down, p_set, s_up, s_down, s_set, augment
    p: int
    s: float
    version: int    # number of augments applied so far


_INIT = re.compile(r"^init\s+p\s*=\s*(\d+)\s+s\s*=\s*(\S+)$")
_MOVE = re.compile(r"^([ps])\s*(\+=|-=|=)\s*(\S+)$")
_KINDS = {"+=": "up", "-=": "down", "=": "set"}


def derive_steps(text: str) -> list[Step]:
    """Constraints after every step, from the schedule text alone."""
    steps: list[Step] = []
    p = s = None
    version = 0
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        m = _INIT.match(line)
        if m and not steps:
            p, s = int(m.group(1)), float(m.group(2))
            steps.append(Step(line, "init", p, s, version))
            continue
        if line.startswith("augment"):
            version += 1
            steps.append(Step(line, "augment", p, s, version))
            continue
        m = _MOVE.match(line)
        if not m or not steps:
            raise ValueError(f"cannot derive constraints from {line!r}")
        var, op, val = m.groups()
        if var == "p":
            d = int(val)
            p = d if op == "=" else p + d if op == "+=" else p - d
        else:
            d = float(val)
            s = d if op == "=" else s + d if op == "+=" else s - d
        steps.append(Step(line, f"{var}_{_KINDS[op]}", p, s, version))
    return steps


@dataclass(frozen=True)
class Reference:
    """A fresh solve's outcome, as the checker re-measures it."""

    feasible: bool
    alpha: float


def reference_of(edges: EdgeArrays, members: np.ndarray, p: int, s: float) -> Reference:
    if members.size == 0:
        return Reference(False, 0.0)
    total, supported = edges.weigh(members, s)
    return Reference(members.size > p and supported, total / members.size)


def check_step(
    edges: EdgeArrays,
    step: Step,
    members: np.ndarray,
    alpha: float,
    size: int,
    feasible: bool,
    ref: Reference,
) -> list[tuple[str, str]]:
    """Failed checks of one reported step as (severity, message) pairs."""
    out: list[tuple[str, str]] = []
    k = int(members.size)
    if size != k:
        out.append((INVALID, f"reported size {size} but holds {k} members"))
    total, supported = edges.weigh(members, step.s) if k else (0.0, True)
    expect = total / k if k else 0.0
    if not math.isclose(alpha, expect, rel_tol=1e-9):
        out.append((INVALID, f"alpha {alpha!r} != fsum(W)/|F| = {expect!r}"))
    truly = k > step.p and supported
    if feasible != truly:
        out.append((INVALID, f"feasible flag {feasible} but the group is {'' if truly else 'in'}feasible"))
    if not truly and ref.feasible:
        why = f"|F|={k} <= p={step.p}" if k <= step.p else f"a member has no in-group edge > s={step.s!r}"
        out.append((INVALID, f"holds no feasible group ({why}) but a fresh solve finds one"))
    if truly and ref.feasible and alpha < ref.alpha / 3.0:
        out.append((QUALITY, f"alpha {alpha:.6g} below a third of the fresh alpha {ref.alpha:.6g}"))
    return out


def check_converted(
    mode: str,
    k: int | None,
    n: int,
    edge_lines: list[tuple[int, int, float]],
    values: np.ndarray,
    pairs: set[tuple[int, int]],
    pair_weight: Callable[[np.ndarray, np.ndarray], float],
    sample: list[int],
    nodes: Sequence[int] = (),
) -> list[tuple[str, str]]:
    """Failed checks of one converted graph, given its edges as written.

    ``values`` are the min-max normalised features and ``pairs`` the
    deduplicated non-self citation pairs; ``sample`` indexes the edges whose
    weights are recomputed with ``pair_weight``, and in knn mode ``nodes``
    are the nodes whose neighbours are checked against all rows.
    """
    out: list[tuple[str, str]] = []
    got = {(u, v) for u, v, _ in edge_lines}
    if len(got) != len(edge_lines):
        out.append((INVALID, "duplicate edges"))
    if any(not (0 <= u < v < n) for u, v, _ in edge_lines):
        out.append((INVALID, "edge endpoints out of order or range"))
        return out
    if mode == "edges":
        expect = {(u, v) for u, v in pairs if np.any(values[u] != 1.0 - values[v])}
        if got != expect:
            out.append((INVALID, f"{len(got ^ expect)} edges differ from the citation pairs"))
    else:
        deg = np.bincount(
            np.array([e[0] for e in edge_lines] + [e[1] for e in edge_lines], dtype=np.int64),
            minlength=n,
        )
        short = int((deg < k).sum())
        if short:
            out.append((INVALID, f"{short} nodes have fewer than k={k} neighbours"))
        missed = knn_misses(k, edge_lines, values, nodes)
        if missed:
            out.append((INVALID, f"{missed} of {len(nodes)} sampled nodes miss one of their "
                                 f"{k} most similar rows"))
    bad = 0
    for i in sample:
        u, v, w = edge_lines[i]
        ref = pair_weight(values[u], values[v])
        if not math.isclose(w, ref, rel_tol=1e-9, abs_tol=0.0):
            bad += 1
    if bad:
        out.append((INVALID, f"{bad} of {len(sample)} sampled weights differ from pair_weight"))
    return out


def knn_misses(k: int, edge_lines, values: np.ndarray, nodes, tol: float = 1e-12) -> int:
    """How many of ``nodes`` lack one of their k most similar rows among their
    written neighbours. Weights are recomputed against every row; a row tied
    with the k-th weight may stand in for another."""
    nbrs: dict[int, set[int]] = {u: set() for u in nodes}
    for u, v, _ in edge_lines:
        if u in nbrs:
            nbrs[u].add(v)
        if v in nbrs:
            nbrs[v].add(u)
    d = values.shape[1]
    missed = 0
    for u in nodes:
        agree = 1.0 - np.abs(values - values[u])
        w = np.minimum(np.sqrt(np.einsum("ij,ij->i", agree, agree) / d), 1.0)
        w[u] = -1.0
        kth = np.partition(w, w.size - k)[w.size - k]
        above = set(np.flatnonzero(w > kth + tol).tolist())
        at_least = set(np.flatnonzero((w >= kth - tol) & (w > 0.0)).tolist())
        need = min(k, len(at_least))
        if not above <= nbrs[u] or len(nbrs[u] & at_least) < need:
            missed += 1
    return missed


def normalize(raw: np.ndarray) -> np.ndarray:
    """Per-column min-max scaling into [0, 1], constant columns to 0."""
    arr = np.asarray(raw, dtype=np.float64)
    lo = arr.min(axis=0)
    span = arr.max(axis=0) - lo
    out = np.zeros_like(arr)
    varying = span > 0
    out[:, varying] = (arr[:, varying] - lo[varying]) / span[varying]
    return out


def parse_bridges(path) -> list[tuple[int, int, float]]:
    """The ``u v w`` lines of a bridge list, read without the package."""
    with open(path, encoding="utf-8") as fh:
        rows = [ln.split() for ln in (raw.strip() for raw in fh) if ln and not ln.startswith("#")]
    return [(int(a), int(b), float(c)) for a, b, c in rows]


def parse_msg1_edges(path) -> tuple[int, list[tuple[int, int, float]]]:
    """(node count, edge lines) of an MSG1 file, read without the package."""
    with open(path, encoding="utf-8") as fh:
        lines = [ln for ln in (raw.strip() for raw in fh) if ln and not ln.startswith("#")]
    if not lines or lines[0] != "MSG1":
        raise ValueError(f"{path}: not an MSG1 file")
    n, m = (int(x) for x in lines[1].split())
    edges = [(int(a), int(b), float(c)) for a, b, c in (ln.split() for ln in lines[2:])]
    if len(edges) != m:
        raise ValueError(f"{path}: header promises {m} edges, found {len(edges)}")
    return n, edges
