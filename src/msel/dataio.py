"""Dataset ingestion, the MSG1 graph file format, and bridge lists.

Citation datasets arrive as two text files: a content file with one node per
line (`id f1 ... fd label`, whitespace separated) and a cites file with one
`cited citing` pair per line. MSG1 is this package's graph interchange file:

    MSG1
    N M
    u v w        (M times, 0 <= u < v < N, w in (0,1])

with `#` comment lines allowed, UTF-8, LF endings. Weights are written with
at least six significant digits so reading a written file reproduces every
weight bit for bit. Node labels are not carried by MSG1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain, compress, repeat
from operator import lt
from pathlib import Path

import numpy as np

from .errors import DataError, MselError, ParseError
from .graph import SimGraph
from .similarity import (
    AttributeMatrix,
    build_similarity_graph,
    last_of_each_pair,
    normalize_attributes,
)


@dataclass(frozen=True)
class RawDataset:
    """Parsed citation dataset: ids, feature rows, labels, raw citation pairs.

    ``dropped_citations`` counts cite lines whose endpoints were unknown ids;
    they are excluded from ``cite_edges``.
    """

    ids: tuple[str, ...]
    features: np.ndarray
    labels: tuple[str, ...]
    cite_edges: tuple[tuple[str, str], ...]
    dropped_citations: int = 0

    @property
    def n(self) -> int:
        return len(self.ids)

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    @cached_property
    def cite_pairs(self) -> np.ndarray:
        """The citation pairs as dense ids, an (m, 2) int64 array of rows
        u < v in increasing order: symmetrized, deduplicated, self-citations
        dropped. Built on first use and kept."""
        index = {ext: i for i, ext in enumerate(self.ids)}
        ends = np.fromiter(map(index.__getitem__, chain.from_iterable(self.cite_edges)),
                           np.int64, 2 * len(self.cite_edges)).reshape(-1, 2)
        ends = ends[ends[:, 0] != ends[:, 1]]
        ends = ends[last_of_each_pair(ends[:, 0], ends[:, 1], self.n)]
        ends.sort(axis=1)
        return ends


def load_content_cites(content_path: str | Path, cites_path: str | Path) -> RawDataset:
    """Parse a content/cites file pair into a RawDataset.

    Node ids must be unique; every content line must carry the same number of
    feature columns. Citation lines naming an unknown id are dropped and
    counted rather than treated as errors.
    """
    content_path = Path(content_path)
    cites_path = Path(cites_path)

    with _opened(content_path) as fh:
        lines = fh.read().split("\n")
    ids, features, labels = _content_columns(lines) or _content_by_line(lines, content_path)

    with _opened(cites_path) as fh:
        lines = fh.read().split("\n")
    fields = np.fromiter(map(len, map(str.split, lines)), np.int64, len(lines))
    bad = np.flatnonzero((fields != 0) & (fields != 2))
    if bad.size:
        raise ParseError(
            f"cites line needs `cited citing`, got {fields[bad[0]]} fields",
            path=str(cites_path), line=int(bad[0]) + 1,
        )
    # every line kept has two fields, so the tokens fall in pairs
    toks = " ".join(lines).split()
    known = np.fromiter(map(set(ids).__contains__, toks), bool, len(toks))
    kept = known.reshape(-1, 2).all(axis=1)
    edges = tuple(compress(zip(toks[0::2], toks[1::2]), kept))
    return RawDataset(tuple(ids), features, tuple(labels), edges, len(kept) - len(edges))


def _content_columns(lines: list[str]):
    """(ids, features, labels) of content lines that are all well formed,
    with every feature column parsed in one call; None when there are no
    nodes or any line needs ``_content_by_line``'s checks.

    ``np.loadtxt`` splits on the whitespace ``str.split`` splits on and
    parses a number as ``float`` does, so what it accepts gets the same
    bits; what it rejects (a ragged row, or ``float`` spellings it lacks,
    such as ``1_0`` or non-ASCII digits) goes line by line.
    """
    ids, bodies, labels = [], [], []
    for line in lines:
        head = line.split(None, 1)
        if not head:
            continue
        tail = head[1].rsplit(None, 1) if len(head) == 2 else ()
        if len(tail) != 2:
            return None
        ids.append(head[0])
        bodies.append(tail[0])
        labels.append(tail[1])
    if not ids or len(set(ids)) < len(ids):
        return None
    try:
        features = np.loadtxt(bodies, comments=None, ndmin=2)
    except ValueError:
        return None
    return ids, features, labels


def _content_by_line(lines: list[str], path: Path):
    """(ids, features, labels) of content lines, checked one line at a time;
    the first bad line raises."""
    ids: list[str] = []
    rows: list[np.ndarray] = []
    labels: list[str] = []
    seen: set[str] = set()
    dim = -1
    for lineno, raw in enumerate(lines, start=1):
        parts = raw.split()
        if not parts:
            continue
        if len(parts) < 3:
            raise ParseError(
                f"content line needs `id features... label`, got {len(parts)} fields",
                path=str(path), line=lineno,
            )
        ext, label = parts[0], parts[-1]
        if ext in seen:
            raise DataError(f"duplicate node id {ext!r} in {path}")
        seen.add(ext)
        try:
            vec = np.array(parts[1:-1], dtype=np.float64)
        except ValueError as e:
            raise ParseError(
                f"bad feature value: {e}", path=str(path), line=lineno
            ) from e
        if dim < 0:
            dim = vec.size
        elif vec.size != dim:
            raise ParseError(
                f"expected {dim} features, found {vec.size}",
                path=str(path), line=lineno,
            )
        ids.append(ext)
        rows.append(vec)
        labels.append(label)
    features = np.vstack(rows) if rows else np.zeros((0, 0))
    return ids, features, labels


def to_sim_graph(ds: RawDataset, mode: str = "edges", k: int | None = None) -> SimGraph:
    """Build a similarity graph from a dataset.

    External ids densify to 0..n-1 in content-file order. Citation pairs
    (``ds.cite_pairs``) supply the structure only for mode="edges".
    Features are min-max normalized per column before weighting, which
    leaves 0/1 columns' weights unchanged and brings unbounded columns into
    range.
    """
    attrs = AttributeMatrix(
        values=normalize_attributes(ds.features),
        ids=tuple(range(ds.n)),
        labels=ds.labels,
    )
    return build_similarity_graph(attrs, mode=mode, edges=ds.cite_pairs, k=k)


def dataset_stats(ds: RawDataset) -> tuple[int, int, int]:
    """(node count, undirected deduplicated edge count, feature count)."""
    return ds.n, len(ds.cite_pairs), ds.dim


def _opened(path: Path):
    try:
        return open(path, "r", encoding="utf-8")
    except OSError as e:
        raise ParseError(f"cannot open: {e}", path=str(path)) from None


def _fmt_weight(w: float) -> str:
    """Shortest decimal that round-trips ``w``, padded to >= 6 significant digits."""
    mant, e, exp = repr(float(w)).partition("e")
    digits = len(mant.replace("-", "").replace(".", "").lstrip("0"))
    if digits < 6:
        if "." not in mant:
            mant += "."
        mant += "0" * (6 - digits)
    return mant + e + exp


def write_msg1(g: SimGraph, path: str | Path) -> None:
    """Write a graph in MSG1 form; edges emitted in (u, v) ascending order.
    Each distinct weight is formatted once."""
    path = Path(path)
    edges = list(g.edges())
    text = {w: _fmt_weight(w) for w in {e[2] for e in edges}}
    lines = ["MSG1", f"{g.n} {g.m}"]
    lines.extend(f"{u} {v} {text[w]}" for u, v, w in edges)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_msg1(path: str | Path) -> SimGraph:
    """Parse an MSG1 file, enforcing the header, counts, ordering, and range.

    A bad file raises ParseError naming its first bad line, as a line by
    line reader would find it; a repeated edge names the line that repeats
    it.
    """
    path = Path(path)
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except OSError as e:
        raise ParseError(f"cannot open: {e}", path=str(path)) from None

    n = m = -1
    stage = 0
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if stage == 0:
            if line != "MSG1":
                raise ParseError(f"bad magic {line!r}", path=str(path), line=lineno)
            stage = 1
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ParseError("header needs `N M`", path=str(path), line=lineno)
        try:
            n, m = int(parts[0]), int(parts[1])
        except ValueError as e:
            raise ParseError(f"bad header: {e}", path=str(path), line=lineno) from e
        if n < 0 or m < 0:
            raise ParseError("negative counts", path=str(path), line=lineno)
        stage = 2
        break
    if stage == 0:
        raise ParseError("empty file, expected MSG1 magic", path=str(path))
    if stage == 1:
        raise ParseError("missing `N M` header", path=str(path))

    edges, numbers = _edge_block(lines, lineno, n, m, path)
    try:
        return SimGraph(n, edges)
    except MselError as e:
        # a repeated edge is the one fault not caught above; the graph names
        # the smallest pair repeated, and its second line is the one to blame
        key = edges[:, 0].astype(np.int64) * n + edges[:, 1].astype(np.int64)
        order = np.argsort(key, kind="stable")
        again = order[np.flatnonzero(np.diff(key[order]) == 0)[0] + 1]
        raise ParseError(str(e), path=str(path), line=int(numbers[again])) from e


# edge lines tokenised at a time, which bounds the tokens held at once
_CHUNK = 8192


def _edge_block(lines: list[str], start: int, n: int, m: int, path: Path) -> tuple[np.ndarray, np.ndarray]:
    """The edges on ``lines[start:]`` as an (m, 3) array of u, v, w, and the
    line number of each.

    Each chunk of lines is tokenised and its columns converted at once, and
    no per-line object outlives its line, so a large file does not set off
    the garbage collector. Of the checks a line by line reader makes in turn
    (three fields, numbers, at most m edges, ``0 <= u < v < n``, a weight in
    (0, 1]), the error raised is the first check failing on the first line
    failing any.
    """
    blocks, numbers = [], []
    seen = 0
    for lo in range(start, len(lines), _CHUNK):
        chunk = lines[lo:lo + _CHUNK]
        fields = np.fromiter(map(len, map(str.split, chunk)), np.int64, len(chunk))
        comment = np.fromiter(map(str.startswith, map(str.lstrip, chunk), repeat("#")), bool, len(chunk))
        at = np.flatnonzero((fields > 0) & ~comment)
        # (edge line index in the chunk, check order, message) of each failure
        errors = []
        short = np.flatnonzero(fields[at] != 3)
        size = int(short[0]) if short.size else len(at)
        if short.size:
            errors.append((size, 0, "edge line needs `u v w`"))
        # every line kept has three fields, so the tokens fall in threes
        toks = " ".join(map(chunk.__getitem__, at[:size].tolist())).split()
        cols = []
        for c, conv in enumerate((int, int, float)):
            vals: list = []
            try:
                vals.extend(map(conv, toks[c:3 * size:3]))
            except ValueError as e:
                # the converted values stop short of the first bad token
                size = len(vals)
                errors.append((size, 1, f"bad edge: {e}"))
            cols.append(vals)
        us, vs, ws = (col[:size] for col in cols)
        if m - seen < size:
            errors.append((m - seen, 2, f"more than {m} edge lines"))
        if us and not (min(us) >= 0 and max(vs) < n and all(map(lt, us, vs))):
            k = next(k for k, (u, v) in enumerate(zip(us, vs)) if not 0 <= u < v < n)
            errors.append((k, 3, f"edge ({us[k]}, {vs[k]}) violates 0 <= u < v < {n}"))
        w = np.array(ws, dtype=np.float64)
        bad = np.flatnonzero(~((w > 0.0) & (w <= 1.0)))
        if bad.size:
            k = int(bad[0])
            errors.append((k, 4, f"weight {ws[k]!r} outside (0, 1]"))
        if errors:
            k, _, message = min(errors)
            raise ParseError(message, path=str(path), line=lo + int(at[k]) + 1)
        blocks.append(np.column_stack((us, vs, w)))
        numbers.append(at + lo + 1)
        seen += size
    if seen != m:
        raise ParseError(f"header promised {m} edges, found {seen}", path=str(path))
    if not blocks:
        return np.zeros((0, 3)), np.zeros(0, dtype=np.int64)
    return np.concatenate(blocks), np.concatenate(numbers)


def parse_bridges(path: str | Path) -> list[tuple[int, int, float]]:
    """Read a bridge list: `u v w` per line, u in the base graph's id space and
    v in the incoming graph's local id space. `#` comments and blanks allowed."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as e:
        raise ParseError(f"cannot open: {e}", path=str(path)) from None
    out: list[tuple[int, int, float]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ParseError("bridge line needs `u v w`", path=str(path), line=lineno)
        try:
            u, v, w = int(parts[0]), int(parts[1]), float(parts[2])
        except ValueError as e:
            raise ParseError(f"bad bridge: {e}", path=str(path), line=lineno) from e
        if u < 0 or v < 0:
            raise ParseError("negative node id", path=str(path), line=lineno)
        if not (0.0 < w <= 1.0):
            raise ParseError(f"weight {w!r} outside (0, 1]", path=str(path), line=lineno)
        out.append((u, v, w))
    return out
