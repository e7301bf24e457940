"""Dataset ingestion, the MSG1 graph file format, and bridge lists.

Citation datasets arrive as two text files: a content file with one node per
line (`id f1 ... fd label`, whitespace separated) and a cites file with one
`cited citing` pair per line. MSG1 is this package's graph interchange file:

    MSG1
    N M
    u v w        (M times, 0 <= u < v < N, w in (0,1])

with `#` comment lines allowed, UTF-8, LF endings. Weights are written with
at least six significant digits so reading a written file reproduces every
weight bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain, compress
from pathlib import Path

import numpy as np

from .errors import DataError, MselError, ParseError
from .graph import MAX_NODES, SimGraph
from .similarity import (
    AttributeMatrix,
    build_similarity_graph,
    last_of_each_pair,
    normalize_attributes,
    scaled_zero_one,
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

    lines = read_text(content_path).split("\n")
    ids, features, labels = _content_columns(lines) or _content_by_line(lines, content_path)

    lines = read_text(cites_path).split("\n")
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
    with every feature column parsed at once; None when there are no nodes
    or any line needs ``_content_by_line``'s checks.

    Feature bodies that are all 0/1 rows of one length, as in Cora or
    CiteSeer, are read from their character codes (``_binary_rows``). Any
    other body goes to ``np.loadtxt``, which splits on the whitespace
    ``str.split`` splits on and parses a number as ``float`` does, so what
    it accepts gets the same bits; what it rejects (a ragged row, or
    ``float`` spellings it lacks, such as ``1_0`` or non-ASCII digits) goes
    line by line.
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
    features = _binary_rows(bodies)
    if features is None:
        try:
            features = np.loadtxt(bodies, comments=None, ndmin=2)
        except ValueError:
            return None
    return ids, features, labels


def _binary_rows(bodies: list[str]) -> np.ndarray | None:
    """The (n, d) float64 rows of ``bodies`` when each is d characters ``0``
    or ``1`` with one space or one tab between each two, the same d for
    every body; None otherwise. Such a body is what ``np.loadtxt`` reads as
    d zeros and ones, so these are its bits. The bodies are checked and read
    as one (n, 2d - 1) array of their ASCII codes."""
    width = len(bodies[0])
    if width % 2 == 0 or len(set(map(len, bodies))) > 1:
        return None
    try:
        # one byte per character; a non-ASCII one raises
        chars = np.array(bodies, dtype=f"S{width}").view(np.uint8).reshape(len(bodies), width)
    except UnicodeEncodeError:
        return None
    digits, gaps = chars[:, 0::2], chars[:, 1::2]
    if not (((digits == ord("0")) | (digits == ord("1"))).all()
            and ((gaps == ord(" ")) | (gaps == ord("\t"))).all()):
        return None
    return np.subtract(digits, ord("0"), dtype=np.float64)


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
    brings unbounded columns into range. 0/1 content skips the arithmetic:
    it is tested once and kept as bool rows, an all-ones column cleared,
    which are the values scaling would give.
    """
    values = scaled_zero_one(ds.features)
    if values is None:
        values = normalize_attributes(ds.features)
    attrs = AttributeMatrix(values=values, ids=tuple(range(ds.n)))
    return build_similarity_graph(attrs, mode=mode, edges=ds.cite_pairs, k=k)


def dataset_stats(ds: RawDataset) -> tuple[int, int, int]:
    """(node count, undirected deduplicated edge count, feature count)."""
    return ds.n, len(ds.cite_pairs), ds.dim


def read_text(path: Path, failure: str = "cannot open") -> str:
    """The text of the UTF-8 file at ``path``. A file that cannot be read or
    is not UTF-8 raises ParseError naming it, its message opened by
    ``failure``."""
    try:
        return path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as e:
        raise ParseError(f"{failure}: {e}", path=str(path)) from None


def write_text(path: Path, text: str) -> None:
    """Write ``text`` to the file at ``path`` as UTF-8, line ends as they
    are. A file that cannot be written raises ParseError naming it, as
    ``read_text`` does for one that cannot be read."""
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as e:
        raise ParseError(f"cannot write: {e}", path=str(path)) from None


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

    Each distinct weight is formatted once (``np.unique``) and each node id
    once, and every edge line is joined from those strings. A file that
    cannot be written raises ParseError naming it.
    """
    u, v, w = g.upper()
    weights, at = np.unique(w, return_inverse=True)
    text = list(map(_fmt_weight, weights.tolist()))
    names = list(map(str, range(g.n)))
    lines = ["MSG1", f"{g.n} {g.m}"]
    lines.extend([f"{names[a]} {names[b]} {text[c]}"
                  for a, b, c in zip(u.tolist(), v.tolist(), at.tolist())])
    lines.append("")
    write_text(Path(path), "\n".join(lines))


def read_msg1(path: str | Path) -> SimGraph:
    """Parse an MSG1 file, enforcing the header, counts, ordering, and range.

    The header is read line by line. An edge block with no `#` and at least
    one non-blank line is then parsed with one ``np.loadtxt`` call and
    checked on arrays. Every other block, and one that fails there (a fault,
    or a number only ``int`` or ``float`` spells, such as ``1_0``), is read
    again one line at a time. So a bad file raises that reader's ParseError,
    naming its first bad line; a repeated edge names the line that repeats
    it.
    """
    path = Path(path)
    text = read_text(path)
    lines = text.splitlines()

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
        if n > MAX_NODES:
            raise ParseError(f"node count {n} exceeds the {MAX_NODES} node limit",
                             path=str(path), line=lineno)
        stage = 2
        break
    if stage == 0:
        raise ParseError("empty file, expected MSG1 magic", path=str(path))
    if stage == 1:
        raise ParseError("missing `N M` header", path=str(path))

    # `#` is no line break, so the edge block holds one iff the file holds
    # more than the header lines; loadtxt warns on a block of blank lines
    block_hashes = text.count("#") - "".join(lines[:lineno]).count("#")
    del lines[:lineno]
    if not block_hashes and any(map(str.strip, lines)):
        edges = _edge_arrays(lines, n, m)
        if edges is not None:
            try:
                return SimGraph(n, edges)
            except MselError:
                pass  # a repeated edge, whose line the line reader names
    return _edge_lines(lines, lineno, n, m, path)


_EDGE_ROW = np.dtype([("u", np.int64), ("v", np.int64), ("w", np.float64)])


def _edge_arrays(body: list[str], n: int, m: int) -> np.ndarray | None:
    """The edges on lines ``body`` as an (m, 3) array of u, v, w parsed in
    one call, or None unless they are exactly m edges ``0 <= u < v < n``
    with weights in (0, 1].

    ``np.loadtxt`` splits on the whitespace ``str.split`` splits on, parses a
    float as ``float`` does and an int64 more strictly than ``int`` (no
    ``1.0``, ``1_0``, non-ASCII digits or overflow), so whatever it accepts
    reads as the line by line reader would read it.
    """
    try:
        rows = np.loadtxt(body, dtype=_EDGE_ROW, comments=None, ndmin=1)
    except ValueError:
        return None
    u, v, w = rows["u"], rows["v"], rows["w"]
    if len(rows) != m or not ((0 <= u) & (u < v) & (v < n) & (w > 0.0) & (w <= 1.0)).all():
        return None
    return np.column_stack((u, v, w))


def _uvw_lines(lines: list[str], start: int, path: Path, what: str):
    """Yield ``(line number, u, v, w)`` for each line of ``lines`` that is not
    blank or a `#` comment, the first being line ``start``. A line without
    three fields, or whose fields do not parse as int, int, float, raises a
    ParseError that names it a bad ``what``."""
    for lineno, raw in enumerate(lines, start=start):
        parts = raw.split()
        if not parts or parts[0].startswith("#"):
            continue
        if len(parts) != 3:
            raise ParseError(f"{what} line needs `u v w`", path=str(path), line=lineno)
        try:
            u, v, w = int(parts[0]), int(parts[1]), float(parts[2])
        except ValueError as e:
            raise ParseError(f"bad {what}: {e}", path=str(path), line=lineno) from e
        yield lineno, u, v, w


def _edge_lines(body: list[str], start: int, n: int, m: int, path: Path) -> SimGraph:
    """The graph of edge lines ``body``, the first of which is line
    ``start + 1``, checked one line at a time: three fields, numbers, at most
    m edges, ``0 <= u < v < n``, a weight in (0, 1], m edges in all, no edge
    twice. The first check failing on the first line failing any raises."""
    edges, numbers = [], []
    for lineno, u, v, w in _uvw_lines(body, start + 1, path, "edge"):
        if len(edges) == m:
            raise ParseError(f"more than {m} edge lines", path=str(path), line=lineno)
        if not 0 <= u < v < n:
            raise ParseError(f"edge ({u}, {v}) violates 0 <= u < v < {n}", path=str(path), line=lineno)
        if not 0.0 < w <= 1.0:
            raise ParseError(f"weight {w!r} outside (0, 1]", path=str(path), line=lineno)
        edges.append((u, v, w))
        numbers.append(lineno)
    if len(edges) != m:
        raise ParseError(f"header promised {m} edges, found {len(edges)}", path=str(path))
    e = np.array(edges, dtype=np.float64).reshape(-1, 3)
    try:
        return SimGraph(n, e)
    except MselError as err:
        # a repeated edge is the one fault not caught above; the graph names
        # the smallest pair repeated, and its second line is the one to blame
        key = e[:, 0].astype(np.int64) * n + e[:, 1].astype(np.int64)
        order = np.argsort(key, kind="stable")
        again = order[np.flatnonzero(np.diff(key[order]) == 0)[0] + 1]
        raise ParseError(str(err), path=str(path), line=numbers[again]) from err


def parse_bridges(path: str | Path) -> list[tuple[int, int, float]]:
    """Read a bridge list: `u v w` per line, u in the base graph's id space and
    v in the incoming graph's local id space. `#` comments and blanks allowed."""
    path = Path(path)
    out: list[tuple[int, int, float]] = []
    for lineno, u, v, w in _uvw_lines(read_text(path).splitlines(), 1, path, "bridge"):
        if u < 0 or v < 0:
            raise ParseError("negative node id", path=str(path), line=lineno)
        if not (0.0 < w <= 1.0):
            raise ParseError(f"weight {w!r} outside (0, 1]", path=str(path), line=lineno)
        out.append((u, v, w))
    return out
