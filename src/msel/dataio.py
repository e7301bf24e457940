"""Dataset ingestion, the MSG1 graph file format, and bridge lists.

Citation datasets arrive as two text files: a content file with one node per
line (`id f1 ... fd label`, whitespace separated) and a cites file with one
`cited citing` pair per line. MSG1 is this package's graph interchange file:

    MSG1
    N M
    u v w        (M times, 0 <= u < v < N, w in (0,1])

with `#` comment lines allowed, UTF-8, LF endings. Weights are written with
at least six significant digits so reading a written file reproduces every
weight bit for bit. An ASCII file with no `#`, as written, is read in
bulk: its edge block is parsed by one ``np.loadtxt`` pass over the file and
handed to ``SimGraph`` as records, in file order, which for a written file
the build need not sort. Any other file, and one the bulk read finds a
fault in, is read line by line (``read_msg1``).
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, compress, repeat
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import DataError, MselError, ParseError
from .graph import MAX_NODES, SimGraph
from .similarity import (
    AttributeMatrix,
    build_similarity_graph,
    distinct_pairs,
    normalize_attributes,
)


@dataclass(frozen=True)
class RawDataset:
    """Parsed citation dataset: ids, feature rows, labels, raw citation pairs.

    ``dropped_citations`` counts cite lines whose endpoints were unknown ids;
    they are excluded from ``cite_edges``. ``cite_ids`` holds the pair of
    every cite line as dense ids, -1 for an unknown id, an (m, 2) int64
    array, when the loader knows them; ``cite_pairs`` maps ``cite_edges``
    through the ids when it is None. ``features`` is a bool array when the
    loader read the rows as 0/1 from their character codes, and float64
    otherwise.
    """

    ids: tuple[str, ...]
    features: np.ndarray
    labels: tuple[str, ...]
    cite_edges: tuple[tuple[str, str], ...]
    dropped_citations: int = 0
    cite_ids: np.ndarray | None = field(default=None, repr=False, compare=False)

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
        and pairs with an unknown id dropped. Built on first use and kept."""
        ends = self.cite_ids
        if ends is None:
            ends = _dense_ids(self.ids, list(chain.from_iterable(self.cite_edges))).reshape(-1, 2)
        a, b = ends[:, 0], ends[:, 1]
        known = (a >= 0) & (b >= 0)
        return np.column_stack(distinct_pairs(a[known], b[known], self.n))


def _dense_ids(ids: Sequence[str], tokens: list[str]) -> np.ndarray:
    """The position of each token in ``ids``, -1 for a token not there."""
    index = dict(zip(ids, range(len(ids))))
    return np.fromiter(map(index.get, tokens, repeat(-1)), np.int64, len(tokens))


def load_content_cites(content_path: str | Path, cites_path: str | Path) -> RawDataset:
    """Parse a content/cites file pair into a RawDataset.

    Node ids must be unique; every content line must carry the same number of
    feature columns. Citation lines naming an unknown id are dropped and
    counted rather than treated as errors. The fields of every cites line
    are counted in one pass over the file's bytes (``_field_counts``), each
    cite token is looked up in the ids once, and the dense ids of every pair
    go into ``cite_ids``. Content read as 0/1 rows from its character codes
    keeps them as bool ``features``; other content is read as float64.
    """
    content_path = Path(content_path)
    cites_path = Path(cites_path)

    lines = read_text(content_path).split("\n")
    ids, features, labels = _content_columns(lines) or _content_by_line(lines, content_path)

    text = read_text(cites_path)
    fields = _field_counts(text)
    bad = np.flatnonzero((fields != 0) & (fields != 2))
    if bad.size:
        raise ParseError(
            f"cites line needs `cited citing`, got {fields[bad[0]]} fields",
            path=str(cites_path), line=int(bad[0]) + 1,
        )
    # every line kept has two fields, so the tokens fall in pairs
    toks = text.split()
    dense = _dense_ids(ids, toks)
    known = dense >= 0
    kept = known[0::2] & known[1::2]
    it = iter(toks)
    edges = tuple(compress(zip(it, it), kept.tolist()))
    return RawDataset(tuple(ids), features, tuple(labels), edges, len(kept) - len(edges),
                      dense.reshape(-1, 2))


# the ASCII codes str.split splits on: 9-13 and 28-32
_ASCII_SPACE = np.zeros(256, dtype=bool)
_ASCII_SPACE[[9, 10, 11, 12, 13, 28, 29, 30, 31, 32]] = True


def _field_counts(text: str) -> np.ndarray:
    """The number of ``str.split`` fields on each line of
    ``text.split("\\n")``, an int64 array. ASCII text is counted in one pass
    over its bytes: a field starts at each byte that is not a space and
    follows one or the start, and the newlines before it give its line.
    Other text is split line by line."""
    lines = text.count("\n") + 1
    if not text.isascii():
        return np.fromiter(map(len, map(str.split, text.split("\n"))), np.int64, lines)
    codes = np.frombuffer(text.encode("ascii"), dtype=np.uint8)
    space = _ASCII_SPACE.take(codes)
    starts = ~space
    starts[1:] &= space[:-1]
    line_of = np.searchsorted(np.flatnonzero(codes == ord("\n")), np.flatnonzero(starts))
    return np.bincount(line_of, minlength=lines)


def _content_columns(lines: list[str]):
    """(ids, features, labels) of content lines that are all well formed,
    with every feature column parsed at once; None when there are no nodes
    or any line needs ``_content_by_line``'s checks.

    Feature bodies that are all 0/1 rows of one length, as in Cora or
    CiteSeer, are read from their character codes (``_binary_rows``), and
    ``features`` holds them as bool rows; other content is float64. Any
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
    """The (n, d) rows of ``bodies`` as a bool array when each is d
    characters ``0`` or ``1`` with one space or one tab between each two,
    the same d for every body; None otherwise. Such a body is what
    ``np.loadtxt`` reads as d zeros and ones, so these rows as float64 are
    its bits. The bodies are checked and read as one (n, 2d - 1) array of
    their ASCII codes."""
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
    return digits == ord("1")


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
    brings unbounded columns into range. Bool features, the 0/1 rows the
    loader read from character codes, skip the arithmetic: an all-ones
    column is cleared, which is what scaling would give. Float features are
    scaled, and the kernels test the scaled rows for 0/1 once.
    """
    if ds.features.dtype == bool:
        values = ds.features & ~ds.features.all(axis=0)
    else:
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

    Each distinct weight is formatted once and each node id once, and every
    edge line is joined from those strings. A file that cannot be written
    raises ParseError naming it.
    """
    u, v, w = g.upper()
    # the distinct weights by a sort and a neighbour compare, without the
    # numpy.ma import some of np.unique's paths make
    order = np.argsort(w)
    ranked = w[order]
    first = np.ones(len(w), dtype=bool)
    np.not_equal(ranked[1:], ranked[:-1], out=first[1:])
    at = np.empty(len(w), dtype=np.int64)
    at[order] = np.cumsum(first) - 1
    text = list(map(_fmt_weight, ranked[first].tolist()))
    names = list(map(str, range(g.n)))
    lines = ["MSG1", f"{g.n} {g.m}"]
    lines.extend([f"{names[a]} {names[b]} {text[c]}"
                  for a, b, c in zip(u.tolist(), v.tolist(), at.tolist())])
    lines.append("")
    write_text(Path(path), "\n".join(lines))


def read_msg1(path: str | Path) -> SimGraph:
    """Parse an MSG1 file, enforcing the header, counts, ordering, and range.

    A file is first tried whole (``_edge_block``): its header lines are read
    one by one and its edge block is parsed from the file with one
    ``np.loadtxt`` call, then checked on arrays. Any file that path declines
    (a `#`, a non-ASCII byte, a fault, or a number only ``int`` or
    ``float`` spells, such as ``1_0``) is read again as text one line at a
    time. So a bad file raises that reader's ParseError, naming its first
    bad line; a repeated edge names the line that repeats it.
    """
    path = Path(path)
    g = _edge_block(path)
    if g is not None:
        return g
    lines = read_text(path).splitlines()
    n, m, lineno = _msg1_header(lines, path)
    return _edge_lines(lines[lineno:], lineno, n, m, path)


def _msg1_header(lines: Iterable[str], path: Path) -> tuple[int, int, int]:
    """(n, m, its line number) of the `N M` line of the MSG1 file whose lines
    ``lines`` yields, read up to that line; a bad header raises."""
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
        return n, m, lineno
    if stage == 0:
        raise ParseError("empty file, expected MSG1 magic", path=str(path))
    raise ParseError("missing `N M` header", path=str(path))


_EDGE_ROW = np.dtype([("u", np.int64), ("v", np.int64), ("w", np.float64)])


def _edge_block(path: Path) -> SimGraph | None:
    """The graph of the MSG1 file at ``path``, its edge block parsed by one
    ``np.loadtxt`` call from the file; None unless the file is ASCII with no
    `#` and no line break only ``str.splitlines`` knows, has a good header
    and at least one non-blank edge line, and holds exactly m distinct
    edges ``0 <= u < v < n`` with weights in (0, 1].

    Such a file splits into the same lines for ``np.loadtxt`` as for the
    line reader, and each line into the same fields, ``str.split``'s.
    ``np.loadtxt`` parses a float as ``float`` does and an int64 more
    strictly than ``int`` (no ``1.0``, ``1_0`` or overflow), so whatever it
    accepts reads as the line reader would read it.
    """
    if path.suffix in (".bz2", ".gz", ".lzma", ".xz"):
        return None  # np.loadtxt would decompress the file
    try:
        data = path.read_bytes()
    except OSError:
        return None
    # a `#`, or an ASCII line break of str.splitlines that universal
    # newlines do not break at and np.loadtxt takes for a space
    if not data.isascii() or any(c in data for c in b"#\x0b\x0c\x1c\x1d\x1e"):
        return None
    lines = io.TextIOWrapper(io.BytesIO(data), encoding="ascii")
    try:
        n, m, skip = _msg1_header(lines, path)
    except ParseError:
        return None
    # loadtxt warns on a block of blank lines
    if not any(map(str.strip, lines)):
        return None
    del data, lines
    try:
        rows = np.loadtxt(path, dtype=_EDGE_ROW, comments=None, skiprows=skip,
                          encoding="utf-8", ndmin=1)
    except ValueError:
        return None
    if len(rows) != m or not (rows["u"] < rows["v"]).all():
        return None
    try:
        return SimGraph(n, rows)
    except MselError:
        return None  # an end or weight out of range, or a repeated edge


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
