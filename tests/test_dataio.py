import math
import random
from pathlib import Path

import numpy as np
import pytest

from msel import (
    DataError,
    MselError,
    ParseError,
    SimGraph,
    dataset_stats,
    load_content_cites,
    pair_weight,
    parse_bridges,
    read_msg1,
    to_sim_graph,
    write_msg1,
)
from msel import AttributeMatrix, build_similarity_graph, dataio, normalize_attributes
from msel.dataio import _fmt_weight
from msel.synth import planted_community_graph, random_graph

from helpers import gnp_graph

DATA = Path(__file__).parent / "data"


def test_load_toy_dataset():
    raw = load_content_cites(DATA / "toy.content", DATA / "toy.cites")
    assert raw.ids == ("paper_a", "paper_b", "paper_c", "paper_d", "paper_e", "paper_f")
    assert raw.labels == ("theory", "theory", "systems", "systems", "ml", "ml")
    assert raw.features.shape == (6, 4)
    # kept verbatim, including the duplicate and the self cite;
    # only the line with the unknown id is dropped
    assert raw.cite_edges == (
        ("paper_a", "paper_b"),
        ("paper_a", "paper_c"),
        ("paper_b", "paper_a"),
        ("paper_c", "paper_c"),
        ("paper_e", "paper_f"),
        ("paper_d", "paper_e"),
        ("paper_d", "paper_f"),
    )
    assert raw.dropped_citations == 1
    assert (raw.n, raw.dim) == (6, 4)


def test_dataset_stats_counts():
    # duplicates and the self cite collapse in the structural view
    raw = load_content_cites(DATA / "toy.content", DATA / "toy.cites")
    assert dataset_stats(raw) == (6, 5, 4)
    assert raw.cite_pairs.tolist() == [[0, 1], [0, 2], [3, 4], [3, 5], [4, 5]]


@pytest.mark.parametrize("cites", ["", "\n\n", "paper_a paper_zz\n", "paper_a paper_a\npaper_b paper_b\n"])
def test_no_citation_pairs_convert_to_empty_edges(tmp_path, cites):
    # an empty cites file, only unknown ids, or only self-citations
    path = tmp_path / "toy.cites"
    path.write_text(cites, encoding="utf-8")
    raw = load_content_cites(DATA / "toy.content", path)
    assert raw.cite_pairs.shape == (0, 2)
    assert dataset_stats(raw) == (6, 0, 4)
    assert to_sim_graph(raw).m == 0
    assert to_sim_graph(raw, mode="knn", k=2).m > 0


def test_to_sim_graph_weights_match_pair_weight():
    raw = load_content_cites(DATA / "toy.content", DATA / "toy.cites")
    g = to_sim_graph(raw)
    assert g.n == 6
    # paper_e and paper_f disagree on every feature: their edge weighs 0
    # and vanishes
    assert g.m == 4
    for u, v in [(0, 1), (0, 2), (3, 4), (3, 5)]:
        expect = pair_weight(raw.features[u], raw.features[v])
        assert math.isclose(g.weight(u, v), expect, rel_tol=1e-12)
    assert g.weight(4, 5) == 0.0


def test_duplicate_node_id_rejected(tmp_path):
    content = tmp_path / "dup.content"
    content.write_text("a 1 0 x\na 0 1 y\n", encoding="utf-8")
    (tmp_path / "dup.cites").write_text("", encoding="utf-8")
    with pytest.raises(DataError):
        load_content_cites(content, tmp_path / "dup.cites")


def test_ragged_feature_rows_rejected(tmp_path):
    content = tmp_path / "ragged.content"
    content.write_text("a 1 0 x\nb 1 y\n", encoding="utf-8")
    (tmp_path / "ragged.cites").write_text("", encoding="utf-8")
    with pytest.raises(ParseError) as err:
        load_content_cites(content, tmp_path / "ragged.cites")
    assert "ragged.content" in str(err.value)
    assert "2" in str(err.value)


def test_bad_feature_value_rejected(tmp_path):
    content = tmp_path / "bad.content"
    content.write_text("a 1 oops x\n", encoding="utf-8")
    (tmp_path / "bad.cites").write_text("", encoding="utf-8")
    with pytest.raises(ParseError):
        load_content_cites(content, tmp_path / "bad.cites")


def test_malformed_cite_line_rejected(tmp_path):
    content = tmp_path / "c.content"
    content.write_text("a 1 x\nb 0 y\n", encoding="utf-8")
    cites = tmp_path / "c.cites"
    cites.write_text("a\n", encoding="utf-8")
    with pytest.raises(ParseError) as err:
        load_content_cites(content, cites)
    assert "c.cites" in str(err.value)
    cites.write_text("a b\n\nb a x\na\n", encoding="utf-8")
    with pytest.raises(ParseError, match="got 3 fields") as err:
        load_content_cites(content, cites)
    assert err.value.line == 3


# the ASCII codes str.split splits on
_ASCII_SPACES = [chr(c) for c in range(128) if not chr(c).split()]


def _cites_text(rng, pairs_only=False):
    """Random cites text: lines of tokens with gaps of the ASCII spaces,
    LF or CRLF ends, blank and space-only lines, and a last line that may
    lack its newline; with ``pairs_only`` every line holds 0 or 2 fields."""
    lines = []
    for _ in range(rng.randint(0, 12)):
        count = rng.choice([0, 2]) if pairs_only else rng.choice([0, 0, 1, 2, 2, 3, 5])
        gaps = ["".join(rng.choices(_ASCII_SPACES, k=rng.randint(0, 3))).replace("\n", "")
                for _ in range(count + 1)]
        gaps[1:-1] = [g or " " for g in gaps[1:-1]]
        toks = [rng.choice(["a", "b", "x", "p12", "-"]) for _ in range(count)]
        lines.append(gaps[0] + "".join(t + g for t, g in zip(toks, gaps[1:])))
        lines[-1] += rng.choice(["\n", "\n", "\r\n"])
    return "".join(lines) + rng.choice(["", "a b", " \t"])


def test_cites_field_counts_match_str_split():
    """The byte pass counts each line's ``str.split`` fields; text with a
    non-ASCII space is split line by line, with the same counts."""
    assert "".join(_ASCII_SPACES) == "\t\n\x0b\x0c\r\x1c\x1d\x1e\x1f "
    assert np.array_equal(np.flatnonzero(dataio._ASCII_SPACE), [ord(c) for c in _ASCII_SPACES])
    rng = random.Random(31)
    for trial in range(300):
        text = _cites_text(rng)
        if trial % 3 == 0 and text:
            at = rng.randrange(len(text) + 1)
            text = text[:at] + rng.choice(["\xa0", "\u2003", "\u3000"]) + text[at:]
        want = [len(line.split()) for line in text.split("\n")]
        got = dataio._field_counts(text)
        assert got.dtype == np.int64 and got.tolist() == want, repr(text)


def test_bad_cite_lines_raise_as_the_line_reader(tmp_path):
    """A cites line with 1 or 3 fields raises a ParseError naming its count
    and line, the first such line of the file as ``read_text`` gives it."""
    content, cites = tmp_path / "c.content", tmp_path / "c.cites"
    content.write_text("a 1 x\nb 0 y\n", encoding="utf-8")
    rng = random.Random(32)
    for trial in range(60):
        head, tail = _cites_text(rng, pairs_only=True), _cites_text(rng)
        bad = rng.choice(["a", "a b a", " b\x1f\x0ba\tx \r"])
        if trial % 4 == 0:
            bad += "\u3000"
        text = head + ("" if head.endswith("\n") or not head else "\n") + bad + "\n" + tail
        cites.write_text(text, encoding="utf-8", newline="")
        lines = cites.read_text(encoding="utf-8").split("\n")
        line, fields = next((i, len(s.split())) for i, s in enumerate(lines, 1) if len(s.split()) not in (0, 2))
        with pytest.raises(ParseError) as err:
            load_content_cites(content, cites)
        assert err.value.line == line
        assert f"got {fields} fields" in str(err.value)
        assert fields in (1, 3)


def _content_reference(path):
    """A content file read one line at a time, each field checked in turn:
    the reference the loader must agree with."""
    ids, rows, labels, seen, dim = [], [], [], set(), -1
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            parts = raw.split()
            if not parts:
                continue
            if len(parts) < 3:
                raise ParseError(
                    f"content line needs `id features... label`, got {len(parts)} fields",
                    path=str(path), line=lineno,
                )
            if parts[0] in seen:
                raise DataError(f"duplicate node id {parts[0]!r} in {path}")
            seen.add(parts[0])
            try:
                vec = np.array(parts[1:-1], dtype=np.float64)
            except ValueError as e:
                raise ParseError(f"bad feature value: {e}", path=str(path), line=lineno) from e
            if dim < 0:
                dim = vec.size
            elif vec.size != dim:
                raise ParseError(f"expected {dim} features, found {vec.size}", path=str(path), line=lineno)
            ids.append(parts[0])
            rows.append(vec)
            labels.append(parts[-1])
    return tuple(ids), np.vstack(rows) if rows else np.zeros((0, 0)), tuple(labels)


def _load_like_reference(tmp_path, text):
    """Load ``text`` as a content file and check the loader against the
    reference: the same ids, labels and feature bits, or the same error
    class, message and line."""
    content, cites = tmp_path / "t.content", tmp_path / "t.cites"
    content.write_text(text, encoding="utf-8", newline="")
    cites.write_text("", encoding="utf-8")
    try:
        ids, features, labels = _content_reference(content)
    except MselError as e:
        with pytest.raises(type(e)) as err:
            load_content_cites(content, cites)
        assert str(err.value) == str(e)
        assert getattr(err.value, "line", None) == getattr(e, "line", None)
        return err.value
    ds = load_content_cites(content, cites)
    assert (ds.ids, ds.labels) == (ids, labels)
    assert ds.features.shape == features.shape
    assert np.array_equal(np.asarray(ds.features, np.float64).view(np.int64), features.view(np.int64))
    if ds.features.dtype == bool:
        # only rows the reference reads as 0.0/1.0, never -0.0
        assert np.isin(features.view(np.int64), np.array([0.0, 1.0]).view(np.int64)).all()
    return ds


def test_loader_matches_line_by_line_reference_on_valid_files(tmp_path):
    rng = random.Random(12)
    spellings = [repr, "{:.3e}".format, "{:.20f}".format, "{:+.17g}".format,
                 lambda x: str(int(x * 10)), lambda x: "-0", lambda x: "1e-320"]
    for trial in range(12):
        d = rng.randint(1, 9)
        lines = []
        for i in range(rng.randint(1, 40)):
            values = [rng.choice(spellings)(rng.uniform(-1e3, 1e3)) for _ in range(d)]
            gaps = [rng.choice([" ", "  ", "\t", " \t "]) for _ in range(d + 1)]
            body = "".join(g + v for g, v in zip(gaps, values))
            lines.append(f"{rng.choice(['', ' '])}n{i}ü{body}{gaps[-1]}lab{i % 3}é{rng.choice(['', ' '])}")
            if rng.random() < 0.1:
                lines.append(rng.choice(["", "  ", "\t"]))
        end = rng.choice(["\n", "\r\n"])
        text = end.join(lines) + rng.choice([end, ""])
        ds = _load_like_reference(tmp_path, text)
        assert ds.features.shape[1] == d


def test_loader_matches_line_by_line_reference_on_every_fault(tmp_path):
    cases = [
        ("", None),                                   # no nodes
        ("\n  \n", None),                            # blank lines only
        ("a 1 0 x\n\n\nb 0 1 y\n", None),             # blank lines skipped
        ("a 1_0 \u0661 x\nb 2 3 y\n", [[10.0, 1.0], [2.0, 3.0]]),
        ("a nan -inf x\n", None),
        ("a 1 0 x\n\nb 1\n", ParseError),           # short line after a blank
        ("a\n", ParseError),
        ("a 1 0 x\nb 1 y\n", ParseError),            # ragged, fewer
        ("a 1 0 x\nb 1 0 1 y\n", ParseError),        # ragged, more
        ("a 1 0 x\na 0 1 y\n", DataError),           # duplicate id
        ("a 1 oops x\n", ParseError),                 # bad float
        ("a 1 0 x\nb 1 oops y\nb 1 0 z\n", ParseError),
        ("a 1 0 x\na 1 oops y\n", DataError),        # the id is checked first
        ("a 1_0 0 x\nb 1 0 y\nc 1 y\n", ParseError),  # slow path, ragged last
    ]
    for text, expect in cases:
        got = _load_like_reference(tmp_path, text)
        if isinstance(expect, type):
            assert isinstance(got, expect), text
        else:
            assert not isinstance(got, Exception), text
            if not got.n:
                assert to_sim_graph(got).n == 0, text
            if expect is not None:
                assert got.features.tolist() == expect


def _spy_binary_rows(monkeypatch):
    """Record what each call of the 0/1 reader returns."""
    returned = []
    real = dataio._binary_rows

    def spy(bodies):
        returned.append(real(bodies))
        return returned[-1]

    monkeypatch.setattr(dataio, "_binary_rows", spy)
    return returned


def test_binary_rows_match_the_reference(tmp_path, monkeypatch):
    """0/1 bodies with space or tab gaps, CRLF ends, blank lines and d = 1
    are read from their character codes, with the reference's bits."""
    returned = _spy_binary_rows(monkeypatch)
    rng = random.Random(24)
    for d in (1, 2, 7, 64):
        for end in ("\n", "\r\n"):
            lines = []
            for i in range(rng.randint(1, 30)):
                bits = [rng.choice("01") for _ in range(d)]
                gaps = [rng.choice(" \t") for _ in range(d - 1)] + [""]
                body = "".join(b + g for b, g in zip(bits, gaps))
                lead, sep = rng.choice(["", " "]), rng.choice(" \t")
                lines.append(f"{lead}n{i}{sep}{body} lab{i % 3}\t")
                if rng.random() < 0.2:
                    lines.append(rng.choice(["", "  ", "\t"]))
            returned.clear()
            ds = _load_like_reference(tmp_path, end.join(lines) + end)
            assert ds.features.shape[1] == d
            assert len(returned) == 1 and ds.features is returned[0]
            assert ds.features.dtype == bool


@pytest.mark.parametrize("text", [
    "a 1 0 1 x\nb 1  0 1 y\n",      # a double gap
    "a 1 0 1 x\nb 01 01 y\n",       # two digits
    "a 1 0 1 x\nb 2 0 1 y\n",
    "a 1 0 1 x\nb 1.0 1 y\n",
    "a 1 0 1 x\nb +1 01 y\n",
    "a 1 0 x\nb -0 1 y\nc -0 0 z\n",  # -0.0 has other bits than 0.0
    "a 1 0 x\nb \u0661 0 y\n",       # a non-ASCII digit one
    "a 1\x0c0 x\nb 0 1 y\n",        # a gap str.split splits on
    "a 1 0 1 x\nb 1 0 y\n",         # ragged
    "a 1 0 1 x\nb 1 0 1 0 1 y\n",
])
def test_binary_rows_near_misses_go_the_general_way(tmp_path, monkeypatch, text):
    """A body that is not one 0/1 row of the common width is left to
    np.loadtxt and the line reader: it gets the reference's bits or its
    error."""
    returned = _spy_binary_rows(monkeypatch)
    _load_like_reference(tmp_path, text)
    assert returned == [None]


# ---------------------------------------------------------------- msg1


def test_golden_file_byte_identical(tmp_path):
    raw = load_content_cites(DATA / "toy.content", DATA / "toy.cites")
    g = to_sim_graph(raw)
    out = tmp_path / "out.msg1"
    write_msg1(g, out)
    assert out.read_bytes() == (DATA / "golden.msg1").read_bytes()


def test_golden_file_reads_back():
    g = read_msg1(DATA / "golden.msg1")
    assert (g.n, g.m) == (6, 4)
    assert math.isclose(g.weight(0, 1), math.sqrt(3) / 2, rel_tol=1e-15)
    assert g.weight(3, 4) == 0.5


def test_round_trip_is_bit_exact(tmp_path):
    rng = random.Random(99)
    for k in range(10):
        g = gnp_graph(rng, rng.randint(1, 15))
        path = tmp_path / f"rt{k}.msg1"
        write_msg1(g, path)
        h = read_msg1(path)
        assert h.n == g.n and h.m == g.m
        for u, v, w in g.edges():
            assert h.weight(u, v) == w  # exact, not approximate


def test_fmt_weight_keeps_six_significant_digits():
    assert _fmt_weight(0.5) == "0.500000"
    assert _fmt_weight(1.0) == "1.00000"
    assert _fmt_weight(0.8660254037844386) == "0.8660254037844386"
    assert _fmt_weight(1e-07) == "1.00000e-07"
    assert _fmt_weight(1.5e-07) == "1.50000e-07"
    for w in [0.1, 0.123456, 1 / 3, 2 ** -20, 0.9999999, 1e-07, 1.5e-07]:
        txt = _fmt_weight(w)
        assert float(txt) == w
        digits = txt.replace(".", "").lstrip("0")
        assert len(digits) >= 6


def test_read_rejects_bad_magic(tmp_path):
    p = tmp_path / "bad.msg1"
    p.write_text("MSG2\n1 0\n", encoding="utf-8")
    with pytest.raises(ParseError):
        read_msg1(p)


def test_read_rejects_bad_header(tmp_path):
    cases = [
        ("1", "header needs `N M`"),
        ("a b", "bad header: invalid literal for int() with base 10: 'a'"),
        ("-1 0", "negative counts"),
        ("1 -2", "negative counts"),
        # counts above the int32 id range are refused before any array is made
        ("100000000000000000000 0", "node count 100000000000000000000 exceeds the 2147483648 node limit"),
        ("10000000000000 0", "node count 10000000000000 exceeds the 2147483648 node limit"),
        ("2147483649 0", "node count 2147483649 exceeds the 2147483648 node limit"),
    ]
    p = tmp_path / "h.msg1"
    for header, message in cases:
        p.write_text(f"MSG1\n{header}\n", encoding="utf-8")
        with pytest.raises(ParseError) as err:
            read_msg1(p)
        assert str(err.value) == f"{p}:2: {message}", header


def test_read_rejects_wrong_edge_count(tmp_path):
    p = tmp_path / "few.msg1"
    p.write_text("MSG1\n3 2\n0 1 0.5\n", encoding="utf-8")
    with pytest.raises(ParseError):
        read_msg1(p)
    p.write_text("MSG1\n3 1\n0 1 0.5\n1 2 0.5\n", encoding="utf-8")
    with pytest.raises(ParseError):
        read_msg1(p)


def test_read_rejects_bad_endpoints_and_weights(tmp_path):
    cases = [
        "MSG1\n3 1\n1 0 0.5\n",      # u >= v
        "MSG1\n3 1\n0 0 0.5\n",      # self loop
        "MSG1\n3 1\n0 3 0.5\n",      # v out of range
        "MSG1\n3 1\n0 1 0.0\n",      # weight must be positive
        "MSG1\n3 1\n0 1 1.5\n",      # weight above one
        "MSG1\n3 1\n0 1 nope\n",
    ]
    for text in cases:
        p = tmp_path / "e.msg1"
        p.write_text(text, encoding="utf-8")
        with pytest.raises(ParseError):
            read_msg1(p)


def test_read_rejects_duplicate_edge(tmp_path):
    p = tmp_path / "dup.msg1"
    p.write_text("MSG1\n3 2\n0 1 0.5\n0 1 0.6\n", encoding="utf-8")
    with pytest.raises(ParseError):
        read_msg1(p)


BAD_EDGE_LINES = [
    ("1 0 0.5", "edge (1, 0) violates 0 <= u < v < 3"),
    ("0 0 0.5", "edge (0, 0) violates 0 <= u < v < 3"),
    ("0 3 0.5", "edge (0, 3) violates 0 <= u < v < 3"),
    ("0 1 0.0", "weight 0.0 outside (0, 1]"),
    ("0 1 1.5", "weight 1.5 outside (0, 1]"),
    ("0 1 nope", "bad edge: could not convert string to float: 'nope'"),
    ("0 2 0.6", "duplicate edge (0,2)"),
]


# the bad line is line 6 whether the `#` line sits in the edge block (None)
# or in the header (line 1 or 2); each file goes to the line reader
BAD_LINE_FILES = {
    None: "MSG1\n3 2\n\n0 2 0.5\n# the next line is bad\n{bad}\n",
    1: "# made by hand\nMSG1\n3 2\n0 2 0.5\n\n{bad}\n",
    2: "MSG1\n# made by hand\n3 2\n0 2 0.5\n\n{bad}\n",
}


@pytest.mark.parametrize("header_comment", [None, 1, 2])
@pytest.mark.parametrize("bad, message", BAD_EDGE_LINES)
def test_read_names_the_bad_line(tmp_path, bad, message, header_comment):
    p = tmp_path / "e.msg1"
    p.write_text(BAD_LINE_FILES[header_comment].format(bad=bad), encoding="utf-8")
    with pytest.raises(ParseError) as err:
        read_msg1(p)
    assert err.value.line == 6
    assert str(err.value) == f"{p}:6: {message}"


def test_read_names_the_first_of_several_bad_lines(tmp_path):
    p = tmp_path / "e.msg1"
    cases = [
        # a bad weight before a short line, a bad id before a bad weight,
        # a short line before a bad number, and one edge line too many
        ("0 1 0.5\n0 2 2.0\n1 2\n", 4, "weight 2.0 outside (0, 1]"),
        ("0 1 0.5\n# c\n0 1 x\n2 1 0.5\n", 5, "bad edge: could not convert string to float: 'x'"),
        ("0 1 0.5\n2 1 0.5\n0 2 1.5\n", 4, "edge (2, 1) violates 0 <= u < v < 3"),
        ("1 2\n0 1 y\n", 3, "edge line needs `u v w`"),
        ("0 1 0.5\n0 2 0.5\n1 2 0.5\n1 2 0.5\n", 5, "more than 2 edge lines"),
    ]
    for body, line, message in cases:
        p.write_text(f"MSG1\n3 2\n{body}", encoding="utf-8")
        with pytest.raises(ParseError) as err:
            read_msg1(p)
        assert (err.value.line, str(err.value)) == (line, f"{p}:{line}: {message}")


def _reference_read_msg1(path):
    """The MSG1 reader as it was before edge blocks were parsed from the
    file: the whole text split by ``str.splitlines``, a block with no `#`
    and a non-blank line parsed by ``np.loadtxt`` from those lines, and
    every other block, or one failing there, read by the line reader."""
    path = Path(path)
    text = dataio.read_text(path)
    lines = text.splitlines()
    n, m, lineno = dataio._msg1_header(lines, path)
    block_hashes = text.count("#") - "".join(lines[:lineno]).count("#")
    del lines[:lineno]
    if not block_hashes and any(map(str.strip, lines)):
        try:
            rows = np.loadtxt(lines, dtype=dataio._EDGE_ROW, comments=None, ndmin=1)
        except ValueError:
            rows = None
        if rows is not None:
            u, v, w = rows["u"], rows["v"], rows["w"]
            if len(rows) == m and ((0 <= u) & (u < v) & (v < n) & (w > 0.0) & (w <= 1.0)).all():
                try:
                    return SimGraph(n, np.column_stack((u, v, w)))
                except MselError:
                    pass
    return dataio._edge_lines(lines, lineno, n, m, path)


def _read_both_ways(tmp_path, monkeypatch, text, name="t.msg1"):
    """Write ``text`` (bytes as they are, a str as UTF-8) to a file and read
    it three ways: as the reader does, as the reference reader does, and
    with the array path declining every file. All three must give the same
    CSR bits or the same error and line. Returns that outcome and whether
    the array path read the file."""
    p = tmp_path / name
    if isinstance(text, bytes):
        p.write_bytes(text)
    else:
        p.write_text(text, encoding="utf-8", newline="")
    took = []
    edge_block = dataio._edge_block
    with monkeypatch.context() as mp:
        mp.setattr(dataio, "_edge_block", lambda path: took.append(edge_block(path)) or took[-1])
        got = _outcome(read_msg1, p)
    assert got == _outcome(_reference_read_msg1, p), text
    with monkeypatch.context() as mp:
        mp.setattr(dataio, "_edge_block", lambda path: None)
        assert _outcome(read_msg1, p) == got, text
    return got, took[0] is not None


def _outcome(read, path):
    try:
        return _csr(read(path))
    except ParseError as e:
        return str(e), e.line


def _csr(g):
    return g.n, g.m, g.indptr.tolist(), g.indices.tolist(), g.weights.view(np.int64).tolist()


@pytest.mark.parametrize("seed", range(12))
def test_zero_one_content_builds_the_min_max_scaled_graph(seed):
    """0/1 content, as the loader's bool rows or as float64, must build in
    every mode, bit for bit, the graph of the scaled features, all-ones and
    all-zero columns included."""
    rng = np.random.default_rng(seed)
    n, d = int(rng.integers(4, 40)), int(rng.integers(1, 24))
    features = (rng.random((n, d)) < rng.uniform(0.1, 0.9)).astype(np.float64)
    features[:, rng.choice(d, size=min(d, 2), replace=False)] = [1.0, 0.0][: min(d, 2)]
    pairs = rng.integers(0, n, size=(3 * n, 2))
    ids = tuple(f"p{i}" for i in range(n))
    cites = tuple((ids[a], ids[b]) for a, b in pairs.tolist())
    raws = [dataio.RawDataset(ids, f, ("x",) * n, cites) for f in (features, features.astype(bool))]
    attrs = AttributeMatrix(values=normalize_attributes(features), ids=tuple(range(n)))
    k = int(rng.integers(1, n))
    for mode, kw in (("edges", {"edges": raws[0].cite_pairs}), ("knn", {"k": k}), ("full", {})):
        want = _csr(build_similarity_graph(attrs, mode=mode, **kw))
        for raw in raws:
            assert _csr(to_sim_graph(raw, mode=mode, k=kw.get("k"))) == want, (mode, raw.features.dtype)


def test_array_path_matches_line_reader(tmp_path, monkeypatch):
    ok = "MSG1\n12 2\n0 1 0.5\n{0}\n"
    two = "MSG1\n3 2\n{0}\n1 2 0.25\n"
    # (text, the edge count read or (line, message) of the error, whether
    # the array path reads it)
    cases = [
        ("MSG1\n3 2\n0 1 0.5 # c\n1 2 0.5\n", (3, "edge line needs `u v w`"), False),
        (ok.format("1.0 2 0.5"), (4, "bad edge: invalid literal for int() with base 10: '1.0'"), False),
        (ok.format("1_0 2 0.5"), (4, "edge (10, 2) violates 0 <= u < v < 12"), False),
        (ok.format("1_0 11 0.5"), 2, False),
        (ok.format("+1 2 0.5"), 2, True),
        (ok.format("99999999999999999999 2 0.5"), (4, "edge (99999999999999999999, 2) violates 0 <= u < v < 12"), False),
        (ok.format("1 99999999999999999999 0.5"), (4, "edge (1, 99999999999999999999) violates 0 <= u < v < 12"), False),
        (ok.format("1\xa02\xa00.5"), 2, False),
        (ok.format("1 2 \u0660.5"), 2, False),
        (ok.format("\u0661 2 0.5"), 2, False),
        (ok.format("1 2 nan"), (4, "weight nan outside (0, 1]"), False),
        (ok.format("1 2 1e0"), 2, True),
        (ok.format("1\t2\t0.5"), 2, True),
        ("MSG1\n3\t2\n0\t1 0.5\n\t1 2\t0.25\t\n", 2, True),
        ("MSG1\r\n3 2\r\n0 1 0.5\r\n1 2 0.25\r\n", 2, True),
        ("MSG1\r3 2\r0 1 0.5\r1 2 0.25\r", 2, True),
        ("MSG1\r\n3 2\r0 1 0.5\n\r\n1 2 0.25", 2, True),
        ("MSG1\n3 2\n\n0 1 0.5\n  \n# c\n\t# d\n1 2 0.25\n\n", 2, False),
        ("# c\nMSG1\n3 2\n0 1 0.5\n1 2 0.25\n", 2, False),
        ("MSG1\n3 2 # c\n0 1 0.5\n1 2 0.25\n", (2, "header needs `N M`"), False),
        # a line break to str.splitlines that universal newlines and
        # np.loadtxt take for a space, in the header and in the body
        ("MSG1\n3\x0c2\n0 1 0.5\n1 2 0.25\n", (2, "header needs `N M`"), False),
        ("MSG1\x0c\n3 2\n0 1 0.5\n1 2 0.25\n", 2, False),
        (two.format("0 1\x0c0.5"), (3, "edge line needs `u v w`"), False),
        (two.format("0 1 0.5\x0c"), 2, False),
        ("MSG1\n3\x852\n0 1 0.5\n1 2 0.25\n", (2, "header needs `N M`"), False),
        (two.format("0 1\x850.5"), (3, "edge line needs `u v w`"), False),
        ("MSG1\n3\u20282\n0 1 0.5\n1 2 0.25\n", (2, "header needs `N M`"), False),
        (two.format("0\u20281 0.5"), (3, "edge line needs `u v w`"), False),
        (two.format("0 1 0.5\u2028"), 2, False),
        (two.format("0 1 0.5\x1f"), 2, True),
        (two.format("1 0 0.5"), (3, "edge (1, 0) violates 0 <= u < v < 3"), False),
        (two.format("0 3 0.5"), (3, "edge (0, 3) violates 0 <= u < v < 3"), False),
        (two.format("0 1 1.5"), (3, "weight 1.5 outside (0, 1]"), False),
        (two.format("1 2 0.5"), (4, "duplicate edge (1,2)"), False),
        ("\ufeffMSG1\n3 2\n0 1 0.5\n1 2 0.25\n", (1, "bad magic '\\ufeffMSG1'"), False),
        (two.format("\ufeff0 1 0.5"), (3, "bad edge: invalid literal for int() with base 10: '\\ufeff0'"), False),
        (two.format("0 1 0.5\x00"), (3, "bad edge: could not convert string to float: '0.5\\x00'"), False),
        (two.format("0 1 0.5 \x00"), (3, "edge line needs `u v w`"), False),
        ("MSG1\n3 2\x00\n0 1 0.5\n1 2 0.25\n", (2, "bad header: invalid literal for int() with base 10: '2\\x00'"), False),
        ("MSG1\n3 2\n0 1 0.5\n1 2 0.5\n0 1 0.25\n", (5, "more than 2 edge lines"), False),
        ("MSG1\n3 3\n0 2 0.5\n1 2 0.5\n0 2 0.25\n", (5, "duplicate edge (0,2)"), False),
        ("MSG1\n3 3\n0 1 0.5\n1 2 0.5\n", (None, "header promised 3 edges, found 2"), False),
        ("MSG1\n3 2\n0 1 0.5\n1 2 0.5\n0 2 0.5\n", (5, "more than 2 edge lines"), False),
        ("MSG1\n3 0\n", 0, False),
        ("MSG1\n3 0\n\n \n", 0, False),
        ("MSG1\n3 1\n\n \n", (None, "header promised 1 edges, found 0"), False),
        ("MSG1\n3 1\n\n\x0c\n", (None, "header promised 1 edges, found 0"), False),
        ("MSG1\n3 0\n0 1 0.5\n", (3, "more than 0 edge lines"), False),
        (b"MSG1\n3 2\n0 1 0.5\n1 2 \xff\n", (None, "cannot open: 'utf-8' codec can't decode byte 0xff "
                                                 "in position 21: invalid start byte"), False),
    ]
    for text, expect, fast in cases:
        got, took = _read_both_ways(tmp_path, monkeypatch, text)
        assert took == fast, text
        if isinstance(expect, int):
            assert got[1] == expect, text
        else:
            line, message = expect
            where = f"{tmp_path / 't.msg1'}:" + (f"{line}: " if line else "")
            assert got == (where + message, line), text
    # np.loadtxt would decompress a file by its suffix
    got, took = _read_both_ways(tmp_path, monkeypatch, two.format("0 1 0.5"), name="t.gz")
    assert got[1] == 2 and not took


def test_array_path_reads_written_graphs(tmp_path, monkeypatch):
    # a written file never needs the line reader
    def refuse(*args):
        raise AssertionError("line reader used")

    monkeypatch.setattr(dataio, "_edge_lines", refuse)
    graphs = [random_graph(400, 3000, seed=5), planted_community_graph(600, 2000, seed=6, community=30)]
    for k, g in enumerate(graphs):
        path = tmp_path / f"g{k}.msg1"
        write_msg1(g, path)
        assert _csr(read_msg1(path)) == _csr(g)
    toy = to_sim_graph(load_content_cites(DATA / "toy.content", DATA / "toy.cites"))
    assert _csr(read_msg1(DATA / "golden.msg1")) == _csr(toy)


@pytest.mark.parametrize("token", ["1.0", "1_0", "99999999999999999999", "-99999999999999999999"])
def test_loadtxt_rejects_what_int_would_read_otherwise(token):
    # numpy before 1.23 parsed int columns through float and truncated them
    with pytest.raises(ValueError):
        np.loadtxt([f"{token} 2 0.5"], dtype=dataio._EDGE_ROW, comments=None, ndmin=1)


def test_read_empty_file(tmp_path):
    p = tmp_path / "empty.msg1"
    p.write_text("", encoding="utf-8")
    with pytest.raises(ParseError):
        read_msg1(p)


def test_read_skips_comments_and_blanks(tmp_path):
    p = tmp_path / "c.msg1"
    p.write_text("# made by hand\nMSG1\n\n2 1\n# the only edge\n0 1 0.25\n", encoding="utf-8")
    g = read_msg1(p)
    assert (g.n, g.m) == (2, 1)
    assert g.weight(0, 1) == 0.25


def test_write_zero_node_graph(tmp_path):
    p = tmp_path / "zero.msg1"
    write_msg1(SimGraph(0, []), p)
    assert read_msg1(p).n == 0


def _msg1_one_edge_at_a_time(g):
    """MSG1 bytes with every edge line formatted on its own: the reference
    the writer must agree with."""
    lines = ["MSG1", f"{g.n} {g.m}"]
    lines.extend(f"{u} {v} {_fmt_weight(w)}" for u, v, w in g.edges())
    return ("\n".join(lines) + "\n").encode("utf-8")


def test_writer_matches_one_edge_at_a_time(tmp_path):
    """Random graphs whose weights repeat and need padding (0.5), an
    exponent (1e-05, 5e-324) or neither (1.0), an edgeless graph and n = 0
    are written as the per-edge formatter writes them, and read back bit
    for bit."""
    rng = random.Random(31)
    pool = [0.5, 1e-05, 5e-324, 1.0, 0.1, 1 / 3]
    graphs = [SimGraph(0, []), SimGraph(1, []), SimGraph(7, [])]
    for _ in range(12):
        n = rng.randint(2, 40)
        pairs = rng.sample([(u, v) for u in range(n) for v in range(u + 1, n)],
                           rng.randint(1, n * (n - 1) // 2))
        graphs.append(SimGraph(n, [(u, v, rng.choice(pool + [1.0 - rng.random()]))
                                   for u, v in pairs]))
    for k, g in enumerate(graphs):
        path = tmp_path / f"w{k}.msg1"
        write_msg1(g, path)
        assert path.read_bytes() == _msg1_one_edge_at_a_time(g), k
        h = read_msg1(path)
        assert (h.n, h.m) == (g.n, g.m)
        assert np.array_equal(h.indptr, g.indptr) and np.array_equal(h.indices, g.indices)
        assert np.array_equal(h.weights.view(np.int64), g.weights.view(np.int64))
    assert {w for g in graphs for w in g.weights.tolist()} >= set(pool)


def test_unwritable_path_is_a_parse_error(tmp_path):
    path = tmp_path / "missing" / "g.msg1"
    with pytest.raises(ParseError, match="cannot write") as err:
        write_msg1(SimGraph(2, [(0, 1, 0.5)]), path)
    assert err.value.path == str(path)


# ---------------------------------------------------------------- bridges


def test_parse_bridges_golden(tmp_path):
    p = tmp_path / "b.txt"
    p.write_text("# base extra weight\n0 2 0.5\n\n3 0 0.125\n", encoding="utf-8")
    assert parse_bridges(p) == [(0, 2, 0.5), (3, 0, 0.125)]


def test_parse_bridges_errors(tmp_path):
    cases = [
        ("0 1\n", 1, "bridge line needs `u v w`"),
        ("# c\n0 1 2 3\n", 2, "bridge line needs `u v w`"),
        ("0 1 0.5\n\na 1 0.5\n", 3, "bad bridge: invalid literal for int() with base 10: 'a'"),
        ("0 1 x\n", 1, "bad bridge: could not convert string to float: 'x'"),
        ("0 1 0.0\n", 1, "weight 0.0 outside (0, 1]"),
        ("0 1 1.5\n", 1, "weight 1.5 outside (0, 1]"),
        ("-1 0 0.5\n", 1, "negative node id"),
        ("0 -1 1.5\n", 1, "negative node id"),  # ids are checked before the weight
    ]
    p = tmp_path / "b.txt"
    for text, line, msg in cases:
        p.write_text(text, encoding="utf-8")
        with pytest.raises(ParseError) as err:
            parse_bridges(p)
        assert err.value.line == line, text
        assert str(err.value) == f"{p}:{line}: {msg}", text


def test_missing_files_give_clear_errors(tmp_path):
    with pytest.raises(ParseError):
        read_msg1(tmp_path / "nope.msg1")
    with pytest.raises(ParseError):
        load_content_cites(tmp_path / "nope.content", tmp_path / "nope.cites")
    with pytest.raises(ParseError):
        parse_bridges(tmp_path / "nope.txt")


# ---------------------------------------------------------------- pipeline


def test_full_convert_pipeline_knn(tmp_path):
    raw = load_content_cites(DATA / "toy.content", DATA / "toy.cites")
    g = to_sim_graph(raw, mode="knn", k=2)
    assert g.n == 6
    out = tmp_path / "knn.msg1"
    write_msg1(g, out)
    h = read_msg1(out)
    assert h.m == g.m
