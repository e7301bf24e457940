import importlib
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import msel
from msel import (
    AttributeMatrix,
    CapacityError,
    DataError,
    ParameterError,
    SimGraph,
    build_similarity_graph,
    normalize_attributes,
    pair_weight,
    write_msg1,
)
from msel.similarity import _weights_block


def test_normalize_binary_unchanged():
    x = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    assert np.array_equal(normalize_attributes(x), x)


def test_normalize_rescales_column():
    x = np.array([[2.0], [4.0], [6.0]])
    assert np.array_equal(normalize_attributes(x), np.array([[0.0], [0.5], [1.0]]))


def test_normalize_constant_column_to_zero():
    x = np.array([[3.0, 1.0], [3.0, 2.0], [3.0, 3.0]])
    out = normalize_attributes(x)
    assert np.array_equal(out[:, 0], np.zeros(3))


def test_normalize_rejects_non_finite():
    with pytest.raises(DataError):
        normalize_attributes(np.array([[1.0, float("nan")]]))
    with pytest.raises(DataError):
        normalize_attributes(np.array([[float("inf")], [0.0]]))


def test_pair_weight_identical_vectors():
    for d in (1, 3, 10):
        x = np.linspace(0.0, 1.0, d)
        assert pair_weight(x, x) == 1.0


def test_pair_weight_fully_disjoint():
    x = np.array([1.0, 1.0, 0.0, 0.0])
    y = np.array([0.0, 0.0, 1.0, 1.0])
    assert pair_weight(x, y) == 0.0


def test_pair_weight_half_agreement():
    assert pair_weight(np.array([1.0, 0.0]), np.array([1.0, 1.0])) == pytest.approx(
        math.sqrt(0.5), rel=1e-12
    )


def test_pair_weight_dimension_mismatch():
    with pytest.raises(ParameterError):
        pair_weight(np.array([1.0]), np.array([1.0, 0.0]))
    with pytest.raises(ParameterError):
        pair_weight(np.array([]), np.array([]))


def test_pair_weight_symmetry_and_range():
    rng = np.random.default_rng(31)
    for _ in range(200):
        d = int(rng.integers(1, 8))
        x = rng.random(d)
        y = rng.random(d)
        w = pair_weight(x, y)
        assert w == pair_weight(y, x)
        assert 0.0 <= w <= 1.0


def test_pair_weight_agreement_monotonicity():
    # forcing one coordinate pair to agree exactly never lowers the weight
    rng = np.random.default_rng(32)
    for _ in range(200):
        d = int(rng.integers(1, 8))
        x = rng.random(d)
        y = rng.random(d)
        i = int(rng.integers(d))
        y2 = y.copy()
        y2[i] = x[i]
        assert pair_weight(x, y2) >= pair_weight(x, y) - 1e-12


def _attrs(rows):
    values = np.array(rows, dtype=np.float64)
    return AttributeMatrix(values, tuple(range(len(rows))))


def test_attribute_matrix_validation():
    with pytest.raises(DataError):
        AttributeMatrix(np.zeros(3), (0, 1, 2))
    with pytest.raises(DataError):
        AttributeMatrix(np.zeros((2, 2)), (0,))


def test_edges_mode_identical_nodes():
    g = build_similarity_graph(_attrs([[1, 0], [1, 0]]), mode="edges", edges=[(0, 1)])
    assert g.m == 1
    assert g.weight(0, 1) == 1.0


def test_edges_mode_drops_zero_weight_pairs():
    attrs = _attrs([[1, 1, 0, 0], [0, 0, 1, 1]])
    g = build_similarity_graph(attrs, mode="edges", edges=[(0, 1)])
    assert g.m == 0


def test_edges_mode_count_bound_and_dedup():
    attrs = _attrs([[1, 0], [1, 1], [0, 1]])
    g = build_similarity_graph(attrs, mode="edges", edges=[(0, 1), (1, 0), (1, 2)])
    assert g.m == 2
    with pytest.raises(ParameterError):
        build_similarity_graph(attrs, mode="edges", edges=[(0, 5)])
    with pytest.raises(ParameterError):
        build_similarity_graph(attrs, mode="edges")


def test_no_pairs_give_an_empty_graph():
    attrs = _attrs([[1, 0], [0, 1], [1, 0]])
    for edges in ([], [(1, 1), (2, 2)], np.zeros((0, 2), dtype=np.int64)):
        g = build_similarity_graph(attrs, mode="edges", edges=edges)
        assert (g.n, g.m) == (3, 0)
    real = _attrs([[0.5, 0.0], [0.25, 1.0]])
    assert build_similarity_graph(real, mode="edges", edges=[]).m == 0
    # every pair disagrees in full, so no pair has a positive weight
    apart = _attrs([[1, 0], [0, 1]])
    assert build_similarity_graph(apart, mode="knn", k=1).m == 0
    assert build_similarity_graph(apart, mode="full").m == 0


def test_full_mode_small_triangle():
    attrs = _attrs([[1, 0], [1, 1], [1, 0]])
    g = build_similarity_graph(attrs, mode="full")
    r = math.sqrt(0.5)
    assert g.weight(0, 1) == pytest.approx(r, rel=1e-12)
    assert g.weight(0, 2) == 1.0
    assert g.weight(1, 2) == pytest.approx(r, rel=1e-12)


def test_full_mode_guard():
    values = np.zeros((5001, 1))
    attrs = AttributeMatrix(values, tuple(range(5001)))
    with pytest.raises(CapacityError):
        build_similarity_graph(attrs, mode="full")


def test_knn_mode_basic():
    # 0 and 1 are near-identical, 2 is close to nobody in particular
    attrs = _attrs([[1.0, 0.0], [1.0, 0.1], [0.0, 1.0]])
    g = build_similarity_graph(attrs, mode="knn", k=1)
    assert g.weight(0, 1) > 0.9
    with pytest.raises(ParameterError):
        build_similarity_graph(attrs, mode="knn", k=3)
    with pytest.raises(ParameterError):
        build_similarity_graph(attrs, mode="knn")


@pytest.mark.parametrize("real", [False, True])
def test_knn_ties_go_to_the_lower_id(real):
    """Of pairs that tie at a row's k-th weight, the lower ids are kept:
    row 0 ties between 2 and 5 and keeps 2, row 4 between 1 and 3 and
    keeps 1, and a row whose weights all tie keeps its k lowest ids. Real
    rows, 0/1 rows mapped to 0.25/0.75, give the same ties."""
    rows = np.array([
        [1, 1, 0, 0], [0, 0, 1, 1], [1, 1, 1, 0], [0, 0, 1, 1],
        [0, 0, 0, 1], [1, 1, 0, 1], [1, 1, 0, 1],
    ], dtype=np.float64)
    alike = np.ones((6, 2))
    if real:
        rows, alike = 0.25 + 0.5 * rows, 0.5 * alike
    g = build_similarity_graph(_attrs(rows), mode="knn", k=1)
    assert sorted((u, v) for u, v, _ in g.edges()) == [(0, 2), (1, 3), (1, 4), (5, 6)]
    g = build_similarity_graph(_attrs(alike), mode="knn", k=2)
    assert sorted((u, v) for u, v, _ in g.edges()) == [
        (0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (1, 2), (1, 3), (1, 4), (1, 5),
    ]


def test_unknown_mode():
    with pytest.raises(ParameterError):
        build_similarity_graph(_attrs([[1.0]]), mode="cosine")


def test_binary_fast_path_matches_generic():
    """Full-mode weights agree whether or not the 0/1 shortcut is taken."""
    rng = np.random.default_rng(33)
    values = (rng.random((40, 12)) < 0.4).astype(np.float64)
    attrs = AttributeMatrix(values, tuple(range(40)))
    g_fast = build_similarity_graph(attrs, mode="full")
    w_generic = _weights_block(values, values)
    for u, v, w in g_fast.edges():
        assert w == pytest.approx(float(w_generic[u, v]), rel=1e-9)
    # and spot-check the scalar oracle on a few pairs
    for u, v in [(0, 1), (3, 9), (17, 30)]:
        assert float(w_generic[u, v]) == pytest.approx(
            pair_weight(values[u], values[v]), rel=1e-9
        )


def test_real_valued_kernel_memory_is_bounded(monkeypatch):
    """A 600 x 100 real-valued knn build stays small, and slicing the
    kernel's rows changes no weight's bits."""
    from msel import similarity

    values = np.random.default_rng(5).random((600, 100))
    attrs = AttributeMatrix(values, tuple(range(600)))
    tracemalloc.start()
    try:
        g = build_similarity_graph(attrs, mode="knn", k=5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 32 * 2**20
    sliced = similarity._weights_block(values[:64], values)
    monkeypatch.setattr(similarity, "_KERNEL_FLOATS", 10**12)
    whole = similarity._weights_block(values[:64], values)
    assert np.array_equal(sliced, whole)
    checked = [(u, v, w) for u, v, w in g.edges() if u < 64]
    assert checked
    assert all(w == whole[u, v] for u, v, w in checked)


def _reference_graph(values, mode, edges=None, k=None):
    """Per-pair and per-row builds of each mode, in plain loops: the
    generic or 0/1 kernel over blocks of 256 rows, each knn row sorted by
    (weight descending, id ascending) and cut after k, and a dict that
    keeps the last weight of a repeated pair."""
    n, d = values.shape
    binary = np.isin(values, (0.0, 1.0)).all()

    def block_fn(block, others):
        if not binary:
            return _weights_block(block, others)
        dots = block @ others.T
        ones_b = block.sum(axis=1)[:, None]
        ones_o = others.sum(axis=1)[None, :]
        return np.sqrt((d - (ones_b + ones_o - 2.0 * dots)) / d)

    pairs = {}
    if mode == "edges":
        for u, v in edges:
            if u != v:
                w = pair_weight(values[u], values[v])
                if w > 0.0:
                    pairs[(min(u, v), max(u, v))] = w
    for start in range(0, n, 256) if mode != "edges" else ():
        stop = min(start + 256, n)
        w_rows = block_fn(values[start:stop], values)
        for i in range(stop - start):
            u = start + i
            if mode == "full":
                for v in range(u + 1, n):
                    if w_rows[i, v] > 0.0:
                        pairs[(u, v)] = float(w_rows[i, v])
                continue
            row = w_rows[i].copy()
            row[u] = -1.0
            for v in np.lexsort((np.arange(n), -row))[:k].tolist():
                if row[v] > 0.0:
                    pairs[(min(u, v), max(u, v))] = float(row[v])
    return SimGraph(n, [(u, v, w) for (u, v), w in sorted(pairs.items())])


@pytest.mark.parametrize("kind", ["real", "binary", "ties", "wide"])
def test_array_builds_match_the_loops(kind, monkeypatch):
    """Every mode gives the CSR arrays of the plain loops, bit for bit, on
    real-valued rows, random 0/1 rows and 0/1 rows repeated many times
    (where knn, which ranks 0/1 rows by agreement counts, must give a tie
    to the lower id as the sorted weights do row by row) 5 and 70 columns wide,
    the wide ones also with a k whose last pick ties with a pair left out,
    and the same again with kernel blocks of a few rows."""
    from msel import similarity

    rng = np.random.default_rng({"real": 41, "binary": 42, "ties": 43, "wide": 44}[kind])
    if kind == "real":
        values = rng.random((90, 7))
    elif kind == "binary":
        values = (rng.random((90, 12)) < 0.4).astype(np.float64)
    else:
        shape = (6, 5) if kind == "ties" else (9, 70)
        values = (rng.random(shape) < 0.5).astype(np.float64)[rng.integers(0, shape[0], 90)]
    edges = [tuple(e) for e in rng.integers(0, 90, (300, 2)).tolist()]
    attrs = AttributeMatrix(values, tuple(range(90)))
    ks = [1, 5, 20]
    if kind == "wide":
        # a k whose last pick in row 0 ties with a pair left out, below the
        # row's own copies
        row = sorted((pair_weight(values[0], values[v]) for v in range(1, 90)), reverse=True)
        ks.append(next(k for k in range(1, 88) if row[k - 1] == row[k] != row[0]))
    cases = [("edges", {"edges": edges}), ("full", {})] + [("knn", {"k": k}) for k in ks]
    for kernel_floats in (similarity._KERNEL_FLOATS, 200):
        monkeypatch.setattr(similarity, "_KERNEL_FLOATS", kernel_floats)
        for mode, kw in cases:
            got = build_similarity_graph(attrs, mode=mode, **kw)
            want = _reference_graph(values, mode, **kw)
            assert got.m == want.m, (mode, kw)
            for name in ("indptr", "indices", "weights"):
                assert np.array_equal(getattr(got, name), getattr(want, name)), (mode, kw, name)


@pytest.mark.parametrize("d", [1, 7, 8, 9, 255, 256, 257])
def test_zero_one_edge_weights_match_pair_weight(d, monkeypatch):
    """The XOR-popcount weights of 0/1 rows, packed eight to a byte, are
    ``pair_weight``'s bits whatever d is modulo 8, with all-ones columns,
    on bool and float64 rows, and on pairs given repeated, reversed, as
    self-loops and out of order; the same in slices of one pair."""
    from msel import similarity

    rng = np.random.default_rng(d)
    n = 30
    values = rng.random((n, d)) < 0.5
    values[:, rng.choice(d, size=d // 4, replace=False)] = True
    pairs = rng.integers(0, n, (150, 2))
    pairs = np.concatenate((pairs, pairs[:30, ::-1], pairs[:20], np.arange(6).repeat(2).reshape(-1, 2)))
    rng.shuffle(pairs)
    weights = {}
    for u, v in pairs.tolist():
        if u != v:
            weights[min(u, v), max(u, v)] = pair_weight(values[u].astype(np.float64), values[v].astype(np.float64))
    want = np.array([(u, v, w) for (u, v), w in sorted(weights.items()) if w > 0.0]).reshape(-1, 3)
    # only d = 1 has no all-ones column, so only there do pairs weigh 0
    assert 0 < len(want) and (len(want) < len(weights)) == (d == 1)
    for kernel_floats in (similarity._KERNEL_FLOATS, 1):
        monkeypatch.setattr(similarity, "_KERNEL_FLOATS", kernel_floats)
        for rows in (values, values.astype(np.float64)):
            got = similarity._edge_weights(rows, pairs)
            assert np.array_equal(got.view(np.int64), want.view(np.int64)), (kernel_floats, rows.dtype)


def test_edges_mode_memory_is_bounded():
    """Weighing 100,000 pairs of 512-column 0/1 rows gathers the pairs'
    rows a slice at a time, so the build stays small."""
    rng = np.random.default_rng(6)
    values = (rng.random((2000, 512)) < 0.3).astype(np.float64)
    pairs = rng.integers(0, 2000, (100_000, 2))
    attrs = AttributeMatrix(values, tuple(range(2000)))
    tracemalloc.start()
    try:
        g = build_similarity_graph(attrs, mode="edges", edges=pairs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.m > 90_000
    assert peak <= 32 * 2**20


def test_binary_knn_memory_is_bounded():
    """A 3,000 x 256 0/1 knn build ranks its counts a block of rows at a
    time; the whole 3,000 x 3,000 float32 product alone would be 36 MB."""
    values = (np.random.default_rng(7).random((3000, 256)) < 0.3).astype(np.float64)
    attrs = AttributeMatrix(values, tuple(range(3000)))
    tracemalloc.start()
    try:
        g = build_similarity_graph(attrs, mode="knn", k=10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.m >= 15_000
    assert peak <= 32 * 2**20


def _dispatched_features():
    """The names in numpy's table of CPU features it dispatches at run time;
    numpy 1.x keeps the table in ``numpy.core`` (1.26's ``numpy._core`` is
    a stub without it)."""
    for name in ("numpy._core._multiarray_umath", "numpy.core._multiarray_umath"):
        try:
            module = importlib.import_module(name)
        except ImportError:
            continue
        if hasattr(module, "__cpu_dispatch__"):
            return set(module.__cpu_dispatch__)
    return set()


_WIDE_KERNELS = ["AVX512_ICL", "AVX512_SPR", "X86_V4"]


@pytest.mark.parametrize("disabled", [[], _WIDE_KERNELS, _WIDE_KERNELS + ["X86_V3"]],
                         ids=["dispatched", "no-avx512", "no-avx512-avx2"])
def test_knn_convert_is_the_same_at_every_simd_level(tmp_path, disabled):
    """A knn convert of 300 0/1 rows, 12 distinct ones repeated, where most
    rows tie far past their k-th pick, and an edges convert of their 600
    cite lines, write the reference's bytes with numpy's wider SIMD kernels
    switched off (``NPY_DISABLE_CPU_FEATURES`` acts only on the process that
    reads it, so the converts run in a child). A level whose names this
    numpy does not dispatch is skipped."""
    missing = set(disabled) - _dispatched_features()
    if missing:
        pytest.skip(f"numpy dispatches no {' '.join(sorted(missing))}")
    rng = np.random.default_rng(45)
    rows = (rng.random((12, 16)) < 0.5)[rng.integers(0, 12, 300)]
    content, cites, out = tmp_path / "t.content", tmp_path / "t.cites", tmp_path / "t.msg1"
    content.write_text("".join(
        f"p{u} {' '.join(map(str, row.astype(int).tolist()))} x\n" for u, row in enumerate(rows)
    ), encoding="utf-8")
    pairs = rng.integers(0, 300, (600, 2))
    cites.write_text("".join(f"p{u} p{v}\n" for u, v in pairs.tolist()), encoding="utf-8")
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": " ".join(disabled),
           "PYTHONPATH": str(Path(msel.__file__).parents[1])}
    values = normalize_attributes(rows.astype(np.float64))
    for mode, kw in (("knn:5", {"k": 5}), ("edges", {"edges": pairs})):
        proc = subprocess.run(
            [sys.executable, "-m", "msel.cli", "convert", "--content", str(content),
             "--cites", str(cites), "--mode", mode, "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        want = tmp_path / "want.msg1"
        write_msg1(_reference_graph(values, mode.partition(":")[0], **kw), want)
        assert out.read_bytes() == want.read_bytes(), mode
