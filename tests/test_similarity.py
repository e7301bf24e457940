import math
import tracemalloc

import numpy as np
import pytest

from msel import (
    AttributeMatrix,
    CapacityError,
    DataError,
    ParameterError,
    build_similarity_graph,
    normalize_attributes,
    pair_weight,
)


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


def _attrs(rows, labels=None):
    values = np.array(rows, dtype=np.float64)
    return AttributeMatrix(values, tuple(range(len(rows))), labels)


def test_attribute_matrix_validation():
    with pytest.raises(DataError):
        AttributeMatrix(np.zeros(3), (0, 1, 2))
    with pytest.raises(DataError):
        AttributeMatrix(np.zeros((2, 2)), (0,))
    with pytest.raises(DataError):
        AttributeMatrix(np.zeros((2, 2)), (0, 1), labels=("a",))


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


def test_unknown_mode():
    with pytest.raises(ParameterError):
        build_similarity_graph(_attrs([[1.0]]), mode="cosine")


def test_binary_fast_path_matches_generic():
    """Full-mode weights agree whether or not the 0/1 shortcut is taken."""
    from msel.similarity import _weights_block

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


def test_labels_carried_through():
    attrs = _attrs([[1, 0], [1, 0]], labels=("a", "b"))
    g = build_similarity_graph(attrs, mode="edges", edges=[(0, 1)])
    assert g.labels == ("a", "b")
