"""Attribute-vector similarity and similarity-graph construction.

Similarity between two nodes with attribute vectors x, y in [0,1]^d is

    w(x, y) = sqrt( sum_i (1 - |x_i - y_i|)^2 / d )

which lands in [0, 1], is 1 exactly when the vectors coincide, and is 0 only
when they disagree by the full unit range in every coordinate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, DataError, ParameterError
from .graph import SimGraph

# Dense n x n similarity work is quadratic; refuse sizes where that is
# clearly a mistake rather than letting it run for hours.
FULL_MODE_MAX_NODES = 5000

_BLOCK = 256
# floats in one temporary of the real-valued kernel (4 MB of float64)
_KERNEL_FLOATS = 1 << 19


@dataclass(frozen=True)
class AttributeMatrix:
    """Node attribute rows, already scaled to [0, 1]."""

    values: np.ndarray
    ids: tuple[int, ...]
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        if self.values.ndim != 2:
            raise DataError(f"attribute matrix must be 2-d, got shape {self.values.shape}")
        if len(self.ids) != self.values.shape[0]:
            raise DataError(
                f"{len(self.ids)} ids for {self.values.shape[0]} attribute rows"
            )
        if self.labels is not None and len(self.labels) != self.values.shape[0]:
            raise DataError(
                f"{len(self.labels)} labels for {self.values.shape[0]} attribute rows"
            )

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def dim(self) -> int:
        return self.values.shape[1]


def normalize_attributes(raw: np.ndarray) -> np.ndarray:
    """Min-max scale each column into [0, 1]; constant columns map to 0.

    Rejects NaN and infinite entries. Input is not modified.
    """
    arr = np.asarray(raw, dtype=np.float64)
    if arr.ndim != 2:
        raise DataError(f"expected a 2-d attribute array, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise DataError("attribute array contains NaN or infinite entries")
    lo = arr.min(axis=0)
    hi = arr.max(axis=0)
    span = hi - lo
    out = np.zeros_like(arr)
    varying = span > 0
    out[:, varying] = (arr[:, varying] - lo[varying]) / span[varying]
    return out


def pair_weight(x: np.ndarray, y: np.ndarray) -> float:
    """Similarity of two attribute vectors in [0,1]^d, in [0, 1]."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ParameterError(f"vector shapes differ: {x.shape} vs {y.shape}")
    if x.size == 0:
        raise ParameterError("zero-dimensional attribute vectors")
    agree = 1.0 - np.abs(x - y)
    return min(float(np.sqrt(np.dot(agree, agree) / x.size)), 1.0)


def _weights_block(block: np.ndarray, others: np.ndarray) -> np.ndarray:
    """Pairwise weights between each row of ``block`` and each row of ``others``,
    taking as many rows at a time as keep a (rows, others, d) temporary within
    ``_KERNEL_FLOATS`` floats; how rows are sliced changes no weight's bits."""
    d = block.shape[1]
    step = max(1, _KERNEL_FLOATS // max(1, others.shape[0] * d))
    sums = np.empty((block.shape[0], others.shape[0]))
    for lo in range(0, block.shape[0], step):
        agree = 1.0 - np.abs(block[lo:lo + step, None, :] - others[None, :, :])
        sums[lo:lo + step] = np.einsum("ijk,ijk->ij", agree, agree)
    return np.minimum(np.sqrt(sums / d), 1.0)


def _binary_weights_block(block: np.ndarray, others: np.ndarray) -> np.ndarray:
    """Same as _weights_block for 0/1 attributes, via one matrix product.

    For binary vectors each coordinate contributes 1 when equal and 0 when
    different, so the inner sum is just the count of agreeing coordinates:
    d - hamming = d - (ones(x) + ones(y) - 2*dot(x, y)).
    """
    d = block.shape[1]
    dots = block @ others.T
    ones_b = block.sum(axis=1)[:, None]
    ones_o = others.sum(axis=1)[None, :]
    agree_counts = d - (ones_b + ones_o - 2.0 * dots)
    return np.sqrt(agree_counts / d)


def _is_binary(values: np.ndarray) -> bool:
    return bool(np.isin(values, (0.0, 1.0)).all())


def build_similarity_graph(
    attrs: AttributeMatrix,
    mode: str = "edges",
    edges: list[tuple[int, int]] | None = None,
    k: int | None = None,
) -> SimGraph:
    """Turn attribute rows into a SimGraph, weighting pairs by similarity.

    mode="edges" weights exactly the given (row, row) index pairs, for use
    with an observed relation such as a citation list. mode="knn" connects
    each row to its k most similar rows (union-symmetrized). mode="full"
    weights every pair, and is guarded by FULL_MODE_MAX_NODES. Pairs whose
    similarity is exactly 0 produce no edge in any mode.
    """
    n = attrs.n
    values = attrs.values
    labels = list(attrs.labels) if attrs.labels is not None else None
    binary = _is_binary(values)
    block_fn = _binary_weights_block if binary else _weights_block

    if mode == "edges":
        if edges is None:
            raise ParameterError('mode="edges" requires an edge list')
        out: list[tuple[int, int, float]] = []
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ParameterError(f"edge ({u}, {v}) outside 0..{n - 1}")
            if u == v:
                continue
            w = pair_weight(values[u], values[v])
            if w > 0.0:
                out.append((min(u, v), max(u, v), w))
        dedup = {(u, v): w for u, v, w in out}
        return SimGraph(n, [(u, v, w) for (u, v), w in sorted(dedup.items())], labels=labels)

    if mode == "knn":
        if k is None or k < 1:
            raise ParameterError('mode="knn" requires k >= 1')
        if k >= n:
            raise ParameterError(f"k={k} must be below the node count {n}")
        pairs: dict[tuple[int, int], float] = {}
        for start in range(0, n, _BLOCK):
            stop = min(start + _BLOCK, n)
            w_rows = block_fn(values[start:stop], values)
            for i in range(stop - start):
                u = start + i
                row = w_rows[i].copy()
                row[u] = -1.0
                top = np.argpartition(row, n - k)[n - k:]
                for v in top:
                    w = float(row[v])
                    if w > 0.0:
                        a, b = (u, int(v)) if u < v else (int(v), u)
                        pairs[(a, b)] = w
        return SimGraph(n, [(u, v, w) for (u, v), w in sorted(pairs.items())], labels=labels)

    if mode == "full":
        if n > FULL_MODE_MAX_NODES:
            raise CapacityError(
                f"full mode on {n} nodes exceeds the {FULL_MODE_MAX_NODES} node guard"
            )
        out = []
        for start in range(0, n, _BLOCK):
            stop = min(start + _BLOCK, n)
            w_rows = block_fn(values[start:stop], values)
            for i in range(stop - start):
                u = start + i
                for v in range(u + 1, n):
                    w = float(w_rows[i, v])
                    if w > 0.0:
                        out.append((u, v, w))
        return SimGraph(n, out, labels=labels)

    raise ParameterError(f"unknown mode {mode!r}; expected edges, knn, or full")
