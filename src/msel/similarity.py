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
from .graph import SimGraph, _distinct

# Dense n x n similarity work is quadratic; refuse sizes where that is
# clearly a mistake rather than letting it run for hours.
FULL_MODE_MAX_NODES = 5000

# numbers in one kernel temporary: 4 MB of float64 weights on real-valued
# rows, and less on 0/1 rows, whose counts come as float32 and are ranked
# as int16
_KERNEL_FLOATS = 1 << 19


@dataclass(frozen=True)
class AttributeMatrix:
    """Node attribute rows, already scaled to [0, 1]; a bool array holds 0/1
    rows, which the kernels then take as such without testing them."""

    values: np.ndarray
    ids: tuple[int, ...]

    def __post_init__(self):
        if self.values.ndim != 2:
            raise DataError(f"attribute matrix must be 2-d, got shape {self.values.shape}")
        if len(self.ids) != self.values.shape[0]:
            raise DataError(
                f"{len(self.ids)} ids for {self.values.shape[0]} attribute rows"
            )

    @property
    def n(self) -> int:
        return self.values.shape[0]


def normalize_attributes(raw: np.ndarray) -> np.ndarray:
    """Min-max scale each column into [0, 1]; constant columns map to 0.

    Rejects NaN and infinite entries. Input is not modified; an array with
    no rows comes back empty.
    """
    arr = np.asarray(raw, dtype=np.float64)
    if arr.ndim != 2:
        raise DataError(f"expected a 2-d attribute array, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise DataError("attribute array contains NaN or infinite entries")
    lo = arr.min(axis=0, initial=np.inf)
    span = arr.max(axis=0, initial=-np.inf) - lo
    # a constant column's entries all equal its minimum, so they come out 0
    out = arr - lo
    out /= np.where(span > 0, span, 1.0)
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


def _binary_factors(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Factor matrices whose product counts the coordinates on which two 0/1
    rows agree.

    For 0/1 vectors each coordinate adds 1 to the inner sum of the weight
    when the two agree and 0 when they differ, so the sum counts agreements,
    d - |x| - |y| + 2 x.y: the product of the factor rows [x, 1, d - |x|]
    in ``left`` and the factor columns [2y, -|y|, 1] in ``right``. Every
    partial sum of that product is an integer in [-d, 3d], so a float32
    product is exact while 3d <= 2**24, and so is a float64 one beyond.
    """
    n, d = values.shape
    ones = values.sum(axis=1)
    left = np.empty((n, d + 2), np.float32 if 3 * d <= 2**24 else np.float64)
    left[:, :d] = values
    left[:, d] = 1.0
    left[:, d + 1] = d - ones
    right = np.empty_like(left)
    np.multiply(left[:, :d], 2.0, out=right[:, :d])
    right[:, d] = -ones
    right[:, d + 1] = 1.0
    # BLAS reads a transposed operand as fast as a copied one
    return left, right.T


def _is_binary(values: np.ndarray) -> bool:
    return values.dtype == bool or bool(((values == 0.0) | (values == 1.0)).all())


def _pair_scores(values: np.ndarray, upper: bool = False):
    """``(weigh, blocks)``: ``blocks`` yields ``(lo, s)`` over consecutive
    blocks of rows, ``s[i, v]`` a score of the pair of rows ``lo + i`` and
    ``v`` whose weight is ``weigh(s[i, v])``; a block holds at most
    ``_KERNEL_FLOATS`` scores, or one row where a row holds more. With
    ``upper`` a block scores its rows against rows ``lo`` on only, and
    ``s[i, j]`` is the pair of rows ``lo + i`` and ``lo + j``.

    On 0/1 rows a score is the agreement count c, an int16 while d < 2**15
    and the exact float product beyond, and ``weigh`` takes sqrt(c / d) in
    float64, which is ``pair_weight``'s bits; on other rows a score is the
    float64 weight itself. Either way ``weigh`` is strictly increasing and
    zero only at zero, so scores compare, tie and test positive as their
    weights do, and a caller may weigh only the scores it keeps.
    """
    n, d = values.shape
    step = max(1, _KERNEL_FLOATS // max(1, n))
    starts = range(0, n, step)
    if not _is_binary(values):
        return (lambda w: w), ((lo, _weights_block(values[lo:lo + step], values[(lo if upper else 0):]))
                               for lo in starts)
    left, right = _binary_factors(values)
    # the counts are exact integers in [0, d], and np.partition ranks an
    # int16 block several times as fast as a float one
    dtype = np.int16 if d < 2**15 else left.dtype
    counts = ((lo, (left[lo:lo + step] @ right[:, (lo if upper else 0):]).astype(dtype, copy=False))
              for lo in starts)
    return (lambda c: np.sqrt(c.astype(np.float64) / d)), counts


def last_of_each_pair(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    """Positions of the last occurrence of each unordered pair ``{a[i], b[i]}``
    of ids below ``n``, in increasing (min, max) order; empty for no pairs."""
    key = np.minimum(a, b) * n + np.maximum(a, b)
    order = np.argsort(key, kind="stable")
    ranked = key[order]
    last = np.ones(len(ranked), dtype=bool)
    np.not_equal(ranked[1:], ranked[:-1], out=last[:-1])
    return order[last]


def distinct_pairs(a: np.ndarray, b: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The distinct unordered pairs ``{a[i], b[i]}`` with ``a[i] != b[i]``
    of ids in 0..n-1, as int64 ends ``lo < hi`` in increasing (lo, hi)
    order. Pairs whose keys ``lo * n + hi`` already increase strictly, as
    those of ``RawDataset.cite_pairs`` do, are taken as they are; others
    are sorted by key."""
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    keep = lo != hi
    lo, hi = lo[keep], hi[keep]
    key = lo * n + hi
    if (key[1:] > key[:-1]).all():
        return lo, hi
    return np.divmod(_distinct(key), n)


# the number of set bits of each byte value
_POPCOUNT = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)


def _edge_weights(values: np.ndarray, edges) -> np.ndarray:
    """The (u, v, w) rows, u < v in increasing (u, v) order, of the distinct
    non-loop pairs in ``edges`` with a positive weight. A weight does not
    depend on the pair's orientation, so a pair given twice is weighed once.

    On 0/1 rows every term of the inner sum is 0 or 1, so the weight is
    sqrt(c / d) of the count c of agreeing coordinates, which gives
    ``pair_weight``'s bits. c is d less the set bits of the XOR of the two
    rows packed eight coordinates to a byte, counted with a 256-entry
    table, which works on every numpy (``np.bitwise_count`` needs 2.0).
    A slice of pairs gathers at most ``_KERNEL_FLOATS`` bytes per end.
    """
    n, d = values.shape
    e = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    bad = ~((e >= 0) & (e < n)).all(axis=1)
    if bad.any():
        u, v = e[int(bad.argmax())].tolist()
        raise ParameterError(f"edge ({u}, {v}) outside 0..{n - 1}")
    u, v = distinct_pairs(e[:, 0], e[:, 1], n)
    if d and _is_binary(values):
        # the pad bits of the last byte are 0 in every row, so they agree
        packed = np.packbits(values if values.dtype == bool else values != 0.0, axis=1)
        differ = np.empty(len(u), dtype=np.int64)
        step = max(1, _KERNEL_FLOATS // packed.shape[1])
        for lo in range(0, len(u), step):
            x = packed[u[lo:lo + step]]
            x ^= packed[v[lo:lo + step]]
            differ[lo:lo + step] = _POPCOUNT.take(x).sum(axis=1, dtype=np.int32)
        w = np.minimum(np.sqrt((d - differ) / d), 1.0)
    else:
        w = np.array([pair_weight(values[a], values[b]) for a, b in zip(u.tolist(), v.tolist())])
    keep = w > 0.0
    return np.column_stack((u[keep], v[keep], w[keep]))


def _knn_edges(values: np.ndarray, k: int) -> np.ndarray:
    """The (u, v, w) rows of the union of each row's k heaviest pairs, where
    of two pairs of equal weight the one to the lower id ranks first, so the
    graph depends only on the data; zero weights make no edge.

    Rows are ranked on ``_pair_scores``, which order and tie as the weights
    do, and only the kept pairs are weighed. Per block, ``np.partition``
    finds each row's k-th score; the row keeps every score above it and, of
    the scores equal to it, the first ones a row-major scan meets, which
    are those of the lowest ids.
    """
    n = values.shape[0]
    weigh, blocks = _pair_scores(values)
    us, vs, ss = [], [], []
    for lo, s in blocks:
        m = s.shape[0]
        s[np.arange(m), np.arange(lo, lo + m)] = -1
        kth = np.partition(s, n - k, axis=1)[:, n - k]
        # a 2-d nonzero takes several times as long as the flat one
        flat = np.flatnonzero(s >= kth[:, None])
        i, v = np.divmod(flat, n)
        sc = s.reshape(-1)[flat]
        tied = sc == kth[i]
        keep = ~tied
        # the i-th tie of a row is kept while the row's k picks are not full
        at = np.flatnonzero(tied)
        row = i[at]
        ties = np.bincount(row, minlength=m)
        rank = np.arange(len(at)) - (np.cumsum(ties) - ties)[row]
        keep[at] = rank < (k - np.bincount(i[keep], minlength=m))[row]
        keep &= sc > 0
        us.append(i[keep] + lo)
        vs.append(v[keep])
        ss.append(sc[keep])
    u, v, s = (np.concatenate(x) for x in (us, vs, ss))
    at = last_of_each_pair(u, v, n)
    return np.column_stack((np.minimum(u, v)[at], np.maximum(u, v)[at], weigh(s[at])))


def _full_edges(values: np.ndarray) -> np.ndarray:
    """The (u, v, w) rows, u < v, of every pair with a positive weight. Each
    block of rows is scored against the rows from its first on only, so
    only its leading square holds pairs with v <= u."""
    weigh, blocks = _pair_scores(values, upper=True)
    parts = []
    for lo, s in blocks:
        keep = s > 0.0
        m = s.shape[0]
        keep[:, :m] &= np.arange(m) > np.arange(m)[:, None]
        i, j = np.nonzero(keep)
        parts.append(np.column_stack((i + lo, j + lo, weigh(s[i, j]))))
    return np.concatenate(parts) if parts else np.zeros((0, 3))


def build_similarity_graph(
    attrs: AttributeMatrix,
    mode: str = "edges",
    edges: list[tuple[int, int]] | np.ndarray | None = None,
    k: int | None = None,
) -> SimGraph:
    """Turn attribute rows into a SimGraph, weighting pairs by similarity.

    mode="edges" weights exactly the given (row, row) index pairs (a list of
    pairs or an (m, 2) array), for use with an observed relation such as a
    citation list. mode="knn" connects each row to its k most similar rows
    (union-symmetrized). mode="full" weights every pair, and is guarded by
    FULL_MODE_MAX_NODES. Pairs whose similarity is exactly 0 produce no edge
    in any mode. Every mode holds its kernel temporaries to about
    ``_KERNEL_FLOATS`` floats, whatever the node count.
    """
    n = attrs.n

    if mode == "edges":
        if edges is None:
            raise ParameterError('mode="edges" requires an edge list')
        return SimGraph(n, _edge_weights(attrs.values, edges))

    if mode == "knn":
        if k is None or k < 1:
            raise ParameterError('mode="knn" requires k >= 1')
        if k >= n:
            raise ParameterError(f"k={k} must be below the node count {n}")
        return SimGraph(n, _knn_edges(attrs.values, k))

    if mode == "full":
        if n > FULL_MODE_MAX_NODES:
            raise CapacityError(
                f"full mode on {n} nodes exceeds the {FULL_MODE_MAX_NODES} node guard"
            )
        return SimGraph(n, _full_edges(attrs.values))

    raise ParameterError(f"unknown mode {mode!r}; expected edges, knn, or full")
