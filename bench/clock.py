"""Step timing at a reference machine speed.

The machine the benchmark runs on is shared, and its speed drifts with its
neighbours' load by tens of percent within seconds and from one minute to the
next. A step's wall time alone moves with that drift, so two runs of the same
code minutes apart disagree. The clock therefore runs a fixed reference
kernel right before and right after each step, and reports the step's wall
time scaled to the speed at which the kernel takes ``REF_S``:

    time = wall * REF_S / mean(kernel before, kernel after)

A change to the package moves ``wall`` and not the kernel, so it moves the
reported time as much as the wall time; a slow stretch of the machine moves
both and cancels. When one step follows another with nothing in between, the
kernel run after the first is the one before the second.

The kernel is built here from fixed seeds, independent of the package, and
mixes the program's two kinds of work in about equal time: a pure-Python
greedy peel over a 1,000-node graph (dicts, lists, a heap), and a dense
numpy part, a 0/1 matrix product and row-wise ``argpartition`` as in the
knn similarity kernel. Interpreted and vectorised code slow down by
different amounts when the machine is busy, and a kernel of one kind alone
tracks steps of the other kind poorly.
"""

from __future__ import annotations

import gc
import heapq
import random
import time

import numpy as np

REF_S = 0.010           # the kernel's time at the reference speed
_N, _M = 1_000, 5_000   # the peel graph's nodes and edge draws
_ROWS, _COLS, _DIM = 150, 3_000, 256   # the dense part's matrix shapes
_PARTITIONS = 50        # rows of the product partitioned
_SHARED_WITHIN = 0.005  # a stop and the next start this close share one kernel run

now = time.perf_counter


def _kernel_graph() -> list[dict[int, float]]:
    rng = random.Random(20240229)
    adj: list[dict[int, float]] = [{} for _ in range(_N)]
    for _ in range(_M):
        u, v = rng.randrange(_N), rng.randrange(_N)
        if u != v:
            adj[u][v] = adj[v][u] = rng.random()
    return adj


def _dense_inputs() -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(20240229)
    return ((rng.random((_ROWS, _DIM)) < 0.3).astype(float),
            (rng.random((_COLS, _DIM)) < 0.3).astype(float))


_ADJ = _kernel_graph()
_A, _B = _dense_inputs()


def _peel() -> None:
    """Remove nodes of least weighted degree until none is left."""
    deg = [sum(a.values()) for a in _ADJ]
    heap = [(d, i) for i, d in enumerate(deg)]
    heapq.heapify(heap)
    gone = [False] * _N
    while heap:
        d, i = heapq.heappop(heap)
        if gone[i] or d != deg[i]:
            continue
        gone[i] = True
        for j, w in _ADJ[i].items():
            if not gone[j]:
                deg[j] -= w
                heapq.heappush(heap, (deg[j], j))


def _dense() -> None:
    prod = _A @ _B.T
    for row in prod[:_PARTITIONS]:
        np.argpartition(row, _COLS - 10)


def kernel_s() -> float:
    """Wall seconds of one kernel run. The collector is off meanwhile, so a
    collection of the program's heap never lands in it."""
    was_on = gc.isenabled()
    gc.disable()
    try:
        t0 = now()
        _peel()
        _dense()
        return now() - t0
    finally:
        if was_on:
            gc.enable()


class Clock:
    """Times steps at the reference speed:

        tok = clock.start(); step(); secs = clock.stop(tok)

    ``kernels`` keeps every kernel time measured, for reporting.
    """

    def __init__(self) -> None:
        self.kernels: list[float] = []
        self._after = 0.0       # the kernel run right after the last step
        self._stopped = -1.0    # when it ended

    def _kernel(self) -> float:
        k = kernel_s()
        self.kernels.append(k)
        return k

    def start(self) -> tuple[float, float]:
        shared = now() - self._stopped < _SHARED_WITHIN
        return (self._after if shared else self._kernel()), now()

    def stop(self, token: tuple[float, float]) -> float:
        wall = now() - token[1]
        self._after = self._kernel()
        self._stopped = now()
        return wall * REF_S / ((token[0] + self._after) / 2)
