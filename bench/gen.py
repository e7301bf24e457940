"""Seeded input generators for the benchmark.

Every input the program sees is made here from the workload seed and written
to disk in the formats `msel run` and `msel convert` read: MSG1 graphs,
schedule files, bridge lists, and content/cites pairs. The generators live in
the benchmark, not in the package, so a change to the package cannot change
the inputs it is measured on. Run as a script, it writes one workload's
inputs, so the measuring process receives only the files:

    python3 bench/gen.py bulk|planted|convert SEED OUTDIR

The two graph samplers draw exactly the same edges as
`msel.synth.random_graph` and `msel.synth.planted_community_graph` for the
same arguments; `test_bench.py` holds them to that.
"""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

Edge = tuple[int, int, float]

# Instance sizes. The bulk schedule's size event is tuned to BULK_N.
BULK_N = 5_000
PLANTED_N = 10_000
# Instances per run of a session workload. Which bulk events take the slow
# path (a fallback, a large residual peel) differs from graph to graph, so a
# bulk run measures four graphs to keep runs with different seeds
# comparable. Planted graphs behave alike, and one graph leaves more passes
# in a run for each step's median.
INSTANCES = {"bulk": 4, "planted": 1}
CONVERT_N, CONVERT_DIM, CONVERT_LABELS, CONVERT_CITES = 3_000, 256, 7, 12_000

# File names inside a workload's input directory.
GRAPH, EXTRA, BRIDGES, SCHEDULE = "graph.msg1", "extra.msg1", "bridges.txt", "plan.sched"
CONTENT, CITES, TRUTH = "papers.content", "papers.cites", "truth.npz"


def random_edges(n: int, m: int, seed, w_lo: float = 0.05, w_hi: float = 1.0) -> list[Edge]:
    """The edges of ``msel.synth.random_graph(n, m, seed, w_lo, w_hi)``."""
    rng = random.Random(seed)
    seen: set[int] = set()
    edges: list[Edge] = []
    while len(edges) < m:
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u == v:
            continue
        if u > v:
            u, v = v, u
        key = u * n + v
        if key in seen:
            continue
        seen.add(key)
        w = rng.uniform(w_lo, w_hi)
        if w <= w_lo:
            w = w_hi
        edges.append((u, v, w))
    return edges


def planted_edges(
    n: int,
    m: int,
    seed,
    community: int,
    w_in: tuple[float, float] = (0.7, 1.0),
    w_out: tuple[float, float] = (0.05, 0.3),
) -> list[Edge]:
    """The edges of ``msel.synth.planted_community_graph`` with the same arguments."""
    rng = random.Random(seed)
    edges: list[Edge] = []
    seen: set[int] = set()
    for u in range(community):
        for v in range(u + 1, community):
            seen.add(u * n + v)
            edges.append((u, v, rng.uniform(*w_in)))
    while len(edges) < m:
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u == v:
            continue
        if u > v:
            u, v = v, u
        key = u * n + v
        if key in seen:
            continue
        seen.add(key)
        edges.append((u, v, rng.uniform(*w_out)))
    return edges


def write_msg1(path: Path, n: int, edges: list[Edge]) -> None:
    """MSG1 text with edges in (u, v) order and round-trip exact weights."""
    lines = ["MSG1", f"{n} {len(edges)}"]
    lines.extend(f"{u} {v} {w!r}" for u, v, w in sorted(edges))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_bridges(path: Path, bridges: list[Edge]) -> None:
    path.write_text("".join(f"{u} {v} {w!r}\n" for u, v, w in bridges), encoding="utf-8")


def _schedule(init: str, lines: list[str]) -> str:
    return "\n".join([init, *lines]) + "\n"


def bulk_inputs(seed: int, out: Path) -> None:
    """``random_graph(BULK_N, 10 * BULK_N, seed)``: the incumbent holds about
    98% of the nodes, so events are dominated by O(|incumbent|) bookkeeping
    and fresh-solve fallbacks rather than by residual peels."""
    n = BULK_N
    edges = random_edges(n, 10 * n, seed)
    rng = random.Random(f"bulk-augment-{seed}")
    n_extra = 200
    extra = random_edges(n_extra, 1_000, f"bulk-extra-{seed}")
    bridges = [(rng.randrange(n), rng.randrange(n_extra), rng.uniform(0.05, 1.0)) for _ in range(3)]
    # The incumbent at s=0.1 holds about 98.3% of the nodes; 99.3% of n is a
    # size floor about 1% above it that the whole graph still satisfies.
    # Both shares were measured at BULK_N only.
    above = int(n * 0.993)
    text = _schedule("init p=3 s=0.1", [
        "p += 5",
        "p -= 3",
        "s += 0.1",
        "s -= 0.1",
        f"p = {above}",
        "p = 3",
        "s = 0.85",
        "s = 0.1",
        f"augment {EXTRA} bridges {BRIDGES}",
    ])
    _write_session(out, n, edges, text, n_extra, extra, bridges)


def planted_inputs(seed: int, out: Path) -> None:
    """``planted_community_graph(PLANTED_N, 3 * PLANTED_N, seed,
    community=100)``: the incumbent is the 100-node community, so residual
    peels over nearly the whole graph dominate."""
    n, community = PLANTED_N, 100
    edges = planted_edges(n, 3 * n, seed, community)
    rng = random.Random(f"planted-augment-{seed}")
    n_extra = 120
    # a denser community than the planted one, so it overtakes the incumbent
    extra = planted_edges(n_extra, n_extra * (n_extra - 1) // 2, f"planted-extra-{seed}", n_extra)
    bridges = [(rng.randrange(community), rng.randrange(n_extra), rng.uniform(0.7, 1.0)) for _ in range(3)]
    text = _schedule("init p=2 s=0.2", [
        "p += 20",
        "s += 0.15",
        "s -= 0.25",
        "p = 150",
        "p -= 30",
        "p = 50",
        "s = 0.25",
        "s = 0.15",
        f"augment {EXTRA} bridges {BRIDGES}",
        "p -= 30",
        "p += 10",
        "s += 0.2",
        "s -= 0.1",
    ])
    _write_session(out, n, edges, text, n_extra, extra, bridges)


def _write_session(out: Path, n: int, edges, text: str, n_extra: int, extra, bridges) -> None:
    out.mkdir(parents=True, exist_ok=True)
    write_msg1(out / GRAPH, n, edges)
    write_msg1(out / EXTRA, n_extra, extra)
    write_bridges(out / BRIDGES, bridges)
    (out / SCHEDULE).write_text(text, encoding="utf-8")


@dataclass
class ConvertTruth:
    """The generator's own record of a content/cites pair, for the checker."""

    features: np.ndarray         # raw 0/1 rows in content-file order
    pairs: set[tuple[int, int]]  # deduplicated non-self citation pairs (u < v)
    dropped: int                 # cite lines naming an unknown id


def convert_inputs(seed: int, out: Path) -> None:
    """A synthetic citation dataset: binary features drawn around one
    prototype per label, citations mostly within a label, and about 2% of
    citation lines naming ids that have no content line. The checker's copy
    of the data goes to TRUTH, which the program never reads."""
    n, dim, n_labels, n_cites = CONVERT_N, CONVERT_DIM, CONVERT_LABELS, CONVERT_CITES
    rng = np.random.default_rng(seed)
    protos = rng.random((n_labels, dim)) < 0.1
    labels = rng.integers(0, n_labels, n)
    features = protos[labels] ^ (rng.random((n, dim)) < 0.04)
    ids = rng.permutation(10 * n)[:n] + 1
    unknown = 10 * n + 1 + rng.permutation(10 * n)[:n]

    by_label = [np.flatnonzero(labels == k) for k in range(n_labels)]
    citing = rng.integers(0, n, n_cites)
    same = rng.random(n_cites) < 0.8
    cited = rng.integers(0, n, n_cites)
    for k in range(n_labels):
        pick = same & (labels[citing] == k)
        cited[pick] = rng.choice(by_label[k], int(pick.sum()))
    bad = rng.random(n_cites) < 0.02
    bad_side = rng.random(n_cites) < 0.5

    out.mkdir(parents=True, exist_ok=True)
    chars = np.full((n, 2 * dim - 1), ord(" "), dtype=np.uint8)
    chars[:, 0::2] = features.astype(np.uint8) + ord("0")
    with open(out / CONTENT, "w", encoding="utf-8") as fh:
        for i in range(n):
            fh.write(f"{ids[i]} {chars[i].tobytes().decode()} L{labels[i]}\n")

    pairs: set[tuple[int, int]] = set()
    dropped = 0
    with open(out / CITES, "w", encoding="utf-8") as fh:
        for j in range(n_cites):
            a, b = int(cited[j]), int(citing[j])
            ea, eb = ids[a], ids[b]
            if bad[j]:
                dropped += 1
                if bad_side[j]:
                    ea = unknown[a]
                else:
                    eb = unknown[b]
            elif a != b:
                pairs.add((min(a, b), max(a, b)))
            fh.write(f"{ea} {eb}\n")
    np.savez(out / TRUTH, features=features, pairs=np.array(sorted(pairs), dtype=np.int64),
             dropped=dropped)


def read_truth(out: Path) -> ConvertTruth:
    with np.load(out / TRUTH) as z:
        pairs = {(int(u), int(v)) for u, v in z["pairs"]}
        return ConvertTruth(z["features"], pairs, int(z["dropped"]))


WRITERS = {"bulk": bulk_inputs, "planted": planted_inputs, "convert": convert_inputs}


def instance_dirs(workload: str, out: Path) -> list[Path]:
    """Where the workload's instances live; a session workload has INSTANCES."""
    if workload == "convert":
        return [out]
    return [out / f"i{i}" for i in range(INSTANCES[workload])]


def write_inputs(workload: str, seed: int, out: Path) -> None:
    """Every input of one run. Instance i of a session workload is drawn
    from seed ``seed * INSTANCES + i``, so runs with distinct seeds share none."""
    dirs = instance_dirs(workload, out)
    if workload == "convert":
        convert_inputs(seed, out)
        return
    for i, d in enumerate(dirs):
        WRITERS[workload](seed * len(dirs) + i, d)


if __name__ == "__main__":
    if len(sys.argv) != 4 or sys.argv[1] not in WRITERS:
        raise SystemExit(f"usage: python3 gen.py {{{','.join(WRITERS)}}} SEED OUTDIR")
    write_inputs(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]))
