"""Vertex-sharded sweep: owner-computes C partitions (ROADMAP item 3).

The batch engine still hands every worker a private full copy of array C
per chunk and pays an O(T·n) join per level.  This module implements the
third engine, ``engine="sharded"``, which drops both costs: each worker
*owns* one contiguous slice ``C[lo:hi]`` (a :class:`ShardedPartition`)
and a level proceeds in three phases:

1. **Classify** (host, pure NumPy): gather the chunk's pair endpoints
   through the compressed labels, drop dead pairs, and split the live
   root pairs into *intra-shard* (both roots owned by one shard) and
   *boundary* sets with one vectorized owner lookup.
2. **Local contraction** (owner-computes): every busy shard contracts
   its intra-shard root pairs with the deterministic
   :func:`~repro.fast.batch_sweep.batch_components` min-label kernel —
   over an **identity** label array of its own width only, since intra
   pairs connect roots and roots of owned clusters are owned indices.
   The shard-local relabel lands in ``rho[lo:hi]``.
3. **Reconcile** (host): the boundary pairs — mapped through the local
   relabels, then canonicalized and deduplicated to unique cluster
   pairs — are contracted over their *compacted* endpoint set and the
   resulting relabels broadcast back into ``rho``.  Compaction uses
   ``np.unique`` (sorted, hence order-isomorphic), so the min compact
   id maps back to the min global id and the paper's minimum-member
   canonical labels (Theorem 1) are preserved exactly.

The composition ``rho[labels]`` equals the full-chunk
``batch_components`` result because the components of "already
clustered ∪ chunk pairs" can always be built intra-first: any path
between two vertices alternates intra segments and boundary edges, the
intra segments collapse in phase 2, and the boundary edges collapse in
phase 3 over the phase-2 quotient.  The engine is therefore
dendrogram-identical to the chained oracle at every level (tested).

This is the TeraHAC/cuSLINK decomposition (arXiv:2308.03578,
arXiv:2306.16354): shards run local merge rounds independently and only
the much smaller boundary set crosses shards per epoch.  Every level is
reconciled in full, so every level is exact.

Tracing: each shard's local contraction is recorded as a
``sweep:shard[s]`` span (externally timed, so parallel drivers report
true worker seconds), the boundary contraction as ``sweep:reconcile``;
``boundary_edges`` counts deduplicated cross-shard cluster pairs,
``reconcile_rounds`` the host contraction rounds, and the
``shard_bytes`` gauge the widest owned slice in bytes — the per-worker
resident C footprint.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ClusteringError
from repro.fast.batch_sweep import batch_components, compress_labels
from repro.obs import as_tracer
from repro.parallel.partitioner import ShardedPartition

__all__ = [
    "ShardTask",
    "ShardedChunkStats",
    "solve_shard",
    "reconcile_labels",
    "apply_relabels",
    "dedupe_root_pairs",
    "sharded_components",
]


class ShardTask(NamedTuple):
    """One shard's local work for a level: contract ``(a, b)`` pairs.

    ``a``/``b`` hold *global* root ids, all within the owned range
    ``[lo, hi)``; solvers shift them to local coordinates.
    """

    shard: int
    lo: int
    hi: int
    a: np.ndarray
    b: np.ndarray


# A solver runs every task and returns (local labels, seconds) per task.
ShardSolver = Callable[
    [Sequence[ShardTask]], List[Tuple[np.ndarray, float]]
]


@dataclass(frozen=True)
class ShardedChunkStats:
    """What one sharded level did — fed into counters by the callers."""

    intra_edges: int
    boundary_edges: int
    reconcile_rounds: int
    shards_busy: int


def solve_shard(width: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Contract one shard's intra pairs in local coordinates.

    The shard needs **no** C data: intra pairs connect cluster roots it
    owns, and an identity array of its own width is a valid chain array
    whose contraction yields, per local cluster, the minimum local root
    — which shifted back by ``lo`` is the minimum global root.
    """
    identity = np.arange(width, dtype=np.int64)
    return batch_components(identity, a, b)


def reconcile_labels(
    a: np.ndarray, b: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, int]:
    """Contract boundary root pairs over their compacted endpoint set.

    Returns ``(keys, vals, rounds)``: sorted endpoint ids, the final
    root each maps to, and the number of hook+compress rounds.  The
    same min-label contraction as :func:`batch_components`, but run
    over only the boundary endpoints (compacted through ``np.unique``)
    instead of an n-sized array — the whole point of reconciliation
    being an epoch-sized, not graph-sized, step.
    """
    nodes = np.unique(np.concatenate([a, b]))
    ca = np.searchsorted(nodes, a)
    cb = np.searchsorted(nodes, b)
    lab = np.arange(nodes.size, dtype=np.int64)
    live = ca != cb
    ca = ca[live]
    cb = cb[live]
    rounds = 0
    while ca.size:
        rounds += 1
        lo = np.minimum(ca, cb)
        hi = np.maximum(ca, cb)
        np.minimum.at(lab, hi, lo)
        lab = compress_labels(lab)
        ca = lab[ca]
        cb = lab[cb]
        live = ca != cb
        ca = ca[live]
        cb = cb[live]
    return nodes, nodes[lab], rounds


def apply_relabels(arr: np.ndarray, keys: np.ndarray, vals: np.ndarray) -> None:
    """Replace every occurrence of ``keys[j]`` in ``arr`` by ``vals[j]``.

    ``keys`` must be sorted (as :func:`reconcile_labels` returns them);
    ``arr`` is modified in place.  Entries not present in ``keys`` are
    left alone.
    """
    changed = keys != vals
    keys = keys[changed]
    vals = vals[changed]
    if keys.size == 0:
        return
    pos = np.searchsorted(keys, arr)
    pos[pos == keys.size] = 0
    mask = keys[pos] == arr
    arr[mask] = vals[pos[mask]]


def dedupe_root_pairs(
    a: np.ndarray, b: np.ndarray, n: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Canonicalize root pairs to unique ``(lo, hi)`` cluster edges.

    The K2 stream repeats cluster pairs heavily; reconciliation (and the
    ``boundary_edges`` traffic accounting) only needs each surviving
    cluster edge once.  Pairs are packed into int64 keys (safe while
    ``n**2 < 2**63``) and uniqued, so the output is sorted and a pure
    function of the input *set*.
    """
    lo = np.minimum(a, b)
    hi = np.maximum(a, b)
    keys = np.unique(lo * np.int64(n) + hi)
    return keys // np.int64(n), keys % np.int64(n)


def sharded_components(
    labels: np.ndarray,
    i1: np.ndarray,
    i2: np.ndarray,
    part: ShardedPartition,
    tracer=None,
    shard_solver: Optional[ShardSolver] = None,
) -> Tuple[np.ndarray, ShardedChunkStats]:
    """One sharded level: ``labels`` + edge pairs → compressed labels.

    Returns ``(merged, stats)``.  ``merged`` is the fully compressed
    join — bitwise equal to
    :func:`~repro.fast.batch_sweep.batch_components` over the same
    inputs.  ``shard_solver`` lets parallel runtimes fan the
    :class:`ShardTask` list out to owner workers; by default shards are
    solved sequentially in process.  Neither input array is mutated.
    """
    tracer = as_tracer(tracer)
    lab = compress_labels(labels)
    i1 = np.asarray(i1, dtype=np.int64)
    i2 = np.asarray(i2, dtype=np.int64)
    if i1.shape != i2.shape or i1.ndim != 1:
        raise ClusteringError(
            f"i1/i2 must be equal-length 1-D arrays, got shapes "
            f"{i1.shape}/{i2.shape}"
        )
    if part.n != lab.size:
        raise ClusteringError(
            f"partition covers {part.n} items but labels have {lab.size}"
        )
    if i1.size and (
        i1.min() < 0 or i2.min() < 0 or max(int(i1.max()), int(i2.max())) >= lab.size
    ):
        raise ClusteringError(
            f"edge endpoints out of range for {lab.size} items"
        )
    a = lab[i1]
    b = lab[i2]
    live = a != b
    a = a[live]
    b = b[live]
    if a.size == 0:
        return lab, ShardedChunkStats(0, 0, 0, 0)
    tracer.gauge("shard_bytes", part.max_width * 8)

    cls = part.classify(a, b)
    tasks: List[ShardTask] = []
    for shard in range(part.num_shards):
        seg_start = int(cls.segments[shard])
        seg_stop = int(cls.segments[shard + 1])
        if seg_start == seg_stop:
            continue
        tasks.append(
            ShardTask(
                shard=shard,
                lo=part.bounds[shard],
                hi=part.bounds[shard + 1],
                a=cls.intra_a[seg_start:seg_stop],
                b=cls.intra_b[seg_start:seg_stop],
            )
        )

    # rho: per-level relabel of cluster roots, identity where untouched.
    rho = np.arange(part.n, dtype=np.int64)
    if tasks:
        if shard_solver is None:
            results: List[Tuple[np.ndarray, float]] = []
            for task in tasks:
                t0 = perf_counter()
                local = solve_shard(
                    task.hi - task.lo, task.a - task.lo, task.b - task.lo
                )
                results.append((local, perf_counter() - t0))
        else:
            results = shard_solver(tasks)
        for task, (local, seconds) in zip(tasks, results):
            rho[task.lo : task.hi] = local + task.lo
            tracer.record(
                f"sweep:shard[{task.shard}]", seconds, edges=int(task.a.size)
            )

    boundary_edges = 0
    rounds = 0
    if cls.boundary_a.size:
        ba = rho[cls.boundary_a]
        bb = rho[cls.boundary_b]
        blive = ba != bb
        ba = ba[blive]
        bb = bb[blive]
        if ba.size:
            ba, bb = dedupe_root_pairs(ba, bb, part.n)
            boundary_edges = int(ba.size)
            tracer.count("boundary_edges", boundary_edges)
            t0 = perf_counter()
            keys, vals, rounds = reconcile_labels(ba, bb)
            apply_relabels(rho, keys, vals)
            tracer.record(
                "sweep:reconcile",
                perf_counter() - t0,
                edges=boundary_edges,
            )
            if rounds:
                tracer.count("reconcile_rounds", rounds)

    merged = rho[lab]
    stats = ShardedChunkStats(
        intra_edges=int(cls.intra_a.size),
        boundary_edges=boundary_edges,
        reconcile_rounds=rounds,
        shards_busy=len(tasks),
    )
    return merged, stats

