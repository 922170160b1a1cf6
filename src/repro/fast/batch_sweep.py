"""Batch union-find: per-level vectorized merges (ROADMAP item 4).

The chained engine applies a chunk's K2 merge stream one ``MERGE`` at a
time — a pure-Python chain walk per wedge, which since the columnar
pipeline vectorized init+sort is the dominant cost at large K2.  Within
one dendrogram level, however, merge *order does not matter*: the level's
partition is the set of connected components of "already clustered" ∪
"this chunk's edge pairs".  That reformulation is exactly the
randomized-contraction connected-components algorithm of Bögeholz,
Brand and Todor (arXiv:1802.09478, the ``clustering_in_sql``
``randomised_contraction_fast`` kernel): repeat rounds of *hook* (every
cluster adopts the smallest neighbouring cluster id) and *compress*
(pointer jumping) until no edge spans two clusters.  Each round is a
handful of NumPy gather/scatter/min-reduce kernels over the whole
chunk, and the number of rounds is O(log n).

This implementation uses the deterministic *min-label* variant of the
contraction (hook to the minimum incident label instead of a coin
flip): it keeps the expected-logarithmic round count on real inputs
while making the output — and the round count — a pure function of the
input, which the repository's determinism rules (DET001/DET102)
require of worker-reachable code.

Because the paper's array ``C`` canonicalizes cluster ids to the
*minimum member* (Theorem 1), the min-label contraction converges to
exactly the labels ``ChainArray.find`` would produce: the batch engine
is dendrogram-identical to the chained oracle at every level.

Tracing: every hook+compress round runs inside a ``sweep:batch_round``
span and the per-call round total feeds the ``batch_rounds`` counter,
so a profiled run shows how many rounds each chunk needed.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.errors import ClusteringError
from repro.obs import as_tracer

__all__ = [
    "compress_labels",
    "batch_components",
    "batch_join_rows",
]


def compress_labels(labels: np.ndarray) -> np.ndarray:
    """Fully compress a chain array: ``out[i]`` = root of ``i``.

    Pointer jumping (``lab = lab[lab]``) halves every chain's depth per
    iteration, so full compression costs O(log depth) vectorized
    passes.  Requires the chain invariant ``labels[i] <= i`` (checked),
    which both engines maintain; the input is never mutated.
    """
    lab = np.asarray(labels, dtype=np.int64)
    if lab.ndim != 1:
        raise ClusteringError(
            f"labels must be one-dimensional, got shape {lab.shape}"
        )
    if lab.size and (lab > np.arange(lab.size, dtype=np.int64)).any():
        raise ClusteringError("chain invariant violated: labels[i] > i")
    lab = lab.copy()
    while True:
        nxt = lab[lab]
        if np.array_equal(nxt, lab):
            return lab
        lab = nxt


def batch_components(
    labels: np.ndarray,
    i1: np.ndarray,
    i2: np.ndarray,
    tracer=None,
) -> np.ndarray:
    """Union the clusters of ``labels`` along edges ``(i1[k], i2[k])``.

    ``labels`` is any valid chain array (``labels[i] <= i``); the return
    value is the *fully compressed* chain array of the join — for every
    item, the minimum member of its connected component, i.e. exactly
    what chained ``MERGE`` calls over the same edges would make
    ``find`` return.  Neither input array is mutated.

    Each round hooks every still-spanning edge's larger endpoint
    cluster onto the smaller (``np.minimum.at``), recompresses, and
    drops the edges that no longer span two clusters.  Hooking to the
    minimum keeps the chain invariant (labels only ever decrease) and
    leaves each component's minimum as the unique surviving root.
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
    if i1.size and (
        i1.min() < 0 or i2.min() < 0 or max(int(i1.max()), int(i2.max())) >= lab.size
    ):
        raise ClusteringError(
            f"edge endpoints out of range for {lab.size} items"
        )
    # Work on cluster ids, keeping only edges that still span two
    # clusters; the loop ends when none do.
    a = lab[i1]
    b = lab[i2]
    live = a != b
    a = a[live]
    b = b[live]
    rounds = 0
    while a.size:
        rounds += 1
        with tracer.span("sweep:batch_round", edges=int(a.size)):
            lo = np.minimum(a, b)
            hi = np.maximum(a, b)
            # Hook: every larger endpoint root adopts the minimum of
            # its incident smaller roots (unbuffered scatter-min).
            np.minimum.at(lab, hi, lo)
            lab = compress_labels(lab)
            a = lab[a]
            b = lab[b]
            live = a != b
            a = a[live]
            b = b[live]
    if rounds:
        tracer.count("batch_rounds", rounds)
    return lab


def batch_join_rows(
    rows: Sequence[np.ndarray], tracer=None
) -> np.ndarray:
    """Join ``T`` per-worker label arrays into one (Section VI-B, step 2).

    The batch counterpart of the corrected hierarchical array merge:
    every row encodes its partition as the edge set ``(i, row[i])`` for
    ``row[i] != i``, so the join of all rows is one more connected-
    components pass seeded from row 0 with the other rows' non-trivial
    pointers as edges.  Rows may be views into shared memory — they are
    only read.  Returns fully compressed labels.
    """
    if not rows:
        raise ClusteringError("batch_join_rows needs at least one row")
    base = np.asarray(rows[0], dtype=np.int64)
    if len(rows) == 1:
        return compress_labels(base)
    n = base.size
    idx = np.arange(n, dtype=np.int64)
    srcs: List[np.ndarray] = []
    dsts: List[np.ndarray] = []
    for row in rows[1:]:
        arr = np.asarray(row, dtype=np.int64)
        if arr.shape != base.shape:
            raise ClusteringError("rows must share one size")
        nz = np.nonzero(arr != idx)[0]
        srcs.append(nz)
        dsts.append(arr[nz])
    return batch_components(
        base, np.concatenate(srcs), np.concatenate(dsts), tracer=tracer
    )
