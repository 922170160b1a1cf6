"""Parallel initialization phase (Section VI-A).

Each of Algorithm 1's three passes is parallelized exactly as the paper
describes:

* **Pass 1** — vertices are partitioned into ``T`` disjoint sets
  (round-robin by default, which the paper credits for load balance) and
  each worker fills its slice of ``H1``/``H2``; slices are disjoint so the
  combine step is a plain element-wise sum.
* **Pass 2** — step one: each worker builds a *private* map over its
  vertex set (no shared-state races); step two: the per-worker maps are
  merged pairwise in a hierarchical tournament until at most three remain,
  which a single task folds together.
* **Pass 3** — the edge list is partitioned once by each edge's first
  endpoint's owner; each worker computes the ``(H1[i] + H1[j]) * w_ij``
  adjustment for its slice only, touching disjoint regions of ``M``.

The final Tanimoto normalization is a cheap serial fold.

:func:`parallel_similarity_columns` is the columnar counterpart: each
worker returns its vertex set's wedges as flat arrays instead of a
private dict, and the combine step is one concatenate + lexsort +
segment-reduce in the parent — no dict re-pickling tournament.  Wedge
keys ``(u, v, k)`` are globally unique, so the post-sort order (and
therefore every floating-point sum) is identical to the serial columnar
path regardless of the partitioning.  Its pass 1 is one vectorized
O(|E|) pass in the parent with the serial columnar kernel, so ``H1`` and
``H2`` are summed in the serial order too: the output is bitwise
identical to :func:`repro.fast.similarity.fast_similarity_columns`.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.core.simcolumns import SimilarityColumns
from repro.core.similarity import (
    PairAccumulator,
    SimilarityMap,
    accumulate_pair_map,
    compute_h_arrays,
    finalize_similarities,
    merge_pair_maps,
)
from repro.errors import ParameterError
from repro.graph.graph import Graph
from repro.obs import as_tracer
from repro.parallel.partitioner import partition_range
from repro.parallel.pool import ExecutionBackend, SerialBackend, get_backend

__all__ = [
    "parallel_similarity_map",
    "parallel_similarity_columns",
    "hierarchical_map_merge",
]


# ----------------------------------------------------------------------
# module-level workers (picklable for the process backend)
# ----------------------------------------------------------------------


def _pass1_worker(
    graph: Graph, vertices: Sequence[int]
) -> Tuple[List[float], List[float]]:
    return compute_h_arrays(graph, vertices)


def _pass2_worker(graph: Graph, vertices: Sequence[int]) -> PairAccumulator:
    return accumulate_pair_map(graph, vertices)


def _pass2_columnar_worker(
    indptr: np.ndarray,
    indices: np.ndarray,
    weights: np.ndarray,
    vertices: Sequence[int],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Columnar pass 2, step one: this vertex set's wedges as arrays.

    Receives the parent's CSR arrays, so no worker rebuilds the graph's
    adjacency (and process tasks pickle three arrays, not the graph).
    """
    from repro.fast.similarity import _wedge_columns

    return _wedge_columns(indptr, indices, weights, vertices=vertices)


def _pass3_worker(
    edges: Sequence[Tuple[int, int, float]], h1: Sequence[float]
) -> Dict[Tuple[int, int], float]:
    """Adjustment terms for a pre-partitioned edge slice.

    Workers receive only their ``(u, v, w)`` slice — the edge list is
    partitioned once in the parent, instead of every worker rescanning
    all of ``graph.edge_pairs()`` and filtering (which cost O(T * |E|)
    across the fan-out).
    """
    return {(u, v): (h1[u] + h1[v]) * w for u, v, w in edges}


def _merge_maps_worker(dst: PairAccumulator, src: PairAccumulator) -> PairAccumulator:
    return merge_pair_maps(dst, src)


def _partition_edges_by_owner(
    graph: Graph, parts: Sequence[Sequence[int]]
) -> List[List[Tuple[int, int, float]]]:
    """Split the edge list into per-worker slices in one scan.

    An edge ``(u, v)`` belongs to the worker owning its first endpoint
    ``u`` — the paper's region-separation rule, which keeps pass-3
    updates on disjoint parts of ``M``.
    """
    owner = [0] * graph.num_vertices
    for worker, part in enumerate(parts):
        for vid in part:
            owner[vid] = worker
    slices: List[List[Tuple[int, int, float]]] = [[] for _ in parts]
    for eid, (u, v) in enumerate(graph.edge_pairs()):
        slices[owner[u]].append((u, v, graph.edge_weight(eid)))
    return slices


def _combine_h_arrays(
    graph: Graph,
    exec_backend: ExecutionBackend,
    parts: Sequence[Sequence[int]],
) -> Tuple[List[float], List[float]]:
    """Pass 1: map the workers and fold their disjoint H1/H2 slices."""
    n = graph.num_vertices
    h1 = [0.0] * n
    h2 = [0.0] * n
    for part_h1, part_h2 in exec_backend.map(
        _pass1_worker, [(graph, part) for part in parts]
    ):
        for i, value in enumerate(part_h1):
            if value:
                h1[i] = value
        for i, value in enumerate(part_h2):
            if value:
                h2[i] = value
    return h1, h2


# ----------------------------------------------------------------------
# hierarchical map merge (pass 2, step 2)
# ----------------------------------------------------------------------


def hierarchical_map_merge(
    maps: List[PairAccumulator], backend: ExecutionBackend | None = None
) -> PairAccumulator:
    """Merge per-worker maps with the paper's tournament scheme.

    With ``k > 3`` active maps, ``k // 2`` disjoint pairs are merged
    concurrently (odd map carried over); at most three remaining maps are
    folded by a single task.
    """
    if not maps:
        return {}
    backend = backend or SerialBackend()
    active = list(maps)
    while len(active) > 3:
        tasks = [
            (active[idx], active[idx + 1]) for idx in range(0, len(active) - 1, 2)
        ]
        merged = backend.map(_merge_maps_worker, tasks)
        if len(active) % 2 == 1:
            merged.append(active[-1])
        active = merged
    result = active[0]
    for other in active[1:]:
        merge_pair_maps(result, other)
    return result


# ----------------------------------------------------------------------
# drivers
# ----------------------------------------------------------------------


def parallel_similarity_map(
    graph: Graph,
    num_workers: int = 2,
    backend: str = "thread",
    scheme: str = "round_robin",
    tracer=None,
) -> SimilarityMap:
    """Phase I with ``num_workers`` workers on the named backend.

    Produces a map identical to
    :func:`repro.core.similarity.compute_similarity_map` (floating-point
    sums are accumulated in a fixed merge order, so results match the
    serial run bit-for-bit only up to addition reordering across workers —
    tests compare with tolerances).  ``tracer`` gets the same per-pass
    spans as the serial path (``init:pass1`` .. ``init:finalize``).
    """
    if num_workers < 1:
        raise ParameterError(f"num_workers must be >= 1, got {num_workers}")
    tracer = as_tracer(tracer)
    exec_backend = get_backend(backend, num_workers)
    # Map merging on the process backend would re-pickle every map; the
    # maps already live in the parent, so merge them inline there.
    merge_backend = exec_backend if backend == "thread" else SerialBackend()
    parts = partition_range(graph.num_vertices, num_workers, scheme)

    # Pass 1: disjoint H1/H2 slices, summed (disjoint fills, zero elsewhere).
    with tracer.span("init:pass1", workers=len(parts)):
        h1, h2 = _combine_h_arrays(graph, exec_backend, parts)

    # Pass 2: private maps, then hierarchical merge.
    with tracer.span("init:pass2", workers=len(parts)):
        local_maps = exec_backend.map(_pass2_worker, [(graph, part) for part in parts])
        m = hierarchical_map_merge(local_maps, merge_backend)

    # Pass 3: adjustments over pre-partitioned edge slices, applied to M.
    with tracer.span("init:pass3", workers=len(parts)):
        edge_slices = _partition_edges_by_owner(graph, parts)
        for adjustments in exec_backend.map(
            _pass3_worker, [(edges, h1) for edges in edge_slices]
        ):
            for key, value in adjustments.items():
                entry = m.get(key)
                if entry is not None:
                    entry[0] += value

    with tracer.span("init:finalize"):
        return finalize_similarities(m, h2)


def parallel_similarity_columns(
    graph: Graph,
    num_workers: int = 2,
    backend: str = "thread",
    scheme: str = "round_robin",
    tracer=None,
) -> SimilarityColumns:
    """Columnar Phase I with ``num_workers`` workers.

    Per-worker wedge arrays replace the private dicts, and the combine
    step is one concatenate + lexsort + segment-reduce in the parent —
    bitwise identical to :func:`repro.fast.similarity.fast_similarity_columns`
    (unique wedge keys force the same post-sort order, hence the same
    summation order, and pass 1 runs the serial kernel).  ``tracer``
    gets the standard per-pass spans.
    """
    from repro.fast.similarity import (
        _adjacency_weights,
        _csr_arrays,
        _group_wedges,
        _h_arrays_columnar,
        _tanimoto,
    )

    if num_workers < 1:
        raise ParameterError(f"num_workers must be >= 1, got {num_workers}")
    tracer = as_tracer(tracer)
    exec_backend = get_backend(backend, num_workers)
    parts = partition_range(graph.num_vertices, num_workers, scheme)

    # Pass 1 is one vectorized O(|E|) pass: fanning it out costs more in
    # dispatch than it saves, and the per-vertex Python sums of the dict
    # path round differently from the serial columnar kernel.
    with tracer.span("init:pass1", workers=1):
        indptr, indices, weights = _csr_arrays(graph)
        h1, h2 = _h_arrays_columnar(indptr, weights)

    with tracer.span("init:pass2", workers=len(parts)):
        partials = exec_backend.map(
            _pass2_columnar_worker,
            [(indptr, indices, weights, part) for part in parts],
        )
        pair_u, pair_v, dots, offsets, commons = _group_wedges(
            np.concatenate([p[0] for p in partials]),
            np.concatenate([p[1] for p in partials]),
            np.concatenate([p[2] for p in partials]),
            np.concatenate([p[3] for p in partials]),
        )

    with tracer.span("init:pass3", workers=len(parts)):
        dots = dots + (h1[pair_u] + h1[pair_v]) * _adjacency_weights(
            graph, pair_u, pair_v
        )

    with tracer.span("init:finalize"):
        sims = _tanimoto(h2, pair_u, pair_v, dots)
        return SimilarityColumns(
            u=pair_u,
            v=pair_v,
            sim=sims,
            common_offsets=offsets,
            common_neighbors=commons,
        )
