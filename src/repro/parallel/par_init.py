"""Parallel initialization phase (Section VI-A), columnar.

Algorithm 1's three passes keep the paper's parallel structure:

* **Pass 1** — ``H1``/``H2`` are one vectorized O(|E|) pass in the
  parent with the serial columnar kernel: fanning it out costs more in
  dispatch than it saves, and summing in the serial order keeps the
  output bitwise identical to the serial path.
* **Pass 2** — vertices are partitioned into ``T`` disjoint sets
  (round-robin by default, which the paper credits for load balance)
  and each worker enumerates its vertex set's wedges into *private*
  flat arrays (no shared-state races).  The paper merges the private
  maps in a pairwise tournament; here the combine is one concatenate +
  sort + segment-reduce in the parent.  The tournament's cost stays
  modelled in the Fig 6(1) work model
  (:mod:`repro.parallel.workmodel`).
* **Pass 3** — the ``(H1[i] + H1[j]) * w_ij`` adjustment touches each
  vertex pair once, a disjoint region of ``M`` per pair.  It is one
  vectorized expression in the parent (its span says ``workers=1``).

Each worker's wedges carry the ids of their two edges (from the CSR
slots), and the combine sort permutes them with the wedges, so the
output carries the sweep's merge stream exactly as the serial path's
does.

Wedge keys ``(u, v, k)`` are globally unique, so the post-sort order
(and therefore every floating-point sum) is identical to the serial
columnar path regardless of the partitioning: the output is bitwise
identical to :func:`repro.fast.similarity.fast_similarity_columns`.
The dict :func:`repro.core.similarity.compute_similarity_map` stays the
serial oracle.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.core.simcolumns import SimilarityColumns
from repro.errors import ParameterError
from repro.graph.graph import Graph
from repro.obs import as_tracer
from repro.parallel.partitioner import partition_range
from repro.parallel.pool import get_backend

__all__ = ["parallel_similarity_columns"]


# ----------------------------------------------------------------------
# module-level worker (picklable for the process backend)
# ----------------------------------------------------------------------


def _pass2_columnar_worker(
    indptr: np.ndarray,
    indices: np.ndarray,
    weights: np.ndarray,
    eids: np.ndarray,
    vertices: Sequence[int],
) -> List[np.ndarray]:
    """Columnar pass 2, step one: this vertex set's wedges as arrays.

    Receives the parent's CSR arrays, so no worker rebuilds the graph's
    adjacency (and process tasks pickle four arrays, not the graph).
    Returns ``[u, v, k, wprod, e_uk, e_vk]``.
    """
    from repro.fast.similarity import _wedge_columns

    return _wedge_columns(indptr, indices, weights, eids, vertices=vertices)


def parallel_similarity_columns(
    graph: Graph,
    num_workers: int = 2,
    backend: str = "thread",
    scheme: str = "round_robin",
    tracer=None,
) -> SimilarityColumns:
    """Columnar Phase I with ``num_workers`` workers.

    Per-worker wedge arrays replace the private dicts, and the combine
    step is one concatenate + argsort + segment-reduce in the parent —
    bitwise identical to :func:`repro.fast.similarity.fast_similarity_columns`
    (unique wedge keys force the same post-sort order, hence the same
    summation order, and pass 1 runs the serial kernel).  ``tracer``
    gets the standard per-pass spans.
    """
    from repro.fast.similarity import (
        _csr_arrays,
        _finish_columns,
        _group_wedges,
        _h_arrays_columnar,
    )

    if num_workers < 1:
        raise ParameterError(f"num_workers must be >= 1, got {num_workers}")
    tracer = as_tracer(tracer)
    exec_backend = get_backend(backend, num_workers)
    parts = partition_range(graph.num_vertices, num_workers, scheme)

    # Pass 1 is one vectorized O(|E|) pass: fanning it out costs more in
    # dispatch than it saves, and per-worker partial sums would round
    # differently from the serial columnar kernel.
    with tracer.span("init:pass1", workers=1):
        indptr, indices, weights, eids = _csr_arrays(graph)
        h1, h2 = _h_arrays_columnar(indptr, weights)

    with tracer.span("init:pass2", workers=len(parts)):
        partials = exec_backend.map(
            _pass2_columnar_worker,
            [(indptr, indices, weights, eids, part) for part in parts],
        )
        # Release each worker column once it is concatenated, so the
        # combine never holds two copies of all six K2 columns.
        wedges = []
        for col in range(len(partials[0])):
            wedges.append(np.concatenate([part[col] for part in partials]))
            for part in partials:
                part[col] = None
        del partials
        grouped = _group_wedges(wedges)

    return _finish_columns(
        indptr, indices, weights, h1, h2, grouped, tracer, workers=1
    )
