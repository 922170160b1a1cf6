"""Vectorized end-to-end fine sweep.

The sweeping phase consumes, in non-increasing similarity order, the
stream of incident edge pairs.  The pure-Python path materializes map
``M`` (K1 entries with common-neighbour lists) and expands it during the
sweep; this module produces the K2-long merge stream directly from the
columnar Phase-I output:

1. :func:`repro.fast.similarity.fast_similarity_columns` builds the
   pair columns;
2. :meth:`SimilarityColumns.sort_pairs` orders them as list ``L`` (one
   lexsort);
3. :func:`repro.core.simcolumns.wedge_edge_arrays` resolves each
   witness to its two edge ids (vectorized binary search).

Only the chain-array MERGE loop itself remains Python — it is inherently
sequential — and it runs as one :meth:`ChainArray.merge_run` kernel call
per window of wedges, with the chain walks inlined.  The result is
equivalent to :func:`repro.core.sweep.sweep` (same deterministic order,
identical dendrograms).
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.core.simcolumns import wedge_edge_arrays
from repro.core.sweep import SweepResult, sweep
from repro.fast.similarity import fast_similarity_columns
from repro.graph.graph import Graph

__all__ = ["wedge_stream", "fast_sweep"]


def wedge_stream(
    graph: Graph,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """The sweep's input stream plus K1.

    Returns ``(e1, e2, similarity, k1)``: K2-long arrays sorted by
    non-increasing similarity (ties: by vertex pair, matching the
    reference implementation's deterministic order) and the number of
    distinct vertex pairs K1.
    """
    columns = fast_similarity_columns(graph).sort_pairs()
    if columns.k2 == 0:
        empty_i = np.empty(0, dtype=np.int64)
        return empty_i, empty_i.copy(), np.empty(0, dtype=np.float64), columns.k1
    e1, e2 = wedge_edge_arrays(graph, columns)
    sims = np.repeat(columns.sim, columns.pair_counts())
    return e1, e2, sims, columns.k1


def fast_sweep(
    graph: Graph,
    edge_order: Optional[Sequence[int]] = None,
    record_changes: bool = False,
) -> SweepResult:
    """Vectorized-input fine-grained sweep, equivalent to ``sweep``.

    Computes the similarity columns vectorized, then delegates to the
    core sweep's columnar branch — identical output to the reference
    on the same edge order.
    """
    return sweep(
        graph,
        similarity_map=fast_similarity_columns(graph),
        edge_order=edge_order,
        record_changes=record_changes,
    )
