"""Vectorized end-to-end fine sweep.

The sweeping phase consumes, in non-increasing similarity order, the
stream of incident edge pairs.  The pure-Python path materializes map
``M`` (K1 entries with common-neighbour lists) and expands it during the
sweep; this module feeds the sweep the columnar Phase-I output instead,
and the K2-long merge stream is built from it vectorized:

1. :func:`repro.fast.similarity.fast_similarity_columns` builds the
   pair columns;
2. the sweep's pair store (:func:`repro.core.storage.make_pair_store`)
   orders them as list ``L`` (:meth:`SimilarityColumns.sort_pairs`, one
   lexsort) and resolves each witness to its two edge ids
   (:func:`repro.core.simcolumns.wedge_edge_arrays`, vectorized binary
   search).

Only the chain-array MERGE loop itself remains Python — it is inherently
sequential — and it runs as one :meth:`ChainArray.merge_run` kernel call
per window of wedges, with the chain walks inlined.  The result is
equivalent to :func:`repro.core.sweep.sweep` (same deterministic order,
identical dendrograms).
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core.sweep import SweepResult, sweep
from repro.fast.similarity import fast_similarity_columns
from repro.graph.graph import Graph

__all__ = ["fast_sweep"]


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
