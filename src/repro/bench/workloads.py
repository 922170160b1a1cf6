"""Shared benchmark workload builders.

Every sweep-engine benchmark used to re-derive the same three-line
recipe — association graph for an alpha, columnar similarity init plus
sort, coarse params matched to the measured K2 — and the parallel
runtime benchmark its own synthetic chunk stream.  This module is the
single home for those recipes so the benchmark scripts state *what*
they measure, not how the workload is built, and all of them stay on
the same workload when the recipe evolves.
"""

from __future__ import annotations

from typing import Dict, Optional, NamedTuple

from repro.bench.datasets import ScalePreset, association_graph, current_scale
from repro.bench.experiments import coarse_params_for

# Re-exported: the synthetic chunk stream lives with the runtime-bench
# helpers but is part of the shared workload vocabulary.
from repro.bench.parallel_runtime import make_chunk_workload
from repro.core.coarse import CoarseParams
from repro.core.simcolumns import SimilarityColumns
from repro.fast.similarity import fast_similarity_columns
from repro.graph.graph import Graph

__all__ = [
    "DEFAULT_CHUNK_WORKLOAD",
    "Fig5Workload",
    "fig5_workload",
    "make_chunk_workload",
]

#: Dimensions of the many-chunk workload the runtime benchmarks drive
#: (``make_chunk_workload(seed=..., **DEFAULT_CHUNK_WORKLOAD)``).
DEFAULT_CHUNK_WORKLOAD: Dict[str, int] = {
    "n": 2000,
    "num_chunks": 12,
    "pairs_per_chunk": 60,
}


class Fig5Workload(NamedTuple):
    """One Fig. 5 sweep workload: graph, sorted columns, matched params."""

    alpha: float
    graph: Graph
    cols: SimilarityColumns
    params: CoarseParams

    @property
    def k2(self) -> int:
        return self.cols.k2


def fig5_workload(
    alpha: float,
    preset: Optional[ScalePreset] = None,
    sort: bool = True,
) -> Fig5Workload:
    """Build the standard Fig. 5 sweep workload for one ``alpha``.

    The (cached) word-association graph, its columnar similarity
    structure (sorted unless ``sort=False``), and coarse parameters
    scaled to the measured K2 — the exact setup every sweep-engine
    benchmark times.
    """
    preset = preset or current_scale()
    graph = association_graph(alpha, preset)
    cols = fast_similarity_columns(graph)
    if sort:
        # sort_pairs returns new columns (it never mutates in place).
        cols = cols.sort_pairs()
    params = coarse_params_for(graph, k2=cols.k2)
    return Fig5Workload(alpha=alpha, graph=graph, cols=cols, params=params)
