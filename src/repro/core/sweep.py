"""Phase II of the serial algorithm: fine-grained sweeping (Algorithm 2).

The sweeping phase sorts the vertex pairs of map ``M`` by non-increasing
similarity into list ``L`` and then, for each pair ``(v_i, v_j)`` with
common neighbours ``l``, merges the clusters of edges ``(v_i, v_k)`` and
``(v_j, v_k)`` for every ``v_k`` on ``l`` using the chain-array ``MERGE``
procedure.  Each genuine merge (distinct cluster roots) bumps the level
counter ``r`` and emits the dendrogram record ``r: c1, c2 -> cmin``.

Edge ids in array ``C`` come from a permutation of the graph's edges (the
paper enumerates edges "in a random order"); pass ``edge_order`` to control
it, default is identity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.cluster.dendrogram import Dendrogram, DendrogramBuilder
from repro.cluster.unionfind import ChainArray
from repro.core.cancel import CHECK_INTERVAL, CancelToken
from repro.core.simcolumns import SimilarityColumns, wedge_edge_arrays
from repro.core.similarity import SimilarityMap, compute_similarity_map
from repro.errors import ClusteringError
from repro.graph.graph import Graph
from repro.obs import as_tracer

__all__ = ["SweepResult", "sweep", "build_edge_index"]


def build_edge_index(
    graph: Graph, edge_order: Optional[Sequence[int]] = None
) -> List[int]:
    """The map ``I``: edge id -> index in array ``C``.

    ``edge_order`` is a permutation with ``edge_order[eid]`` giving the
    index (as produced by :meth:`Graph.permuted_edge_ids`); identity when
    omitted.
    """
    n = graph.num_edges
    if edge_order is None:
        return list(range(n))
    if sorted(edge_order) != list(range(n)):
        raise ClusteringError(
            "edge_order must be a permutation of 0..num_edges-1"
        )
    return list(edge_order)


def merge_pair_positions(
    merges: Sequence[Tuple[int, int, int, int]], offsets: np.ndarray, base: int = 0
) -> np.ndarray:
    """Position in list ``L`` of each merge's vertex pair.

    ``merges`` are :meth:`ChainArray.merge_run` records, whose wedge
    index plus ``base`` falls in its pair's ``offsets`` row.
    """
    wedges = np.fromiter((m[0] for m in merges), np.int64, len(merges))
    return np.searchsorted(offsets, wedges + base, side="right") - 1


@dataclass
class SweepResult:
    """Everything the fine-grained sweep produces.

    Attributes
    ----------
    dendrogram:
        Merge records over edge *indices* (positions in array ``C``).
    chain:
        Final state of array ``C``.
    edge_index:
        The map ``I`` used: ``edge_index[eid]`` is the index in ``C``.
    num_levels:
        Final value of the level counter ``r`` (= number of merges).
    k1, k2:
        Vertex-pair and incident-edge-pair counts of the similarity map.
    per_merge_changes:
        When change recording was on: the number of array-``C`` value
        changes caused by each MERGE call, in processing order (one entry
        per incident edge pair, K2 total).  Basis of Figure 2(1).
    """

    dendrogram: Dendrogram
    chain: ChainArray
    edge_index: List[int]
    num_levels: int
    k1: int
    k2: int
    per_merge_changes: Optional[List[int]] = None

    def edge_labels(self) -> List[int]:
        """Final cluster label of every *edge id* (not index).

        Labels are canonical minimum indices within array ``C``.
        """
        return [self.chain.find(self.edge_index[eid])
                for eid in range(len(self.edge_index))]

    @property
    def num_clusters(self) -> int:
        return self.chain.num_clusters()


def sweep(
    graph: Graph,
    similarity_map: Optional[Union[SimilarityMap, SimilarityColumns]] = None,
    edge_order: Optional[Sequence[int]] = None,
    record_changes: bool = False,
    tracer=None,
    cancel: Optional[CancelToken] = None,
) -> SweepResult:
    """Run Algorithm 2 (fine-grained sweeping) over ``graph``.

    Parameters
    ----------
    graph:
        The input graph.
    similarity_map:
        Phase-I output — dict :class:`SimilarityMap` or columnar
        :class:`SimilarityColumns`; computed on the fly (dict) when
        omitted.  Both forms yield identical results; the columnar path
        sorts and expands the K2 stream with vectorized kernels.
    edge_order:
        Optional permutation assigning array-``C`` indices to edges.
    record_changes:
        Track per-MERGE change counts on array ``C`` (Figure 2(1) data).
    tracer:
        Optional :class:`repro.obs.Tracer`; gets ``phase:sort`` and
        ``phase:sweep`` spans plus a ``merges`` counter.  Tracing sits
        outside the merge loop, so it costs nothing per pair.
    cancel:
        Optional :class:`~repro.core.cancel.CancelToken`; checked at
        every vertex pair (dict path) / between kernel windows of
        ``CHECK_INTERVAL`` wedges (columnar path) and raises
        :class:`~repro.errors.RunCancelledError` when triggered.

    Returns
    -------
    :class:`SweepResult` with the dendrogram over edge indices.
    """
    tracer = as_tracer(tracer)
    if isinstance(similarity_map, SimilarityColumns):
        return _columnar_sweep(
            graph, similarity_map, edge_order, record_changes, tracer, cancel
        )
    sim = similarity_map if similarity_map is not None else compute_similarity_map(graph)
    with tracer.span("phase:sort", k1=sim.k1):
        pairs = sim.sorted_pairs()  # list L
    index = build_edge_index(graph, edge_order)
    chain = ChainArray(graph.num_edges)
    builder = DendrogramBuilder(graph.num_edges)
    per_merge: Optional[List[int]] = [] if record_changes else None

    r = 0
    with tracer.span("phase:sweep"):
        for similarity, (vi, vj), commons in pairs:
            if cancel is not None:
                cancel.raise_if_cancelled()
            for vk in commons:
                i1 = index[graph.edge_id(vi, vk)]
                i2 = index[graph.edge_id(vj, vk)]
                before = chain.changes
                outcome = chain.merge(i1, i2)
                if per_merge is not None:
                    per_merge.append(chain.changes - before)
                if outcome.merged:
                    r += 1
                    builder.record(
                        r, outcome.c1, outcome.c2, outcome.parent, similarity
                    )
    tracer.count("merges", r)

    return SweepResult(
        dendrogram=builder.build(),
        chain=chain,
        edge_index=index,
        num_levels=r,
        k1=sim.k1,
        k2=sim.k2,
        per_merge_changes=per_merge,
    )


def _columnar_sweep(
    graph: Graph,
    columns: SimilarityColumns,
    edge_order: Optional[Sequence[int]],
    record_changes: bool,
    tracer,
    cancel: Optional[CancelToken] = None,
) -> SweepResult:
    """Algorithm 2 over columnar input: same merges, vectorized setup.

    The sort is one lexsort, the K2 wedge stream comes out as flat edge
    arrays (no per-wedge ``graph.edge_id`` dict lookups), and MERGE runs
    one :meth:`ChainArray.merge_run` kernel call per ``CHECK_INTERVAL``
    window of wedges, with the cancel checkpoint between windows.  Only
    genuine merges look up their pair's similarity.
    """
    with tracer.span("phase:sort", k1=columns.k1):
        columns = columns.sort_pairs()
    index = build_edge_index(graph, edge_order)
    chain = ChainArray(graph.num_edges)
    builder = DendrogramBuilder(graph.num_edges)
    per_merge: Optional[List[int]] = [] if record_changes else None

    e1, e2 = wedge_edge_arrays(graph, columns)
    index_arr = np.asarray(index, dtype=np.int64)
    c1 = index_arr[e1]
    c2 = index_arr[e2]

    merges: List[Tuple[int, int, int, int]] = []
    with tracer.span("phase:sweep"):
        for start in range(0, columns.k2, CHECK_INTERVAL):
            if cancel is not None:
                cancel.raise_if_cancelled()
            stop = min(columns.k2, start + CHECK_INTERVAL)
            merges += chain.merge_run(c1, c2, start, stop, per_merge)
        pairs = merge_pair_positions(merges, columns.common_offsets)
        for r, (m, similarity) in enumerate(
            zip(merges, columns.sim[pairs].tolist()), 1
        ):
            builder.record(r, m[1], m[2], m[3], similarity)
    r = len(merges)
    tracer.count("merges", r)

    return SweepResult(
        dendrogram=builder.build(),
        chain=chain,
        edge_index=index,
        num_levels=r,
        k1=columns.k1,
        k2=columns.k2,
        per_merge_changes=per_merge,
    )
