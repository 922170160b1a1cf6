"""Incremental partition-density scan over a dendrogram.

Finding Ahn et al.'s best cut means evaluating the partition density
``D`` at every dendrogram level.  Recomputing ``D`` from scratch per
level costs O(levels x |E|) — quadratic for fine-grained dendrograms
where every merge is its own level.  This module maintains ``D``
*incrementally* while replaying merges: each cluster tracks its edge
count and a node-multiplicity map, merged smaller-into-larger, giving
O(|E| log |E|) for the whole scan.

Used by :meth:`LinkClusteringResult.best_partition` workloads at scale
and benchmarked against the naive scan in ``benchmarks/bench_ablation``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cluster.dendrogram import Dendrogram
from repro.cluster.partition import improves_density
from repro.errors import ClusteringError
from repro.graph.graph import Graph

__all__ = ["DensityPoint", "density_curve", "best_cut"]


@dataclass(frozen=True)
class DensityPoint:
    """Partition density after all merges of one dendrogram level."""

    level: int
    num_clusters: int
    density: float


class _Cluster:
    """Mutable per-cluster state of the incremental scan."""

    __slots__ = ("edges", "node_counts", "contribution")

    def __init__(self, u: int, v: int):
        self.edges = 1
        self.node_counts: Dict[int, int] = {u: 1, v: 1}
        self.contribution = 0.0  # n_c = 2 contributes nothing

    def recompute_contribution(self) -> None:
        n_c = len(self.node_counts)
        if n_c <= 2:
            self.contribution = 0.0
            return
        m_c = self.edges
        self.contribution = m_c * (m_c - (n_c - 1)) / ((n_c - 2) * (n_c - 1))

    def absorb(self, other: "_Cluster") -> None:
        """Merge ``other`` into self (caller guarantees self is larger)."""
        self.edges += other.edges
        counts = self.node_counts
        for node, count in other.node_counts.items():
            counts[node] = counts.get(node, 0) + count
        self.recompute_contribution()


def density_curve(
    graph: Graph,
    dendrogram: Dendrogram,
    edge_index: Optional[Sequence[int]] = None,
) -> List[DensityPoint]:
    """Partition density after every dendrogram level, incrementally.

    Parameters
    ----------
    graph:
        The clustered graph.
    dendrogram:
        Merge records whose leaves are edge ids — or positions in array
        ``C`` when ``edge_index`` is given (``edge_index[eid]`` = leaf).
    edge_index:
        Optional edge-id -> leaf-index map (from a sweep result).

    Returns
    -------
    One :class:`DensityPoint` per distinct level, in level order,
    starting with level 0 (all-singletons, density 0).
    """
    m_total = graph.num_edges
    if dendrogram.num_items != m_total:
        raise ClusteringError(
            "dendrogram leaves do not match the graph's edge count"
        )
    # leaf index -> endpoints
    endpoints: List[Tuple[int, int]] = [(0, 0)] * m_total
    if edge_index is None:
        for eid in range(m_total):
            endpoints[eid] = graph.edge_endpoints(eid)
    else:
        if sorted(edge_index) != list(range(m_total)):
            raise ClusteringError("edge_index must be a permutation")
        for eid in range(m_total):
            endpoints[edge_index[eid]] = graph.edge_endpoints(eid)

    if m_total == 0:
        return [DensityPoint(level=0, num_clusters=0, density=0.0)]

    clusters: Dict[int, _Cluster] = {
        leaf: _Cluster(u, v) for leaf, (u, v) in enumerate(endpoints)
    }
    # label -> current cluster key (clusters merge under min-id labels)
    total = 0.0
    num_clusters = m_total
    points: List[DensityPoint] = [
        DensityPoint(level=0, num_clusters=m_total, density=0.0)
    ]

    current_level: Optional[int] = None
    for merge in dendrogram.merges:
        if current_level is not None and merge.level != current_level:
            points.append(
                DensityPoint(
                    level=current_level,
                    num_clusters=num_clusters,
                    density=2.0 * total / m_total,
                )
            )
        current_level = merge.level

        a = clusters.pop(merge.left, None)
        b = clusters.pop(merge.right, None)
        if a is None or b is None:
            raise ClusteringError(
                f"merge {merge!r} references a non-root cluster"
            )
        total -= a.contribution + b.contribution
        if len(b.node_counts) > len(a.node_counts):
            a, b = b, a
        a.absorb(b)
        total += a.contribution
        clusters[merge.parent] = a
        num_clusters -= 1

    if current_level is not None:
        points.append(
            DensityPoint(
                level=current_level,
                num_clusters=num_clusters,
                density=2.0 * total / m_total,
            )
        )
    return points


def best_cut(
    graph: Graph,
    dendrogram: Dendrogram,
    edge_index: Optional[Sequence[int]] = None,
) -> Tuple[int, float]:
    """The dendrogram level with maximum partition density.

    Returns ``(level, density)``; ties (see
    :func:`repro.cluster.partition.improves_density`) break toward the
    *lowest* level (finest partition), matching the naive scanner in
    :func:`repro.cluster.partition.best_partition`.
    """
    best_level = 0
    best_density = 0.0
    for point in density_curve(graph, dendrogram, edge_index):
        if improves_density(point.density, best_density):
            best_level, best_density = point.level, point.density
    return best_level, best_density
