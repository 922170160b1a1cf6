"""Flat partitions of edges and the node communities they induce.

Link clustering groups *edges*; Ahn et al. turn an edge partition into
overlapping *node* communities (a node belongs to every community that
contains one of its edges) and pick the best dendrogram cut by maximizing
the *partition density* ``D``.  Those utilities live here because the
paper's evaluation builds on them ([1] is its motivating reference).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Set, Tuple

from repro.cluster.dendrogram import Dendrogram
from repro.errors import ClusteringError
from repro.graph.graph import Graph

__all__ = [
    "EdgePartition",
    "partition_density",
    "best_partition",
    "node_communities",
]


class EdgePartition:
    """A flat partition of a graph's edges into link communities.

    Parameters
    ----------
    graph:
        The graph whose edges are partitioned.
    labels:
        ``labels[eid]`` is the cluster label of edge ``eid``; any hashable
        labels are accepted (the sweeping algorithms use minimum edge ids).
    """

    def __init__(self, graph: Graph, labels: Sequence[int]):
        if len(labels) != graph.num_edges:
            raise ClusteringError(
                f"labels cover {len(labels)} edges but graph has {graph.num_edges}"
            )
        self._graph = graph
        self._labels = list(labels)
        groups: Dict[int, List[int]] = {}
        for eid, label in enumerate(self._labels):
            groups.setdefault(label, []).append(eid)
        self._groups = groups

    @property
    def graph(self) -> Graph:
        return self._graph

    @property
    def labels(self) -> List[int]:
        """Cluster label per edge id (copy-safe to read, do not mutate)."""
        return self._labels

    @property
    def num_clusters(self) -> int:
        return len(self._groups)

    def clusters(self) -> List[List[int]]:
        """Edge-id lists of every cluster, largest first."""
        return sorted(self._groups.values(), key=len, reverse=True)

    def cluster_of(self, eid: int) -> int:
        try:
            return self._labels[eid]
        except IndexError:
            raise ClusteringError(f"edge {eid} not covered by partition") from None

    def cluster_edges(self, label: int) -> List[int]:
        try:
            return list(self._groups[label])
        except KeyError:
            raise ClusteringError(f"no cluster labelled {label!r}") from None

    def cluster_nodes(self, label: int) -> Set[int]:
        """Vertex ids spanned by the edges of one cluster."""
        nodes: Set[int] = set()
        for eid in self.cluster_edges(label):
            u, v = self._graph.edge_endpoints(eid)
            nodes.add(u)
            nodes.add(v)
        return nodes

    def density(self) -> float:
        """Partition density of this flat cut (see :func:`partition_density`)."""
        return partition_density(self._graph, self._labels)

    def __repr__(self) -> str:
        return (
            f"EdgePartition(num_edges={len(self._labels)},"
            f" num_clusters={self.num_clusters})"
        )


def partition_density(graph: Graph, labels: Sequence[int]) -> float:
    """Ahn et al.'s partition density ``D`` of an edge partition.

    For a community ``c`` with ``m_c`` edges spanning ``n_c`` nodes::

        D_c = (m_c - (n_c - 1)) / (n_c (n_c - 1) / 2 - (n_c - 1))

    i.e. the fraction of possible extra edges beyond a spanning tree, and
    ``D = (2 / M) * sum_c m_c * D_c`` weighted by edge counts.  Communities
    with ``n_c <= 2`` contribute 0 by convention.
    """
    if len(labels) != graph.num_edges:
        raise ClusteringError(
            f"labels cover {len(labels)} edges but graph has {graph.num_edges}"
        )
    m_total = graph.num_edges
    if m_total == 0:
        return 0.0
    edges_per: Dict[int, int] = {}
    nodes_per: Dict[int, Set[int]] = {}
    for eid, label in enumerate(labels):
        u, v = graph.edge_endpoints(eid)
        edges_per[label] = edges_per.get(label, 0) + 1
        nodes_per.setdefault(label, set()).update((u, v))
    total = 0.0
    for label, m_c in edges_per.items():
        n_c = len(nodes_per[label])
        if n_c <= 2:
            continue
        denom = (n_c - 2) * (n_c - 1)
        total += m_c * (m_c - (n_c - 1)) / denom
    return 2.0 * total / m_total


# Partition densities closer than this are a tie.  The incremental scan
# (repro.cluster.density_scan) and the naive recomputation below sum the
# same terms in different orders, so a true tie can come out a few ulps
# apart; both scanners keep the lowest level of a tie.
DENSITY_TIE_TOLERANCE = 1e-12


def improves_density(candidate: float, best: float) -> bool:
    """True when ``candidate`` beats ``best`` by more than a tie.

    Scanners walk levels upward and replace their best only when this
    holds, so ties — up to :data:`DENSITY_TIE_TOLERANCE` — break toward
    the lowest level (the finest partition).
    """
    return candidate > best + DENSITY_TIE_TOLERANCE


def best_partition(
    graph: Graph, dendrogram: Dendrogram
) -> Tuple[EdgePartition, int, float]:
    """Scan every dendrogram level and return the densest flat cut.

    Returns ``(partition, level, density)``.  This reproduces Ahn et al.'s
    "cut the dendrogram where partition density peaks" procedure on top of
    either the fine- or coarse-grained dendrogram.  Ties (see
    :func:`improves_density`) break toward the lowest level.
    """
    if dendrogram.num_items != graph.num_edges:
        raise ClusteringError(
            "dendrogram leaves do not match the graph's edge count"
        )
    best_labels = list(range(graph.num_edges))
    best_level = 0
    best_density = partition_density(graph, best_labels)
    seen_levels = sorted({m.level for m in dendrogram.merges})
    for level in seen_levels:
        labels = dendrogram.labels_at_level(level)
        d = partition_density(graph, labels)
        if improves_density(d, best_density):
            best_labels, best_level, best_density = labels, level, d
    return EdgePartition(graph, best_labels), best_level, best_density


def node_communities(
    graph: Graph, labels: Sequence[int], min_edges: int = 1
) -> List[Set[int]]:
    """Overlapping node communities induced by an edge partition.

    Every edge cluster with at least ``min_edges`` edges becomes one node
    community containing both endpoints of each member edge.  Nodes may
    appear in several communities — that overlap is the selling point of
    link clustering in the first place.
    """
    if min_edges < 1:
        raise ClusteringError(f"min_edges must be >= 1, got {min_edges}")
    part = EdgePartition(graph, labels)
    communities: List[Set[int]] = []
    for cluster in part.clusters():
        if len(cluster) < min_edges:
            continue
        nodes: Set[int] = set()
        for eid in cluster:
            u, v = graph.edge_endpoints(eid)
            nodes.add(u)
            nodes.add(v)
        communities.append(nodes)
    return communities
