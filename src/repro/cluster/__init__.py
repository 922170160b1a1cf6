"""Clustering substrate: membership structures, dendrograms, partitions."""

from repro.cluster.dendrogram import Dendrogram, DendrogramBuilder, Merge
from repro.cluster.density_scan import DensityPoint, best_cut, density_curve
from repro.cluster.hierarchy import (
    DendrogramStats,
    cophenetic_correlation,
    cophenetic_matrix,
    dendrogram_stats,
)
from repro.cluster.partition import (
    EdgePartition,
    best_partition,
    node_communities,
    partition_density,
)
from repro.cluster.serialize import (
    dump_dendrogram,
    dumps_dendrogram,
    load_dendrogram,
    loads_dendrogram,
)
from repro.cluster.unionfind import ChainArray, DisjointSet, LabelForest, MergeOutcome
from repro.cluster.validation import (
    adjusted_rand_index,
    canonical_labels,
    normalized_mutual_information,
    omega_index,
    rand_index,
    same_partition,
)

__all__ = [
    "ChainArray",
    "DendrogramStats",
    "DensityPoint",
    "Dendrogram",
    "DendrogramBuilder",
    "DisjointSet",
    "EdgePartition",
    "LabelForest",
    "Merge",
    "MergeOutcome",
    "adjusted_rand_index",
    "best_cut",
    "best_partition",
    "canonical_labels",
    "cophenetic_correlation",
    "cophenetic_matrix",
    "dendrogram_stats",
    "density_curve",
    "dump_dendrogram",
    "dumps_dendrogram",
    "load_dendrogram",
    "loads_dendrogram",
    "node_communities",
    "normalized_mutual_information",
    "omega_index",
    "partition_density",
    "rand_index",
    "same_partition",
]
