"""Tests for the incremental partition-density scanner."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.density_scan import best_cut, density_curve
from repro.cluster.partition import best_partition, partition_density
from repro.core.sweep import sweep
from repro.errors import ClusteringError
from repro.graph import generators


class TestDensityCurve:
    def test_starts_at_zero_density(self, weighted_caveman):
        result = sweep(weighted_caveman)
        curve = density_curve(weighted_caveman, result.dendrogram)
        assert curve[0].level == 0
        assert curve[0].density == 0.0
        assert curve[0].num_clusters == weighted_caveman.num_edges

    def test_matches_naive_at_every_level(self, weighted_caveman):
        """The incremental D must equal the from-scratch D everywhere."""
        g = weighted_caveman
        result = sweep(g)
        curve = density_curve(g, result.dendrogram)
        for point in curve:
            labels = result.dendrogram.labels_at_level(point.level)
            naive = partition_density(g, labels)
            assert point.density == pytest.approx(naive, abs=1e-12)
            assert point.num_clusters == len(set(labels))

    def test_coarse_dendrogram_levels(self, planted):
        from repro.core.coarse import CoarseParams, coarse_sweep

        result = coarse_sweep(planted, params=CoarseParams(phi=2, delta0=8))
        curve = density_curve(planted, result.dendrogram)
        levels = [p.level for p in curve]
        assert levels == sorted(levels)
        for point in curve[1:]:
            labels = result.dendrogram.labels_at_level(point.level)
            assert point.density == pytest.approx(
                partition_density(planted, labels), abs=1e-12
            )

    def test_edge_index_mapping(self, weighted_caveman):
        """With a permuted edge index the same densities come out."""
        g = weighted_caveman
        order = g.permuted_edge_ids()
        result = sweep(g, edge_order=order)
        curve = density_curve(g, result.dendrogram, edge_index=result.edge_index)
        level, density = best_cut(g, result.dendrogram, result.edge_index)
        base = sweep(g)
        _, base_density = best_cut(g, base.dendrogram)
        assert density == pytest.approx(base_density, abs=1e-12)

    def test_wrong_leaf_count(self, triangle):
        from repro.cluster.dendrogram import DendrogramBuilder

        with pytest.raises(ClusteringError):
            density_curve(triangle, DendrogramBuilder(7).build())

    def test_bad_edge_index(self, triangle):
        result = sweep(triangle)
        with pytest.raises(ClusteringError):
            density_curve(triangle, result.dendrogram, edge_index=[0, 0, 1])

    def test_empty_graph(self):
        from repro.cluster.dendrogram import Dendrogram
        from repro.graph.graph import Graph

        curve = density_curve(Graph(), Dendrogram(0, []))
        assert curve[0].num_clusters == 0


class TestBestCut:
    def test_agrees_with_naive_best_partition(self, weighted_caveman):
        g = weighted_caveman
        result = sweep(g)
        level, density = best_cut(g, result.dendrogram)
        _, naive_level, naive_density = best_partition(g, result.dendrogram)
        assert density == pytest.approx(naive_density, abs=1e-12)
        assert level == naive_level

    def test_facade_uses_fast_path(self, weighted_caveman):
        from repro.core.linkclust import LinkClustering

        result = LinkClustering(weighted_caveman).run()
        part, level, density = result.best_partition()
        assert part.density() == pytest.approx(density, abs=1e-12)


class TestDegenerateShapes:
    """Singleton/tree-like clusters where the density formula's
    denominator ``(n_c - 2)(n_c - 1)`` vanishes: every contribution
    must be an exact 0.0 — never NaN or a division error."""

    def test_star_graph_density_is_zero_everywhere(self):
        # K_{1,6}: every cluster of m edges spans m+1 vertices (a tree),
        # so (m - (n-1)) = 0 at every level of the dendrogram.
        g = generators.star_graph(6)
        result = sweep(g)
        curve = density_curve(g, result.dendrogram)
        assert curve  # the scan must produce points, not blow up
        for point in curve:
            assert point.density == 0.0
            assert point.density == point.density  # not NaN

    def test_star_graph_best_cut_well_defined(self):
        g = generators.star_graph(6)
        result = sweep(g)
        level, density = best_cut(g, result.dendrogram)
        assert density == 0.0
        assert 0 <= level <= result.num_levels
        partition, p_level, p_density = best_partition(g, result.dendrogram)
        assert p_density == 0.0
        assert sorted(e for c in partition.clusters() for e in c) == list(
            range(g.num_edges)
        )

    def test_two_edge_path(self):
        # The smallest mergeable graph: one wedge, clusters of size <= 2
        # only (n_c <= 3 vertices) — all contributions are zero.
        g = generators.path_graph(3)
        result = sweep(g)
        for point in density_curve(g, result.dendrogram):
            assert point.density == 0.0

    def test_singleton_clusters_contribute_zero(self, weighted_caveman):
        # Level 0 is all singletons; its density must be exactly 0.0
        # and equal to the naive recomputation.
        g = weighted_caveman
        result = sweep(g)
        curve = density_curve(g, result.dendrogram)
        assert curve[0].density == 0.0
        assert partition_density(g, list(range(g.num_edges))) == 0.0


def test_tie_within_rounding_breaks_to_lowest_level_in_both_scanners():
    # Levels 11 and 13 have the same true density; the incremental and
    # naive sums round it 1 ulp apart, so a strict ">" made the scanners
    # disagree (11 vs 13).  Both must keep the lowest level of the tie.
    g = generators.erdos_renyi(
        10, 0.5, seed=305, weight=generators.random_weights(seed=305)
    )
    result = sweep(g)
    densities = {
        point.level: point.density for point in density_curve(g, result.dendrogram)
    }
    assert densities[11] == pytest.approx(densities[13], abs=1e-12)
    level, _ = best_cut(g, result.dendrogram)
    _, naive_level, _ = best_partition(g, result.dendrogram)
    assert level == naive_level == 11


@settings(max_examples=25, deadline=None)
@given(n=st.integers(4, 11), p=st.floats(0.3, 0.9), seed=st.integers(0, 500))
def test_property_incremental_equals_naive(n, p, seed):
    g = generators.erdos_renyi(
        n, p, seed=seed, weight=generators.random_weights(seed=seed)
    )
    if g.num_edges == 0:
        return
    result = sweep(g)
    level, density = best_cut(g, result.dendrogram)
    _, naive_level, naive_density = best_partition(g, result.dendrogram)
    assert density == pytest.approx(naive_density, abs=1e-12)
    assert level == naive_level
