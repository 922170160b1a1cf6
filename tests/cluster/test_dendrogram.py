"""Tests for repro.cluster.dendrogram."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster.dendrogram import Dendrogram, DendrogramBuilder, Merge
from repro.errors import ClusteringError


def build_simple() -> Dendrogram:
    """Four items: (2,3)->2 at level 1, (0,1)->0 at level 2, (0,2)->0 at 3."""
    b = DendrogramBuilder(4)
    b.record(1, 2, 3, 2, similarity=0.9)
    b.record(2, 0, 1, 0, similarity=0.7)
    b.record(3, 0, 2, 0, similarity=0.4)
    return b.build()


class TestMergeRecord:
    def test_parent_must_be_min(self):
        with pytest.raises(ClusteringError):
            Merge(1, 0, 1, 1)

    def test_valid(self):
        m = Merge(1, 2, 5, 2, 0.5)
        assert m.parent == 2

    def test_immutable_and_equal_by_fields(self):
        m = Merge(1, 2, 5, 2, 0.5)
        with pytest.raises(AttributeError):
            m.parent = 5  # type: ignore[misc]
        assert m == Merge(1, 2, 5, 2, 0.5)
        assert m != Merge(1, 2, 5, 2, None)
        assert hash(m) == hash(Merge(1, 2, 5, 2, 0.5))

    def test_builder_records_equal_direct_construction(self):
        b = DendrogramBuilder(6)
        b.record(1, 3, 2, 2, similarity=0.5)
        b.record_merges(2, np.array([0, 1]), np.array([4, 5]))
        assert b.build().merges == (
            Merge(1, 3, 2, 2, 0.5),
            Merge(2, 0, 4, 0),
            Merge(2, 1, 5, 1),
        )
        assert all(type(m) is Merge for m in b.build().merges)

    def test_builder_checks_parent(self):
        b = DendrogramBuilder(6)
        with pytest.raises(ClusteringError):
            b.record(1, 2, 3, 3)
        with pytest.raises(ClusteringError):
            b.record_merges(1, np.array([0, 4]), np.array([1, 3]))
        with pytest.raises(ClusteringError):
            b.record_merges(1, np.array([0, 1]), np.array([2]))
        assert b.num_merges == 0


class TestDendrogram:
    def test_basic_counts(self):
        d = build_simple()
        assert d.num_items == 4
        assert d.num_merges == 3
        assert d.num_levels == 3
        assert d.is_complete()

    def test_levels_must_be_non_decreasing(self):
        b = DendrogramBuilder(3)
        b.record(2, 1, 2, 1)
        b.record(1, 0, 1, 0)
        with pytest.raises(ClusteringError):
            b.build()

    def test_unknown_items_rejected(self):
        with pytest.raises(ClusteringError):
            Dendrogram(2, [Merge(1, 0, 5, 0)])

    def test_labels_at_level(self):
        d = build_simple()
        assert d.labels_at_level(0) == [0, 1, 2, 3]
        assert d.labels_at_level(1) == [0, 1, 2, 2]
        assert d.labels_at_level(2) == [0, 0, 2, 2]
        assert d.labels_at_level(3) == [0, 0, 0, 0]
        assert d.labels_at_level(99) == [0, 0, 0, 0]

    def test_clusters_at_level(self):
        d = build_simple()
        clusters = d.clusters_at_level(2)
        assert clusters == [{0, 1}, {2, 3}]

    def test_num_clusters_at_level(self):
        d = build_simple()
        assert d.num_clusters_at_level(0) == 4
        assert d.num_clusters_at_level(2) == 2
        assert d.num_clusters_at_level(3) == 1

    def test_cluster_count_curve(self):
        d = build_simple()
        assert d.cluster_count_curve() == [(0, 4), (1, 3), (2, 2), (3, 1)]

    def test_cluster_count_curve_shared_levels(self):
        b = DendrogramBuilder(4)
        b.record(1, 2, 3, 2)
        b.record(1, 0, 1, 0)
        b.record(2, 0, 2, 0)
        curve = b.build().cluster_count_curve()
        assert curve == [(0, 4), (1, 2), (2, 1)]

    def test_labels_at_similarity(self):
        d = build_simple()
        assert d.labels_at_similarity(0.8) == [0, 1, 2, 2]
        assert d.labels_at_similarity(0.5) == [0, 0, 2, 2]
        assert d.labels_at_similarity(0.1) == [0, 0, 0, 0]

    def test_labels_at_similarity_requires_similarities(self):
        b = DendrogramBuilder(2)
        b.record(1, 0, 1, 0)  # no similarity
        with pytest.raises(ClusteringError):
            b.build().labels_at_similarity(0.5)

    def test_merge_similarities(self):
        assert build_simple().merge_similarities() == [0.9, 0.7, 0.4]

    def test_incomplete_dendrogram(self):
        b = DendrogramBuilder(4)
        b.record(1, 0, 1, 0)
        d = b.build()
        assert not d.is_complete()
        assert d.num_merges_total_clusters() == 3

    def test_empty(self):
        d = Dendrogram(0, [])
        assert d.num_levels == 0
        assert d.is_complete()

    def test_repr(self):
        assert "num_items=4" in repr(build_simple())
