"""Tests for the vectorized Phase I (repro.fast.similarity).

The columns are checked through their dict view
(``SimilarityColumns.to_similarity_map``) against the dict oracle,
:func:`repro.core.similarity.compute_similarity_map`.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.similarity import compute_similarity_map
from repro.fast.similarity import fast_similarity_columns
from repro.graph import generators
from repro.graph.graph import Graph


def assert_equal_maps(fast, reference):
    assert fast.k1 == reference.k1
    assert fast.k2 == reference.k2
    for pair, entry in reference.entries.items():
        other = fast[pair]
        assert math.isclose(
            other.similarity, entry.similarity, rel_tol=1e-9, abs_tol=1e-12
        )
        assert sorted(other.common_neighbors) == sorted(entry.common_neighbors)


def _fast_map(graph):
    return fast_similarity_columns(graph).to_similarity_map()


class TestFastSimilarityMap:
    @pytest.mark.parametrize(
        "maker",
        [
            lambda: generators.complete_graph(6, weight=generators.random_weights(seed=1)),
            lambda: generators.caveman_graph(3, 5, weight=generators.random_weights(seed=2)),
            lambda: generators.star_graph(7),
            lambda: generators.grid_graph(4, 4),
            lambda: generators.ring_graph(8),
            lambda: generators.barabasi_albert(40, 2, seed=3),
        ],
    )
    def test_matches_reference(self, maker):
        g = maker()
        assert_equal_maps(_fast_map(g), compute_similarity_map(g))

    def test_empty_graph(self):
        assert len(_fast_map(Graph())) == 0

    def test_disjoint_edges(self):
        g = generators.disjoint_edges(4)
        assert len(_fast_map(g)) == 0

    def test_isolated_vertices(self):
        g = Graph()
        g.add_vertex("lonely")
        g.add_edge("a", "b")
        g.add_edge("b", "c")
        assert_equal_maps(_fast_map(g), compute_similarity_map(g))


@settings(max_examples=40, deadline=None)
@given(n=st.integers(3, 14), p=st.floats(0.2, 0.95), seed=st.integers(0, 1000))
def test_property_vectorized_equals_reference(n, p, seed):
    g = generators.erdos_renyi(
        n, p, seed=seed, weight=generators.random_weights(seed=seed)
    )
    assert_equal_maps(_fast_map(g), compute_similarity_map(g))
