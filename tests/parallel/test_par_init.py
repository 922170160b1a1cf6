"""Tests for the parallel initialization phase (Section VI-A).

The parallel columns are checked through their dict view
(``SimilarityColumns.to_similarity_map``) against the serial dict
oracle; ``tests/core/test_simcolumns.py`` checks them bitwise against
the serial columns.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.similarity import compute_similarity_map
from repro.errors import ParameterError
from repro.graph import generators
from repro.parallel.par_init import parallel_similarity_columns


def _parallel_map(graph, **kwargs):
    return parallel_similarity_columns(graph, **kwargs).to_similarity_map()


def assert_maps_equal(fast, reference):
    assert fast.k1 == reference.k1
    assert fast.k2 == reference.k2
    for pair, entry in reference.entries.items():
        other = fast[pair]
        assert math.isclose(
            other.similarity, entry.similarity, rel_tol=1e-9, abs_tol=1e-12
        )
        assert sorted(other.common_neighbors) == sorted(entry.common_neighbors)


class TestParallelSimilarityMap:
    def test_validation(self, triangle):
        with pytest.raises(ParameterError):
            _parallel_map(triangle, num_workers=0)

    @pytest.mark.parametrize("workers", [1, 2, 3, 6])
    @pytest.mark.parametrize("backend", ["serial", "thread"])
    def test_matches_serial(self, weighted_caveman, workers, backend):
        reference = compute_similarity_map(weighted_caveman)
        fast = _parallel_map(
            weighted_caveman, num_workers=workers, backend=backend
        )
        assert_maps_equal(fast, reference)

    def test_process_backend(self, planted):
        reference = compute_similarity_map(planted)
        fast = _parallel_map(planted, num_workers=2, backend="process")
        assert_maps_equal(fast, reference)

    def test_contiguous_scheme(self, planted):
        reference = compute_similarity_map(planted)
        fast = _parallel_map(
            planted, num_workers=3, backend="thread", scheme="contiguous"
        )
        assert_maps_equal(fast, reference)

    def test_more_workers_than_vertices(self, triangle):
        reference = compute_similarity_map(triangle)
        fast = _parallel_map(triangle, num_workers=16, backend="thread")
        assert_maps_equal(fast, reference)


@settings(max_examples=15, deadline=None)
@given(
    n=st.integers(4, 12),
    p=st.floats(0.3, 0.9),
    seed=st.integers(0, 200),
    workers=st.integers(2, 5),
)
def test_property_parallel_init_equals_serial(n, p, seed, workers):
    g = generators.erdos_renyi(
        n, p, seed=seed, weight=generators.random_weights(seed=seed)
    )
    reference = compute_similarity_map(g)
    fast = _parallel_map(g, num_workers=workers, backend="thread")
    assert_maps_equal(fast, reference)
