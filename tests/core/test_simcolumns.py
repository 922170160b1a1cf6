"""SimilarityColumns: validation, conversion, sorting, wedge resolution."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.simcolumns import SimilarityColumns, wedge_edge_arrays
from repro.core.similarity import compute_similarity_map
from repro.errors import ClusteringError, ParameterError
from repro.fast.similarity import fast_similarity_columns
from repro.graph import generators
from repro.graph.graph import Graph
from repro.parallel.par_init import parallel_similarity_columns


def assert_matches_map(columns, smap):
    """Columns and dict map describe the same map M, entry for entry."""
    assert columns.k1 == smap.k1
    assert columns.k2 == smap.k2
    back = columns.to_similarity_map()
    assert set(back.entries) == set(smap.entries)
    for key, entry in smap.entries.items():
        other = back.entries[key]
        assert other.similarity == pytest.approx(entry.similarity, rel=1e-12)
        assert other.common_neighbors == entry.common_neighbors


class TestValidation:
    def test_mismatched_pair_columns(self):
        with pytest.raises(ParameterError):
            SimilarityColumns(
                u=np.array([0]),
                v=np.array([1, 2]),
                sim=np.array([0.5]),
                common_offsets=np.array([0, 1]),
                common_neighbors=np.array([3]),
            )

    def test_offsets_wrong_length(self):
        with pytest.raises(ParameterError):
            SimilarityColumns(
                u=np.array([0]),
                v=np.array([1]),
                sim=np.array([0.5]),
                common_offsets=np.array([0, 1, 1]),
                common_neighbors=np.array([3]),
            )

    def test_offsets_must_start_at_zero(self):
        with pytest.raises(ParameterError):
            SimilarityColumns(
                u=np.array([0]),
                v=np.array([1]),
                sim=np.array([0.5]),
                common_offsets=np.array([1, 1]),
                common_neighbors=np.array([3]),
            )

    def test_offsets_must_be_non_decreasing(self):
        with pytest.raises(ParameterError):
            SimilarityColumns(
                u=np.array([0, 1]),
                v=np.array([1, 2]),
                sim=np.array([0.5, 0.5]),
                common_offsets=np.array([0, 2, 1]),
                common_neighbors=np.array([3]),
            )

    def test_offsets_must_cover_all_witnesses(self):
        with pytest.raises(ParameterError):
            SimilarityColumns(
                u=np.array([0]),
                v=np.array([1]),
                sim=np.array([0.5]),
                common_offsets=np.array([0, 1]),
                common_neighbors=np.array([3, 4]),
            )

    def test_coercion_to_canonical_dtypes(self):
        cols = SimilarityColumns(
            u=[0],
            v=[1],
            sim=[0.5],
            common_offsets=[0, 1],
            common_neighbors=[2],
        )
        assert cols.u.dtype == np.int64
        assert cols.sim.dtype == np.float64


class TestEmptyAndEdgeCases:
    def test_empty_instance(self):
        cols = SimilarityColumns.empty()
        assert cols.k1 == 0 and cols.k2 == 0 and len(cols) == 0
        assert cols.sort_pairs() is cols
        assert cols.to_similarity_map().entries == {}

    def test_empty_graph(self):
        cols = fast_similarity_columns(Graph())
        assert cols.k1 == 0 and cols.k2 == 0

    def test_no_common_neighbours(self):
        g = generators.disjoint_edges(4)
        cols = fast_similarity_columns(g)
        assert cols.k1 == 0 and cols.k2 == 0
        e1, e2 = wedge_edge_arrays(g, cols)
        assert len(e1) == 0 and len(e2) == 0

    def test_repr(self, triangle):
        cols = fast_similarity_columns(triangle)
        assert repr(cols) == f"SimilarityColumns(k1={cols.k1}, k2={cols.k2})"


class TestConversion:
    def test_round_trip_through_dict(self, weighted_caveman):
        smap = compute_similarity_map(weighted_caveman)
        cols = SimilarityColumns.from_similarity_map(smap)
        assert_matches_map(cols, smap)

    def test_fast_columns_match_reference(
        self, triangle, paper_example_graph, weighted_caveman, planted, sparse_random
    ):
        for g in (
            triangle,
            paper_example_graph,
            weighted_caveman,
            planted,
            sparse_random,
        ):
            assert_matches_map(fast_similarity_columns(g), compute_similarity_map(g))


class TestSortPairs:
    def test_matches_sorted_pairs_order(self, weighted_caveman):
        smap = compute_similarity_map(weighted_caveman)
        cols = fast_similarity_columns(weighted_caveman).sort_pairs()
        ref = smap.sorted_pairs()
        assert cols.u.tolist() == [pair[0] for _s, pair, _c in ref]
        assert cols.v.tolist() == [pair[1] for _s, pair, _c in ref]
        np.testing.assert_allclose(
            cols.sim, [s for s, _pair, _c in ref], rtol=1e-12
        )
        offsets = cols.common_offsets.tolist()
        for i, (_s, _pair, commons) in enumerate(ref):
            assert (
                cols.common_neighbors[offsets[i] : offsets[i + 1]].tolist()
                == list(commons)
            )

    def test_sort_is_non_mutating(self, planted):
        cols = fast_similarity_columns(planted)
        u_before = cols.u.copy()
        cols.sort_pairs()
        np.testing.assert_array_equal(cols.u, u_before)


class TestWedgeEdgeArrays:
    def test_matches_edge_id_lookups(self, planted):
        g = planted
        cols = fast_similarity_columns(g).sort_pairs()
        e1, e2 = wedge_edge_arrays(g, cols)
        pos = 0
        offsets = cols.common_offsets.tolist()
        for i in range(cols.k1):
            vi, vj = int(cols.u[i]), int(cols.v[i])
            for vk in cols.common_neighbors[offsets[i] : offsets[i + 1]].tolist():
                assert e1[pos] == g.edge_id(vi, vk)
                assert e2[pos] == g.edge_id(vj, vk)
                pos += 1
        assert pos == cols.k2

    def test_missing_edge_detected(self):
        g = Graph.from_edge_list([(0, 1, 1.0), (1, 2, 1.0)])
        bogus = SimilarityColumns(
            u=np.array([0]),
            v=np.array([2]),
            sim=np.array([0.5]),
            common_offsets=np.array([0, 1]),
            common_neighbors=np.array([2]),  # edge (0, 2) does not exist
        )
        with pytest.raises(ClusteringError):
            wedge_edge_arrays(g, bogus)


class TestParallelColumns:
    @pytest.mark.parametrize("backend", ["thread", "process"])
    @pytest.mark.parametrize("workers", [1, 3])
    def test_bitwise_equal_to_serial(self, planted, backend, workers):
        serial = fast_similarity_columns(planted)
        par = parallel_similarity_columns(
            planted, num_workers=workers, backend=backend
        )
        np.testing.assert_array_equal(par.u, serial.u)
        np.testing.assert_array_equal(par.v, serial.v)
        # Unique wedge keys force the same post-sort summation order, so
        # the similarities are bitwise identical, not just close.
        np.testing.assert_array_equal(par.sim, serial.sim)
        np.testing.assert_array_equal(par.common_offsets, serial.common_offsets)
        np.testing.assert_array_equal(par.common_neighbors, serial.common_neighbors)

    @pytest.mark.parametrize("backend", ["serial", "thread", "process"])
    def test_bitwise_equal_with_random_weights(self, backend):
        # Uneven weights round differently when H1/H2 are summed in
        # another order; on this graph a per-vertex Python pass 1 left
        # |Δsim| up to 2.2e-16 against the serial columnar kernel.
        g = generators.barabasi_albert(
            300, 3, seed=5, weight=generators.random_weights(seed=1)
        )
        serial = fast_similarity_columns(g)
        par = parallel_similarity_columns(g, num_workers=2, backend=backend)
        np.testing.assert_array_equal(par.sim, serial.sim)
        np.testing.assert_array_equal(par.common_neighbors, serial.common_neighbors)
