"""SimilarityColumns: validation, conversion, sorting, wedge resolution,
and the edge ids Phase I carries to the sweep."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.serialize import dumps_dendrogram
from repro.core import simcolumns
from repro.core.coarse import CoarseParams
from repro.core.config import RunConfig
from repro.core.linkclust import LinkClustering
from repro.core.simcolumns import SimilarityColumns, list_order, wedge_edge_arrays
from repro.core.similarity import compute_similarity_map
from repro.errors import ClusteringError, ParameterError
from repro.fast.similarity import fast_similarity_columns
from repro.graph import generators
from repro.graph.graph import Graph
from repro.fast import similarity as fs
from repro.obs import MemorySink, Tracer, as_tracer
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

    def test_csr_built_once_per_call(self, planted, monkeypatch):
        # The pass-2 tasks get the parent's CSR arrays; no worker
        # rebuilds the adjacency from the graph.
        import repro.fast.similarity as fast_similarity

        calls = []
        real = fast_similarity._csr_arrays

        def counting(graph):
            calls.append(graph)
            return real(graph)

        monkeypatch.setattr(fast_similarity, "_csr_arrays", counting)
        parallel_similarity_columns(planted, num_workers=3, backend="thread")
        assert len(calls) == 1


# ----------------------------------------------------------------------
# carried edge ids: Phase I hands the sweep its merge stream directly
# ----------------------------------------------------------------------


def resolved_edge_ids(graph, columns):
    """The key-table resolution of ``columns``' wedges (the fallback)."""
    return wedge_edge_arrays(graph, columns.without_edge_ids())


def shuffled_rows(columns, seed):
    """The same map M with its rows (and their witness runs) permuted."""
    perm = np.random.default_rng(seed).permutation(columns.k1)
    counts = columns.pair_counts()[perm]
    offsets = np.zeros(columns.k1 + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    gather = np.concatenate(
        [np.arange(columns.common_offsets[p], columns.common_offsets[p + 1]) for p in perm]
        + [np.empty(0, dtype=np.int64)]
    ).astype(np.int64)
    return SimilarityColumns(
        u=columns.u[perm],
        v=columns.v[perm],
        sim=columns.sim[perm],
        common_offsets=offsets,
        common_neighbors=columns.common_neighbors[gather],
        edge_uk=columns.edge_uk[gather],
        edge_vk=columns.edge_vk[gather],
    )


random_graphs = st.lists(
    st.tuples(
        st.integers(0, 11),
        st.integers(0, 11),
        st.floats(0.1, 4.0, allow_nan=False, allow_infinity=False),
    ).filter(lambda t: t[0] != t[1]),
    max_size=45,
).map(
    lambda edges: Graph.from_edge_list(
        list({(min(a, b), max(a, b)): (a, b, w) for a, b, w in edges}.values())
    )
)


class TestCarriedEdgeIds:
    def test_phase_one_carries_ids(self, planted):
        cols = fast_similarity_columns(planted)
        assert cols.edge_uk.dtype == np.int32 and cols.edge_vk.dtype == np.int32
        e1, e2 = wedge_edge_arrays(planted, cols)
        r1, r2 = resolved_edge_ids(planted, cols)
        np.testing.assert_array_equal(e1, r1)
        np.testing.assert_array_equal(e2, r2)

    def test_dict_and_hand_built_columns_carry_none(self, weighted_caveman):
        cols = SimilarityColumns.from_similarity_map(
            compute_similarity_map(weighted_caveman)
        )
        assert cols.edge_uk is None and cols.edge_vk is None
        assert SimilarityColumns.empty().edge_uk is None
        assert cols.sort_pairs().edge_uk is None

    def test_ids_must_come_in_pairs(self):
        with pytest.raises(ParameterError):
            SimilarityColumns(
                u=[0], v=[2], sim=[0.5], common_offsets=[0, 1],
                common_neighbors=[1], edge_uk=[0],
            )

    def test_ids_must_align_with_witnesses(self):
        with pytest.raises(ParameterError):
            SimilarityColumns(
                u=[0], v=[2], sim=[0.5], common_offsets=[0, 1],
                common_neighbors=[1], edge_uk=[0, 1], edge_vk=[1, 0],
            )

    def test_without_edge_ids_shares_the_rest(self, planted):
        cols = fast_similarity_columns(planted)
        bare = cols.without_edge_ids()
        assert bare.edge_uk is None and bare.edge_vk is None
        assert bare.common_neighbors is cols.common_neighbors
        assert bare.without_edge_ids() is bare

    @settings(max_examples=60, deadline=None)
    @given(graph=random_graphs, seed=st.integers(0, 2**16))
    def test_property_serial_and_sorted_ids_match_resolution(self, graph, seed):
        cols = fast_similarity_columns(graph)
        for carried, resolved in zip(
            wedge_edge_arrays(graph, cols), resolved_edge_ids(graph, cols)
        ):
            np.testing.assert_array_equal(carried, resolved)
        # Shuffled rows are not (u, v)-increasing: sort_pairs takes the
        # lexsort and must still gather the ids with their witnesses.
        sorted_cols = cols.sort_pairs()
        reshuffled = shuffled_rows(cols, seed).sort_pairs()
        for name in ("u", "v", "sim", "common_offsets", "common_neighbors",
                     "edge_uk", "edge_vk"):
            np.testing.assert_array_equal(
                getattr(reshuffled, name), getattr(sorted_cols, name)
            )
        for carried, resolved in zip(
            wedge_edge_arrays(graph, sorted_cols),
            resolved_edge_ids(graph, sorted_cols),
        ):
            np.testing.assert_array_equal(carried, resolved)

    @pytest.mark.parametrize("backend", ["thread", "process"])
    @settings(max_examples=15, deadline=None)
    @given(graph=random_graphs)
    def test_property_parallel_ids_match_resolution(self, backend, graph):
        cols = parallel_similarity_columns(graph, num_workers=2, backend=backend)
        assert cols.edge_uk is not None
        for carried, resolved in zip(
            wedge_edge_arrays(graph, cols), resolved_edge_ids(graph, cols)
        ):
            np.testing.assert_array_equal(carried, resolved)


class TestListOrder:
    @settings(max_examples=80, deadline=None)
    @given(
        sims=st.lists(st.sampled_from([0.25, 0.5, 0.75, 1.0]), max_size=40),
        seed=st.integers(0, 2**16),
    )
    def test_property_equals_lexsort(self, sims, seed):
        k1 = len(sims)
        rng = np.random.default_rng(seed)
        keys = np.sort(rng.choice(400, size=k1, replace=False))
        u, v = keys // 20, keys % 20
        sim = np.asarray(sims, dtype=np.float64)
        # (u, v)-increasing rows take the stable -sim order; shuffled
        # rows take the lexsort.  Both must be the lexsort permutation.
        np.testing.assert_array_equal(list_order(u, v, sim), np.lexsort((v, u, -sim)))
        perm = rng.permutation(k1)
        np.testing.assert_array_equal(
            list_order(u[perm], v[perm], sim[perm]),
            np.lexsort((v[perm], u[perm], -sim[perm])),
        )


class TestNoKeyTableOnPhaseOneRuns:
    """With the key-table resolution disabled, every Phase I-fed cell
    still runs and still produces the resolution path's dendrogram."""

    CELLS = {
        "batch": dict(coarse=CoarseParams(), engine="batch"),
        "chained": dict(coarse=CoarseParams()),
        "fine": dict(),
        "batch-thread2": dict(coarse=CoarseParams(), engine="batch", backend="thread", num_workers=2),
        "batch-process2": dict(coarse=CoarseParams(), engine="batch", backend="process", num_workers=2),
        "batch-shm2": dict(coarse=CoarseParams(), engine="batch", backend="shm", num_workers=2),
        "mmap": dict(coarse=CoarseParams(), engine="batch", pairs_format="mmap"),
        "mmap-spill": dict(
            coarse=CoarseParams(), engine="batch", pairs_format="mmap",
            memory_budget_bytes=2048,
        ),
    }
    # Serial mmap runs given no columns stream Phase I inside the store.
    STREAMING = ("mmap", "mmap-spill")

    @pytest.mark.parametrize(
        "cell, streaming",
        [(cell, False) for cell in sorted(CELLS)] + [(cell, True) for cell in STREAMING],
    )
    def test_cell_never_resolves(self, cell, streaming, monkeypatch, tmp_path):
        settings_ = dict(self.CELLS[cell])
        if cell.startswith("mmap"):
            settings_["storage_dir"] = str(tmp_path)
        config = RunConfig(**settings_)
        g = generators.caveman_graph(3, 6, weight=generators.random_weights(seed=4))
        cols = fast_similarity_columns(g)
        # The reference resolves edge ids from the graph, as every run
        # did before Phase I carried them.
        reference = LinkClustering(g, config=config).run(
            similarity_map=cols.without_edge_ids()
        )

        def no_resolution(*_args, **_kwargs):
            raise AssertionError("a Phase I-fed run resolved edge ids")

        monkeypatch.setattr(simcolumns, "_lookup_edge_ids", no_resolution)
        if streaming:
            result = LinkClustering(g, config=config).run()
        else:
            result = LinkClustering(g, config=config).run(similarity_map=cols)
        assert dumps_dendrogram(result.dendrogram) == dumps_dendrogram(
            reference.dendrogram
        )
        assert list(result.chain.raw()) == list(reference.chain.raw())
        with pytest.raises(AssertionError):
            wedge_edge_arrays(g, cols.without_edge_ids())


class TestInitSpans:
    def test_pass3_runs_in_the_parent(self, planted):
        sink = MemorySink()
        parallel_similarity_columns(
            planted, num_workers=2, backend="thread", tracer=Tracer([sink])
        )
        spans = {s.name: s for s in sink.spans}
        assert spans["init:pass2"].attrs["workers"] == 2
        assert spans["init:pass3"].attrs["workers"] == 1


class TestCheckedEdgeIds:
    """Carried ids from outside the run are vetted against the run's graph."""

    CONFIG = RunConfig(coarse=CoarseParams(), engine="batch")

    @staticmethod
    def reordered(graph):
        """The same graph (same vertex ids) with its edge ids reversed."""
        other = Graph()
        for label in graph.vertex_labels():
            other.add_vertex(label)
        for eid in reversed(range(graph.num_edges)):
            u, v = graph.edge_endpoints(eid)
            other.add_edge(
                graph.vertex_label(u), graph.vertex_label(v), graph.edge_weight(eid)
            )
        return other

    def test_matching_ids_pass_through(self, planted):
        cols = fast_similarity_columns(planted)
        assert simcolumns._checked_edge_ids(planted, cols) is cols

    def test_reordered_edge_list_clusters_correctly(self, weighted_caveman):
        cols = fast_similarity_columns(weighted_caveman)
        other = self.reordered(weighted_caveman)
        assert simcolumns._checked_edge_ids(other, cols).edge_uk is None
        reference = LinkClustering(other, config=self.CONFIG).run(
            similarity_map=fast_similarity_columns(other)
        )
        result = LinkClustering(other, config=self.CONFIG).run(similarity_map=cols)
        assert dumps_dendrogram(result.dendrogram) == dumps_dendrogram(
            reference.dendrogram
        )
        assert list(result.chain.raw()) == list(reference.chain.raw())

    def test_columns_of_another_graph_raise(self, weighted_caveman):
        cols = fast_similarity_columns(weighted_caveman)
        other = Graph.from_edge_list([(i, (i + 1) % 20) for i in range(20)])
        with pytest.raises(ClusteringError):
            LinkClustering(other, config=self.CONFIG).run(similarity_map=cols)

    def test_out_of_range_ids_are_dropped(self, planted):
        cols = fast_similarity_columns(planted)
        bad = SimilarityColumns(
            u=cols.u, v=cols.v, sim=cols.sim, common_offsets=cols.common_offsets,
            common_neighbors=cols.common_neighbors,
            edge_uk=cols.edge_uk + planted.num_edges, edge_vk=cols.edge_vk,
        )
        assert simcolumns._checked_edge_ids(planted, bad).edge_uk is None


class TestStableArgsort:
    @settings(max_examples=60, deadline=None)
    @given(keys=st.lists(st.integers(0, 9), max_size=50), seed=st.integers(0, 2**16))
    def test_property_both_branches_are_the_stable_argsort(self, keys, seed):
        key = np.asarray(keys, dtype=np.int64)
        unique_key = np.random.default_rng(seed).permutation(len(keys)).astype(np.int64)
        for key, unique in ((key, False), (unique_key, True)):
            expected = np.argsort(key, kind="stable")
            bound = int(key.max()) + 1 if len(key) else 1
            # 2**63 packs no two rows into an int64: the argsort fallback.
            for bound in (bound, 2**63):
                sorted_key, order = simcolumns._stable_argsort(
                    key.copy(), bound, unique=unique
                )
                np.testing.assert_array_equal(order, expected)
                np.testing.assert_array_equal(sorted_key, key[expected])

    @pytest.mark.parametrize(
        "settings_",
        [
            dict(coarse=CoarseParams(), engine="batch"),
            dict(),
            dict(coarse=CoarseParams(), engine="batch", pairs_format="mmap",
                 memory_budget_bytes=2048),
        ],
        ids=["batch", "fine", "mmap-spill"],
    )
    def test_unpacked_sorts_give_the_same_run(self, settings_, monkeypatch, tmp_path):
        """With no key fitting an int64, every packed sort (wedge grouping
        and list L's stable order, in memory or streamed) takes its
        fallback."""
        if "pairs_format" in settings_:
            settings_ = dict(settings_, storage_dir=str(tmp_path))
        config = RunConfig(**settings_)
        g = generators.caveman_graph(3, 6, weight=generators.random_weights(seed=4))
        reference = LinkClustering(g, config=config).run()
        monkeypatch.setattr(simcolumns, "_INT64_LIMIT", 0)
        result = LinkClustering(g, config=config).run()
        assert dumps_dendrogram(result.dendrogram) == dumps_dendrogram(
            reference.dendrogram
        )


class TestWideVertexIds:
    """Vertex ids of 2**21 and up cannot pack a ``(u, v, k)`` wedge key
    into an int64, so wedge grouping takes the lexsort."""

    def test_lexsort_grouping_matches_compact_ids(self):
        g = generators.caveman_graph(3, 5, weight=generators.random_weights(seed=2))
        expected = fast_similarity_columns(g)
        indptr, indices, weights, eids = fs._csr_arrays(g)
        # The same CSR with 2**21 empty rows in front: every vertex id
        # shifts past the packing limit, the columns stay int32.
        shift = 2**21
        wide_indptr = np.concatenate([np.zeros(shift, dtype=np.int64), indptr])
        wide_indices = (indices + shift).astype(np.int32)
        h1, h2 = fs._h_arrays_columnar(wide_indptr, weights)
        grouped = fs._group_wedges(
            fs._wedge_columns(wide_indptr, wide_indices, weights, eids)
        )
        cols = fs._finish_columns(
            wide_indptr, wide_indices, weights, h1, h2, grouped, as_tracer(None)
        )
        np.testing.assert_array_equal(cols.u - shift, expected.u)
        np.testing.assert_array_equal(cols.v - shift, expected.v)
        np.testing.assert_array_equal(
            cols.common_neighbors - shift, expected.common_neighbors
        )
        np.testing.assert_array_equal(cols.common_offsets, expected.common_offsets)
        np.testing.assert_array_equal(cols.edge_uk, expected.edge_uk)
        np.testing.assert_array_equal(cols.edge_vk, expected.edge_vk)
        # Adjacent pairs get the (H1[i] + H1[j]) w_ij correction too.
        np.testing.assert_array_equal(cols.sim, expected.sim)


class TestSpilledBuildOfIdlessColumns:
    def test_resolves_one_run_at_a_time(self, monkeypatch, tmp_path):
        g = generators.caveman_graph(3, 6, weight=generators.random_weights(seed=4))
        cols = fast_similarity_columns(g)
        config = RunConfig(
            coarse=CoarseParams(), engine="batch", pairs_format="mmap",
            memory_budget_bytes=2048, storage_dir=str(tmp_path),
        )
        reference = LinkClustering(g, config=config).run(similarity_map=cols)
        sizes = []
        lookup = simcolumns._lookup_edge_ids

        def recording(sorted_keys, eids, n, a, b):
            sizes.append(len(a))
            return lookup(sorted_keys, eids, n, a, b)

        monkeypatch.setattr(simcolumns, "_lookup_edge_ids", recording)
        result = LinkClustering(g, config=config).run(
            similarity_map=cols.without_edge_ids()
        )
        assert dumps_dendrogram(result.dendrogram) == dumps_dendrogram(
            reference.dendrogram
        )
        assert len(sizes) > 2 and max(sizes) < cols.k2
