"""The out-of-core pair store: layout, spill/merge identity, cleanup."""

from __future__ import annotations

import os
import pickle

import numpy as np
import pytest

from repro.core.cancel import CancelToken
from repro.core.coarse import CoarseParams, coarse_sweep
from repro.core.storage import (
    InMemoryPairStore,
    MmapPairStore,
    PairFileSpec,
    StorageSettings,
    make_pair_store,
)
from repro.core.sweep import build_edge_index
from repro.errors import ParameterError, RunCancelledError
from repro.fast.similarity import fast_similarity_columns
from repro.graph import generators
from repro.graph.graph import Graph
from repro.obs import MemorySink, Tracer


def _inputs(graph):
    columns = fast_similarity_columns(graph)
    index_arr = np.asarray(build_edge_index(graph, None), dtype=np.int64)
    return columns, index_arr


def _stores_equal(a, b):
    """Bitwise equality of every column the sweep reads."""
    assert a.k1 == b.k1
    assert a.k2 == b.k2
    np.testing.assert_array_equal(np.asarray(a.sims), np.asarray(b.sims))
    np.testing.assert_array_equal(np.asarray(a.us), np.asarray(b.us))
    np.testing.assert_array_equal(np.asarray(a.vs), np.asarray(b.vs))
    np.testing.assert_array_equal(np.asarray(a.offsets), np.asarray(b.offsets))
    np.testing.assert_array_equal(np.asarray(a.c1), np.asarray(b.c1))
    np.testing.assert_array_equal(np.asarray(a.c2), np.asarray(b.c2))


class TestStorageSettings:
    def test_bad_kind_rejected(self):
        with pytest.raises(ParameterError, match="storage kind"):
            StorageSettings(kind="ramdisk")

    def test_bad_budget_rejected(self):
        for bad in (0, -4, True, 2.5):
            with pytest.raises(ParameterError, match="memory_budget_bytes"):
                StorageSettings(kind="mmap", memory_budget_bytes=bad)


class TestPairFileSpec:
    def test_section_offsets_partition_the_file(self):
        spec = PairFileSpec(path="p.bin", k1=5, k2=9)
        assert spec.sim_offset == 0
        assert spec.u_offset == 40
        assert spec.v_offset == 80
        assert spec.offsets_offset == 120
        assert spec.c1_offset == 120 + 6 * 8
        assert spec.c2_offset == spec.c1_offset + 9 * 8
        assert spec.total_bytes == spec.c2_offset + 9 * 8

    def test_picklable(self):
        spec = PairFileSpec(path="/tmp/x/pairs.bin", k1=3, k2=4)
        assert pickle.loads(pickle.dumps(spec)) == spec


class TestNoSpillIdentity:
    def test_budget_above_data_never_spills(self, tmp_path):
        graph = generators.caveman_graph(4, 5)
        columns, index_arr = _inputs(graph)
        oracle = InMemoryPairStore.build(graph, columns, index_arr)
        tracer = Tracer([MemorySink()])
        store = MmapPairStore.build(
            graph,
            columns,
            index_arr,
            storage_dir=str(tmp_path),
            memory_budget_bytes=1 << 30,
            tracer=tracer,
        )
        try:
            _stores_equal(store, oracle)
            assert tracer.counters.get("spill_runs", 0) == 0
            assert tracer.counters.get("store_bytes") == store.store_bytes
        finally:
            store.close()

    def test_default_budget_is_no_spill(self, tmp_path):
        graph = generators.caveman_graph(3, 4)
        columns, index_arr = _inputs(graph)
        oracle = InMemoryPairStore.build(graph, columns, index_arr)
        store = MmapPairStore.build(
            graph, columns, index_arr, storage_dir=str(tmp_path)
        )
        try:
            _stores_equal(store, oracle)
        finally:
            store.close()


class TestSpillIdentity:
    def test_single_pair_runs_merge_to_oracle_order(self, tmp_path):
        # budget=1 < the cost of any pair, so every run holds exactly
        # one pair — the merge does all the ordering work.
        graph = generators.caveman_graph(4, 5)
        columns, index_arr = _inputs(graph)
        oracle = InMemoryPairStore.build(graph, columns, index_arr)
        tracer = Tracer([MemorySink()])
        store = MmapPairStore.build(
            graph,
            columns,
            index_arr,
            storage_dir=str(tmp_path),
            memory_budget_bytes=1,
            tracer=tracer,
        )
        try:
            _stores_equal(store, oracle)
            assert tracer.counters.get("spill_runs") == columns.k1
            assert tracer.counters.get("bytes_spilled", 0) > 0
        finally:
            store.close()

    def test_duplicate_sims_across_run_boundaries_keep_lexsort_order(
        self, tmp_path
    ):
        # caveman cliques produce many identical similarities; a small
        # budget splits ties across run files, and the merge key
        # (-sim, u, v) must reproduce the single-lexsort order exactly.
        graph = generators.caveman_graph(5, 5)
        columns, index_arr = _inputs(graph)
        oracle = InMemoryPairStore.build(graph, columns, index_arr)
        sims = np.asarray(oracle.sims)
        assert len(np.unique(sims)) < len(sims)  # ties actually exist
        for budget in (1, 200, 1000):
            store = MmapPairStore.build(
                graph,
                columns,
                index_arr,
                storage_dir=str(tmp_path),
                memory_budget_bytes=budget,
            )
            try:
                _stores_equal(store, oracle)
            finally:
                store.close()

    def test_weighted_graph_spill_identity(self, tmp_path):
        graph = Graph.from_edge_list(
            [
                (0, 1, 2.0), (1, 2, 1.0), (2, 0, 3.0), (2, 3, 1.5),
                (3, 4, 1.0), (4, 2, 2.5), (4, 5, 1.0), (5, 0, 2.0),
            ]
        )
        columns, index_arr = _inputs(graph)
        oracle = InMemoryPairStore.build(graph, columns, index_arr)
        store = MmapPairStore.build(
            graph,
            columns,
            index_arr,
            storage_dir=str(tmp_path),
            memory_budget_bytes=64,
        )
        try:
            _stores_equal(store, oracle)
        finally:
            store.close()


class TestEdgeCases:
    def test_no_pairs_graph(self, tmp_path):
        # A single edge shares no endpoint with another: K1 = K2 = 0.
        graph = Graph.from_edge_list([(0, 1)])
        columns, index_arr = _inputs(graph)
        store = MmapPairStore.build(
            graph,
            columns,
            index_arr,
            storage_dir=str(tmp_path),
            memory_budget_bytes=1,
        )
        try:
            assert store.k1 == 0
            assert store.k2 == 0
            assert len(store.sims) == 0
            assert list(store.offsets) == [0]
        finally:
            store.close()

    def test_single_pair_graph(self, tmp_path):
        # Two edges sharing one vertex: exactly one pair.
        graph = Graph.from_edge_list([(0, 1), (1, 2)])
        columns, index_arr = _inputs(graph)
        oracle = InMemoryPairStore.build(graph, columns, index_arr)
        store = MmapPairStore.build(
            graph,
            columns,
            index_arr,
            storage_dir=str(tmp_path),
            memory_budget_bytes=1,
        )
        try:
            _stores_equal(store, oracle)
        finally:
            store.close()

    def test_make_pair_store_dispatch(self, tmp_path):
        graph = generators.caveman_graph(3, 4)
        columns, index_arr = _inputs(graph)
        memory = make_pair_store(graph, columns, index_arr, settings=None)
        assert isinstance(memory, InMemoryPairStore)
        mmap_store = make_pair_store(
            graph,
            columns,
            index_arr,
            settings=StorageSettings(kind="mmap", storage_dir=str(tmp_path)),
        )
        try:
            assert isinstance(mmap_store, MmapPairStore)
            _stores_equal(mmap_store, memory)
        finally:
            mmap_store.close()


class TestWindows:
    def _spilled_store(self, tmp_path, budget=1):
        graph = generators.caveman_graph(4, 5)
        columns, index_arr = _inputs(graph)
        return (
            MmapPairStore.build(
                graph,
                columns,
                index_arr,
                storage_dir=str(tmp_path),
                memory_budget_bytes=budget,
            ),
            InMemoryPairStore.build(graph, columns, index_arr),
        )

    def test_window_ranges_cover_exactly(self, tmp_path):
        store, oracle = self._spilled_store(tmp_path)
        try:
            w1 = store.k2
            ranges = list(store.window_ranges(0, w1))
            assert ranges[0][0] == 0
            assert ranges[-1][1] == w1
            for (_, e), (s2, _) in zip(ranges, ranges[1:]):
                assert e == s2  # contiguous, no overlap
            got1 = np.concatenate(
                [store.window(s, e)[0] for s, e in ranges]
            )
            got2 = np.concatenate(
                [store.window(s, e)[1] for s, e in ranges]
            )
            np.testing.assert_array_equal(got1, np.asarray(oracle.c1))
            np.testing.assert_array_equal(got2, np.asarray(oracle.c2))
        finally:
            store.close()


class TestCleanup:
    def test_close_removes_spill_dir(self, tmp_path):
        graph = generators.caveman_graph(3, 4)
        columns, index_arr = _inputs(graph)
        store = MmapPairStore.build(
            graph,
            columns,
            index_arr,
            storage_dir=str(tmp_path),
            memory_budget_bytes=1,
        )
        spill = store.spill_dir
        assert os.path.isdir(spill)
        store.close()
        assert not os.path.exists(spill)
        store.close()  # idempotent

    def test_run_files_removed_after_merge(self, tmp_path):
        graph = generators.caveman_graph(3, 4)
        columns, index_arr = _inputs(graph)
        store = MmapPairStore.build(
            graph,
            columns,
            index_arr,
            storage_dir=str(tmp_path),
            memory_budget_bytes=1,
        )
        try:
            leftovers = [
                name
                for name in os.listdir(store.spill_dir)
                if name.startswith("run")
            ]
            assert leftovers == []
        finally:
            store.close()

    def test_cancelled_build_cleans_spill_dir(self, tmp_path):
        graph = generators.caveman_graph(3, 4)
        columns, index_arr = _inputs(graph)
        cancel = CancelToken()
        cancel.cancel("test")
        with pytest.raises(RunCancelledError):
            MmapPairStore.build(
                graph,
                columns,
                index_arr,
                storage_dir=str(tmp_path),
                memory_budget_bytes=1,
                cancel=cancel,
            )
        assert os.listdir(str(tmp_path)) == []

    def test_cancelled_sweep_cleans_spill_dir(self, tmp_path):
        graph = generators.caveman_graph(4, 5)
        cancel = CancelToken()
        cancel.cancel("stop")
        with pytest.raises(RunCancelledError):
            coarse_sweep(
                graph,
                fast_similarity_columns(graph),
                params=CoarseParams(),
                cancel=cancel,
                storage=StorageSettings(
                    kind="mmap",
                    storage_dir=str(tmp_path),
                    memory_budget_bytes=1,
                ),
            )
        assert os.listdir(str(tmp_path)) == []

    def test_worker_crash_cleans_spill_dir(self, tmp_path):
        # A failing chunk applier propagates out of the sweep; the
        # try/finally in coarse_sweep must still remove the spill dir.
        from unittest import mock

        graph = generators.caveman_graph(4, 5)
        with mock.patch(
            "repro.core.coarse._CoarseSweeper._apply_chunk",
            side_effect=RuntimeError("worker died"),
        ):
            with pytest.raises(RuntimeError, match="worker died"):
                coarse_sweep(
                    graph,
                    fast_similarity_columns(graph),
                    params=CoarseParams(),
                    storage=StorageSettings(
                        kind="mmap",
                        storage_dir=str(tmp_path),
                        memory_budget_bytes=1,
                    ),
                )
        assert os.listdir(str(tmp_path)) == []


class TestStreamingInit:
    """``columns=None``: Phase I runs inside the store build, chunked."""

    def _file_bytes(self, store):
        with open(store.file_spec().path, "rb") as handle:
            return handle.read()

    def test_streaming_file_bitwise_equal_materialized(self, tmp_path):
        graph = generators.caveman_graph(
            6, 8, weight=lambda u, v: 1.0 + ((u * 7 + v) % 5) / 7.0
        )
        columns, index_arr = _inputs(graph)
        for budget in (None, 2048, 256, 64):
            oracle = MmapPairStore.build(
                graph,
                columns,
                index_arr,
                storage_dir=str(tmp_path),
                memory_budget_bytes=budget,
            )
            stream = MmapPairStore.build_streaming(
                graph,
                index_arr,
                storage_dir=str(tmp_path),
                memory_budget_bytes=budget,
            )
            try:
                assert self._file_bytes(stream) == self._file_bytes(oracle)
            finally:
                oracle.close()
                stream.close()

    def test_streaming_duplicate_sims_keep_lexsort_order(self, tmp_path):
        # Unweighted planted partition produces many tied similarities;
        # the final lexsort tie-break (u, then v) must survive streaming.
        graph = generators.planted_partition(4, 10, 0.8, 0.1, seed=7)
        columns, index_arr = _inputs(graph)
        oracle = MmapPairStore.build(graph, columns, index_arr)
        stream = MmapPairStore.build_streaming(
            graph,
            index_arr,
            storage_dir=str(tmp_path),
            memory_budget_bytes=256,
        )
        try:
            _stores_equal(stream, oracle)
            assert self._file_bytes(stream) == self._file_bytes(oracle)
        finally:
            oracle.close()
            stream.close()

    def test_streaming_no_pairs_graph(self, tmp_path):
        # Two disjoint edges: no wedges, k1 == k2 == 0.
        graph = Graph.from_edge_list([(0, 1), (2, 3)])
        index_arr = np.asarray(build_edge_index(graph, None), dtype=np.int64)
        store = MmapPairStore.build_streaming(
            graph, index_arr, storage_dir=str(tmp_path)
        )
        try:
            assert store.k1 == 0
            assert store.k2 == 0
        finally:
            store.close()

    def test_make_pair_store_streaming_dispatch(self, tmp_path):
        graph = generators.caveman_graph(3, 4)
        columns, index_arr = _inputs(graph)
        with pytest.raises(ParameterError, match="streaming"):
            make_pair_store(graph, None, index_arr, settings=None)
        memory = make_pair_store(graph, columns, index_arr, settings=None)
        stream = make_pair_store(
            graph,
            None,
            index_arr,
            settings=StorageSettings(
                kind="mmap",
                storage_dir=str(tmp_path),
                memory_budget_bytes=256,
            ),
        )
        try:
            assert isinstance(stream, MmapPairStore)
            _stores_equal(stream, memory)
        finally:
            stream.close()

    def test_coarse_sweep_streaming_matches_columns(self, tmp_path):
        graph = generators.caveman_graph(4, 5)
        oracle = coarse_sweep(
            graph, fast_similarity_columns(graph), params=CoarseParams()
        )
        tracer = Tracer([MemorySink()])
        result = coarse_sweep(
            graph,
            None,
            params=CoarseParams(),
            tracer=tracer,
            storage=StorageSettings(
                kind="mmap",
                storage_dir=str(tmp_path),
                memory_budget_bytes=256,
            ),
        )
        assert result.num_levels == oracle.num_levels
        assert result.edge_labels() == oracle.edge_labels()
        for level in range(oracle.num_levels + 1):
            assert result.dendrogram.labels_at_level(
                level
            ) == oracle.dendrogram.labels_at_level(level)
        assert tracer.counters.get("spill_runs", 0) > 0
        assert tracer.counters.get("bytes_spilled", 0) > 0
        assert os.listdir(str(tmp_path)) == []

    def test_streaming_cancelled_build_cleans_spill_dir(self, tmp_path):
        graph = generators.caveman_graph(4, 5)
        index_arr = np.asarray(build_edge_index(graph, None), dtype=np.int64)
        token = CancelToken()
        token.cancel()
        with pytest.raises(RunCancelledError):
            MmapPairStore.build_streaming(
                graph,
                index_arr,
                storage_dir=str(tmp_path),
                memory_budget_bytes=64,
                cancel=token,
            )
        assert os.listdir(str(tmp_path)) == []
