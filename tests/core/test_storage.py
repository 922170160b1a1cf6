"""The out-of-core pair store: layout, spill/merge identity, cleanup."""

from __future__ import annotations

import errno
import os
import pickle
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import storage
from repro.core.cancel import CancelToken
from repro.core.coarse import CoarseParams, coarse_sweep
from repro.core.config import RunConfig
from repro.core.linkclust import LinkClustering
from repro.core.storage import (
    InMemoryPairStore,
    MmapPairStore,
    PairFileSpec,
    StorageSettings,
    make_pair_store,
)
from repro.core.sweep import build_edge_index
from repro.errors import ParameterError, RunCancelledError, StorageError
from repro.fast.similarity import fast_similarity_columns
from repro.graph import generators
from repro.graph.graph import Graph
from repro.obs import MemorySink, Tracer
from repro.obs.sinks import Sink


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
        # budget=1 < the cost of any pair, so every gather window holds
        # exactly one pair; the columns-fed build writes list L straight
        # to the file and spills nothing.
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
            assert tracer.counters.get("spill_runs", 0) == 0
            assert tracer.counters.get("bytes_spilled", 0) == 0
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


class _CancelOnFirstSpill(Sink):
    """Cancels ``token`` when the first ``storage:spill`` span closes,
    noting which files the spill dirs under ``root`` held then."""

    def __init__(self, token: CancelToken, root) -> None:
        self.token = token
        self.root = str(root)
        self.seen = None

    def emit(self, record) -> None:
        if getattr(record, "name", None) == "storage:spill" and self.seen is None:
            self.seen = [
                name
                for spill in os.listdir(self.root)
                for name in os.listdir(os.path.join(self.root, spill))
            ]
            self.token.cancel("mid sweep B")


class _TripAtCheckpoint(CancelToken):
    """Notes the function of every checkpoint; trips at the ``at``-th."""

    def __init__(self, at) -> None:
        super().__init__()
        self.at = at
        self.stages = []

    def raise_if_cancelled(self) -> None:
        self.stages.append(sys._getframe(1).f_code.co_name)
        if len(self.stages) == self.at:
            self.cancel(f"checkpoint {self.at}")
        super().raise_if_cancelled()


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

    def test_streaming_run_files_removed_after_merge(self, tmp_path):
        # The streaming build is the one that spills wedge runs: with a
        # 1-byte budget it writes several, and only pairs.bin may stay.
        graph = generators.caveman_graph(3, 4)
        _, index_arr = _inputs(graph)
        tracer = Tracer([MemorySink()])
        store = MmapPairStore.build_streaming(
            graph,
            index_arr,
            storage_dir=str(tmp_path),
            memory_budget_bytes=1,
            tracer=tracer,
        )
        try:
            assert tracer.counters["spill_runs"] > 1
            assert os.listdir(store.spill_dir) == ["pairs.bin"]
        finally:
            store.close()
        assert os.listdir(str(tmp_path)) == []

    def test_streaming_build_cancelled_in_sweep_b_cleans_spill_dir(self, tmp_path):
        # Trip the token as the first wedge run is spilled; the next
        # Sweep B checkpoint raises with a run file on disk, and the
        # whole spill dir must still go.
        graph = generators.caveman_graph(3, 4)
        _, index_arr = _inputs(graph)
        token = CancelToken()
        sink = _CancelOnFirstSpill(token, tmp_path)
        with pytest.raises(RunCancelledError, match="mid sweep B"):
            MmapPairStore.build_streaming(
                graph,
                index_arr,
                storage_dir=str(tmp_path),
                memory_budget_bytes=1,
                tracer=Tracer([sink]),
                cancel=token,
            )
        assert "wedges0.bin" in sink.seen
        assert os.listdir(str(tmp_path)) == []

    def test_streaming_build_cancelled_at_every_checkpoint(self, tmp_path):
        # Count the build's checkpoints (Sweep A chunks, Sweep B chunks,
        # merge windows, write windows), then trip the token at each in
        # turn.  An empty storage dir means neither the spill dir nor
        # any wedges*.bin / wedges.tmp file outlived the cancel.
        graph = generators.caveman_graph(3, 4)
        _, index_arr = _inputs(graph)

        def build(token):
            return MmapPairStore.build_streaming(
                graph,
                index_arr,
                storage_dir=str(tmp_path),
                memory_budget_bytes=1,
                cancel=token,
            )

        probe = _TripAtCheckpoint(None)
        build(probe).close()
        assert set(probe.stages) == {
            "_pair_table",
            "_build_file_streaming",
            "_merge_wedge_runs",
            "_write_pairs_file",
        }
        chunks = probe.stages.count("_pair_table")
        assert chunks > 1
        assert probe.stages.count("_build_file_streaming") == chunks
        for k in range(1, len(probe.stages) + 1):
            token = _TripAtCheckpoint(k)
            with pytest.raises(RunCancelledError, match=f"checkpoint {k}$"):
                build(token)
            assert len(token.stages) == k
            assert os.listdir(str(tmp_path)) == []

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

    def test_pair_table_span(self, tmp_path):
        graph = generators.caveman_graph(3, 4)
        columns, index_arr = _inputs(graph)
        sink = MemorySink()
        store = MmapPairStore.build_streaming(
            graph,
            index_arr,
            storage_dir=str(tmp_path),
            memory_budget_bytes=1,
            tracer=Tracer([sink]),
        )
        store.close()
        spans = [r for r in sink.spans if r.name == "storage:pairs"]
        spills = [r for r in sink.spans if r.name == "storage:spill"]
        assert len(spans) == 1
        assert spans[0].attrs == {"chunks": len(spills), "k1": columns.k1}

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


def _file_bytes(store):
    with open(store.file_spec().path, "rb") as handle:
        return handle.read()


@st.composite
def _small_graphs(draw):
    """No pairs, one pair, caveman cliques (similarity ties) or a random
    weighted graph."""
    shape = draw(st.sampled_from(["no_pairs", "one_pair", "caveman", "random"]))
    if shape == "no_pairs":
        return Graph.from_edge_list([(0, 1), (2, 3)])
    if shape == "one_pair":
        return Graph.from_edge_list([(0, 1, draw(st.sampled_from([1.0, 2.5]))), (1, 2)])
    if shape == "caveman":
        return generators.caveman_graph(draw(st.integers(2, 4)), draw(st.integers(3, 5)))
    n = draw(st.integers(3, 9))
    pairs = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
            .filter(lambda p: p[0] < p[1]),
            min_size=1,
            max_size=20,
            unique=True,
        )
    )
    weight = st.sampled_from([0.5, 1.0, 1.0, 3.0]) | st.floats(0.1, 10.0)
    return Graph.from_edge_list([(a, b, draw(weight)) for a, b in pairs])


@st.composite
def _table_graphs(draw):
    """``_small_graphs`` or a fan: a hub of degree 7-12 whose wedges
    exceed a 1-byte budget's 16-wedge chunk cap, plus low-degree
    centres along its rim."""
    if draw(st.booleans()):
        return draw(_small_graphs())
    d = draw(st.integers(7, 12))
    rim = [(i, i + 1) for i in range(1, d)]
    return Graph.from_edge_list([(0, i) for i in range(1, d + 1)] + rim)


class TestPairTable:
    """Sweep A's table is the sorted unique packed keys of Phase I's pairs,
    and its counts are their wedge counts."""

    @settings(max_examples=40, deadline=None)
    @given(graph=_table_graphs(), budget=st.sampled_from([1, "quarter", None]))
    def test_table_equals_phase_one_pairs(self, graph, budget):
        from repro.fast.similarity import _csr_arrays

        columns = fast_similarity_columns(graph)
        if budget == "quarter":
            budget = max(1, (columns.k1 * 32 + columns.k2 * 16) // 4)
        indptr, indices, weights, eids = _csr_arrays(graph)
        n = max(1, graph.num_vertices)
        chunks = storage._center_chunks(indptr, budget)
        table, counts = storage._pair_table(
            indptr, indices, weights, eids, chunks, n, None
        )
        keys = columns.u.astype(np.int64) * n + columns.v
        order = np.argsort(keys)
        assert table.dtype == np.int64
        np.testing.assert_array_equal(table, keys[order])
        np.testing.assert_array_equal(counts, np.diff(columns.common_offsets)[order])


class TestOneListGather:
    """Every pair store writes list L through the same windowed gather."""

    @settings(max_examples=40, deadline=None)
    @given(
        graph=_small_graphs(),
        budget=st.sampled_from([None, 1, "small", "above"]),
    )
    def test_builds_agree_byte_for_byte(self, graph, budget):
        columns, index_arr = _inputs(graph)
        pair_bytes = columns.k1 * 32 + columns.k2 * 16
        budget = {"small": max(1, pair_bytes // 4), "above": pair_bytes + 1}.get(
            budget, budget
        )
        oracle = InMemoryPairStore.build(graph, columns, index_arr)
        with tempfile.TemporaryDirectory() as root:
            stream = MmapPairStore.build_streaming(
                graph, index_arr, storage_dir=root, memory_budget_bytes=budget
            )
            try:
                for cols in (columns, columns.without_edge_ids()):
                    store = MmapPairStore.build(
                        graph, cols, index_arr, storage_dir=root,
                        memory_budget_bytes=budget,
                    )
                    try:
                        assert _file_bytes(store) == _file_bytes(stream)
                        _stores_equal(store, oracle)
                        _stores_equal(
                            InMemoryPairStore.build(graph, cols, index_arr), oracle
                        )
                    finally:
                        store.close()
            finally:
                stream.close()


class TestWriteFaults:
    """A full disk mid-build ends in StorageError with the spill dir gone."""

    def _build(self, streaming, tmp_path):
        graph = generators.caveman_graph(4, 5)
        columns, index_arr = _inputs(graph)
        if streaming:
            return MmapPairStore.build_streaming(
                graph, index_arr, storage_dir=str(tmp_path), memory_budget_bytes=64
            )
        return MmapPairStore.build(
            graph, columns, index_arr, storage_dir=str(tmp_path),
            memory_budget_bytes=64,
        )

    def _check(self, info, tmp_path):
        err = info.value
        assert isinstance(err, OSError) and err.errno == errno.ENOSPC
        assert isinstance(err.__cause__, OSError)
        assert err.__cause__.errno == errno.ENOSPC
        assert err.filename.startswith(str(tmp_path))
        assert os.path.basename(err.filename) in str(err)
        assert os.listdir(str(tmp_path)) == []

    @pytest.mark.parametrize("streaming", [False, True], ids=["columns", "streaming"])
    def test_enospc_writing_pairs_file(self, monkeypatch, tmp_path, streaming):
        flush = storage._SectionWriter.flush
        calls = []

        def full_disk(writer):
            calls.append(writer)
            if len(calls) > 1:  # c1 lands, then the disk fills
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            flush(writer)

        monkeypatch.setattr(storage._SectionWriter, "flush", full_disk)
        with pytest.raises(StorageError) as info:
            self._build(streaming, tmp_path)
        self._check(info, tmp_path)

    def test_enospc_spilling_wedge_runs(self, monkeypatch, tmp_path):
        spill = storage._spill_wedge_run
        calls = []

        def full_disk(*args):
            if calls:  # the first run is on disk and open
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            calls.append(args)
            return spill(*args)

        monkeypatch.setattr(storage, "_spill_wedge_run", full_disk)
        with pytest.raises(StorageError) as info:
            self._build(True, tmp_path)
        self._check(info, tmp_path)

    def test_truncated_pairs_file_named(self, tmp_path):
        store = self._build(True, tmp_path)
        spec = store.file_spec()
        try:
            stale = PairFileSpec(path=spec.path, k1=spec.k1, k2=spec.k2 + 1)
            with pytest.raises(StorageError, match="truncated"):
                stale.open_c2()
            os.truncate(spec.path, spec.total_bytes - 8)
            with pytest.raises(StorageError, match="truncated") as info:
                spec.open_c2()
            assert spec.path in str(info.value)
            spec.open_c1()  # the sections before the cut still map
        finally:
            store.close()

    def test_run_surfaces_storage_error(self, monkeypatch, tmp_path):
        def full_disk(writer):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(storage._SectionWriter, "flush", full_disk)
        config = RunConfig(
            coarse=CoarseParams(), pairs_format="mmap",
            storage_dir=str(tmp_path), memory_budget_bytes=256,
        )
        with pytest.raises(OSError) as info:
            LinkClustering(generators.caveman_graph(4, 5), config=config).run()
        assert isinstance(info.value, StorageError)
        assert info.value.errno == errno.ENOSPC
        assert os.listdir(str(tmp_path)) == []
