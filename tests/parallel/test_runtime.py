"""Tests for the persistent sweep runtime (pool reuse, arena, failures)."""

from __future__ import annotations

import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.cluster.unionfind import ChainArray
from repro.cluster.validation import same_partition
from repro.core.coarse import CoarseParams, coarse_sweep
from repro.core.registry import backend_names, get_backend
from repro.core.similarity import compute_similarity_map
from repro.errors import ParallelError, ParameterError
from repro.parallel.par_sweep import _ParallelCoarseSweeper, parallel_coarse_sweep
from repro.parallel.pool import ProcessBackend, ThreadBackend
from repro.parallel.runtime import (
    LocalSweepRuntime,
    ShmSweepRuntime,
    SweepRuntime,
    get_sweep_runtime,
)
from repro.parallel.shm_sweep import ShmArena, describe_exitcode


# Backends whose runtime runs the chained engine (the shm arena does not).
CHAINED_BACKENDS = [b for b in backend_names() if "chained" in get_backend(b).engines]


def chained_backend(backend):
    """The backend a chained reference runs on next to ``backend``."""
    return backend if backend in CHAINED_BACKENDS else "serial"


def reference_merge(base, pairs):
    chain = ChainArray(len(base), _init=list(base))
    for a, b in pairs:
        chain.merge(a, b)
    return chain.labels()


def identity(n):
    """The batch/sharded engines' initial state: every item its own label."""
    return np.arange(n, dtype=np.int64)


def num_roots(labels):
    return int(np.count_nonzero(labels == np.arange(labels.size)))


def random_chunks(n, num_chunks, pairs_per_chunk, seed=0):
    rng = random.Random(seed)
    return [
        [(rng.randrange(n), rng.randrange(n)) for _ in range(pairs_per_chunk)]
        for _ in range(num_chunks)
    ]


def load_chunks(runtime, chunks):
    """Load ``chunks`` into ``runtime`` as one pair-column set.

    Returns each chunk's ``(start, stop)`` window of the loaded columns.
    """
    flat = [p for chunk in chunks for p in chunk]
    runtime.load_pairs([a for a, _ in flat], [b for _, b in flat])
    bounds = [0]
    for chunk in chunks:
        bounds.append(bounds[-1] + len(chunk))
    return list(zip(bounds[:-1], bounds[1:]))


def traced(runtime):
    """Attach a fresh in-memory tracer to ``runtime``; return its sink."""
    from repro.obs import MemorySink, Tracer

    sink = MemorySink()
    runtime.tracer = Tracer([sink])
    return sink


def spans_named(sink, name):
    return [s for s in sink.spans if s.name == name]


class TestFactory:
    def test_names(self):
        assert get_sweep_runtime("serial").name == "serial"
        assert get_sweep_runtime("thread", 2).name == "thread"
        assert get_sweep_runtime("process", 2).name == "process"
        assert get_sweep_runtime("shm", 2).name == "shm"

    def test_unknown(self):
        with pytest.raises(ParameterError):
            get_sweep_runtime("quantum")

    def test_invalid_workers(self):
        with pytest.raises(ParameterError):
            LocalSweepRuntime("thread", 0)
        with pytest.raises(ParameterError):
            ShmSweepRuntime(0)

    def test_backend_instance_wrapped(self):
        runtime = get_sweep_runtime(ThreadBackend(2), 2)
        assert isinstance(runtime, LocalSweepRuntime)
        assert runtime.name == "thread"

    def test_runtime_instance_passthrough(self):
        runtime = ShmSweepRuntime(2)
        assert get_sweep_runtime(runtime) is runtime


@pytest.mark.parametrize("backend", CHAINED_BACKENDS)
class TestChunkMerge:
    def test_empty_chunk_returns_chain_unchanged(self, backend):
        with get_sweep_runtime(backend, 2) as runtime:
            runtime.load_pairs([], [])
            chain = ChainArray(6)
            after = runtime.chunk_merge_range(chain, 0, 0)
            assert after is chain  # identity: caller skips the diff
            assert chain.labels() == list(range(6))

    def test_matches_serial_reference(self, backend):
        n = 30
        chunks = random_chunks(n, 3, 20, seed=7)
        with get_sweep_runtime(backend, 3) as runtime:
            chain = ChainArray(n)
            for start, stop in load_chunks(runtime, chunks):
                chain = runtime.chunk_merge_range(chain, start, stop)
            flat = [p for chunk in chunks for p in chunk]
            assert chain.labels() == reference_merge(list(range(n)), flat)


class TestChunkMergeRange:
    """runtime.load_pairs + chunk_merge_range ≡ serial MERGE over slices."""

    @pytest.mark.parametrize("backend", CHAINED_BACKENDS)
    def test_requires_load_pairs(self, backend):
        with get_sweep_runtime(backend, 2) as runtime:
            with pytest.raises(ParameterError, match="load_pairs"):
                runtime.chunk_merge_range(ChainArray(6), 0, 1)

    @pytest.mark.parametrize("backend", CHAINED_BACKENDS)
    def test_range_bounds_checked(self, backend):
        with get_sweep_runtime(backend, 2) as runtime:
            runtime.load_pairs([0, 1], [1, 2])
            with pytest.raises(ParameterError, match="out of bounds"):
                runtime.chunk_merge_range(ChainArray(6), 0, 5)

    @pytest.mark.parametrize("backend", CHAINED_BACKENDS)
    def test_empty_range_returns_chain_unchanged(self, backend):
        with get_sweep_runtime(backend, 2) as runtime:
            runtime.load_pairs([0, 1], [1, 2])
            chain = ChainArray(6)
            assert runtime.chunk_merge_range(chain, 1, 1) is chain

    @pytest.mark.parametrize("backend", CHAINED_BACKENDS)
    def test_matches_chunk_merge(self, backend):
        # Every window boundary agrees with serial MERGE over the prefix.
        n = 30
        pairs = [p for chunk in random_chunks(n, 3, 20, seed=13) for p in chunk]
        with get_sweep_runtime(backend, 3) as by_range:
            by_range.load_pairs([a for a, _ in pairs], [b for _, b in pairs])
            chain_r = ChainArray(n)
            for start in range(0, len(pairs), 20):
                stop = min(start + 20, len(pairs))
                chain_r = by_range.chunk_merge_range(chain_r, start, stop)
                assert same_partition(
                    reference_merge(list(range(n)), pairs[:stop]), chain_r.labels()
                )
            assert chain_r.labels() == reference_merge(list(range(n)), pairs)

    @pytest.mark.parametrize("backend", ["shm"])
    def test_shm_ships_ranges_not_pairs(self, backend):
        # The arena's range paths (batch and sharded windows over one
        # loaded block) cross the pair columns exactly once.
        n = 30
        pairs = [p for chunk in random_chunks(n, 3, 20, seed=13) for p in chunk]
        with get_sweep_runtime(backend, 3) as runtime:
            runtime.load_pairs([a for a, _ in pairs], [b for _, b in pairs])
            labels = identity(n)
            for w, start in enumerate(range(0, len(pairs), 20)):
                stop = min(start + 20, len(pairs))
                if w % 2:
                    labels = runtime.chunk_sharded_range(labels, start, stop)
                else:
                    labels = runtime.chunk_batch_range(labels, start, stop)
            arena = runtime.arena
            assert arena.batch_tasks > 0
            assert arena.shard_tasks > 0
            assert arena.pair_loads == 1
            assert labels.tolist() == reference_merge(list(range(n)), pairs)


def test_shm_runtime_has_no_chained_path():
    """The arena runs the batch and sharded engines only: a chained
    chunk is a named error, not an AttributeError."""
    with ShmSweepRuntime(2) as runtime:
        runtime.load_pairs([0, 1], [1, 2])
        with pytest.raises(ParameterError, match="engine='chained'.*'batch'"):
            runtime.chunk_merge_range(ChainArray(6), 0, 2)
        assert runtime.arena is None


@pytest.mark.parametrize("backend", ["serial", "thread", "process", "shm"])
class TestChunkBatchRange:
    """chunk_batch_range ≡ chunk_merge_range at the labels level."""

    def test_requires_load_pairs(self, backend):
        with get_sweep_runtime(backend, 2) as runtime:
            with pytest.raises(ParameterError, match="load_pairs"):
                runtime.chunk_batch_range(identity(6), 0, 1)

    def test_empty_range_returns_chain_unchanged(self, backend):
        with get_sweep_runtime(backend, 2) as runtime:
            runtime.load_pairs([0, 1], [1, 2])
            labels = identity(6)
            assert runtime.chunk_batch_range(labels, 1, 1) is labels

    def test_matches_chunk_merge_range(self, backend):
        n = 30
        pairs = [p for chunk in random_chunks(n, 3, 20, seed=13) for p in chunk]
        i1 = [a for a, _ in pairs]
        i2 = [b for _, b in pairs]
        with get_sweep_runtime(chained_backend(backend), 3) as chained:
            with get_sweep_runtime(backend, 3) as batch:
                chained.load_pairs(i1, i2)
                batch.load_pairs(i1, i2)
                chain_c = ChainArray(n)
                labels_b = identity(n)
                for start in range(0, len(pairs), 20):
                    stop = min(start + 20, len(pairs))
                    chain_c = chained.chunk_merge_range(chain_c, start, stop)
                    labels_b = batch.chunk_batch_range(labels_b, start, stop)
                    assert chain_c.labels() == labels_b.tolist()
                    assert chain_c.num_clusters() == num_roots(labels_b)
                assert labels_b.tolist() == reference_merge(list(range(n)), pairs)

    def test_more_workers_than_pairs(self, backend):
        # 8 workers over 3 pairs: strided partitioning never hands a
        # worker an empty share, and the result is still exact.
        with get_sweep_runtime(backend, 8) as runtime:
            runtime.load_pairs([0, 1, 2], [3, 4, 5])
            labels = runtime.chunk_batch_range(identity(6), 0, 3)
            assert labels.tolist() == reference_merge(
                list(range(6)), [(0, 3), (1, 4), (2, 5)]
            )

    def test_shm_dispatches_batch_tasks(self, backend):
        if backend != "shm":
            pytest.skip("arena counters are shm-specific")
        n = 30
        pairs = [p for chunk in random_chunks(n, 3, 20, seed=13) for p in chunk]
        with ShmSweepRuntime(3) as runtime:
            runtime.load_pairs([a for a, _ in pairs], [b for _, b in pairs])
            labels = identity(n)
            for start in range(0, len(pairs), 20):
                labels = runtime.chunk_batch_range(
                    labels, start, min(start + 20, len(pairs))
                )
            arena = runtime.arena
            assert arena.batch_tasks > 0
            assert arena.shard_tasks == 0
            assert arena.pair_loads == 1


# Only the shm arena runs the sharded engine.
@pytest.mark.parametrize("backend", ["shm"])
class TestChunkShardedRange:
    """chunk_sharded_range ≡ chunk_merge_range at the labels level, with
    owner-computes shard tasks instead of per-worker full copies of C."""

    def test_requires_load_pairs(self, backend):
        with get_sweep_runtime(backend, 2) as runtime:
            with pytest.raises(ParameterError, match="load_pairs"):
                runtime.chunk_sharded_range(identity(6), 0, 1)

    def test_empty_range_returns_chain_unchanged(self, backend):
        with get_sweep_runtime(backend, 2) as runtime:
            runtime.load_pairs([0, 1], [1, 2])
            labels = identity(6)
            assert runtime.chunk_sharded_range(labels, 1, 1) is labels

    def test_matches_chunk_merge_range(self, backend):
        n = 30
        pairs = [p for chunk in random_chunks(n, 3, 20, seed=13) for p in chunk]
        i1 = [a for a, _ in pairs]
        i2 = [b for _, b in pairs]
        with get_sweep_runtime(chained_backend(backend), 3) as chained:
            with get_sweep_runtime(backend, 3) as sharded:
                chained.load_pairs(i1, i2)
                sharded.load_pairs(i1, i2)
                chain_c = ChainArray(n)
                labels_s = identity(n)
                for start in range(0, len(pairs), 20):
                    stop = min(start + 20, len(pairs))
                    chain_c = chained.chunk_merge_range(chain_c, start, stop)
                    labels_s = sharded.chunk_sharded_range(labels_s, start, stop)
                    assert chain_c.labels() == labels_s.tolist()
                    assert chain_c.num_clusters() == num_roots(labels_s)
                assert labels_s.tolist() == reference_merge(list(range(n)), pairs)

    def test_more_workers_than_vertices(self, backend):
        # 8 workers over a 6-slot C: the ownership map clamps to 6
        # single-vertex shards, every live pair is boundary, and the
        # result is still exact.
        with get_sweep_runtime(backend, 8) as runtime:
            runtime.load_pairs([0, 1, 2], [3, 4, 5])
            labels = runtime.chunk_sharded_range(identity(6), 0, 3)
            assert labels.tolist() == reference_merge(
                list(range(6)), [(0, 3), (1, 4), (2, 5)]
            )

    def test_shm_dispatches_shard_tasks(self, backend):
        if backend != "shm":
            pytest.skip("arena counters are shm-specific")
        n = 30
        pairs = [p for chunk in random_chunks(n, 3, 20, seed=13) for p in chunk]
        with ShmSweepRuntime(3) as runtime:
            runtime.load_pairs([a for a, _ in pairs], [b for _, b in pairs])
            labels = identity(n)
            for start in range(0, len(pairs), 20):
                labels = runtime.chunk_sharded_range(
                    labels, start, min(start + 20, len(pairs))
                )
            arena = runtime.arena
            assert arena.shard_tasks > 0
            assert arena.batch_tasks == 0
            assert arena.pair_loads == 1
            assert arena.boundary_edges > 0
            assert arena.reconcile_rounds > 0
            assert arena.shard_bytes == 8 * arena.shard_partition().max_width

    def test_tracer_surfaces_shard_accounting(self, backend):
        from repro.obs import MemorySink, Tracer

        n = 30
        pairs = [p for chunk in random_chunks(n, 2, 20, seed=5) for p in chunk]
        sink = MemorySink()
        with get_sweep_runtime(backend, 3) as runtime:
            runtime.tracer = Tracer([sink])
            runtime.load_pairs([a for a, _ in pairs], [b for _, b in pairs])
            labels = identity(n)
            for start in range(0, len(pairs), 20):
                labels = runtime.chunk_sharded_range(
                    labels, start, min(start + 20, len(pairs))
                )
            runtime.tracer.flush()
        counters = sink.counters
        assert counters["shard_bytes"] > 0
        assert counters["boundary_edges"] > 0
        names = set(sink.span_names())
        assert "runtime:compute" in names
        # Label arrays cross back without a rebuild: only the shm arena
        # copies (labels into the shared block and the result out).
        assert ("runtime:copy" in names) == (backend == "shm")


class TestCopyMergeSplitAcrossEngines:
    """runtime:copy/runtime:merge mean the same thing for every engine —
    merge is cross-worker joining only, copies land in copy.  The batch
    engine hands label arrays back without a rebuild, so on the pool
    backends it charges no copy at all."""

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_batch_range_emits_split_spans(self, backend):
        n = 30
        pairs = [p for chunk in random_chunks(n, 2, 20, seed=9) for p in chunk]
        with get_sweep_runtime(backend, 3) as runtime:
            sink = traced(runtime)
            runtime.load_pairs([a for a, _ in pairs], [b for _, b in pairs])
            labels = identity(n)
            for start in range(0, len(pairs), 20):
                labels = runtime.chunk_batch_range(
                    labels, start, min(start + 20, len(pairs))
                )
            assert sum(s.duration for s in spans_named(sink, "runtime:merge")) > 0.0
            assert spans_named(sink, "runtime:copy") == []
        names = set(sink.span_names())
        assert {"runtime:compute", "runtime:merge"} <= names
        assert "runtime:copy" not in names


class TestPersistence:
    """Worker state must survive across >= 3 consecutive chunks."""

    def test_process_pool_reused_across_chunks(self):
        n = 20
        runtime = LocalSweepRuntime("process", 2)
        sink = traced(runtime)
        with runtime:
            windows = load_chunks(runtime, random_chunks(n, 4, 10, seed=1))
            chain = ChainArray(n)
            executors = set()
            for start, stop in windows:
                chain = runtime.chunk_merge_range(chain, start, stop)
                executors.add(id(runtime.backend._executor))
            assert len(executors) == 1  # one pool served every chunk
        assert len(spans_named(sink, "runtime:spawn")) == 1
        compute = spans_named(sink, "runtime:compute")
        assert len(compute) == 4
        assert sum(s.attrs["workers"] for s in compute) == 8
        assert not runtime.backend.running

    def test_thread_pool_reused_across_chunks(self):
        n = 20
        with LocalSweepRuntime("thread", 3) as runtime:
            windows = load_chunks(runtime, random_chunks(n, 3, 12, seed=2))
            chain = ChainArray(n)
            executors = set()
            for start, stop in windows:
                chain = runtime.chunk_merge_range(chain, start, stop)
                executors.add(id(runtime.backend._executor))
            assert len(executors) == 1

    def test_shm_workers_reused_across_chunks(self):
        n = 24
        with ShmSweepRuntime(2) as runtime:
            sink = traced(runtime)
            windows = load_chunks(runtime, random_chunks(n, 4, 12, seed=3))
            labels = identity(n)
            pids = set()
            for start, stop in windows:
                labels = runtime.chunk_batch_range(labels, start, stop)
                pids.add(tuple(runtime.arena.worker_pids()))
            assert len(pids) == 1  # same resident processes every chunk
            assert len(spans_named(sink, "runtime:compute")) == 4
            spawns = spans_named(sink, "runtime:spawn")
            assert len(spawns) == 1 and spawns[0].duration > 0.0
        assert not runtime.arena.running

    def test_shm_arena_resized_on_new_array_length(self):
        with ShmSweepRuntime(2) as runtime:
            runtime.load_pairs([0, 2, 4], [1, 3, 5])
            runtime.chunk_batch_range(identity(10), 0, 3)
            first = runtime.arena
            runtime.chunk_batch_range(identity(16), 0, 3)
            assert runtime.arena is not first
            assert runtime.arena.n == 16

    def test_runtime_restarts_after_shutdown(self):
        runtime = LocalSweepRuntime("thread", 2)
        (first, second) = load_chunks(
            runtime, [[(0, 1), (2, 3), (4, 5)], [(1, 2), (5, 6), (6, 7)]]
        )
        chain = runtime.chunk_merge_range(ChainArray(8), *first)
        runtime.shutdown()
        assert not runtime.backend.running
        chain = runtime.chunk_merge_range(chain, *second)
        runtime.shutdown()
        assert chain.labels() == reference_merge(
            list(range(8)), [(0, 1), (2, 3), (4, 5), (1, 2), (5, 6), (6, 7)]
        )


class TestSweeperIntegration:
    def test_empty_chunk_early_return_skips_runtime(self, triangle):
        """A chunk contributing no incident pairs must not hit the runtime."""

        class ExplodingRuntime(SweepRuntime):
            name = "exploding"

            def chunk_merge_range(self, chain, start, stop):
                raise AssertionError("runtime consulted for an empty chunk")

        sim = compute_similarity_map(triangle)
        sweeper = _ParallelCoarseSweeper(
            triangle, sim, CoarseParams(), None, ExplodingRuntime()
        )
        before_chain = sweeper.chain
        sweeper._apply_chunk(range(0, 0))
        assert sweeper.chain is before_chain
        assert sweeper.pending == []

    def test_range_only_runtime_serves_dict_input(self, planted):
        """A dict similarity map reaches the runtime through the range
        transport only: a runtime implementing nothing else serves the
        chained sweep and matches the serial dict oracle at every level."""

        class RangeOnlyRuntime(SweepRuntime):
            name = "range-only"

            def chunk_merge_range(self, chain, start, stop):
                i1, i2 = self._require_pairs(start, stop)
                merged = chain.copy()
                for a, b in zip(i1[start:stop].tolist(), i2[start:stop].tolist()):
                    merged.merge(a, b)
                return merged

        sim = compute_similarity_map(planted)
        params = CoarseParams(phi=2, delta0=10)
        reference = coarse_sweep(planted, sim, params)
        result = parallel_coarse_sweep(
            planted, sim, params, backend=RangeOnlyRuntime()
        )
        assert [(e.kind, e.level, e.xi, e.p) for e in reference.epochs] == [
            (e.kind, e.level, e.xi, e.p) for e in result.epochs
        ]
        assert result.num_levels == reference.num_levels
        for level in range(reference.num_levels + 1):
            assert same_partition(
                reference.dendrogram.labels_at_level(level),
                result.dendrogram.labels_at_level(level),
            ), level

    def test_caller_owned_runtime_survives_two_sweeps(self, planted):
        sim = compute_similarity_map(planted)
        params = CoarseParams(phi=2, delta0=10)
        serial = coarse_sweep(planted, sim, params)
        with ShmSweepRuntime(2) as runtime:
            first = parallel_coarse_sweep(
                planted, sim, params, num_workers=2, backend=runtime,
                engine="batch",
            )
            assert runtime.arena is not None and runtime.arena.running
            second = parallel_coarse_sweep(
                planted, sim, params, num_workers=2, backend=runtime,
                engine="sharded",
            )
        assert same_partition(serial.edge_labels(), first.edge_labels())
        assert same_partition(serial.edge_labels(), second.edge_labels())

    @pytest.mark.parametrize("backend", ["thread", "process", "shm"])
    def test_runtime_shut_down_after_owned_sweep(self, planted, backend):
        """parallel_coarse_sweep owns string-named backends' lifecycle."""
        sim = compute_similarity_map(planted)
        runtime = get_sweep_runtime(backend, 2)
        parallel_coarse_sweep(
            planted, sim, CoarseParams(phi=2, delta0=10),
            num_workers=2, backend=runtime, engine=get_backend(backend).engines[0],
        )
        # caller-owned: still running (or never started for tiny graphs)
        runtime.shutdown()


class TestCrossBackendDeterminism:
    def test_identical_per_level_partitions(self, planted):
        """serial / thread / process / shm agree on every level."""
        sim = compute_similarity_map(planted)
        params = CoarseParams(phi=2, delta0=10)
        reference = coarse_sweep(planted, sim, params)
        for backend in ("serial", "thread", "process", "shm"):
            # The shm arena runs no chained engine; its batch levels
            # must agree all the same.
            result = parallel_coarse_sweep(
                planted, sim, params, num_workers=2, backend=backend,
                engine=get_backend(backend).engines[0],
            )
            assert [(e.kind, e.level, e.xi, e.p) for e in reference.epochs] == [
                (e.kind, e.level, e.xi, e.p) for e in result.epochs
            ], backend
            for level in range(reference.num_levels + 1):
                assert same_partition(
                    reference.dendrogram.labels_at_level(level),
                    result.dendrogram.labels_at_level(level),
                ), (backend, level)


def arena_merge(arena, base, pairs):
    """One batch chunk of ``pairs`` through the arena's range transport.

    ``load_pairs`` does not bounds-check, so an out-of-range index
    reaches the worker that owns it.
    """
    arena.load_pairs([a for a, _ in pairs], [b for _, b in pairs])
    return arena.chunk_batch_range(np.asarray(base, dtype=np.int64), 0, len(pairs))


class TestArenaFailures:
    def test_worker_error_raises_parallel_error_and_unlinks(self):
        """A worker raising inside _worker surfaces as ParallelError and
        the shared block is unlinked (no /dev/shm leak)."""
        shm_dir = Path("/dev/shm")
        before = set(os.listdir(shm_dir)) if shm_dir.is_dir() else None
        arena = ShmArena(8, 2)
        with pytest.raises(ParallelError, match="worker"):
            with arena:
                arena_merge(arena, list(range(8)), [(0, 1), (2, 99)])
        assert not arena.running
        if before is not None:
            assert set(os.listdir(shm_dir)) <= before

    def test_worker_error_carries_worker_index(self):
        with ShmArena(8, 2) as arena:
            with pytest.raises(ParallelError) as excinfo:
                arena_merge(arena, list(range(8)), [(0, 1), (2, 99)])
            assert excinfo.value.worker == 1  # pair (2, 99) is row 1's share

    def test_arena_survives_worker_error(self):
        """An in-worker exception is reported, not fatal: rows are rebuilt
        from base at the next chunk, so the arena keeps serving."""
        with ShmArena(8, 2) as arena:
            with pytest.raises(ParallelError):
                arena_merge(arena, list(range(8)), [(0, 1), (2, 99)])
            merged = arena_merge(arena, list(range(8)), [(0, 1), (2, 3)])
            assert merged.tolist() == reference_merge(
                list(range(8)), [(0, 1), (2, 3)]
            )

    def test_dead_worker_detected_not_deadlocked(self):
        """A killed worker process must raise (with the signal named)
        instead of waiting forever on the result queue."""
        with ShmArena(16, 2) as arena:
            arena.start()
            victim = arena._procs[1]
            victim.terminate()
            victim.join()
            with pytest.raises(ParallelError, match="SIGTERM"):
                arena_merge(
                    arena,
                    list(range(16)),
                    [(i, i + 1) for i in range(12)],
                )
        assert not arena.running

    def test_base_length_validated(self):
        with ShmArena(8, 2) as arena:
            with pytest.raises(ParameterError):
                arena_merge(arena, list(range(9)), [(0, 1)])


class TestExitcodeClassification:
    def test_three_cases_distinguished(self):
        assert describe_exitcode(None) == "never started"
        assert "SIGTERM" in describe_exitcode(-15)
        assert "SIGKILL" in describe_exitcode(-9)
        assert describe_exitcode(0) == "exited cleanly"
        assert "crashed" in describe_exitcode(1)
        assert "crashed" in describe_exitcode(3)

    def test_unknown_signal_number(self):
        assert "signal" in describe_exitcode(-250)


def test_shm_run_is_warning_clean():
    """A clean shm sweep must emit nothing on stderr — in particular no
    resource-tracker KeyError / leaked-object warnings at interpreter
    exit (workers must not register the parent's block)."""
    script = (
        "import numpy as np\n"
        "from repro.parallel.shm_sweep import ShmArena\n"
        "from repro.parallel.runtime import ShmSweepRuntime\n"
        "with ShmArena(32, 2) as arena:\n"
        "    arena.load_pairs(list(range(20)), list(range(1, 21)))\n"
        "    arena.chunk_batch_range(np.arange(32), 0, 20)\n"
        "with ShmSweepRuntime(2) as rt:\n"
        "    rt.load_pairs(list(range(20)) * 3, list(range(2, 22)) * 3)\n"
        "    labels = np.arange(32)\n"
        "    for start in (0, 20, 40):\n"
        "        labels = rt.chunk_batch_range(labels, start, start + 20)\n"
        "with ShmSweepRuntime(2) as rt:\n"
        "    rt.load_pairs(list(range(20)), list(range(2, 22)))\n"
        "    labels = np.arange(32)\n"
        "    for start in (0, 10):\n"
        "        labels = rt.chunk_sharded_range(labels, start, start + 10)\n"
        "print('done')\n"
    )
    src = str(Path(__file__).resolve().parents[2] / "src")
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src + (os.pathsep + existing if existing else "")
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "done"
    assert proc.stderr.strip() == ""
