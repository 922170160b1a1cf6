"""Tests for the shared-memory chunk processor."""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.unionfind import ChainArray
from repro.errors import ParameterError
from repro.parallel.shm_sweep import ShmArena


def serial_reference(base, pairs):
    chain = ChainArray(len(base), _init=list(base))
    for a, b in pairs:
        chain.merge(a, b)
    return chain.labels()


def identity(n):
    return np.arange(n, dtype=np.int64)


def labels_of(raw):
    chain = ChainArray(len(raw), _init=list(raw))
    return chain.labels()


def arena_merge(base, pairs, num_workers):
    """One chunk of ``pairs`` over a throwaway arena's range transport."""
    with ShmArena(len(base), num_workers) as arena:
        arena.load_pairs([a for a, _ in pairs], [b for _, b in pairs])
        return arena.chunk_merge_range(base, 0, len(pairs))


class TestShmChunkMerge:
    """One chunk over a fresh arena, the range transport end to end."""

    def test_validation(self):
        with pytest.raises(ParameterError):
            arena_merge([0, 1], [(0, 1)], num_workers=0)

    def test_empty_pairs(self):
        base = [0, 1, 2]
        assert arena_merge(base, [], num_workers=2) == base

    def test_empty_base(self):
        assert arena_merge([], [], num_workers=2) == []

    def test_single_worker_inline(self):
        base = list(range(6))
        pairs = [(0, 3), (1, 4), (3, 4)]
        merged = arena_merge(base, pairs, num_workers=1)
        assert labels_of(merged) == serial_reference(base, pairs)

    @pytest.mark.parametrize("workers", [2, 3, 4])
    def test_matches_serial(self, workers):
        rng = random.Random(workers)
        n = 40
        base_chain = ChainArray(n)
        for _ in range(10):
            base_chain.merge(rng.randrange(n), rng.randrange(n))
        base = list(base_chain.raw())
        pairs = [
            (rng.randrange(n), rng.randrange(n)) for _ in range(60)
        ]
        merged = arena_merge(base, pairs, num_workers=workers)
        assert labels_of(merged) == serial_reference(base, pairs)

    def test_invariant_holds_after_merge(self):
        rng = random.Random(5)
        n = 25
        pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(30)]
        merged = arena_merge(list(range(n)), pairs, num_workers=3)
        assert all(merged[i] <= i for i in range(n))


class TestShmFailures:
    def test_worker_crash_surfaces(self):
        """A worker hitting invalid input must surface as ParallelError,
        not silently corrupt the result."""
        from repro.errors import ParallelError

        base = list(range(8))
        bad_pairs = [(0, 1), (2, 99)]  # 99 out of range -> worker raises
        with pytest.raises(ParallelError, match="worker"):
            arena_merge(base, bad_pairs, num_workers=2)

    def test_shared_block_cleaned_up(self):
        """No shared-memory blocks leak (unlink always runs)."""
        base = list(range(10))
        pairs = [(0, 5), (1, 6)]
        arena_merge(base, pairs, num_workers=2)
        # creating a block with any fresh name must not collide with a
        # leak; more directly, resource_tracker warnings would fail the
        # run — reaching here without exceptions is the check.


class TestChunkMergeRange:
    """The zero-copy columnar path: columns loaded once, ranges dispatched."""

    def make_pairs(self, n, count, seed=0):
        rng = random.Random(seed)
        return [(rng.randrange(n), rng.randrange(n)) for _ in range(count)]

    def test_requires_load_pairs(self):
        with ShmArena(5, 2) as arena:
            with pytest.raises(ParameterError, match="load_pairs"):
                arena.chunk_merge_range(list(range(5)), 0, 1)

    def test_range_bounds_checked(self):
        with ShmArena(5, 2) as arena:
            arena.load_pairs([0, 1], [1, 2])
            with pytest.raises(ParameterError, match="out of bounds"):
                arena.chunk_merge_range(list(range(5)), 0, 3)

    def test_column_shape_checked(self):
        with ShmArena(5, 2) as arena:
            with pytest.raises(ParameterError, match="equal length"):
                arena.load_pairs([0, 1], [1])

    def test_empty_range_is_identity(self):
        with ShmArena(5, 2) as arena:
            arena.load_pairs([0, 1], [1, 2])
            base = list(range(5))
            assert arena.chunk_merge_range(base, 1, 1) == base

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_matches_chunk_merge(self, workers):
        # Every window boundary agrees with serial MERGE over the prefix.
        n = 30
        pairs = self.make_pairs(n, 50, seed=workers)
        i1 = [a for a, _ in pairs]
        i2 = [b for _, b in pairs]
        with ShmArena(n, workers) as by_range:
            by_range.load_pairs(i1, i2)
            base_r = list(range(n))
            for start in range(0, len(pairs), 17):
                stop = min(start + 17, len(pairs))
                base_r = by_range.chunk_merge_range(base_r, start, stop)
                assert labels_of(base_r) == serial_reference(
                    list(range(n)), pairs[:stop]
                )

    def test_no_pair_data_crosses_the_queue(self):
        """The columnar path must dispatch range tuples only."""
        n = 24
        pairs = self.make_pairs(n, 48, seed=9)
        with ShmArena(n, 3) as arena:
            arena.load_pairs([a for a, _ in pairs], [b for _, b in pairs])
            base = list(range(n))
            for start in range(0, len(pairs), 12):
                base = arena.chunk_merge_range(base, start, min(start + 12, 48))
            assert arena.range_tasks > 0
            assert arena.pair_loads == 1
            assert labels_of(base) == serial_reference(list(range(n)), pairs)

    def test_block_reused_across_loads_that_fit(self):
        with ShmArena(10, 2) as arena:
            arena.load_pairs([0, 1, 2], [3, 4, 5])
            first = arena._pairs_block.name
            arena.load_pairs([5, 6], [7, 8])  # smaller: fits in place
            assert arena._pairs_block.name == first
            arena.load_pairs(list(range(9)), list(range(1, 10)))  # grows
            assert arena._pairs_block.name != first
            assert arena.pair_loads == 3

    def test_token_tracks_loads(self):
        with ShmArena(10, 2) as arena:
            assert arena.pairs_token is None
            arena.load_pairs([0], [1], token="sweep-1")
            assert arena.pairs_token == "sweep-1"
            arena.load_pairs([0], [1])
            assert arena.pairs_token not in (None, "sweep-1")

    def test_shutdown_releases_pairs_block(self):
        arena = ShmArena(10, 2)
        arena.load_pairs([0, 1], [1, 2])
        arena.shutdown()
        assert arena.pairs_token is None
        assert arena._pairs_block is None
        # A fresh load after shutdown works (the arena restarts lazily).
        arena.load_pairs([0], [1])
        base = arena.chunk_merge_range(list(range(10)), 0, 1)
        assert labels_of(base) == serial_reference(list(range(10)), [(0, 1)])
        arena.shutdown()


class TestChunkBatchRange:
    """The batch engine on the arena: vectorized rows, vectorized join."""

    def make_pairs(self, n, count, seed=0):
        rng = random.Random(seed)
        return [(rng.randrange(n), rng.randrange(n)) for _ in range(count)]

    def test_requires_load_pairs(self):
        with ShmArena(5, 2) as arena:
            with pytest.raises(ParameterError, match="load_pairs"):
                arena.chunk_batch_range(identity(5), 0, 1)

    def test_range_bounds_checked(self):
        with ShmArena(5, 2) as arena:
            arena.load_pairs([0, 1], [1, 2])
            with pytest.raises(ParameterError, match="out of bounds"):
                arena.chunk_batch_range(identity(5), 0, 3)

    def test_empty_range_is_identity(self):
        with ShmArena(5, 2) as arena:
            arena.load_pairs([0, 1], [1, 2])
            base = identity(5)
            assert arena.chunk_batch_range(base, 1, 1) is base

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_matches_chunk_merge_range(self, workers):
        n = 30
        pairs = self.make_pairs(n, 50, seed=workers)
        i1 = [a for a, _ in pairs]
        i2 = [b for _, b in pairs]
        with ShmArena(n, workers) as chained, ShmArena(n, workers) as batch:
            chained.load_pairs(i1, i2)
            batch.load_pairs(i1, i2)
            base_c = list(range(n))
            base_b = identity(n)
            for start in range(0, len(pairs), 17):
                stop = min(start + 17, len(pairs))
                base_c = chained.chunk_merge_range(base_c, start, stop)
                base_b = batch.chunk_batch_range(base_b, start, stop)
                assert labels_of(base_b) == labels_of(base_c)
            assert labels_of(base_b) == serial_reference(list(range(n)), pairs)

    def test_more_workers_than_pairs(self):
        with ShmArena(8, 6) as arena:
            arena.load_pairs([0, 1], [4, 5])
            base = arena.chunk_batch_range(identity(8), 0, 2)
            assert labels_of(base) == serial_reference(
                list(range(8)), [(0, 4), (1, 5)]
            )

    def test_dispatches_batch_tasks_only(self):
        n = 24
        pairs = self.make_pairs(n, 48, seed=9)
        with ShmArena(n, 3) as arena:
            arena.load_pairs([a for a, _ in pairs], [b for _, b in pairs])
            base = identity(n)
            for start in range(0, len(pairs), 12):
                base = arena.chunk_batch_range(base, start, min(start + 12, 48))
            assert arena.batch_tasks > 0
            assert arena.range_tasks == 0
            assert arena.pair_loads == 1


class TestChunkShardedRange:
    """The sharded engine on the arena: owner-computes slice writes."""

    def make_pairs(self, n, count, seed=0):
        rng = random.Random(seed)
        return [(rng.randrange(n), rng.randrange(n)) for _ in range(count)]

    def test_requires_load_pairs(self):
        with ShmArena(5, 2) as arena:
            with pytest.raises(ParameterError, match="load_pairs"):
                arena.chunk_sharded_range(identity(5), 0, 1)

    def test_range_bounds_checked(self):
        with ShmArena(5, 2) as arena:
            arena.load_pairs([0, 1], [1, 2])
            with pytest.raises(ParameterError, match="out of bounds"):
                arena.chunk_sharded_range(identity(5), 0, 3)

    def test_empty_range_is_identity(self):
        with ShmArena(5, 2) as arena:
            arena.load_pairs([0, 1], [1, 2])
            base = identity(5)
            merged, (da, db) = arena.chunk_sharded_range(base, 1, 1)
            assert merged is base
            assert da.size == 0 and db.size == 0

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_matches_chunk_merge_range(self, workers):
        n = 30
        pairs = self.make_pairs(n, 50, seed=workers)
        i1 = [a for a, _ in pairs]
        i2 = [b for _, b in pairs]
        with ShmArena(n, workers) as chained, ShmArena(n, workers) as sharded:
            chained.load_pairs(i1, i2)
            sharded.load_pairs(i1, i2)
            base_c = list(range(n))
            base_s = identity(n)
            for start in range(0, len(pairs), 17):
                stop = min(start + 17, len(pairs))
                base_c = chained.chunk_merge_range(base_c, start, stop)
                base_s, (da, db) = sharded.chunk_sharded_range(
                    base_s, start, stop
                )
                assert da.size == 0 and db.size == 0  # exact mode
                assert labels_of(base_s) == labels_of(base_c)
            assert labels_of(base_s) == serial_reference(list(range(n)), pairs)

    def test_matches_chunk_batch_range_bitwise(self):
        # Not just the same partition: the sharded composition must
        # reproduce the batch engine's canonical raw labels exactly.
        n = 26
        pairs = self.make_pairs(n, 40, seed=3)
        i1 = [a for a, _ in pairs]
        i2 = [b for _, b in pairs]
        with ShmArena(n, 3) as batch, ShmArena(n, 3) as sharded:
            batch.load_pairs(i1, i2)
            sharded.load_pairs(i1, i2)
            base_b = identity(n)
            base_s = identity(n)
            for start in range(0, len(pairs), 10):
                stop = min(start + 10, len(pairs))
                base_b = batch.chunk_batch_range(base_b, start, stop)
                base_s, _ = sharded.chunk_sharded_range(base_s, start, stop)
                assert base_s.tolist() == base_b.tolist()

    def test_more_workers_than_vertices(self):
        # 6 workers, n=4: single-vertex shards, all pairs boundary.
        with ShmArena(4, 6) as arena:
            arena.load_pairs([0, 1], [2, 3])
            merged, _ = arena.chunk_sharded_range(identity(4), 0, 2)
            assert labels_of(merged) == serial_reference(
                list(range(4)), [(0, 2), (1, 3)]
            )

    def test_dispatches_shard_tasks_only(self):
        n = 24
        pairs = self.make_pairs(n, 48, seed=9)
        with ShmArena(n, 3) as arena:
            arena.load_pairs([a for a, _ in pairs], [b for _, b in pairs])
            base = identity(n)
            for start in range(0, len(pairs), 12):
                base, _ = arena.chunk_sharded_range(
                    base, start, min(start + 12, 48)
                )
            assert arena.shard_tasks > 0
            assert arena.batch_tasks == 0
            assert arena.range_tasks == 0
            assert arena.pair_loads == 1
            assert arena.boundary_edges > 0
            assert arena.shard_bytes == 8 * arena.shard_partition().max_width

    def test_defer_boundary_returns_pairs(self):
        from repro.parallel.sharded_sweep import (
            apply_relabels,
            reconcile_labels,
        )

        n = 20
        pairs = self.make_pairs(n, 30, seed=4)
        i1 = [a for a, _ in pairs]
        i2 = [b for _, b in pairs]
        with ShmArena(n, 3) as arena:
            arena.load_pairs(i1, i2)
            exact, _ = arena.chunk_sharded_range(identity(n), 0, len(pairs))
            partial, (da, db) = arena.chunk_sharded_range(
                identity(n), 0, len(pairs), defer_boundary=True
            )
            assert arena.reconcile_rounds > 0  # first (exact) call only
        keys, vals, _ = reconcile_labels(da, db)
        healed = partial.copy()
        apply_relabels(healed, keys, vals)
        assert healed.tolist() == exact.tolist()


@settings(max_examples=10, deadline=None)
@given(
    n=st.integers(3, 25),
    seed=st.integers(0, 500),
    workers=st.integers(2, 4),
)
def test_property_sharded_range_equals_serial(n, seed, workers):
    rng = random.Random(seed)
    pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(2 * n)]
    with ShmArena(n, workers) as arena:
        arena.load_pairs([a for a, _ in pairs], [b for _, b in pairs])
        merged, (da, db) = arena.chunk_sharded_range(
            identity(n), 0, len(pairs)
        )
    assert da.size == 0 and db.size == 0
    assert labels_of(merged) == serial_reference(list(range(n)), pairs)


@settings(max_examples=10, deadline=None)
@given(
    n=st.integers(3, 25),
    seed=st.integers(0, 500),
    workers=st.integers(2, 4),
)
def test_property_batch_range_equals_serial(n, seed, workers):
    rng = random.Random(seed)
    pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(2 * n)]
    with ShmArena(n, workers) as arena:
        arena.load_pairs([a for a, _ in pairs], [b for _, b in pairs])
        merged = arena.chunk_batch_range(identity(n), 0, len(pairs))
    assert labels_of(merged) == serial_reference(list(range(n)), pairs)


@settings(max_examples=10, deadline=None)
@given(
    n=st.integers(3, 25),
    seed=st.integers(0, 500),
    workers=st.integers(2, 4),
)
def test_property_shm_equals_serial(n, seed, workers):
    rng = random.Random(seed)
    base = list(range(n))
    pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(2 * n)]
    merged = arena_merge(base, pairs, num_workers=workers)
    assert labels_of(merged) == serial_reference(base, pairs)


@settings(max_examples=10, deadline=None)
@given(
    n=st.integers(3, 25),
    seed=st.integers(0, 500),
    workers=st.integers(2, 4),
)
def test_property_range_equals_serial(n, seed, workers):
    rng = random.Random(seed)
    pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(2 * n)]
    with ShmArena(n, workers) as arena:
        arena.load_pairs([a for a, _ in pairs], [b for _, b in pairs])
        merged = arena.chunk_merge_range(list(range(n)), 0, len(pairs))
    assert labels_of(merged) == serial_reference(list(range(n)), pairs)
