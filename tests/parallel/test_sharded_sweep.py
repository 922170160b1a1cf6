"""Unit tests for the vertex-sharded sweep kernels.

``sharded_components`` must be bitwise-equal to ``batch_components``
over the same inputs for *every* shard count — the owner-computes
decomposition (intra-first, boundary-second) is a pure refactoring of
the per-level contraction.  The helpers (``solve_shard``,
``reconcile_labels``, ``apply_relabels``, ``dedupe_root_pairs``) are
checked in isolation, and the classic shard edge cases — pure-boundary
levels, zero-intra shards, single-vertex shards, more shards than
vertices — get dedicated tests.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ClusteringError
from repro.fast.batch_sweep import batch_components
from repro.obs import MemorySink, Tracer
from repro.parallel.partitioner import ShardedPartition
from repro.parallel.sharded_sweep import (
    ShardTask,
    apply_relabels,
    dedupe_root_pairs,
    reconcile_labels,
    sharded_components,
    solve_shard,
)


def random_edges(n, m, seed):
    rng = random.Random(seed)
    i1 = np.array([rng.randrange(n) for _ in range(m)], dtype=np.int64)
    i2 = np.array([rng.randrange(n) for _ in range(m)], dtype=np.int64)
    return i1, i2


def exact_merged(labels, i1, i2, num_shards):
    part = ShardedPartition.build(labels.size, num_shards)
    merged, deferred, stats = sharded_components(labels, i1, i2, part)
    assert deferred[0].size == 0 and deferred[1].size == 0
    return merged, stats


class TestSolveShard:
    def test_matches_batch_components_on_identity(self):
        i1, i2 = random_edges(12, 20, seed=1)
        expect = batch_components(np.arange(12, dtype=np.int64), i1, i2)
        assert np.array_equal(solve_shard(12, i1, i2), expect)

    def test_local_coordinates(self):
        # A shard owning [10, 14) sees pairs shifted by lo=10.
        local = solve_shard(
            4,
            np.array([0, 2], dtype=np.int64),
            np.array([1, 3], dtype=np.int64),
        )
        assert local.tolist() == [0, 0, 2, 2]


class TestReconcileLabels:
    def test_single_pair(self):
        keys, vals, rounds = reconcile_labels(
            np.array([7], dtype=np.int64), np.array([3], dtype=np.int64)
        )
        assert keys.tolist() == [3, 7]
        assert vals.tolist() == [3, 3]
        assert rounds >= 1

    def test_chain_collapses_to_minimum(self):
        # 2-9, 9-40, 40-5: one component, min member 2.
        a = np.array([2, 9, 40], dtype=np.int64)
        b = np.array([9, 40, 5], dtype=np.int64)
        keys, vals, _ = reconcile_labels(a, b)
        assert keys.tolist() == [2, 5, 9, 40]
        assert vals.tolist() == [2, 2, 2, 2]

    def test_sparse_ids_stay_sparse(self):
        # Endpoints far apart: the contraction is compacted, never
        # n-sized, and results map back to original ids.
        a = np.array([1_000_000, 3], dtype=np.int64)
        b = np.array([2_000_000, 4], dtype=np.int64)
        keys, vals, _ = reconcile_labels(a, b)
        assert keys.tolist() == [3, 4, 1_000_000, 2_000_000]
        assert vals.tolist() == [3, 3, 1_000_000, 1_000_000]

    def test_self_loops_ignored(self):
        keys, vals, rounds = reconcile_labels(
            np.array([5, 5], dtype=np.int64), np.array([5, 5], dtype=np.int64)
        )
        assert keys.tolist() == [5]
        assert vals.tolist() == [5]
        assert rounds == 0

    def test_empty(self):
        empty = np.array([], dtype=np.int64)
        keys, vals, rounds = reconcile_labels(empty, empty)
        assert keys.size == 0 and vals.size == 0 and rounds == 0


class TestApplyRelabels:
    def test_basic_replacement(self):
        arr = np.array([0, 7, 3, 7, 9], dtype=np.int64)
        apply_relabels(
            arr,
            np.array([3, 7], dtype=np.int64),
            np.array([0, 3], dtype=np.int64),
        )
        assert arr.tolist() == [0, 3, 0, 3, 9]

    def test_absent_keys_untouched(self):
        arr = np.array([1, 2, 3], dtype=np.int64)
        apply_relabels(
            arr, np.array([10], dtype=np.int64), np.array([0], dtype=np.int64)
        )
        assert arr.tolist() == [1, 2, 3]

    def test_identity_mapping_is_noop(self):
        arr = np.array([4, 2], dtype=np.int64)
        keys = np.array([2, 4], dtype=np.int64)
        apply_relabels(arr, keys, keys.copy())
        assert arr.tolist() == [4, 2]

    def test_empty_keys(self):
        arr = np.array([5], dtype=np.int64)
        empty = np.array([], dtype=np.int64)
        apply_relabels(arr, empty, empty)
        assert arr.tolist() == [5]

    def test_value_above_all_keys(self):
        # searchsorted lands past the end for entries above every key;
        # the guard must not read out of bounds or relabel them.
        arr = np.array([99], dtype=np.int64)
        apply_relabels(
            arr, np.array([3], dtype=np.int64), np.array([1], dtype=np.int64)
        )
        assert arr.tolist() == [99]


class TestDedupeRootPairs:
    def test_canonical_and_unique(self):
        a = np.array([5, 2, 5, 2], dtype=np.int64)
        b = np.array([2, 5, 2, 7], dtype=np.int64)
        lo, hi = dedupe_root_pairs(a, b, 10)
        assert lo.tolist() == [2, 2]
        assert hi.tolist() == [5, 7]

    def test_order_invariant(self):
        a1 = np.array([1, 4], dtype=np.int64)
        b1 = np.array([4, 8], dtype=np.int64)
        lo1, hi1 = dedupe_root_pairs(a1, b1, 9)
        lo2, hi2 = dedupe_root_pairs(b1[::-1].copy(), a1[::-1].copy(), 9)
        assert np.array_equal(lo1, lo2) and np.array_equal(hi1, hi2)

    def test_empty(self):
        empty = np.array([], dtype=np.int64)
        lo, hi = dedupe_root_pairs(empty, empty, 4)
        assert lo.size == 0 and hi.size == 0


class TestShardedComponents:
    @pytest.mark.parametrize(
        "num_shards, n, m, seed",
        [pytest.param(k, 40, 70, k, id=str(k)) for k in (1, 2, 3, 5, 8)]
        + [pytest.param(4, 35, 50, 11, id="n35-4")],
    )
    def test_matches_batch_components(self, num_shards, n, m, seed):
        i1, i2 = random_edges(n, m, seed=seed)
        labels = np.arange(n, dtype=np.int64)
        expect = batch_components(labels, i1, i2)
        merged, _ = exact_merged(labels, i1, i2, num_shards)
        assert np.array_equal(merged, expect)

    def test_respects_base_labels(self):
        base = np.arange(10, dtype=np.int64)
        base[7] = 2
        base[9] = 4
        i1 = np.array([7, 0], dtype=np.int64)
        i2 = np.array([9, 5], dtype=np.int64)
        expect = batch_components(base, i1, i2)
        merged, _ = exact_merged(base, i1, i2, 3)
        assert np.array_equal(merged, expect)

    def test_pure_boundary_level(self):
        # Every pair crosses the 2-shard cut [0,4)/[4,8): no shard has
        # local work, reconciliation alone must produce the join.
        n = 8
        i1 = np.array([0, 1, 2, 3], dtype=np.int64)
        i2 = np.array([4, 5, 6, 7], dtype=np.int64)
        labels = np.arange(n, dtype=np.int64)
        merged, stats = exact_merged(labels, i1, i2, 2)
        assert np.array_equal(merged, batch_components(labels, i1, i2))
        assert stats.intra_edges == 0
        assert stats.shards_busy == 0
        assert stats.boundary_edges == 4
        assert stats.reconcile_rounds >= 1

    def test_zero_intra_shard_among_busy_ones(self):
        # Shard 0 ([0,3)) contracts locally; shard 1 ([3,6)) gets no
        # intra pairs at all and must stay untouched.
        n = 6
        i1 = np.array([0, 1], dtype=np.int64)
        i2 = np.array([1, 2], dtype=np.int64)
        labels = np.arange(n, dtype=np.int64)
        merged, stats = exact_merged(labels, i1, i2, 2)
        assert merged.tolist() == [0, 0, 0, 3, 4, 5]
        assert stats.shards_busy == 1
        assert stats.boundary_edges == 0

    def test_single_vertex_shards(self):
        # n shards of width 1: every live pair is boundary by
        # construction — the engine degenerates to pure reconciliation.
        n = 7
        i1, i2 = random_edges(n, 12, seed=4)
        labels = np.arange(n, dtype=np.int64)
        merged, stats = exact_merged(labels, i1, i2, n)
        assert np.array_equal(merged, batch_components(labels, i1, i2))
        assert stats.intra_edges == 0

    def test_more_shards_than_vertices(self):
        # build() clamps to min(k, n); the engine must not care.
        n = 5
        i1, i2 = random_edges(n, 9, seed=6)
        labels = np.arange(n, dtype=np.int64)
        part = ShardedPartition.build(n, 16)
        assert part.num_shards == n
        merged, _, _ = sharded_components(labels, i1, i2, part)
        assert np.array_equal(merged, batch_components(labels, i1, i2))

    def test_no_live_pairs_short_circuits(self):
        labels = np.array([0, 0, 1], dtype=np.int64)
        part = ShardedPartition.build(3, 2)
        merged, deferred, stats = sharded_components(
            labels,
            np.array([0, 1], dtype=np.int64),
            np.array([1, 0], dtype=np.int64),
            part,
        )
        assert merged.tolist() == [0, 0, 0]
        assert deferred[0].size == 0
        assert stats == type(stats)(0, 0, 0, 0)

    def test_defer_boundary_returns_unapplied_pairs(self):
        n = 12
        i1, i2 = random_edges(n, 24, seed=8)
        labels = np.arange(n, dtype=np.int64)
        part = ShardedPartition.build(n, 3)
        exact, _, _ = sharded_components(labels, i1, i2, part)
        partial, (da, db), stats = sharded_components(
            labels, i1, i2, part, defer_boundary=True
        )
        assert da.size == stats.boundary_edges
        assert stats.reconcile_rounds == 0
        # Applying the deferred reconciliation reproduces the exact
        # merge bitwise — deferral loses nothing.
        keys, vals, _ = reconcile_labels(da, db)
        healed = partial.copy()
        apply_relabels(healed, keys, vals)
        assert np.array_equal(healed, exact)

    def test_boundary_pairs_deduplicated(self):
        # The same cross-shard cluster pair 50 times must count once.
        n = 8
        i1 = np.zeros(50, dtype=np.int64)
        i2 = np.full(50, 7, dtype=np.int64)
        labels = np.arange(n, dtype=np.int64)
        _, stats = exact_merged(labels, i1, i2, 2)
        assert stats.boundary_edges == 1

    def test_custom_shard_solver_used(self):
        n = 20
        i1, i2 = random_edges(n, 30, seed=9)
        labels = np.arange(n, dtype=np.int64)
        part = ShardedPartition.build(n, 4)
        seen = []

        def solver(tasks):
            seen.extend(tasks)
            return [
                (solve_shard(t.hi - t.lo, t.a - t.lo, t.b - t.lo), 0.0)
                for t in tasks
            ]

        merged, _, stats = sharded_components(
            labels, i1, i2, part, shard_solver=solver
        )
        assert np.array_equal(merged, batch_components(labels, i1, i2))
        assert len(seen) == stats.shards_busy > 0
        assert all(isinstance(t, ShardTask) for t in seen)
        # Intra pairs really live inside each task's owned range.
        for t in seen:
            assert (t.a >= t.lo).all() and (t.a < t.hi).all()
            assert (t.b >= t.lo).all() and (t.b < t.hi).all()

    def test_inputs_not_mutated(self):
        labels = np.array([0, 1, 2, 3, 4, 5], dtype=np.int64)
        i1 = np.array([0, 4], dtype=np.int64)
        i2 = np.array([5, 2], dtype=np.int64)
        sharded_components(labels, i1, i2, ShardedPartition.build(6, 2))
        assert labels.tolist() == [0, 1, 2, 3, 4, 5]
        assert i1.tolist() == [0, 4] and i2.tolist() == [5, 2]

    def test_shape_mismatch_rejected(self):
        labels = np.arange(4, dtype=np.int64)
        with pytest.raises(ClusteringError, match="equal-length"):
            sharded_components(
                labels,
                np.array([0, 1], dtype=np.int64),
                np.array([2], dtype=np.int64),
                ShardedPartition.build(4, 2),
            )

    def test_partition_size_mismatch_rejected(self):
        labels = np.arange(4, dtype=np.int64)
        with pytest.raises(ClusteringError, match="partition covers"):
            sharded_components(
                labels,
                np.array([0], dtype=np.int64),
                np.array([1], dtype=np.int64),
                ShardedPartition.build(5, 2),
            )

    def test_endpoint_out_of_range_rejected(self):
        labels = np.arange(4, dtype=np.int64)
        with pytest.raises(ClusteringError, match="out of range"):
            sharded_components(
                labels,
                np.array([0], dtype=np.int64),
                np.array([4], dtype=np.int64),
                ShardedPartition.build(4, 2),
            )

    def test_traces_shards_reconcile_and_counters(self):
        sink = MemorySink()
        tracer = Tracer([sink])
        n = 30
        i1, i2 = random_edges(n, 60, seed=12)
        labels = np.arange(n, dtype=np.int64)
        part = ShardedPartition.build(n, 3)
        _, _, stats = sharded_components(labels, i1, i2, part, tracer=tracer)
        tracer.close()
        shard_spans = [
            s for s in sink.spans if s.name.startswith("sweep:shard[")
        ]
        assert len(shard_spans) == stats.shards_busy > 0
        assert all(s.attrs["edges"] > 0 for s in shard_spans)
        reconcile = [s for s in sink.spans if s.name == "sweep:reconcile"]
        assert len(reconcile) == 1
        assert reconcile[0].attrs["edges"] == stats.boundary_edges
        assert sink.counters["boundary_edges"] == stats.boundary_edges
        assert sink.counters["reconcile_rounds"] == stats.reconcile_rounds
        assert sink.counters["shard_bytes"] == part.max_width * 8


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 60),
    m=st.integers(0, 120),
    seed=st.integers(0, 1000),
    shards=st.integers(1, 12),
)
def test_property_sharded_equals_batch(n, m, seed, shards):
    i1, i2 = random_edges(n, m, seed)
    labels = np.arange(n, dtype=np.int64)
    expect = batch_components(labels, i1, i2)
    merged, _ = exact_merged(labels, i1, i2, shards)
    assert np.array_equal(merged, expect)
    assert np.array_equal(merged[merged], merged)


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(2, 40),
    m=st.integers(1, 80),
    seed=st.integers(0, 500),
    shards=st.integers(2, 6),
)
def test_property_deferred_heals_to_exact(n, m, seed, shards):
    i1, i2 = random_edges(n, m, seed)
    labels = np.arange(n, dtype=np.int64)
    part = ShardedPartition.build(n, shards)
    exact, _, _ = sharded_components(labels, i1, i2, part)
    partial, (da, db), _ = sharded_components(
        labels, i1, i2, part, defer_boundary=True
    )
    keys, vals, _ = reconcile_labels(da, db)
    healed = partial.copy()
    apply_relabels(healed, keys, vals)
    assert np.array_equal(healed, exact)
