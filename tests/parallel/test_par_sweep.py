"""Tests for parallel coarse-grained sweeping (Section VI-B)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.validation import same_partition
from repro.core.coarse import CoarseParams, coarse_sweep
from repro.core.similarity import compute_similarity_map
from repro.core.sweep import sweep
from repro.errors import ParameterError
from repro.fast.similarity import fast_similarity_columns
from repro.graph import generators
from repro.parallel.par_sweep import parallel_coarse_sweep
from repro.parallel.runtime import ShmSweepRuntime


class TestParallelCoarseSweep:
    def test_validation(self, triangle):
        with pytest.raises(ParameterError):
            parallel_coarse_sweep(triangle, num_workers=0)

    def test_chained_on_shm_rejected_before_any_work(self, triangle, monkeypatch):
        import repro.parallel.par_sweep as par_sweep_mod

        def no_phase_one(graph):
            raise AssertionError("Phase I ran before the engine check")

        monkeypatch.setattr(par_sweep_mod, "fast_similarity_columns", no_phase_one)
        match = r"engine='chained'.*'batch', 'sharded'"
        with pytest.raises(ParameterError, match=match):
            parallel_coarse_sweep(triangle, num_workers=2, backend="shm")
        # The sharded engine runs on the arena only.
        for backend in ("serial", "thread", "process"):
            with pytest.raises(
                ParameterError,
                match=rf"engine='sharded' does not run on backend='{backend}'",
            ):
                parallel_coarse_sweep(
                    triangle, num_workers=2, backend=backend, engine="sharded"
                )
        # A caller-owned runtime is checked by its backend name: a named
        # error, not an AttributeError from a missing chained path.
        with ShmSweepRuntime(2) as runtime:
            with pytest.raises(ParameterError, match=match):
                parallel_coarse_sweep(
                    triangle, num_workers=2, backend=runtime, engine="chained"
                )
            assert runtime.arena is None  # no worker was spawned

    @pytest.mark.parametrize("workers", [1, 2, 3, 6])
    def test_same_partition_as_serial_coarse(self, weighted_caveman, workers):
        g = weighted_caveman
        sim = compute_similarity_map(g)
        params = CoarseParams(phi=2, delta0=8)
        serial = coarse_sweep(g, sim, params)
        parallel = parallel_coarse_sweep(
            g, sim, params, num_workers=workers, backend="thread"
        )
        assert same_partition(serial.edge_labels(), parallel.edge_labels())

    def test_same_epoch_boundaries_as_serial(self, planted):
        """Chunk boundaries depend only on pair counts, so the epoch
        trace must match the serial driver's exactly."""
        sim = compute_similarity_map(planted)
        params = CoarseParams(phi=2, delta0=10)
        serial = coarse_sweep(planted, sim, params)
        parallel = parallel_coarse_sweep(
            planted, sim, params, num_workers=3, backend="thread"
        )
        assert [(e.kind, e.level, e.xi, e.p) for e in serial.epochs] == [
            (e.kind, e.level, e.xi, e.p) for e in parallel.epochs
        ]

    def test_per_level_partitions_match_serial(self, planted):
        sim = compute_similarity_map(planted)
        params = CoarseParams(phi=2, delta0=10)
        serial = coarse_sweep(planted, sim, params)
        parallel = parallel_coarse_sweep(
            planted, sim, params, num_workers=4, backend="thread"
        )
        for level in range(0, serial.num_levels + 1):
            assert same_partition(
                serial.dendrogram.labels_at_level(level),
                parallel.dendrogram.labels_at_level(level),
            )

    def test_process_backend(self, planted):
        sim = compute_similarity_map(planted)
        params = CoarseParams(phi=2, delta0=10)
        serial = coarse_sweep(planted, sim, params)
        parallel = parallel_coarse_sweep(
            planted, sim, params, num_workers=2, backend="process"
        )
        assert same_partition(serial.edge_labels(), parallel.edge_labels())

    def test_shm_backend(self, planted):
        """The shared-memory multiprocessing path gives the same levels
        and final partition as the serial driver."""
        sim = compute_similarity_map(planted)
        params = CoarseParams(phi=2, delta0=10)
        serial = coarse_sweep(planted, sim, params)
        parallel = parallel_coarse_sweep(
            planted, sim, params, num_workers=2, backend="shm", engine="batch"
        )
        assert same_partition(serial.edge_labels(), parallel.edge_labels())
        assert [(e.kind, e.level, e.xi) for e in serial.epochs] == [
            (e.kind, e.level, e.xi) for e in parallel.epochs
        ]

    def test_full_sweep_matches_fine(self, weighted_caveman):
        g = weighted_caveman
        sim = compute_similarity_map(g)
        fine = sweep(g, sim)
        parallel = parallel_coarse_sweep(
            g,
            sim,
            CoarseParams(phi=1, delta0=10, finalize_root=False),
            num_workers=3,
            backend="thread",
        )
        assert same_partition(fine.edge_labels(), parallel.edge_labels())

    def test_no_map_builds_columns_directly(self, planted, monkeypatch):
        """Without a similarity map, Phase I runs columnar: the dict
        Phase I is never called, and the result is the one an explicit
        ``fast_similarity_columns`` map gives."""
        import repro.core.similarity as core_similarity

        params = CoarseParams(phi=2, delta0=10)
        explicit = parallel_coarse_sweep(
            planted,
            fast_similarity_columns(planted),
            params,
            num_workers=2,
            backend="thread",
        )

        def refuse(*args, **kwargs):
            raise AssertionError("dict Phase I called")

        monkeypatch.setattr(core_similarity, "compute_similarity_map", refuse)
        # Also any name the driver module may have imported it under.
        monkeypatch.setattr(
            "repro.parallel.par_sweep.compute_similarity_map", refuse, raising=False
        )
        implicit = parallel_coarse_sweep(
            planted, None, params, num_workers=2, backend="thread"
        )
        assert implicit.dendrogram.merges == explicit.dendrogram.merges
        assert implicit.epochs == explicit.epochs


class TestBatchEngineParallel:
    """engine="batch" must yield the exact merge records the chained
    parallel driver produces (both record by partition diff, so the
    streams are bitwise comparable)."""

    PARAMS = CoarseParams(phi=2, delta0=8)

    @pytest.mark.parametrize("backend", ["thread", "process", "shm"])
    def test_merges_match_chained(self, planted, backend):
        sim = compute_similarity_map(planted)
        # The shm arena runs no chained engine; its reference is the
        # chained parallel sweep on the serial backend.
        chained = parallel_coarse_sweep(
            planted, sim, self.PARAMS, num_workers=3,
            backend="serial" if backend == "shm" else backend,
            engine="chained",
        )
        batch = parallel_coarse_sweep(
            planted, sim, self.PARAMS, num_workers=3, backend=backend,
            engine="batch",
        )
        assert chained.dendrogram.merges == batch.dendrogram.merges
        assert batch.dendrogram.merges  # non-trivial comparison
        assert [(e.kind, e.level, e.xi, e.p) for e in chained.epochs] == [
            (e.kind, e.level, e.xi, e.p) for e in batch.epochs
        ]

    def test_matches_serial_chained_oracle(self, weighted_caveman):
        g = weighted_caveman
        sim = compute_similarity_map(g)
        params = CoarseParams(phi=2, delta0=8)
        serial = coarse_sweep(g, sim, params)
        batch = parallel_coarse_sweep(
            g, sim, params, num_workers=4, backend="thread", engine="batch"
        )
        for level in range(serial.num_levels + 1):
            assert same_partition(
                serial.dendrogram.labels_at_level(level),
                batch.dendrogram.labels_at_level(level),
            )

    def test_more_workers_than_pairs(self, triangle):
        # K3 has 3 wedge pairs; 8 workers must not produce degenerate
        # empty shares (strided partitioning drops them).
        sim = compute_similarity_map(triangle)
        serial = coarse_sweep(triangle, sim, CoarseParams(phi=1, delta0=2))
        batch = parallel_coarse_sweep(
            triangle, sim, CoarseParams(phi=1, delta0=2),
            num_workers=8, backend="thread", engine="batch",
        )
        assert same_partition(serial.edge_labels(), batch.edge_labels())

    def test_single_worker(self, planted):
        sim = compute_similarity_map(planted)
        params = CoarseParams(phi=2, delta0=10)
        serial = coarse_sweep(planted, sim, params)
        batch = parallel_coarse_sweep(
            planted, sim, params, num_workers=1, backend="thread",
            engine="batch",
        )
        assert same_partition(serial.edge_labels(), batch.edge_labels())


@settings(max_examples=10, deadline=None)
@given(
    n=st.integers(5, 10),
    p=st.floats(0.4, 0.9),
    seed=st.integers(0, 100),
    workers=st.integers(2, 4),
    delta0=st.integers(2, 20),
)
def test_property_batch_parallel_equals_chained_parallel(
    n, p, seed, workers, delta0
):
    g = generators.erdos_renyi(
        n, p, seed=seed, weight=generators.random_weights(seed=seed)
    )
    if g.num_edges < 2:
        return
    sim = compute_similarity_map(g)
    params = CoarseParams(phi=1, delta0=delta0, finalize_root=False)
    chained = parallel_coarse_sweep(
        g, sim, params, num_workers=workers, backend="thread", engine="chained"
    )
    batch = parallel_coarse_sweep(
        g, sim, params, num_workers=workers, backend="thread", engine="batch"
    )
    assert chained.dendrogram.merges == batch.dendrogram.merges


@settings(max_examples=10, deadline=None)
@given(
    n=st.integers(5, 10),
    p=st.floats(0.4, 0.9),
    seed=st.integers(0, 100),
    workers=st.integers(2, 4),
    delta0=st.integers(2, 20),
)
def test_property_parallel_equals_serial_coarse(n, p, seed, workers, delta0):
    g = generators.erdos_renyi(
        n, p, seed=seed, weight=generators.random_weights(seed=seed)
    )
    if g.num_edges < 2:
        return
    sim = compute_similarity_map(g)
    params = CoarseParams(phi=1, delta0=delta0, finalize_root=False)
    serial = coarse_sweep(g, sim, params)
    parallel = parallel_coarse_sweep(
        g, sim, params, num_workers=workers, backend="thread"
    )
    assert same_partition(serial.edge_labels(), parallel.edge_labels())


class TestShardedEngineParallel:
    """engine="sharded" on the shm arena (the one backend that runs it)
    must stay dendrogram-identical to the chained oracle: same per-level
    labels, same epoch trace (chunk boundaries depend only on pair
    counts)."""

    PARAMS = CoarseParams(phi=2, delta0=8)

    @pytest.mark.parametrize("backend", ["shm"])
    def test_levels_match_chained(self, planted, backend):
        sim = compute_similarity_map(planted)
        # The shm arena runs no chained engine; its reference is the
        # chained parallel sweep on the serial backend.
        chained = parallel_coarse_sweep(
            planted, sim, self.PARAMS, num_workers=3, backend="serial",
            engine="chained",
        )
        sharded = parallel_coarse_sweep(
            planted, sim, self.PARAMS, num_workers=3, backend=backend,
            engine="sharded",
        )
        assert chained.num_levels == sharded.num_levels
        for level in range(chained.num_levels + 1):
            assert chained.dendrogram.labels_at_level(
                level
            ) == sharded.dendrogram.labels_at_level(level), (backend, level)
        assert [(e.kind, e.level, e.xi, e.p) for e in chained.epochs] == [
            (e.kind, e.level, e.xi, e.p) for e in sharded.epochs
        ]

    @pytest.mark.parametrize("backend", ["shm"])
    def test_merges_match_batch(self, planted, backend):
        # Both engines record by partition diff, so the merge streams
        # are bitwise comparable.
        sim = compute_similarity_map(planted)
        batch = parallel_coarse_sweep(
            planted, sim, self.PARAMS, num_workers=3, backend=backend,
            engine="batch",
        )
        sharded = parallel_coarse_sweep(
            planted, sim, self.PARAMS, num_workers=3, backend=backend,
            engine="sharded",
        )
        assert batch.dendrogram.merges == sharded.dendrogram.merges
        assert sharded.dendrogram.merges  # non-trivial comparison

    def test_matches_serial_chained_oracle(self, weighted_caveman):
        g = weighted_caveman
        sim = compute_similarity_map(g)
        serial = coarse_sweep(g, sim, self.PARAMS)
        sharded = parallel_coarse_sweep(
            g, sim, self.PARAMS, num_workers=2, backend="shm",
            engine="sharded",
        )
        for level in range(serial.num_levels + 1):
            assert same_partition(
                serial.dendrogram.labels_at_level(level),
                sharded.dendrogram.labels_at_level(level),
            )

    def test_more_workers_than_edges(self, triangle):
        # K3 has 3 edges: 4 workers means more shards than C slots, so
        # the ownership map clamps and every pair is boundary.
        sim = compute_similarity_map(triangle)
        serial = coarse_sweep(triangle, sim, CoarseParams(phi=1, delta0=2))
        sharded = parallel_coarse_sweep(
            triangle, sim, CoarseParams(phi=1, delta0=2),
            num_workers=4, backend="shm", engine="sharded",
        )
        assert same_partition(serial.edge_labels(), sharded.edge_labels())

    def test_single_worker(self, planted):
        # A one-worker arena runs each level in process (its fallback).
        sim = compute_similarity_map(planted)
        serial = coarse_sweep(planted, sim, self.PARAMS)
        sharded = parallel_coarse_sweep(
            planted, sim, self.PARAMS, num_workers=1, backend="shm",
            engine="sharded",
        )
        assert same_partition(serial.edge_labels(), sharded.edge_labels())


@settings(max_examples=10, deadline=None)
@given(
    n=st.integers(5, 10),
    p=st.floats(0.4, 0.9),
    seed=st.integers(0, 100),
    workers=st.integers(2, 4),
    delta0=st.integers(2, 20),
)
def test_property_sharded_parallel_equals_chained_parallel(
    n, p, seed, workers, delta0
):
    g = generators.erdos_renyi(
        n, p, seed=seed, weight=generators.random_weights(seed=seed)
    )
    if g.num_edges < 2:
        return
    sim = compute_similarity_map(g)
    params = CoarseParams(phi=1, delta0=delta0, finalize_root=False)
    chained = parallel_coarse_sweep(
        g, sim, params, num_workers=workers, backend="thread", engine="chained"
    )
    sharded = parallel_coarse_sweep(
        g, sim, params, num_workers=workers, backend="shm", engine="sharded"
    )
    assert chained.dendrogram.merges == sharded.dendrogram.merges
