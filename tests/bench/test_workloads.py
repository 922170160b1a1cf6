"""Tests for the shared benchmark workload builders."""

from __future__ import annotations

from repro.bench.datasets import PRESETS
from repro.bench.workloads import (
    DEFAULT_CHUNK_WORKLOAD,
    Fig5Workload,
    fig5_workload,
    make_chunk_workload,
)
from repro.core.coarse import CoarseParams, coarse_sweep

TINY = PRESETS["tiny"]


class TestFig5Workload:
    def test_fields_consistent(self):
        alpha = TINY.alphas[0]
        work = fig5_workload(alpha, TINY)
        assert isinstance(work, Fig5Workload)
        assert work.alpha == alpha
        assert work.k2 == work.cols.k2 > 0
        assert work.graph.num_edges > 0
        assert isinstance(work.params, CoarseParams)

    def test_columns_sorted_by_default(self):
        import numpy as np

        work = fig5_workload(TINY.alphas[0], TINY)
        # sort_pairs orders by descending similarity first.
        assert np.all(np.diff(work.cols.sim) <= 0)
        unsorted = fig5_workload(TINY.alphas[0], TINY, sort=False)
        assert unsorted.k2 == work.k2

    def test_workload_is_sweepable(self):
        # The whole point: benchmarks feed this straight into the
        # engines without further setup.
        work = fig5_workload(TINY.alphas[0], TINY)
        result = coarse_sweep(
            work.graph, work.cols, params=work.params, engine="batch"
        )
        assert result.num_levels > 0

    def test_env_scale_used_when_preset_omitted(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "tiny")
        work = fig5_workload(TINY.alphas[0])
        assert work.k2 == fig5_workload(TINY.alphas[0], TINY).k2


class TestChunkWorkload:
    def test_default_dimensions(self):
        assert set(DEFAULT_CHUNK_WORKLOAD) == {
            "n", "num_chunks", "pairs_per_chunk",
        }

    def test_make_chunk_workload_honors_defaults(self):
        chunks = make_chunk_workload(seed=0, **DEFAULT_CHUNK_WORKLOAD)
        assert len(chunks) == DEFAULT_CHUNK_WORKLOAD["num_chunks"]
        assert all(
            len(c) == DEFAULT_CHUNK_WORKLOAD["pairs_per_chunk"] for c in chunks
        )
        n = DEFAULT_CHUNK_WORKLOAD["n"]
        assert all(
            0 <= a < n and 0 <= b < n for c in chunks for a, b in c
        )
