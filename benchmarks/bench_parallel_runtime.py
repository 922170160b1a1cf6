"""Persistent runtime vs per-chunk spawning.

The paper starts its pthreads once per run; the pre-runtime reproduction
paid executor construction (and, for ``shm``, block allocate/unlink plus
process forks) on *every* chunk.  This benchmark drives an identical
many-chunk workload both ways through each process-based backend and
asserts that the persistent runtime wins by at least 2x.

Writes ``benchmarks/results/parallel_runtime.json``.
"""

from __future__ import annotations

import numpy as np

from repro.bench.parallel_runtime import runtime_spawn_comparison
from repro.bench.runner import save_json
from repro.bench.workloads import DEFAULT_CHUNK_WORKLOAD, make_chunk_workload
from repro.parallel.runtime import get_sweep_runtime

_WORKLOAD = DEFAULT_CHUNK_WORKLOAD


def test_persistent_runtime_speedup(benchmark, results_dir):
    table = runtime_spawn_comparison(
        backends=("thread", "process", "shm"), num_workers=2, **_WORKLOAD
    )
    save_json(table, results_dir / "parallel_runtime.json")
    table.show()

    by_key = {(row["backend"], row["strategy"]): row for row in table.rows}
    for backend in ("thread", "process", "shm"):
        # both strategies must compute the same final partition
        assert by_key[(backend, "persistent")]["labels_match"], backend
    for backend in ("process", "shm"):
        row = by_key[(backend, "persistent")]
        assert row["speedup"] >= 2.0, (
            f"{backend}: persistent runtime only "
            f"{row['speedup']:.2f}x over per-chunk spawning"
        )

    # time the steady state: one persistent runtime over the whole
    # workload, its pair columns loaded once and each chunk a window
    chunks = make_chunk_workload(seed=0, **_WORKLOAD)
    i1 = [a for pairs in chunks for a, _ in pairs]
    i2 = [b for pairs in chunks for _, b in pairs]
    step = _WORKLOAD["pairs_per_chunk"]

    def run_persistent():
        with get_sweep_runtime("process", 2) as runtime:
            runtime.load_pairs(i1, i2)
            labels = np.arange(_WORKLOAD["n"], dtype=np.int64)
            for lo in range(0, len(i1), step):
                labels = runtime.chunk_batch_range(labels, lo, lo + step)
            return labels

    benchmark.pedantic(run_persistent, rounds=1, iterations=1)
