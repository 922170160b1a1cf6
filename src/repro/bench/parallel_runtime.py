"""Persistent-runtime benchmark: per-chunk spawning vs. resident workers.

The paper's pthreads are started once per run; Section VI-B's speedups
assume thread startup is amortized across every chunk.  This experiment
quantifies what the reproduction pays when it is *not*: the same
many-chunk workload is driven twice per backend —

* ``per_chunk``   — a fresh :class:`~repro.parallel.runtime.SweepRuntime`
  is started and shut down around every chunk (executor construction,
  process forks, and — for ``shm`` — shared-block allocate/unlink each
  time), which is what the pre-runtime code effectively did;
* ``persistent``  — one runtime serves all chunks (the paper's model).

Chunks travel the sweep's own transport: the workload's pair columns
are loaded into each runtime and every chunk is a ``[start, stop)``
window of them.  The ``spawn`` / ``copy`` / ``compute`` / ``merge``
breakdown is the sum of the runtime's ``runtime:*`` tracer spans.
"""

from __future__ import annotations

import random
import time
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.bench.runner import ResultTable
from repro.cluster.unionfind import ChainArray
from repro.errors import ParameterError
from repro.obs import MemorySink, Tracer
from repro.parallel.runtime import SweepRuntime, get_sweep_runtime

__all__ = ["make_chunk_workload", "runtime_spawn_comparison"]

#: The chunk cost parts, one ``runtime:<part>`` span name each.
RUNTIME_PARTS = ("spawn", "copy", "compute", "merge")


def make_chunk_workload(
    n: int, num_chunks: int, pairs_per_chunk: int, seed: int = 0
) -> List[List[Tuple[int, int]]]:
    """A deterministic many-chunk merge workload over ``n`` array slots."""
    if n < 2:
        raise ParameterError(f"need n >= 2, got {n}")
    rng = random.Random(seed)
    return [
        [(rng.randrange(n), rng.randrange(n)) for _ in range(pairs_per_chunk)]
        for _ in range(num_chunks)
    ]


def _drive(
    backend: str,
    num_workers: int,
    n: int,
    chunks: Sequence[Sequence[Tuple[int, int]]],
    persistent: bool,
) -> Tuple[float, Dict[str, float], List[int]]:
    """Apply ``chunks`` sequentially; return (wall seconds, part seconds, labels)."""
    i1 = np.array([a for pairs in chunks for a, _ in pairs], dtype=np.int64)
    i2 = np.array([b for pairs in chunks for _, b in pairs], dtype=np.int64)
    bounds = np.cumsum([0] + [len(pairs) for pairs in chunks]).tolist()
    windows = list(zip(bounds[:-1], bounds[1:]))
    sink = MemorySink()
    tracer = Tracer([sink])

    def open_runtime() -> SweepRuntime:
        runtime = get_sweep_runtime(backend, num_workers)
        runtime.tracer = tracer
        runtime.load_pairs(i1, i2)
        return runtime

    chain = ChainArray(n)
    start = time.perf_counter()
    if persistent:
        with open_runtime() as runtime:
            for lo, hi in windows:
                chain = runtime.chunk_merge_range(chain, lo, hi)
    else:
        for lo, hi in windows:
            with open_runtime() as runtime:
                chain = runtime.chunk_merge_range(chain, lo, hi)
    elapsed = time.perf_counter() - start
    parts = {part: 0.0 for part in RUNTIME_PARTS}
    for span in sink.spans:
        part = span.name.removeprefix("runtime:")
        if part in parts:
            parts[part] += span.duration
    return elapsed, parts, chain.labels()


def runtime_spawn_comparison(
    backends: Sequence[str] = ("thread", "process", "shm"),
    num_workers: int = 2,
    n: int = 2000,
    num_chunks: int = 12,
    pairs_per_chunk: int = 60,
    seed: int = 0,
) -> ResultTable:
    """Compare per-chunk runtime spawning against one persistent runtime.

    Every backend processes the identical workload both ways; rows
    report wall time, the spawn/copy/compute/merge split, the resulting
    speedup, and a cross-check that both strategies produced the same
    final partition.
    """
    chunks = make_chunk_workload(n, num_chunks, pairs_per_chunk, seed)
    table = ResultTable(
        "persistent runtime vs per-chunk spawning "
        f"(T={num_workers}, {num_chunks} chunks x {pairs_per_chunk} pairs, n={n})",
        [
            "backend",
            "strategy",
            "wall_s",
            "spawn_s",
            "copy_s",
            "compute_s",
            "merge_s",
            "speedup",
            "labels_match",
        ],
    )
    for backend in backends:
        results: Dict[str, Tuple[float, Dict[str, float], List[int]]] = {}
        for strategy, persistent in (("per_chunk", False), ("persistent", True)):
            results[strategy] = _drive(backend, num_workers, n, chunks, persistent)
        base_wall = results["per_chunk"][0]
        match = results["per_chunk"][2] == results["persistent"][2]
        for strategy in ("per_chunk", "persistent"):
            wall, parts, _ = results[strategy]
            table.add_row(
                backend=backend,
                strategy=strategy,
                wall_s=wall,
                **{f"{part}_s": parts[part] for part in RUNTIME_PARTS},
                speedup=base_wall / wall if wall else float("inf"),
                labels_match=match,
            )
    return table
