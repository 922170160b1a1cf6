"""Batch vs sharded sweep engine.

Four sections, all written into ``benchmarks/results/sharded_sweep.json``:

- **serial engines**: chained vs batch on the serial coarse driver
  across the Fig. 5 alpha sweep (the sharded engine has no serial
  path).
- **parallel engines**: batch vs sharded through
  ``parallel_coarse_sweep`` at >= 4 workers on the largest Fig. 5
  graph, on the shm arena (the one backend that runs the sharded
  engine), asserting the sharded sweep is no slower (skipped at tiny
  scale, where fixed per-chunk costs dominate).
- **memory**: per-worker resident bytes of array ``C`` — the batch
  engine hands every worker a full ``8n``-byte copy, the sharded
  engine only its widest owned slice — asserting a >= 3x reduction at
  4 workers.
- **boundary traffic**: the ``boundary_edges`` counter from a traced
  sharded run on the arena, asserting the deduplicated cross-shard
  cluster pairs stay well below K2 (the whole point of owner-computes
  sharding).

Every section verifies the engines produce identical partitions before
timing them — a benchmark over diverging results would be meaningless.
"""

from __future__ import annotations

from repro.bench.runner import ResultTable, save_json
from repro.bench.timing import time_call
from repro.bench.workloads import fig5_workload
from repro.cluster.validation import same_partition
from repro.core.coarse import coarse_sweep
from repro.obs import MemorySink, Tracer
from repro.parallel.par_sweep import parallel_coarse_sweep
from repro.parallel.partitioner import ShardedPartition
from repro.parallel.runtime import ShmSweepRuntime

REPEAT = 3
WORKERS = 4


def _verify_engines_agree(graph, cols, params):
    chained = coarse_sweep(graph, cols, params=params, engine="chained")
    batch = coarse_sweep(graph, cols, params=params, engine="batch")
    assert chained.num_levels == batch.num_levels
    assert same_partition(chained.edge_labels(), batch.edge_labels())


def _time_parallel(graph, cols, params, backend, engine, oracle):
    result, timing = time_call(
        parallel_coarse_sweep,
        graph,
        cols,
        params=params,
        num_workers=WORKERS,
        backend=backend,
        engine=engine,
        repeat=REPEAT,
    )
    assert same_partition(oracle.edge_labels(), result.edge_labels())
    return timing.minimum


def test_sharded_sweep(benchmark, results_dir, preset):
    # -- section 1: serial sweep, chained vs batch ----------------------
    serial_table = ResultTable(
        "Serial coarse sweep: chained vs batch (Fig. 5 workload)",
        ["alpha", "k2", "chained_seconds", "batch_seconds"],
    )
    for alpha in preset.alphas:
        work = fig5_workload(alpha, preset)
        graph, cols, params = work.graph, work.cols, work.params
        _verify_engines_agree(graph, cols, params)
        timings = {}
        for engine in ("chained", "batch"):
            _, t = time_call(
                lambda e=engine: coarse_sweep(graph, cols, params=params, engine=e),
                repeat=REPEAT,
            )
            timings[engine] = t.minimum
        serial_table.add_row(
            alpha=alpha,
            k2=cols.k2,
            chained_seconds=round(timings["chained"], 5),
            batch_seconds=round(timings["batch"], 5),
        )
    serial_table.show()

    # -- section 2: parallel sweep phase at >= 4 workers ----------------
    top_alpha = preset.alphas[-1]
    work = fig5_workload(top_alpha, preset)
    graph, cols, params = work.graph, work.cols, work.params
    oracle = coarse_sweep(graph, cols, params=params)
    parallel_table = ResultTable(
        f"Parallel sweep phase ({WORKERS} workers): batch vs sharded",
        ["backend", "alpha", "k2", "batch_seconds", "sharded_seconds", "ratio"],
    )
    with ShmSweepRuntime(WORKERS) as runtime:
        t_batch = _time_parallel(graph, cols, params, runtime, "batch", oracle)
        t_sharded = _time_parallel(graph, cols, params, runtime, "sharded", oracle)
        arena = runtime.arena
        assert arena is not None
        # Owner-computes really ran: shard tasks crossed the queues and
        # no per-worker row copy of C was refreshed.
        assert arena.shard_tasks > 0, arena.shard_tasks
        arena_shard_bytes = arena.shard_bytes

        # -- section 4 (run here, on the warm arena): boundary traffic --
        sink = MemorySink()
        tracer = Tracer([sink])
        traced = parallel_coarse_sweep(
            graph, cols, params=params, num_workers=WORKERS, backend=runtime,
            engine="sharded", tracer=tracer,
        )
        tracer.flush()
    parallel_table.add_row(
        backend="shm",
        alpha=top_alpha,
        k2=cols.k2,
        batch_seconds=round(t_batch, 5),
        sharded_seconds=round(t_sharded, 5),
        ratio=round(t_batch / t_sharded, 2),
    )
    parallel_table.show()
    if preset.name != "tiny":
        worst = min(row["ratio"] for row in parallel_table.rows)
        assert worst >= 1.0, (
            f"sharded sweep phase slower than batch ({worst:.2f}x) on the "
            f"largest Fig. 5 graph (K2={cols.k2:,}, {WORKERS} workers)"
        )

    # -- section 3: per-worker resident C bytes -------------------------
    n = graph.num_edges  # array C has one slot per edge
    part = ShardedPartition.build(n, WORKERS)
    batch_bytes = 8 * n
    sharded_bytes = 8 * part.max_width
    assert arena_shard_bytes == sharded_bytes, (arena_shard_bytes, sharded_bytes)
    reduction = batch_bytes / sharded_bytes
    memory_table = ResultTable(
        f"Per-worker resident C bytes ({WORKERS} workers)",
        ["alpha", "n", "batch_bytes", "sharded_bytes", "reduction"],
    )
    memory_table.add_row(
        alpha=top_alpha,
        n=n,
        batch_bytes=batch_bytes,
        sharded_bytes=sharded_bytes,
        reduction=round(reduction, 2),
    )
    memory_table.show()
    if n >= 16:
        assert reduction >= 3.0, (
            f"sharded per-worker C bytes only {reduction:.2f}x below the "
            f"batch engine's full copy (n={n}, {WORKERS} workers)"
        )

    # -- section 4: boundary traffic stays well below K2 ----------------
    assert same_partition(oracle.edge_labels(), traced.edge_labels())
    boundary = int(sink.counters.get("boundary_edges", 0))
    if preset.name != "tiny":
        assert boundary < 0.5 * cols.k2, (
            f"{boundary:,} deduplicated boundary edges vs K2={cols.k2:,} — "
            "cross-shard traffic should be a small fraction of the stream"
        )

    save_json(
        {
            "title": "Vertex-sharded sweep engine",
            "scale": preset.name,
            "workers": WORKERS,
            "serial": serial_table.to_dict(),
            "parallel": parallel_table.to_dict(),
            "memory": memory_table.to_dict(),
            "boundary": {
                "k2": cols.k2,
                "boundary_edges": boundary,
                "fraction_of_k2": round(boundary / max(1, cols.k2), 4),
            },
        },
        results_dir / "sharded_sweep.json",
    )

    # Steady-state headline number: the sharded sweep on the largest
    # Fig. 5 graph (pytest-benchmark reports it alongside the JSON).
    benchmark.pedantic(
        lambda: parallel_coarse_sweep(
            graph, cols, params=params, num_workers=WORKERS, backend="shm",
            engine="sharded",
        ),
        rounds=1,
        iterations=1,
    )
