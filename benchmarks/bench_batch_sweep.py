"""Chained vs batch sweep engine (the PR's headline claim).

Two sections, both written into ``benchmarks/results/batch_sweep.json``:

- **serial engine**: the batch engine against the chained oracle on the
  serial coarse driver across the Fig. 5 alpha sweep — the per-level
  vectorized contraction replaces the per-pair Python MERGE walk.
- **parallel engines**: both engines through ``parallel_coarse_sweep``
  at >= 4 workers on the largest Fig. 5 graph, asserting the batch
  sweep phase wins by at least 2x (skipped at tiny scale, where
  fixed per-chunk costs dominate either way).

Both sections verify the engines produce identical per-level partitions
before timing them — a benchmark over diverging results would be
meaningless.
"""

from __future__ import annotations

from repro.bench.runner import ResultTable, save_json
from repro.bench.timing import time_call
from repro.bench.workloads import fig5_workload
from repro.cluster.validation import same_partition
from repro.core.coarse import coarse_sweep
from repro.parallel.par_sweep import parallel_coarse_sweep

REPEAT = 3
WORKERS = 4


def _verify_engines_agree(graph, cols, params):
    chained = coarse_sweep(graph, cols, params=params, engine="chained")
    batch = coarse_sweep(graph, cols, params=params, engine="batch")
    assert chained.num_levels == batch.num_levels
    assert same_partition(chained.edge_labels(), batch.edge_labels())


def test_batch_sweep(benchmark, results_dir, preset):
    # -- section 1: serial sweep, chained vs batch ----------------------
    serial_table = ResultTable(
        "Serial coarse sweep: chained vs batch (Fig. 5 workload)",
        ["alpha", "k2", "chained_seconds", "batch_seconds", "speedup"],
    )
    for alpha in preset.alphas:
        work = fig5_workload(alpha, preset)
        graph, cols, params = work.graph, work.cols, work.params
        _verify_engines_agree(graph, cols, params)
        _, t_chained = time_call(
            lambda: coarse_sweep(graph, cols, params=params, engine="chained"),
            repeat=REPEAT,
        )
        _, t_batch = time_call(
            lambda: coarse_sweep(graph, cols, params=params, engine="batch"),
            repeat=REPEAT,
        )
        serial_table.add_row(
            alpha=alpha,
            k2=cols.k2,
            chained_seconds=round(t_chained.minimum, 5),
            batch_seconds=round(t_batch.minimum, 5),
            speedup=round(t_chained.minimum / t_batch.minimum, 2),
        )
    serial_table.show()

    # -- section 2: parallel sweep phase at >= 4 workers ----------------
    parallel_table = ResultTable(
        f"Parallel sweep phase ({WORKERS} workers): chained vs batch",
        [
            "backend", "alpha", "k2",
            "chained_seconds", "batch_seconds", "speedup",
        ],
    )
    top_alpha = preset.alphas[-1]
    work = fig5_workload(top_alpha, preset)
    graph, cols, params = work.graph, work.cols, work.params
    oracle = coarse_sweep(graph, cols, params=params)
    # The chained engine runs on the thread and process backends only.
    for backend in ("thread", "process"):
        result, t_chained = time_call(
            parallel_coarse_sweep,
            graph,
            cols,
            params=params,
            num_workers=WORKERS,
            backend=backend,
            engine="chained",
            repeat=REPEAT,
        )
        assert same_partition(oracle.edge_labels(), result.edge_labels())
        result, t_batch = time_call(
            parallel_coarse_sweep,
            graph,
            cols,
            params=params,
            num_workers=WORKERS,
            backend=backend,
            engine="batch",
            repeat=REPEAT,
        )
        assert same_partition(oracle.edge_labels(), result.edge_labels())
        speedup = t_chained.minimum / t_batch.minimum
        parallel_table.add_row(
            backend=backend,
            alpha=top_alpha,
            k2=cols.k2,
            chained_seconds=round(t_chained.minimum, 5),
            batch_seconds=round(t_batch.minimum, 5),
            speedup=round(speedup, 2),
        )
    parallel_table.show()
    if preset.name != "tiny":
        best = max(row["speedup"] for row in parallel_table.rows)
        assert best >= 2.0, (
            f"batch sweep phase only {best:.2f}x over chained on the "
            f"largest Fig. 5 graph (K2={cols.k2:,}, {WORKERS} workers)"
        )

    save_json(
        {
            "title": "Batch union-find sweep engine",
            "scale": preset.name,
            "workers": WORKERS,
            "serial": serial_table.to_dict(),
            "parallel": parallel_table.to_dict(),
        },
        results_dir / "batch_sweep.json",
    )

    # Steady-state headline number: the batch sweep phase on the largest
    # Fig. 5 graph (pytest-benchmark reports it alongside the JSON).
    benchmark.pedantic(
        lambda: coarse_sweep(graph, cols, params=params, engine="batch"),
        rounds=1,
        iterations=1,
    )
