"""Dict vs columnar similarity pipeline.

Two sections, both written into ``benchmarks/results/columnar.json``:

- **init + sort** over the Fig. 5 association-graph workload: the
  columnar path (``fast_similarity_columns`` + one lexsort) against the
  pure-Python dict reference (``compute_similarity_map`` +
  ``sorted_pairs``), asserting the columnar side wins by at least 3x on
  the largest graph (skipped at tiny scale, where fixed array setup
  costs dominate).
- **shm zero-copy**: a columnar batch-engine coarse sweep through the
  shm runtime publishes the sorted pair columns to shared memory once
  and dispatches bare index ranges — the arena counters prove no
  per-chunk pair data crossed the task queue.
"""

from __future__ import annotations

from repro.bench.datasets import association_graph
from repro.bench.runner import ResultTable, save_json
from repro.bench.timing import time_call
from repro.bench.workloads import fig5_workload
from repro.cluster.validation import same_partition
from repro.core.coarse import coarse_sweep
from repro.core.similarity import compute_similarity_map
from repro.fast.similarity import fast_similarity_columns
from repro.parallel.par_sweep import parallel_coarse_sweep
from repro.parallel.runtime import ShmSweepRuntime

REPEAT = 3


def _time_init_sort(graph):
    """Best-of-``REPEAT`` seconds for both pipelines on ``graph``."""
    # Warm both paths (triu template cache, numpy import side effects).
    dict_map = compute_similarity_map(graph)
    dict_map.sorted_pairs()
    cols = fast_similarity_columns(graph)
    cols.sort_pairs()
    _, t_dict = time_call(
        lambda: compute_similarity_map(graph).sorted_pairs(), repeat=REPEAT
    )
    _, t_col = time_call(
        lambda: fast_similarity_columns(graph).sort_pairs(), repeat=REPEAT
    )
    assert cols.k1 == dict_map.k1 and cols.k2 == dict_map.k2
    return cols, t_dict.minimum, t_col.minimum


def test_columnar_pipeline(benchmark, results_dir, preset):
    # -- section 1: init + sort over the Fig. 5 alpha sweep ------------
    init_table = ResultTable(
        "Columnar vs dict: init + sort (Fig. 5 workload)",
        ["alpha", "k2", "dict_seconds", "columnar_seconds", "speedup"],
    )
    for alpha in preset.alphas:
        graph = association_graph(alpha, preset)
        cols, t_dict, t_col = _time_init_sort(graph)
        init_table.add_row(
            alpha=alpha,
            k2=cols.k2,
            dict_seconds=round(t_dict, 5),
            columnar_seconds=round(t_col, 5),
            speedup=round(t_dict / t_col, 2),
        )
    init_table.show()
    if preset.name != "tiny":
        top = init_table.rows[-1]
        assert top["speedup"] >= 3.0, (
            f"columnar init+sort only {top['speedup']:.2f}x over dict "
            f"on the largest Fig. 5 graph (K2={top['k2']:,})"
        )

    # -- section 2: shm ships sorted pairs zero-copy --------------------
    shm_table = ResultTable(
        "Columnar shm transport (batch coarse sweep, 2 workers)",
        ["alpha", "k2", "seconds", "batch_tasks", "pair_loads"],
    )
    mid_alpha = preset.alphas[len(preset.alphas) // 2]
    work = fig5_workload(mid_alpha, preset, sort=False)
    graph, cols, params = work.graph, work.cols, work.params
    serial = coarse_sweep(graph, cols, params=params)
    with ShmSweepRuntime(2) as runtime:
        result, stats = time_call(
            parallel_coarse_sweep,
            graph,
            cols,
            params=params,
            num_workers=2,
            backend=runtime,
            engine="batch",
        )
        arena = runtime.arena
        assert arena is not None
        # The whole point: pair columns were published to shared memory
        # exactly once and every chunk crossed the queue as an index range.
        assert arena.pair_loads == 1, arena.pair_loads
        assert arena.batch_tasks > 0
        shm_table.add_row(
            alpha=mid_alpha,
            k2=cols.k2,
            seconds=round(stats.mean, 5),
            batch_tasks=arena.batch_tasks,
            pair_loads=arena.pair_loads,
        )
    assert same_partition(
        result.dendrogram.labels_at_level(result.dendrogram.num_levels),
        serial.dendrogram.labels_at_level(serial.dendrogram.num_levels),
    )
    shm_table.show()

    save_json(
        {
            "title": "Columnar similarity pipeline",
            "scale": preset.name,
            "init_sort": init_table.to_dict(),
            "shm_zero_copy": shm_table.to_dict(),
        },
        results_dir / "columnar.json",
    )

    # Steady-state headline number: columnar init + sort on the largest
    # Fig. 5 graph (pytest-benchmark reports it alongside the JSON).
    big = association_graph(preset.alphas[-1], preset)
    benchmark.pedantic(
        lambda: fast_similarity_columns(big).sort_pairs(), rounds=1, iterations=1
    )
