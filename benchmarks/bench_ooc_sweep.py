"""Out-of-core sweep smoke: tiny budget, forced spill, bitwise identity.

Runs the Fig. 5 association-graph workload through the mmap pair store
with a deliberately tiny ``memory_budget_bytes`` and asserts the
dendrogram is bitwise-identical to the in-memory columnar run at every
level.  The serial rows (chained and batch engines) take the
streaming build, which spills wedge runs and merges them.  The
thread×2 row takes the columns-fed build, which writes list L to the
pair file in budget-sized gather windows and spills nothing.  The
per-graph statistics land in ``benchmarks/results/ooc_sweep.json``
(the CI ``ooc-smoke`` job uploads that file as its artifact).
"""

from __future__ import annotations

from repro.bench.datasets import association_graph
from repro.bench.runner import ResultTable, save_json
from repro.core.coarse import CoarseParams
from repro.core.config import RunConfig
from repro.core.linkclust import LinkClustering
from repro.obs import MemorySink, Tracer

#: ``(engine, backend, workers)``: serial rows stream Phase I into the
#: store; the parallel row builds it from materialized columns.
CELLS = (
    ("chained", "serial", 1),
    ("batch", "serial", 1),
    ("batch", "thread", 2),
)


def _tiny_budget(k1: int, k2: int) -> int:
    """A budget near 1/8 of the pair data: forces ~8 spilled runs at any
    scale while keeping runs multi-pair (both merge shapes exercised)."""
    pair_bytes = k1 * 32 + k2 * 16
    return max(64, pair_bytes // 8)


def _levels(result):
    return [result.labels_at_level(i) for i in range(result.num_levels)]


def test_ooc_sweep_identity(results_dir, preset):
    table = ResultTable(
        "Out-of-core sweep vs in-memory (tiny budget, forced spill)",
        [
            "alpha", "engine", "backend", "k1", "k2", "spill_runs", "bytes_spilled",
            "window_loads", "store_bytes", "levels", "identical",
        ],
    )
    for alpha in preset.alphas:
        graph = association_graph(alpha, preset)
        oracle_cfg = RunConfig(coarse=CoarseParams(), pairs_format="columnar")
        oracle = LinkClustering(graph, config=oracle_cfg).run()
        oracle_levels = _levels(oracle)
        budget = _tiny_budget(oracle.k1, oracle.k2)
        for engine, backend, workers in CELLS:
            tracer = Tracer([MemorySink()])
            cfg = RunConfig(
                coarse=CoarseParams(),
                pairs_format="mmap",
                engine=engine,
                backend=backend,
                num_workers=workers,
                memory_budget_bytes=budget,
            )
            result = LinkClustering(graph, config=cfg, tracer=tracer).run()
            identical = _levels(result) == oracle_levels
            spill_runs = int(tracer.counters.get("spill_runs", 0))
            table.add_row(
                alpha=alpha,
                engine=engine,
                backend=f"{backend}x{workers}",
                k1=result.k1,
                k2=result.k2,
                spill_runs=spill_runs,
                bytes_spilled=int(tracer.counters.get("bytes_spilled", 0)),
                window_loads=int(tracer.counters.get("window_loads", 0)),
                store_bytes=int(tracer.counters.get("store_bytes", 0)),
                levels=result.num_levels,
                identical=identical,
            )
            cell = f"alpha={alpha} engine={engine} backend={backend}x{workers}"
            if backend == "serial":
                assert spill_runs > 1, (
                    f"{cell}: budget {budget} did not force a spill — the "
                    "smoke run exercised nothing"
                )
            assert identical, (
                f"{cell}: out-of-core dendrogram differs from the "
                "in-memory oracle"
            )
    table.show()
    save_json(table, results_dir / "ooc_sweep.json")
