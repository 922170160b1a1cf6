"""Figure 6 reproduction: multi-threading evaluation.

The sandbox exposes a single CPU core, so wall-clock 6-way scaling is
physically unobtainable here; speedups come from the deterministic work
model that accounts the exact partition/merge structure of Sections
VI-A/VI-B (see DESIGN.md's substitution table).  The thread backend's
*correctness* on the same structure is covered by the test suite; this
file additionally benchmarks the real thread-backend kernels so their
overhead is visible in the pytest-benchmark table.

Paper's shape: initialization speedups ~2.0x (2 threads), 3.5-4.0x (4),
4.5-5.0x (6), comparable across alpha; sweeping speedups increase but
stay below the init phase's.
"""

from __future__ import annotations

from repro.bench.datasets import association_graph
from repro.bench.experiments import (
    WORKER_COUNTS,
    coarse_params_for,
    fig6_1_init_speedup,
    fig6_2_sweep_speedup,
)
from repro.bench.runner import save_json
from repro.core.similarity import compute_similarity_map
from repro.parallel.par_init import parallel_similarity_columns
from repro.parallel.par_sweep import parallel_coarse_sweep


def test_fig6_1_init_speedup(benchmark, preset, results_dir):
    table = fig6_1_init_speedup(preset=preset)
    save_json(table, results_dir / "fig6_1_init_speedup.json")
    table.show()

    for row in table.rows:
        assert row["T=1"] == 1.0
        # speedups increase with workers and stay physical
        values = [row[f"T={t}"] for t in WORKER_COUNTS]
        assert all(b >= a * 0.9 for a, b in zip(values, values[1:]))
        assert values[-1] <= 6.0
    # Paper's band at the largest graphs: near-2x at 2 threads and
    # clearly super-3x at 6 (4.5-5.0 in the paper).
    last = table.rows[-1]
    assert last["T=2"] >= 1.7
    assert last["T=6"] >= 3.0

    alpha = preset.alphas[len(preset.alphas) // 2]
    graph = association_graph(alpha, preset)
    benchmark.pedantic(
        parallel_similarity_columns,
        args=(graph,),
        kwargs={"num_workers": 4, "backend": "thread"},
        rounds=1,
        iterations=1,
    )


def test_fig6_2_sweep_speedup(benchmark, preset, results_dir):
    table = fig6_2_sweep_speedup(preset=preset)
    save_json(table, results_dir / "fig6_2_sweep_speedup.json")
    table.show()

    for row in table.rows:
        assert row["T=1"] == 1.0
        assert 0.0 < row[f"T={WORKER_COUNTS[-1]}"] <= 6.0
    # Sweeping scales on the larger graphs (chunk work dominates the
    # per-epoch array-merge serialization there) but below the init phase.
    init_rows = fig6_1_init_speedup(preset=preset).rows
    last_sweep = table.rows[-1]
    last_init = init_rows[-1]
    assert last_sweep["T=6"] > 1.0
    assert last_sweep["T=6"] <= last_init["T=6"] + 0.5

    alpha = preset.alphas[len(preset.alphas) // 2]
    graph = association_graph(alpha, preset)
    sim = compute_similarity_map(graph)
    params = coarse_params_for(graph, k2=sim.k2)
    benchmark.pedantic(
        parallel_coarse_sweep,
        args=(graph, sim, params),
        kwargs={"num_workers": 4, "backend": "thread"},
        rounds=1,
        iterations=1,
    )
