"""Observability overhead: tracing must be ~free off and <5% on.

Times the Fig. 5 coarse-sweep workload three ways — no tracer (the
``NULL_TRACER`` fast path), a ``Tracer`` feeding a ``MemorySink``, and a
``Tracer`` feeding a ``JsonLinesSink`` — in alternating rounds, each
sample a run of back-to-back sweeps lasting at least ``MIN_SAMPLE_S``.
Each traced sample is divided by the untraced sample of its round, so
cache/frequency drift cancels out.  The bar: the median in-memory
ratio is less than 5% over the untraced run on the Fig. 5 workload.
"""

from __future__ import annotations

import math
import time

from repro.bench.datasets import association_graph
from repro.bench.experiments import coarse_params_for
from repro.bench.runner import ResultTable, save_json
from repro.core.coarse import coarse_sweep
from repro.core.similarity import compute_similarity_map
from repro.obs import JsonLinesSink, MemorySink, Tracer

#: Alternating off/memory/jsonl rounds; the gate reads the median ratio.
ROUNDS = 9
#: Each timed sample repeats its sweep back to back for at least this
#: long, so a sub-millisecond run (tiny scale) cannot make the gate
#: measure timer and scheduler noise instead of tracing.
MIN_SAMPLE_S = 0.05
OVERHEAD_BUDGET = 0.05


def _sample(fn, reps):
    """Seconds per call of ``fn`` over ``reps`` back-to-back calls."""
    t0 = time.perf_counter()
    for _ in range(reps):
        fn()
    return (time.perf_counter() - t0) / reps


def _median(values):
    ordered = sorted(values)
    return ordered[len(ordered) // 2]


def test_obs_overhead(benchmark, preset, results_dir, tmp_path):
    alpha = preset.alphas[len(preset.alphas) // 2]
    graph = association_graph(alpha, preset)
    sim = compute_similarity_map(graph)
    params = coarse_params_for(graph, k2=sim.k2)

    def run_off():
        coarse_sweep(graph, sim, params)

    def run_memory():
        coarse_sweep(graph, sim, params, tracer=Tracer([MemorySink()]))

    jsonl_path = tmp_path / "overhead_trace.jsonl"

    def run_jsonl():
        tracer = Tracer([JsonLinesSink(jsonl_path)])
        coarse_sweep(graph, sim, params, tracer=tracer)
        tracer.close()
        jsonl_path.unlink()

    variants = {"off": run_off, "memory": run_memory, "jsonl": run_jsonl}
    reps = max(1, math.ceil(MIN_SAMPLE_S / _sample(run_off, 3)))
    # Rotate the variants' order every round so that each meets the
    # same machine states, and compare each traced sample with the
    # untraced one of its own round.
    samples = {name: [] for name in variants}
    names = list(variants)
    for i in range(ROUNDS):
        for name in names[i % len(names):] + names[:i % len(names)]:
            samples[name].append(_sample(variants[name], reps))
    overhead = {
        name: _median([t / off - 1.0 for t, off in zip(times, samples["off"])])
        for name, times in samples.items()
    }
    timings = {name: _median(times) for name, times in samples.items()}

    table = ResultTable(
        "observability overhead (Fig. 5 workload, alpha=%g, %d rounds x %d sweeps)"
        % (alpha, ROUNDS, reps),
        ["variant", "median_time", "overhead"],
    )
    for variant, median_time in timings.items():
        table.add_row(
            variant=variant, median_time=median_time, overhead=overhead[variant]
        )
    save_json(table, results_dir / "obs_overhead.json")
    table.show()

    memory_overhead = overhead["memory"]
    assert memory_overhead < OVERHEAD_BUDGET, (
        f"in-memory tracing costs {memory_overhead:.1%}, "
        f"budget is {OVERHEAD_BUDGET:.0%}"
    )

    benchmark.pedantic(run_memory, rounds=3, iterations=1)
