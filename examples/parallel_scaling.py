#!/usr/bin/env python3
"""Parallel execution: backends, correctness, and modeled scaling.

Demonstrates Section VI: the parallel initialization (per-worker maps +
hierarchical merge) and the parallel coarse sweep (T copies of array C +
the corrected array-merge scheme), on all three execution backends, plus
the work-model speedup curves that reproduce Figure 6's shape.

Run:  python examples/parallel_scaling.py
"""

import time

from repro.cluster.validation import same_partition
from repro.core.coarse import coarse_sweep
from repro.core.similarity import compute_similarity_map
from repro.graph import generators
from repro.parallel import (
    InitWorkModel,
    SweepWorkModel,
    parallel_coarse_sweep,
    parallel_similarity_map,
)


def main() -> None:
    # Dense enough that K1 << K2 — the regime of the paper's
    # word-association graphs, where the init phase scales well.
    graph = generators.planted_partition(
        4, 20, p_in=0.9, p_out=0.35, seed=7,
        weight=generators.random_weights(seed=7),
    )
    print(f"input graph: {graph}")

    # --- Phase I on every backend -------------------------------------
    t0 = time.perf_counter()
    serial_sim = compute_similarity_map(graph)
    t_serial = time.perf_counter() - t0
    print(f"\nserial init: K1={serial_sim.k1} K2={serial_sim.k2} ({t_serial:.3f}s)")

    for backend in ("thread", "process"):
        t0 = time.perf_counter()
        par_sim = parallel_similarity_map(graph, num_workers=4, backend=backend)
        elapsed = time.perf_counter() - t0
        match = par_sim.k1 == serial_sim.k1 and par_sim.k2 == serial_sim.k2
        print(
            f"{backend:>7} init: identical={match} ({elapsed:.3f}s) "
            "(wall time is GIL/pickling-bound on this box — see the work "
            "model below for the multi-core curve)"
        )

    # --- Phase II: parallel coarse sweep -------------------------------
    from repro.bench.experiments import coarse_params_for

    params = coarse_params_for(graph)
    serial_result = coarse_sweep(graph, serial_sim, params)
    parallel_result = parallel_coarse_sweep(
        graph, serial_sim, params, num_workers=4, backend="thread"
    )
    agree = same_partition(
        serial_result.edge_labels(), parallel_result.edge_labels()
    )
    print(
        f"\ncoarse sweep: serial {serial_result.num_levels} levels, "
        f"parallel {parallel_result.num_levels} levels, "
        f"identical partition: {agree}"
    )

    # Shared-memory multiprocessing: the GIL-free realization — resident
    # worker processes MERGE over rows of one shared block; per chunk
    # only the edge-pair slices cross the process boundary.  Owning the
    # runtime keeps those workers alive across *both* sweeps below (a
    # string backend would respawn them per call).
    # The runtime reports each chunk's cost as runtime:* spans on the
    # sweep's tracer.
    from repro.obs import MemorySink, Tracer
    from repro.parallel import get_sweep_runtime

    sink = MemorySink()
    tracer = Tracer([sink])
    with get_sweep_runtime("shm", 2) as runtime:
        shm_result = parallel_coarse_sweep(
            graph, serial_sim, params, num_workers=2, backend=runtime,
            tracer=tracer,
        )
        parallel_coarse_sweep(
            graph, serial_sim, params, num_workers=2, backend=runtime,
            tracer=tracer,
        )

    def span_ms(name: str) -> float:
        return 1e3 * sum(s.duration for s in sink.spans if s.name == name)

    chunks = sum(1 for s in sink.spans if s.name.startswith("sweep:chunk["))
    print(
        "shared-memory backend identical partition: "
        f"{same_partition(serial_result.edge_labels(), shm_result.edge_labels())}"
    )
    print(
        f"persistent shm runtime: {chunks} chunks over one worker set "
        f"(spawn {span_ms('runtime:spawn'):.1f}ms paid once; "
        f"compute {span_ms('runtime:compute'):.1f}ms, "
        f"merge {span_ms('runtime:merge'):.1f}ms)"
    )

    # --- Figure 6's curves from the deterministic work model -----------
    workers = (1, 2, 4, 6)
    init_model = InitWorkModel(graph)
    sweep_model = SweepWorkModel(serial_result, graph.num_edges)
    print("\nmodeled strong scaling (paper Figure 6 shape):")
    print(f"  {'T':>3} {'init speedup':>13} {'sweep speedup':>14}")
    for t in workers:
        print(
            f"  {t:>3} {init_model.speedup(t):>13.2f} "
            f"{sweep_model.speedup(t):>14.2f}"
        )
    print(
        "\n(init scales near-linearly — vertex partitions are independent;"
        "\n sweeping pays a per-epoch array-merge, so it trails, exactly as"
        "\n in the paper's measurements.  On this toy graph each epoch's"
        "\n chunk is SMALLER than |E|, so the merge overhead dominates and"
        "\n parallel sweeping does not pay off — honesty the paper's 1.6M-"
        "\n edge graphs never face.)"
    )

    # At the paper's published scale (|E| = 1,628,578; tens of epochs
    # processing ~55% of ~1e9 incident pairs) chunk work dwarfs the
    # per-epoch O(|E|) merge, and the same model shows the paper's curve:
    paper_model = SweepWorkModel.from_epoch_pairs(
        epoch_pairs=[12_000_000] * 45, num_edges=1_628_578
    )
    print("\nmodeled sweep speedups at the paper's graph scale:")
    for t in workers:
        print(f"  T={t}: {paper_model.speedup(t):.2f}")


if __name__ == "__main__":
    main()
