"""Ablation benchmarks for the design choices DESIGN.md calls out.

1. *Per-vertex-pair similarity dedup* (the core algorithmic win): compare
   Algorithm 1 against naive per-edge-pair evaluation — the gap tracks
   K2 / K1.
2. *Chain structure vs classic DSU* in the sweeping phase.
3. *Adaptive chunk-size estimation vs fixed chunks* in the coarse sweep:
   the adaptive estimator reaches phi with far fewer epochs (each epoch
   pays an O(|E|) cluster count).
4. *Phase cost split*: sort (K1 log K1) vs merge (sqrt(K2) |E|) inside
   the sweeping phase.
"""

from __future__ import annotations

import math

import pytest

from repro.baselines.edge_similarity import all_edge_pair_similarities
from repro.bench.datasets import association_graph
from repro.bench.experiments import coarse_params_for
from repro.bench.runner import ResultTable, save_json
from repro.bench.timing import time_call
from repro.cluster.unionfind import ChainArray, DisjointSet
from repro.core.coarse import coarse_sweep, fixed_chunk_sweep
from repro.core.similarity import compute_similarity_map
from repro.core.sweep import sweep


@pytest.fixture(scope="module")
def mid_graph(preset):
    return association_graph(preset.alphas[len(preset.alphas) // 2], preset)


@pytest.fixture(scope="module")
def mid_sim(mid_graph):
    return compute_similarity_map(mid_graph)


def test_ablation_similarity_dedup(benchmark, preset, results_dir, mid_graph):
    """Algorithm 1 vs naive per-edge-pair similarity (small alpha only —
    the naive path is the thing being shown too slow)."""
    small_graph = association_graph(preset.alphas[0], preset)
    _, t_fast = time_call(compute_similarity_map, small_graph)
    _, t_naive = time_call(all_edge_pair_similarities, small_graph)
    sim = compute_similarity_map(small_graph)

    table = ResultTable(
        "Ablation: per-vertex-pair dedup vs naive per-edge-pair similarity",
        ["variant", "seconds", "pairs_evaluated"],
    )
    table.add_row(variant="algorithm1", seconds=round(t_fast.mean, 5),
                  pairs_evaluated=sim.k1)
    table.add_row(variant="naive", seconds=round(t_naive.mean, 5),
                  pairs_evaluated=sim.k2)
    save_json(table, results_dir / "ablation_similarity.json")
    table.show()

    assert sim.k1 <= sim.k2
    benchmark.pedantic(
        compute_similarity_map, args=(small_graph,), rounds=3, iterations=1
    )


def test_ablation_chain_vs_dsu(benchmark, results_dir, mid_graph, mid_sim):
    """Replay the same merge stream through ChainArray and DisjointSet."""
    pairs = []
    index = list(range(mid_graph.num_edges))
    for _, (vi, vj), commons in mid_sim.sorted_pairs():
        for vk in commons:
            pairs.append(
                (index[mid_graph.edge_id(vi, vk)], index[mid_graph.edge_id(vj, vk)])
            )

    def run_chain():
        chain = ChainArray(mid_graph.num_edges)
        for a, b in pairs:
            chain.merge(a, b)
        return chain

    def run_dsu():
        dsu = DisjointSet(mid_graph.num_edges)
        for a, b in pairs:
            dsu.union(a, b)
        return dsu

    chain, t_chain = time_call(run_chain)
    dsu, t_dsu = time_call(run_dsu)
    assert chain.labels() == dsu.labels()

    table = ResultTable(
        "Ablation: paper's chain structure vs classic DSU",
        ["structure", "seconds", "merge_ops"],
    )
    table.add_row(structure="chain_array", seconds=round(t_chain.mean, 5),
                  merge_ops=len(pairs))
    table.add_row(structure="dsu", seconds=round(t_dsu.mean, 5),
                  merge_ops=len(pairs))
    save_json(table, results_dir / "ablation_chain_vs_dsu.json")
    table.show()

    benchmark.pedantic(run_chain, rounds=3, iterations=1)


def test_ablation_adaptive_vs_fixed_chunks(
    benchmark, results_dir, mid_graph, mid_sim
):
    """Adaptive estimation needs far fewer epochs than fixed chunking for
    a dendrogram of comparable depth."""
    params = coarse_params_for(mid_graph, k2=mid_sim.k2)
    adaptive, t_adaptive = time_call(coarse_sweep, mid_graph, mid_sim, params)
    fixed_chunk = max(1, int(params.delta0))
    fixed, t_fixed = time_call(
        fixed_chunk_sweep, mid_graph, mid_sim, fixed_chunk
    )

    table = ResultTable(
        "Ablation: adaptive chunk estimation vs fixed chunks",
        ["variant", "seconds", "levels", "boundary_evaluations"],
    )
    table.add_row(
        variant="adaptive", seconds=round(t_adaptive.mean, 5),
        levels=adaptive.num_levels, boundary_evaluations=len(adaptive.epochs),
    )
    table.add_row(
        variant=f"fixed({fixed_chunk})", seconds=round(t_fixed.mean, 5),
        levels=len(fixed), boundary_evaluations=len(fixed),
    )
    save_json(table, results_dir / "ablation_chunks.json")
    table.show()

    # The adaptive estimator's whole point: far fewer boundary
    # evaluations (each costs an O(|E|) cluster count) than fixed chunks.
    assert len(adaptive.epochs) < len(fixed)

    benchmark.pedantic(
        coarse_sweep, args=(mid_graph, mid_sim, params), rounds=3, iterations=1
    )


def test_ablation_vectorized_phase1(benchmark, results_dir, mid_graph, mid_sim):
    """Pure-Python Algorithm 1 vs the vectorized columnar Phase I."""
    from repro.fast.similarity import fast_similarity_columns

    cols, t_fast = time_call(fast_similarity_columns, mid_graph)
    _, t_ref = time_call(compute_similarity_map, mid_graph)
    # Same map as the oracle, checked outside the timed calls.
    fast = cols.to_similarity_map()
    assert fast.k1 == mid_sim.k1 and fast.k2 == mid_sim.k2
    for pair, entry in mid_sim.entries.items():
        assert math.isclose(
            fast[pair].similarity, entry.similarity, rel_tol=1e-9, abs_tol=1e-12
        ), pair

    table = ResultTable(
        "Ablation: pure-Python vs vectorized (columnar) Phase I",
        ["variant", "seconds", "k1", "k2"],
    )
    table.add_row(variant="pure_python", seconds=round(t_ref.mean, 5),
                  k1=mid_sim.k1, k2=mid_sim.k2)
    table.add_row(variant="vectorized", seconds=round(t_fast.mean, 5),
                  k1=cols.k1, k2=cols.k2)
    save_json(table, results_dir / "ablation_vectorized.json")
    table.show()

    benchmark.pedantic(
        fast_similarity_columns, args=(mid_graph,), rounds=3, iterations=1
    )


def test_ablation_incremental_density_scan(benchmark, results_dir, mid_graph, mid_sim):
    """Naive per-level partition-density scan vs the incremental scanner."""
    from repro.cluster.density_scan import best_cut
    from repro.cluster.partition import best_partition

    result = sweep(mid_graph, mid_sim)
    (level_fast, density_fast), t_fast = time_call(
        lambda: best_cut(mid_graph, result.dendrogram)
    )
    (_, level_naive, density_naive), t_naive = time_call(
        lambda: best_partition(mid_graph, result.dendrogram)
    )
    assert level_fast == level_naive
    assert abs(density_fast - density_naive) < 1e-9

    table = ResultTable(
        "Ablation: incremental vs naive partition-density scan",
        ["variant", "seconds", "levels_scanned"],
    )
    table.add_row(variant="incremental", seconds=round(t_fast.mean, 5),
                  levels_scanned=result.dendrogram.num_levels)
    table.add_row(variant="naive", seconds=round(t_naive.mean, 5),
                  levels_scanned=result.dendrogram.num_levels)
    save_json(table, results_dir / "ablation_density_scan.json")
    table.show()

    # The incremental scan's whole point.
    assert t_fast.mean <= t_naive.mean

    benchmark.pedantic(
        lambda: best_cut(mid_graph, result.dendrogram), rounds=3, iterations=1
    )


def test_ablation_partition_scheme(benchmark, results_dir, preset):
    """Round-robin vs contiguous vs LPT vertex partitioning in the init
    work model — the paper credits round-robin for pass balance; on a
    skewed (power-law) graph contiguous partitioning loses."""
    from repro.graph import generators
    from repro.parallel.workmodel import InitWorkModel

    graph = generators.barabasi_albert(300, 3, seed=7)
    table = ResultTable(
        "Ablation: vertex partition scheme (init work model, T=6)",
        ["scheme", "speedup_T2", "speedup_T4", "speedup_T6"],
    )
    speedups = {}
    for scheme in ("round_robin", "contiguous", "lpt"):
        model = InitWorkModel(graph, scheme=scheme)
        speedups[scheme] = model.speedup(6)
        table.add_row(
            scheme=scheme,
            speedup_T2=round(model.speedup(2), 2),
            speedup_T4=round(model.speedup(4), 2),
            speedup_T6=round(model.speedup(6), 2),
        )
    save_json(table, results_dir / "ablation_partition_scheme.json")
    table.show()

    # Cost-aware LPT can't lose to the blind schemes; round-robin stays
    # competitive with contiguous (their exact order is graph-dependent).
    assert speedups["lpt"] >= speedups["contiguous"] - 1e-9
    assert speedups["lpt"] >= speedups["round_robin"] - 1e-9
    assert speedups["round_robin"] >= 0.9 * speedups["contiguous"]

    model = InitWorkModel(graph)
    benchmark.pedantic(model.speedup, args=(6,), rounds=3, iterations=1)


def test_ablation_sort_vs_merge_split(benchmark, results_dir, mid_graph, mid_sim):
    """Theorem 2's two sweeping terms: the K1 log K1 sort vs the
    sqrt(K2)|E| merge stream."""
    _, t_sort = time_call(mid_sim.sorted_pairs)
    pairs_sorted = mid_sim.sorted_pairs()

    def merges_only():
        chain = ChainArray(mid_graph.num_edges)
        for _, (vi, vj), commons in pairs_sorted:
            for vk in commons:
                chain.merge(
                    mid_graph.edge_id(vi, vk), mid_graph.edge_id(vj, vk)
                )
        return chain

    _, t_merge = time_call(merges_only)

    table = ResultTable(
        "Ablation: sweeping cost split (sort vs merge stream)",
        ["component", "seconds", "ops"],
    )
    table.add_row(component="sort_L", seconds=round(t_sort.mean, 5), ops=mid_sim.k1)
    table.add_row(component="merge_stream", seconds=round(t_merge.mean, 5),
                  ops=mid_sim.k2)
    save_json(table, results_dir / "ablation_sort_vs_merge.json")
    table.show()

    benchmark.pedantic(mid_sim.sorted_pairs, rounds=3, iterations=1)
