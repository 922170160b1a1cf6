#!/usr/bin/env python3
"""All five link clustering implementations, side by side.

Runs the paper's sweeping algorithm, its coarse-grained variant, and the
three baselines (next-best-merge, SLINK, Kruskal/MST) on one graph,
timing each and verifying they produce the same clustering — the
reproduction's central equivalence, live.

Run:  python examples/compare_baselines.py
"""

import time

from repro.baselines.mst import mst_link_clustering
from repro.baselines.nbm import nbm_link_clustering
from repro.baselines.slink import slink_link_clustering
from repro.cluster.unionfind import DisjointSet
from repro.cluster.validation import same_partition
from repro.core.coarse import CoarseParams, coarse_sweep
from repro.core.similarity import compute_similarity_map
from repro.core.sweep import sweep
from repro.fast.similarity import fast_similarity_columns
from repro.graph import generators


def slink_labels(graph, sim):
    rep = slink_link_clustering(graph, sim)
    dsu = DisjointSet(graph.num_edges)
    for i, (pi, lam) in enumerate(zip(rep.pi, rep.lam)):
        if lam < 1.0 - 1e-12:
            dsu.union(i, pi)
    return dsu.labels()


def main() -> None:
    graph = generators.planted_partition(
        4, 12, p_in=0.7, p_out=0.08, seed=17,
        weight=generators.random_weights(seed=17),
    )
    print(f"input graph: {graph}")
    sim = compute_similarity_map(graph)
    print(f"K1={sim.k1} vertex pairs, K2={sim.k2} incident edge pairs\n")

    runs = {}

    start = time.perf_counter()
    runs["sweeping (paper)"] = sweep(graph, sim).edge_labels()
    t_sweep = time.perf_counter() - start

    start = time.perf_counter()
    runs["coarse-grained"] = coarse_sweep(
        graph, sim, CoarseParams(phi=1, delta0=50, finalize_root=False)
    ).edge_labels()
    t_coarse = time.perf_counter() - start

    start = time.perf_counter()
    runs["fast (vectorized)"] = sweep(
        graph, fast_similarity_columns(graph)
    ).edge_labels()
    t_fast = time.perf_counter() - start

    start = time.perf_counter()
    runs["NBM O(n^2)"] = nbm_link_clustering(graph, sim).dendrogram.labels_at_level(
        10 ** 9
    )
    t_nbm = time.perf_counter() - start

    start = time.perf_counter()
    runs["SLINK"] = slink_labels(graph, sim)
    t_slink = time.perf_counter() - start

    start = time.perf_counter()
    runs["MST (Gower-Ross)"] = mst_link_clustering(graph, sim).edge_labels()
    t_mst = time.perf_counter() - start

    times = {
        "sweeping (paper)": t_sweep,
        "coarse-grained": t_coarse,
        "fast (vectorized)": t_fast,
        "NBM O(n^2)": t_nbm,
        "SLINK": t_slink,
        "MST (Gower-Ross)": t_mst,
    }

    reference = runs["sweeping (paper)"]
    print(f"{'algorithm':<20} {'seconds':>9}  same partition?")
    print("-" * 48)
    for name, labels in runs.items():
        agree = same_partition(reference, labels)
        print(f"{name:<20} {times[name]:>9.4f}  {agree}")

    assert all(same_partition(reference, labels) for labels in runs.values())
    print("\nall six implementations agree.")


if __name__ == "__main__":
    main()
