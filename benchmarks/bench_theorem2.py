"""Empirical validation of Theorem 2's complexity bound.

Theorem 2: the sweeping algorithm accesses array ``C`` at most
``O(K2 + sqrt(K2) |E|)`` times (the appendix derives
``X (X - K2) <= K2 |E|^2`` for the total chain length ``X``, giving
``X <= K2 + sqrt(K2) |E|``).  The instrumented chain array counts every
element visited by MERGE, so the *exact* inequality — not just the
asymptotic form — can be checked on every graph family the paper's
analysis discusses: k-regular (circulant), complete, power-law,
planted-partition, and the word-association sweep itself.

Each family is also swept over the columnar form of the same map, whose
MERGE loop is the ``ChainArray.merge_run`` kernel; its ``accesses`` and
``changes`` must equal the dict sweep's, which calls ``merge`` per wedge.
"""

from __future__ import annotations

import math


from repro.bench.datasets import association_graph
from repro.bench.runner import ResultTable, save_json
from repro.core.metrics import compute_metrics
from repro.core.simcolumns import SimilarityColumns
from repro.core.similarity import compute_similarity_map
from repro.core.sweep import sweep
from repro.graph import generators


def _families(preset):
    yield "circulant(120,4)", generators.circulant_graph(120, 4)
    yield "complete(24)", generators.complete_graph(
        24, weight=generators.random_weights(seed=1)
    )
    yield "barabasi_albert(150,3)", generators.barabasi_albert(150, 3, seed=2)
    yield "planted(4x15)", generators.planted_partition(
        4, 15, 0.7, 0.1, seed=3, weight=generators.random_weights(seed=3)
    )
    mid_alpha = preset.alphas[len(preset.alphas) // 2]
    yield f"word_assoc(alpha={mid_alpha})", association_graph(mid_alpha, preset)


def test_theorem2_access_bound(benchmark, preset, results_dir):
    table = ResultTable(
        "Theorem 2: measured C-array accesses vs the K2 + sqrt(K2)|E| bound",
        ["family", "edges", "k2", "accesses", "bound", "utilization"],
    )
    worst = 0.0
    last_graph = None
    for family, graph in _families(preset):
        metrics = compute_metrics(graph)
        sim = compute_similarity_map(graph)
        result = sweep(graph, sim)
        accesses = result.chain.accesses
        columnar = sweep(graph, SimilarityColumns.from_similarity_map(sim))
        assert columnar.chain.accesses == accesses, family
        assert columnar.chain.changes == result.chain.changes, family
        # Exact form from the appendix: X <= K2 + sqrt(K2) * |E|, and the
        # algorithm touches 2X elements in total.
        bound = 2.0 * (
            metrics.k2 + math.sqrt(metrics.k2) * metrics.num_edges
        )
        utilization = accesses / bound if bound else 0.0
        worst = max(worst, utilization)
        table.add_row(
            family=family,
            edges=metrics.num_edges,
            k2=metrics.k2,
            accesses=accesses,
            bound=round(bound),
            utilization=round(utilization, 4),
        )
        last_graph = graph
    save_json(table, results_dir / "theorem2_bound.json")
    table.show()

    # The inequality must hold everywhere, with real slack.
    assert worst <= 1.0, f"Theorem 2 bound violated: utilization {worst}"

    sim = compute_similarity_map(last_graph)
    benchmark.pedantic(sweep, args=(last_graph, sim), rounds=3, iterations=1)
