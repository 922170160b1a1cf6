"""Chained-vs-sharded engine equivalence on the serial coarse driver.

Same contract the batch engine is held to: the sharded engine must be
indistinguishable from the chained oracle at the dendrogram level —
identical canonical labels at every level, identical epoch trace,
identical level count — for every shard count, including the degenerate
ones (one shard, more shards than edges).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.validation import same_partition
from repro.core.coarse import CoarseParams, coarse_sweep
from repro.core.simcolumns import SimilarityColumns
from repro.core.similarity import compute_similarity_map
from repro.core.sweep import sweep
from repro.errors import ParameterError
from repro.graph import generators


def assert_engines_agree(graph, params, sim=None, num_shards=None):
    chained = coarse_sweep(graph, sim, params, engine="chained")
    sharded = coarse_sweep(
        graph, sim, params, engine="sharded", num_shards=num_shards
    )
    assert chained.num_levels == sharded.num_levels
    for level in range(chained.num_levels + 1):
        assert chained.dendrogram.labels_at_level(
            level
        ) == sharded.dendrogram.labels_at_level(level), level
    assert [(e.kind, e.level, e.xi, e.p) for e in chained.epochs] == [
        (e.kind, e.level, e.xi, e.p) for e in sharded.epochs
    ]


class TestShardedEngineSerial:
    def test_identical_on_caveman(self, weighted_caveman):
        assert_engines_agree(weighted_caveman, CoarseParams(phi=2, delta0=8))

    def test_identical_on_planted(self, planted):
        assert_engines_agree(planted, CoarseParams(phi=2, delta0=10))

    def test_identical_at_fine_granularity(self, weighted_caveman):
        # delta0=1, phi=1: one wedge-group per chunk — the strictest
        # possible comparison (every level is a single pair's merges).
        assert_engines_agree(
            weighted_caveman, CoarseParams(phi=1, delta0=1, finalize_root=False)
        )

    @pytest.mark.parametrize("num_shards", [1, 2, 3, 7])
    def test_identical_for_every_shard_count(self, planted, num_shards):
        assert_engines_agree(
            planted, CoarseParams(phi=2, delta0=10), num_shards=num_shards
        )

    def test_more_shards_than_edges(self, triangle):
        # K3 has 3 edges; 64 shards clamp to 3 single-edge owners.
        assert_engines_agree(
            triangle, CoarseParams(phi=1, delta0=2), num_shards=64
        )

    def test_matches_batch_engine(self, planted):
        params = CoarseParams(phi=2, delta0=10)
        batch = coarse_sweep(planted, params=params, engine="batch")
        sharded = coarse_sweep(planted, params=params, engine="sharded")
        assert batch.num_levels == sharded.num_levels
        for level in range(batch.num_levels + 1):
            assert batch.dendrogram.labels_at_level(
                level
            ) == sharded.dendrogram.labels_at_level(level)

    def test_columnar_map_accepted_directly(self, planted):
        sim = SimilarityColumns.from_similarity_map(compute_similarity_map(planted))
        assert_engines_agree(planted, CoarseParams(phi=2, delta0=10), sim=sim)

    def test_full_sharded_sweep_matches_fine(self, weighted_caveman):
        fine = sweep(weighted_caveman)
        sharded = coarse_sweep(
            weighted_caveman,
            params=CoarseParams(phi=1, delta0=10, finalize_root=False),
            engine="sharded",
        )
        assert same_partition(fine.edge_labels(), sharded.edge_labels())

    def test_chain_invariant_holds_after_sharded_run(self, planted):
        result = coarse_sweep(
            planted, params=CoarseParams(phi=2, delta0=10), engine="sharded"
        )
        raw = result.chain.raw()
        assert all(raw[i] <= i for i in range(len(raw)))
        assert result.chain.num_clusters() == len(set(result.chain.labels()))


class TestShardedKnobValidation:
    def test_num_shards_requires_sharded(self, triangle):
        with pytest.raises(ParameterError, match="num_shards"):
            coarse_sweep(
                triangle, params=CoarseParams(), engine="batch", num_shards=2
            )

    def test_num_shards_must_be_positive(self, triangle):
        with pytest.raises(ParameterError, match="num_shards"):
            coarse_sweep(
                triangle, params=CoarseParams(), engine="sharded", num_shards=0
            )


@settings(max_examples=15, deadline=None)
@given(
    n=st.integers(5, 12),
    p=st.floats(0.3, 0.9),
    seed=st.integers(0, 200),
    delta0=st.integers(1, 20),
    phi=st.integers(1, 4),
    shards=st.integers(1, 6),
)
def test_property_sharded_equals_chained(n, p, seed, delta0, phi, shards):
    g = generators.erdos_renyi(
        n, p, seed=seed, weight=generators.random_weights(seed=seed)
    )
    if g.num_edges < 2:
        return
    assert_engines_agree(
        g, CoarseParams(phi=phi, delta0=delta0), num_shards=shards
    )
