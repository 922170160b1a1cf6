"""Chained-vs-sharded engine equivalence against the serial coarse driver.

Same contract the batch engine is held to: the sharded engine must be
indistinguishable from the serial chained oracle at the dendrogram
level — identical canonical labels at every level, identical epoch
trace, identical level count.  The sharded engine runs only on the shm
arena with two or more workers, so every sweep here runs there, on one
runtime shared by the module; the shard-count invariance of the level
kernel itself is tested in ``tests/parallel/test_sharded_sweep.py``.
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
from repro.graph import generators
from repro.parallel.par_sweep import parallel_coarse_sweep
from repro.parallel.runtime import ShmSweepRuntime

WORKERS = 2


@pytest.fixture(scope="module")
def arena():
    with ShmSweepRuntime(WORKERS) as runtime:
        yield runtime


def sharded_sweep(arena, graph, sim=None, params=None):
    return parallel_coarse_sweep(
        graph, sim, params, num_workers=WORKERS, backend=arena, engine="sharded"
    )


def assert_engines_agree(arena, graph, params, sim=None):
    chained = coarse_sweep(graph, sim, params, engine="chained")
    sharded = sharded_sweep(arena, graph, sim, params)
    assert chained.num_levels == sharded.num_levels
    for level in range(chained.num_levels + 1):
        assert chained.dendrogram.labels_at_level(
            level
        ) == sharded.dendrogram.labels_at_level(level), level
    assert [(e.kind, e.level, e.xi, e.p) for e in chained.epochs] == [
        (e.kind, e.level, e.xi, e.p) for e in sharded.epochs
    ]


class TestShardedEngineSerial:
    """The arena's sharded sweeps against the serial drivers."""

    def test_identical_on_caveman(self, arena, weighted_caveman):
        assert_engines_agree(arena, weighted_caveman, CoarseParams(phi=2, delta0=8))

    def test_identical_on_planted(self, arena, planted):
        assert_engines_agree(arena, planted, CoarseParams(phi=2, delta0=10))

    def test_identical_at_fine_granularity(self, arena, weighted_caveman):
        # delta0=1, phi=1: one wedge-group per chunk — the strictest
        # possible comparison (every level is a single pair's merges).
        assert_engines_agree(
            arena,
            weighted_caveman,
            CoarseParams(phi=1, delta0=1, finalize_root=False),
        )

    def test_matches_batch_engine(self, arena, planted):
        params = CoarseParams(phi=2, delta0=10)
        batch = coarse_sweep(planted, params=params, engine="batch")
        sharded = sharded_sweep(arena, planted, params=params)
        assert batch.num_levels == sharded.num_levels
        for level in range(batch.num_levels + 1):
            assert batch.dendrogram.labels_at_level(
                level
            ) == sharded.dendrogram.labels_at_level(level)

    def test_columnar_map_accepted_directly(self, arena, planted):
        sim = SimilarityColumns.from_similarity_map(compute_similarity_map(planted))
        assert_engines_agree(arena, planted, CoarseParams(phi=2, delta0=10), sim=sim)

    def test_full_sharded_sweep_matches_fine(self, arena, weighted_caveman):
        fine = sweep(weighted_caveman)
        sharded = sharded_sweep(
            arena,
            weighted_caveman,
            params=CoarseParams(phi=1, delta0=10, finalize_root=False),
        )
        assert same_partition(fine.edge_labels(), sharded.edge_labels())

    def test_chain_invariant_holds_after_sharded_run(self, arena, planted):
        result = sharded_sweep(arena, planted, params=CoarseParams(phi=2, delta0=10))
        raw = result.chain.raw()
        assert all(raw[i] <= i for i in range(len(raw)))
        assert result.chain.num_clusters() == len(set(result.chain.labels()))


@settings(max_examples=15, deadline=None)
@given(
    n=st.integers(5, 12),
    p=st.floats(0.3, 0.9),
    seed=st.integers(0, 200),
    delta0=st.integers(1, 20),
    phi=st.integers(1, 4),
)
def test_property_sharded_equals_chained(arena, n, p, seed, delta0, phi):
    g = generators.erdos_renyi(
        n, p, seed=seed, weight=generators.random_weights(seed=seed)
    )
    if g.num_edges < 2:
        return
    assert_engines_agree(arena, g, CoarseParams(phi=phi, delta0=delta0))
