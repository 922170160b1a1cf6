"""Chained-vs-batch engine equivalence on the serial coarse driver.

The batch engine must be indistinguishable from the chained oracle at
the dendrogram level: same canonical labels at every level, same epoch
trace (chunk boundaries depend only on pair counts), same level count.
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


def assert_engines_agree(graph, params, sim=None):
    chained = coarse_sweep(graph, sim, params, engine="chained")
    batch = coarse_sweep(graph, sim, params, engine="batch")
    assert chained.num_levels == batch.num_levels
    for level in range(chained.num_levels + 1):
        assert chained.dendrogram.labels_at_level(
            level
        ) == batch.dendrogram.labels_at_level(level), level
    assert [(e.kind, e.level, e.xi, e.p) for e in chained.epochs] == [
        (e.kind, e.level, e.xi, e.p) for e in batch.epochs
    ]


class TestBatchEngineSerial:
    def test_engine_validated(self, triangle):
        with pytest.raises(ParameterError, match="engine"):
            coarse_sweep(triangle, params=CoarseParams(), engine="quantum")

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

    def test_dict_map_converted_up_front(self, planted):
        # A dict SimilarityMap is accepted and converted losslessly to
        # the columnar stream the batch kernels need.
        sim = compute_similarity_map(planted)
        params = CoarseParams(phi=2, delta0=10)
        chained = coarse_sweep(planted, sim, params, engine="chained")
        batch = coarse_sweep(planted, sim, params, engine="batch")
        assert same_partition(chained.edge_labels(), batch.edge_labels())

    def test_columnar_map_accepted_directly(self, planted):
        sim = SimilarityColumns.from_similarity_map(compute_similarity_map(planted))
        assert_engines_agree(planted, CoarseParams(phi=2, delta0=10), sim=sim)

    def test_full_batch_sweep_matches_fine(self, weighted_caveman):
        fine = sweep(weighted_caveman)
        batch = coarse_sweep(
            weighted_caveman,
            params=CoarseParams(phi=1, delta0=10, finalize_root=False),
            engine="batch",
        )
        assert same_partition(fine.edge_labels(), batch.edge_labels())

    def test_chain_invariant_holds_after_batch_run(self, planted):
        result = coarse_sweep(
            planted, params=CoarseParams(phi=2, delta0=10), engine="batch"
        )
        raw = result.chain.raw()
        assert all(raw[i] <= i for i in range(len(raw)))
        assert result.chain.num_clusters() == len(set(result.chain.labels()))

    @pytest.mark.parametrize(
        "backend, engine",
        [
            pytest.param(backend, engine, id=f"{backend}-{engine}")
            for backend in (None, "thread", "shm")
            for engine in ("batch", "sharded")
            # The sharded engine runs on the shm arena only.
            if engine == "batch" or backend == "shm"
        ],
    )
    def test_label_state_builds_one_chain_array(
        self, planted, monkeypatch, engine, backend
    ):
        """The level state is a label array on every backend: the only
        ChainArray a batch or sharded sweep builds is the result's."""
        from repro.cluster.unionfind import ChainArray
        from repro.parallel.par_sweep import parallel_coarse_sweep

        built = []
        real_init = ChainArray.__init__
        real_copy = ChainArray.copy

        def counting_init(chain, *args, **kwargs):
            built.append("init")
            real_init(chain, *args, **kwargs)

        def counting_copy(chain):
            built.append("copy")
            return real_copy(chain)

        monkeypatch.setattr(ChainArray, "__init__", counting_init)
        monkeypatch.setattr(ChainArray, "copy", counting_copy)
        params = CoarseParams(phi=2, delta0=5)
        if backend is None:
            result = coarse_sweep(planted, params=params, engine=engine)
        else:
            result = parallel_coarse_sweep(
                planted, params=params, num_workers=2, backend=backend, engine=engine
            )
        assert built == ["init"]
        assert result.num_levels > 1


@settings(max_examples=15, deadline=None)
@given(
    n=st.integers(5, 12),
    p=st.floats(0.3, 0.9),
    seed=st.integers(0, 200),
    delta0=st.integers(1, 20),
    phi=st.integers(1, 4),
)
def test_property_batch_equals_chained(n, p, seed, delta0, phi):
    g = generators.erdos_renyi(
        n, p, seed=seed, weight=generators.random_weights(seed=seed)
    )
    if g.num_edges < 2:
        return
    assert_engines_agree(g, CoarseParams(phi=phi, delta0=delta0))
