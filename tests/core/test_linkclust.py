"""Tests for the high-level LinkClustering facade."""

from __future__ import annotations

import pytest

from repro.cluster.partition import EdgePartition
from repro.cluster.validation import same_partition
from repro.core.coarse import CoarseParams
from repro.core.linkclust import LinkClustering
from repro.errors import ParameterError
from repro.graph import generators


class TestConfiguration:
    def test_invalid_backend(self, triangle):
        with pytest.raises(ParameterError):
            LinkClustering(triangle, backend="gpu")

    def test_invalid_workers(self, triangle):
        with pytest.raises(ParameterError):
            LinkClustering(triangle, num_workers=0)

    def test_coarse_flag_variants(self, triangle):
        assert LinkClustering(triangle).coarse_params is None
        assert LinkClustering(triangle, coarse=True).coarse_params is not None
        custom = CoarseParams(phi=7)
        assert LinkClustering(triangle, coarse=custom).coarse_params.phi == 7


class TestFineRun:
    def test_result_fields(self, weighted_caveman):
        result = LinkClustering(weighted_caveman).run()
        assert result.graph is weighted_caveman
        assert result.k2 >= result.k1 > 0
        assert result.coarse is None
        assert len(result.edge_labels()) == weighted_caveman.num_edges

    def test_labels_at_level_monotone_cluster_count(self, weighted_caveman):
        result = LinkClustering(weighted_caveman).run()
        counts = [
            len(set(result.labels_at_level(level)))
            for level in range(0, result.num_levels + 1, 5)
        ]
        assert all(a >= b for a, b in zip(counts, counts[1:]))

    def test_partition_at_level(self, weighted_caveman):
        result = LinkClustering(weighted_caveman).run()
        part = result.partition_at_level(0)
        assert isinstance(part, EdgePartition)
        assert part.num_clusters == weighted_caveman.num_edges

    def test_best_partition_beats_trivial_cuts(self, weighted_caveman):
        result = LinkClustering(weighted_caveman).run()
        part, level, density = result.best_partition()
        assert density >= result.partition_at_level(0).density()
        assert density >= result.partition_at_level(result.num_levels).density()

    def test_node_communities_cover_cliques(self):
        g = generators.caveman_graph(4, 5)
        result = LinkClustering(g).run()
        comms = result.node_communities(min_edges=3)
        cliques = [set(range(c * 5, (c + 1) * 5)) for c in range(4)]
        for clique in cliques:
            assert any(clique <= community for community in comms)

    def test_seeded_permutation_same_partition(self, weighted_caveman):
        base = LinkClustering(weighted_caveman).run()
        seeded = LinkClustering(weighted_caveman, seed=99).run()
        assert same_partition(base.edge_labels(), seeded.edge_labels())

    def test_seed_deterministic(self, weighted_caveman):
        r1 = LinkClustering(weighted_caveman, seed=5).run()
        r2 = LinkClustering(weighted_caveman, seed=5).run()
        assert r1.edge_labels() == r2.edge_labels()


class TestCoarseRun:
    def test_coarse_result_attached(self, weighted_caveman):
        result = LinkClustering(
            weighted_caveman, coarse=CoarseParams(phi=2, delta0=5)
        ).run()
        assert result.coarse is not None
        assert result.coarse.epochs

    def test_coarse_same_partition_when_complete(self, weighted_caveman):
        fine = LinkClustering(weighted_caveman).run()
        coarse = LinkClustering(
            weighted_caveman,
            coarse=CoarseParams(phi=1, delta0=10, finalize_root=False),
        ).run()
        assert same_partition(fine.edge_labels(), coarse.edge_labels())


class TestParallelRuns:
    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_parallel_fine_matches_serial(self, planted, backend):
        serial = LinkClustering(planted).run()
        parallel = LinkClustering(planted, backend=backend, num_workers=3).run()
        assert same_partition(serial.edge_labels(), parallel.edge_labels())

    def test_parallel_coarse_matches_serial(self, planted):
        params = CoarseParams(phi=2, delta0=10)
        serial = LinkClustering(planted, coarse=params).run()
        parallel = LinkClustering(
            planted, coarse=params, backend="thread", num_workers=3
        ).run()
        assert same_partition(serial.edge_labels(), parallel.edge_labels())

    def test_vectorized_matches_serial(self, planted):
        serial = LinkClustering(planted).run()
        vectorized = LinkClustering(planted, vectorized=True).run()
        assert same_partition(serial.edge_labels(), vectorized.edge_labels())
        assert serial.k1 == vectorized.k1
        assert serial.k2 == vectorized.k2

    def test_shared_similarity_map(self, planted):
        lc = LinkClustering(planted)
        sim = lc.compute_similarities()
        r1 = lc.run(similarity_map=sim)
        r2 = lc.run()
        assert r1.edge_labels() == r2.edge_labels()


class TestConfigApi:
    def test_config_path_equals_kwargs_path(self, weighted_caveman):
        from repro.core.config import RunConfig

        params = CoarseParams(phi=2, delta0=10)
        via_kwargs = LinkClustering(weighted_caveman, coarse=params, seed=3).run()
        via_config = LinkClustering(
            weighted_caveman, config=RunConfig(coarse=params, seed=3)
        ).run()
        assert via_kwargs.edge_labels() == via_config.edge_labels()
        assert via_config.config.coarse == params

    def test_kwargs_fold_into_config(self, triangle):
        lc = LinkClustering(triangle, backend="thread", num_workers=3, seed=1)
        assert lc.config.backend == "thread"
        assert lc.config.num_workers == 3
        assert lc.config.seed == 1
        assert lc.backend == "thread"  # legacy attribute view

    def test_config_and_kwargs_conflict(self, triangle):
        from repro.core.config import RunConfig

        with pytest.raises(ParameterError, match="not both"):
            LinkClustering(triangle, config=RunConfig(), backend="thread")

    def test_config_must_be_runconfig(self, triangle):
        with pytest.raises(ParameterError, match="RunConfig"):
            LinkClustering(triangle, config={"backend": "serial"})

    def test_result_carries_config(self, triangle):
        result = LinkClustering(triangle).run()
        assert result.config is not None
        assert result.config.backend == "serial"

    def test_storage_fields_round_trip(self):
        from repro.core.config import RunConfig

        config = RunConfig(
            coarse=True,
            pairs_format="mmap",
            storage_dir="/tmp/spill",
            memory_budget_bytes=1 << 20,
        )
        d = config.to_dict()
        assert d["storage_dir"] == "/tmp/spill"
        assert d["memory_budget_bytes"] == 1 << 20
        assert RunConfig.from_dict(d) == config

    def test_storage_fields_require_mmap_format(self):
        from repro.core.config import RunConfig

        with pytest.raises(ParameterError, match="storage_dir"):
            RunConfig(coarse=True, storage_dir="/tmp/spill")
        with pytest.raises(ParameterError, match="requires coarse"):
            RunConfig(pairs_format="mmap")

    def test_result_to_dict_schema(self, weighted_caveman):
        from repro.core.linkclust import RESULT_SCHEMA_VERSION

        result = LinkClustering(weighted_caveman, coarse=True).run()
        d = result.to_dict()
        assert d["schema_version"] == RESULT_SCHEMA_VERSION
        assert d["num_edges"] == weighted_caveman.num_edges
        assert d["best_cut"]["num_clusters"] >= 1
        assert d["coarse"]["pairs_processed"] > 0
        assert d["config"]["coarse"]["gamma"] == 2.0

    def test_result_to_json_round_trips(self, triangle):
        import json

        from repro.core.linkclust import RESULT_SCHEMA_VERSION

        result = LinkClustering(triangle).run()
        assert json.loads(result.to_json())["schema_version"] == RESULT_SCHEMA_VERSION

    def test_summary_from_dict_round_trip(self, weighted_caveman):
        from repro.core.linkclust import LinkClusteringResult, ResultSummary

        result = LinkClustering(weighted_caveman, coarse=True, seed=7).run()
        d = result.to_dict()
        summary = ResultSummary.from_dict(d)
        assert summary.to_dict() == d
        # the classmethod on the result type delegates to the same reader
        assert LinkClusteringResult.from_dict(d) == summary
        # and the embedded config rehydrates to the original RunConfig
        assert summary.run_config() == result.config

    def test_summary_from_json_round_trip(self, triangle):
        from repro.core.linkclust import ResultSummary

        result = LinkClustering(triangle).run()
        payload = result.to_json()
        assert ResultSummary.from_json(payload).to_json() == payload

    def test_summary_rejects_unknown_keys_and_versions(self, triangle):
        from repro.core.linkclust import ResultSummary

        d = LinkClustering(triangle).run().to_dict()
        with pytest.raises(ParameterError, match="unknown result-summary"):
            ResultSummary.from_dict({**d, "bogus": 1})
        with pytest.raises(ParameterError, match="schema_version"):
            ResultSummary.from_dict({**d, "schema_version": 99})


class TestBatchEngineRuns:
    def test_auto_pairs_format_forced_columnar(self, triangle):
        from repro.core.config import RunConfig

        lc = LinkClustering(
            triangle, config=RunConfig(coarse=True, engine="batch")
        )
        assert lc.pairs_format == "auto"
        assert lc.resolved_pairs_format() == "columnar"

    def test_batch_run_matches_chained(self, weighted_caveman):
        from repro.core.config import RunConfig

        chained = LinkClustering(
            weighted_caveman,
            config=RunConfig(coarse=True, pairs_format="columnar"),
        ).run()
        batch = LinkClustering(
            weighted_caveman, config=RunConfig(coarse=True, engine="batch")
        ).run()
        assert batch.pairs_format == "columnar"
        assert chained.num_levels == batch.num_levels
        for level in range(chained.num_levels + 1):
            assert same_partition(
                chained.dendrogram.labels_at_level(level),
                batch.dendrogram.labels_at_level(level),
            )

    @pytest.mark.parametrize("backend", ["thread", "shm"])
    def test_parallel_batch_matches_serial_chained(self, planted, backend):
        from repro.core.config import RunConfig

        serial = LinkClustering(planted, coarse=True).run()
        batch = LinkClustering(
            planted,
            config=RunConfig(
                coarse=True, engine="batch", backend=backend, num_workers=3
            ),
        ).run()
        assert same_partition(serial.edge_labels(), batch.edge_labels())

    def test_result_config_carries_engine(self, triangle):
        from repro.core.config import RunConfig

        result = LinkClustering(
            triangle, config=RunConfig(coarse=True, engine="batch")
        ).run()
        assert result.config.engine == "batch"
        assert result.to_dict()["config"]["engine"] == "batch"


class TestShardedEngineRuns:
    def test_auto_pairs_format_forced_columnar(self, triangle):
        from repro.core.config import RunConfig

        lc = LinkClustering(
            triangle, config=RunConfig(coarse=True, engine="sharded")
        )
        assert lc.pairs_format == "auto"
        assert lc.resolved_pairs_format() == "columnar"

    def test_sharded_run_matches_chained(self, weighted_caveman):
        from repro.core.config import RunConfig

        chained = LinkClustering(
            weighted_caveman,
            config=RunConfig(coarse=True, pairs_format="columnar"),
        ).run()
        sharded = LinkClustering(
            weighted_caveman, config=RunConfig(coarse=True, engine="sharded")
        ).run()
        assert sharded.pairs_format == "columnar"
        assert chained.num_levels == sharded.num_levels
        for level in range(chained.num_levels + 1):
            assert same_partition(
                chained.dendrogram.labels_at_level(level),
                sharded.dendrogram.labels_at_level(level),
            )

    @pytest.mark.parametrize("backend", ["thread", "shm"])
    def test_parallel_sharded_matches_serial_chained(self, planted, backend):
        from repro.core.config import RunConfig

        serial = LinkClustering(planted, coarse=True).run()
        sharded = LinkClustering(
            planted,
            config=RunConfig(
                coarse=True, engine="sharded", backend=backend, num_workers=3
            ),
        ).run()
        assert same_partition(serial.edge_labels(), sharded.edge_labels())

    def test_result_config_carries_engine(self, triangle):
        from repro.core.config import RunConfig

        result = LinkClustering(
            triangle, config=RunConfig(coarse=True, engine="sharded")
        ).run()
        assert result.config.engine == "sharded"
        assert result.to_dict()["config"]["engine"] == "sharded"

    def test_config_round_trips_engine(self):
        from repro.core.config import RunConfig

        config = RunConfig(coarse=True, engine="sharded")
        assert RunConfig.from_dict(config.to_dict()) == config

    def test_sharded_requires_coarse(self, triangle):
        from repro.core.config import RunConfig
        from repro.errors import ParameterError

        with pytest.raises(ParameterError, match="coarse"):
            RunConfig(engine="sharded")


class TestPositionalShimsRemoved:
    """The PR-4 deprecation shims completed their two-release window:
    positional settings and ``run(sim)`` are now hard TypeErrors, not
    warnings."""

    def test_positional_settings_rejected(self, weighted_caveman):
        with pytest.raises(TypeError, match="positional"):
            LinkClustering(weighted_caveman, True, "thread", 2)

    def test_single_positional_setting_rejected(self, triangle):
        with pytest.raises(TypeError, match="positional"):
            LinkClustering(triangle, True)

    def test_positional_similarity_map_rejected(self, triangle):
        lc = LinkClustering(triangle)
        sim = lc.compute_similarities()
        with pytest.raises(TypeError, match="positional"):
            lc.run(sim)

    def test_keyword_calls_do_not_warn(self, weighted_caveman):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            LinkClustering(weighted_caveman, coarse=True, backend="thread")

    def test_keyword_similarity_map_still_works(self, weighted_caveman):
        lc = LinkClustering(weighted_caveman)
        sim = lc.compute_similarities()
        result = lc.run(similarity_map=sim)
        assert result.num_levels > 0
