"""Dict and columnar pipelines agree end to end, on every backend.

The columnar representation must be a pure performance change: for the
same graph, the dict and columnar runs must produce identical
dendrograms — per-level cluster counts and final edge labels — on the
serial driver and on every parallel backend (thread / process / shm).
"""

from __future__ import annotations

import pytest

from repro.cluster.validation import same_partition
from repro.core.coarse import CoarseParams, coarse_sweep
from repro.core.config import AUTO_COLUMNAR_MIN_K2, RunConfig
from repro.core.linkclust import LinkClustering
from repro.core.registry import backend_names, get_backend
from repro.core.similarity import compute_similarity_map
from repro.core.sweep import sweep
from repro.fast.similarity import fast_similarity_columns
from repro.graph import generators
from repro.obs import MemorySink, Tracer

# Backends that run the chained engine (the only coarse engine that takes
# dict pairs), so both pair formats run on each.
BACKENDS = [b for b in backend_names() if "chained" in get_backend(b).engines]

GRAPH_FAMILIES = {
    "triangle": lambda: generators.complete_graph(3),
    "complete": lambda: generators.complete_graph(
        7, weight=generators.random_weights(seed=2)
    ),
    "caveman": lambda: generators.caveman_graph(
        3, 5, weight=generators.random_weights(seed=11)
    ),
    "planted": lambda: generators.planted_partition(3, 6, 0.9, 0.08, seed=5),
    "erdos_renyi": lambda: generators.erdos_renyi(25, 0.2, seed=3),
    "star": lambda: generators.star_graph(8),
    "grid": lambda: generators.grid_graph(4, 4),
    "disjoint": lambda: generators.disjoint_edges(4),
}


def level_signature(dendrogram):
    """Per-level cluster counts plus the final labels' partition."""
    counts = []
    for level in range(dendrogram.num_levels + 1):
        labels = dendrogram.labels_at_level(level)
        counts.append(len(set(labels)))
    return counts


def assert_same_dendrogram(a, b):
    assert a.num_levels == b.num_levels
    assert level_signature(a) == level_signature(b)
    for level in range(a.num_levels + 1):
        assert same_partition(a.labels_at_level(level), b.labels_at_level(level))


@pytest.mark.parametrize("family", sorted(GRAPH_FAMILIES))
class TestFineSweepEquivalence:
    def test_dict_and_columnar_merges_identical(self, family):
        g = GRAPH_FAMILIES[family]()
        dict_result = sweep(g, compute_similarity_map(g))
        col_result = sweep(g, fast_similarity_columns(g))
        # The serial fine sweep consumes the exact same ordered wedge
        # stream either way, so the merge records match one for one
        # (similarities up to summation-order rounding in Phase I).
        assert len(dict_result.dendrogram.merges) == len(col_result.dendrogram.merges)
        for a, b in zip(
            dict_result.dendrogram.merges, col_result.dendrogram.merges
        ):
            assert (a.level, a.left, a.right, a.parent) == (
                b.level,
                b.left,
                b.right,
                b.parent,
            )
            assert a.similarity == pytest.approx(b.similarity, rel=1e-12)
        assert list(dict_result.chain.raw()) == list(col_result.chain.raw())
        assert dict_result.k1 == col_result.k1
        assert dict_result.k2 == col_result.k2


@pytest.mark.parametrize("family", sorted(GRAPH_FAMILIES))
class TestCoarseSweepEquivalence:
    def test_dict_and_columnar_epochs_identical(self, family):
        g = GRAPH_FAMILIES[family]()
        params = CoarseParams(gamma=2.0, phi=10, delta0=6.0)
        dict_result = coarse_sweep(g, compute_similarity_map(g), params=params)
        col_result = coarse_sweep(g, fast_similarity_columns(g), params=params)
        assert [e.kind for e in dict_result.epochs] == [
            e.kind for e in col_result.epochs
        ]
        assert_same_dendrogram(dict_result.dendrogram, col_result.dendrogram)


@pytest.mark.parametrize("backend", BACKENDS)
class TestCrossBackendDeterminism:
    def test_columnar_matches_dict_on_backend(self, backend):
        g = generators.caveman_graph(3, 5, weight=generators.random_weights(seed=11))
        workers = 1 if backend == "serial" else 3
        results = {}
        for fmt in ("dict", "columnar"):
            config = RunConfig(
                backend=backend,
                num_workers=workers,
                coarse=CoarseParams(gamma=2.0, phi=10, delta0=6.0),
                pairs_format=fmt,
            )
            results[fmt] = LinkClustering(g, config=config).run()
        assert_same_dendrogram(
            results["dict"].dendrogram, results["columnar"].dendrogram
        )
        assert results["dict"].pairs_format == "dict"
        assert results["columnar"].pairs_format == "columnar"


class TestAutoDispatch:
    def test_small_graph_resolves_to_dict(self, triangle):
        lc = LinkClustering(triangle, pairs_format="auto")
        assert lc.resolved_pairs_format() == "dict"

    def test_large_k2_resolves_to_columnar(self):
        # One hub of degree d contributes d*(d-1)/2 to the K2 estimate.
        d = 1
        while d * (d - 1) // 2 < AUTO_COLUMNAR_MIN_K2:
            d += 1
        g = generators.star_graph(d)
        lc = LinkClustering(g, pairs_format="auto")
        assert lc.resolved_pairs_format() == "columnar"

    def test_explicit_formats_pass_through(self, triangle):
        assert (
            LinkClustering(triangle, pairs_format="dict").resolved_pairs_format()
            == "dict"
        )
        assert (
            LinkClustering(
                triangle, pairs_format="columnar"
            ).resolved_pairs_format()
            == "columnar"
        )

    def test_invalid_format_rejected(self, triangle):
        from repro.errors import ParameterError

        with pytest.raises(ParameterError):
            LinkClustering(triangle, pairs_format="parquet")


class TestObservability:
    def run_traced(self, graph, fmt):
        sink = MemorySink()
        result = LinkClustering(
            graph, pairs_format=fmt, tracer=Tracer([sink])
        ).run()
        return result, sink

    def test_pairs_format_event_emitted(self, weighted_caveman):
        _result, sink = self.run_traced(weighted_caveman, "columnar")
        events = [e for e in sink.events if e.name == "run:pairs_format"]
        assert len(events) == 1
        assert events[0].attrs["format"] == "columnar"
        assert events[0].attrs["requested"] == "columnar"

    def test_auto_records_requested_format(self, triangle):
        _result, sink = self.run_traced(triangle, "auto")
        (event,) = [e for e in sink.events if e.name == "run:pairs_format"]
        assert event.attrs == {"format": "dict", "requested": "auto"}

    def test_span_names_identical_across_formats(self, weighted_caveman):
        _r1, dict_sink = self.run_traced(weighted_caveman, "dict")
        _r2, col_sink = self.run_traced(weighted_caveman, "columnar")
        # The columnar pipeline reports through the same span vocabulary
        # the dashboards already consume.
        assert dict_sink.span_names() == col_sink.span_names()
        for name in ("init:pass1", "init:pass3", "phase:sort", "phase:sweep"):
            assert name in col_sink.span_names()

    def test_result_to_dict_reports_format(self, weighted_caveman):
        result, _sink = self.run_traced(weighted_caveman, "columnar")
        assert result.to_dict()["pairs_format"] == "columnar"
