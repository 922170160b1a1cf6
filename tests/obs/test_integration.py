"""End-to-end traces through LinkClustering on every backend.

The acceptance contract: all four backends produce traces with the same
core span names, so a profile of a serial run reads the same as one of
an shm run.
"""

from __future__ import annotations

import pytest

from repro.core import CoarseParams, LinkClustering, RunConfig
from repro.graph import generators
from repro.obs import MemorySink, Tracer

# Enough edges that every chunk carries multiple incident edge pairs
# (so parallel backends actually split work across workers).
COARSE = CoarseParams(phi=4, delta0=8.0)

# Span names every backend's coarse trace must contain.
CORE_SPANS = {
    "run",
    "phase:init",
    "phase:sort",
    "phase:sweep",
    "runtime:compute",
}
# Parallel runtimes additionally break chunk cost into these.
PARALLEL_SPANS = {"runtime:spawn", "runtime:copy", "runtime:merge"}


def trace_names(backend, num_workers):
    graph = generators.caveman_graph(4, 5)
    sink = MemorySink()
    tracer = Tracer([sink])
    # The shm arena runs the batch and sharded engines only; its batch
    # trace must still read like every other backend's.
    engine = "batch" if backend == "shm" else "chained"
    config = RunConfig(
        backend=backend, num_workers=num_workers, coarse=COARSE, engine=engine
    )
    result = LinkClustering(graph, config=config, tracer=tracer).run()
    assert result.num_levels > 0
    names = set(sink.span_names())
    chunk_spans = {n for n in names if n.startswith("sweep:chunk[")}
    return names, chunk_spans, dict(tracer.counters)


class TestCrossBackendSpanNames:
    @pytest.mark.parametrize("backend", ["serial", "thread", "process", "shm"])
    def test_core_spans_present(self, backend):
        names, chunk_spans, counters = trace_names(backend, num_workers=2)
        missing = CORE_SPANS - names
        assert not missing, f"{backend} trace missing {missing}; has {sorted(names)}"
        assert chunk_spans, f"{backend} trace has no sweep:chunk[i] spans"
        assert counters["k1"] > 0
        assert counters["k2"] >= counters["k1"]
        assert counters["merges"] > 0

    @pytest.mark.parametrize("backend", ["thread", "process", "shm"])
    def test_parallel_spans_present(self, backend):
        names, _, _ = trace_names(backend, num_workers=2)
        missing = PARALLEL_SPANS - names
        assert not missing, f"{backend} trace missing {missing}"

    def test_same_core_names_across_all_backends(self):
        per_backend = {}
        for backend in ("serial", "thread", "process", "shm"):
            names, chunks, _ = trace_names(backend, num_workers=2)
            per_backend[backend] = (names - PARALLEL_SPANS) - chunks
        serial = per_backend.pop("serial")
        for backend, names in per_backend.items():
            assert names == serial, (
                f"{backend} core span names diverge from serial: "
                f"{names.symmetric_difference(serial)}"
            )


class TestShardedEngineTraces:
    """engine="sharded" surfaces its boundary-traffic accounting on the
    shm arena, the one backend that runs it: the shard_bytes gauge
    (per-worker resident C footprint) and the boundary_edges counter
    are the acceptance numbers the benchmark reports."""

    def sharded_trace(self, backend):
        graph = generators.caveman_graph(4, 5)
        sink = MemorySink()
        tracer = Tracer([sink])
        config = RunConfig(
            backend=backend, num_workers=2, coarse=COARSE, engine="sharded"
        )
        result = LinkClustering(graph, config=config, tracer=tracer).run()
        assert result.num_levels > 0
        return set(sink.span_names()), dict(tracer.counters)

    @pytest.mark.parametrize("backend", ["shm"])
    def test_shard_accounting_on_every_backend(self, backend):
        names, counters = self.sharded_trace(backend)
        assert counters["shard_bytes"] > 0, backend
        assert counters["boundary_edges"] > 0, backend
        assert counters["reconcile_rounds"] > 0, backend
        assert CORE_SPANS <= names

    def test_sharded_matches_chained_result(self):
        graph = generators.caveman_graph(4, 5)
        chained = LinkClustering(graph, coarse=COARSE).run()
        sharded = LinkClustering(
            graph,
            config=RunConfig(
                coarse=COARSE, engine="sharded", backend="shm", num_workers=2
            ),
        ).run()
        assert chained.num_levels == sharded.num_levels
        assert chained.edge_labels() == sharded.edge_labels()


class TestTraceShape:
    def test_chunks_nest_under_phase_sweep(self):
        graph = generators.caveman_graph(4, 5)
        sink = MemorySink()
        result = LinkClustering(
            graph, coarse=COARSE, tracer=Tracer([sink])
        ).run()
        assert result.coarse is not None
        chunk_spans = [s for s in sink.spans if s.name.startswith("sweep:chunk[")]
        assert chunk_spans
        assert all(s.parent == "phase:sweep" for s in chunk_spans)
        by_name = {s.name: s for s in sink.spans}
        assert by_name["phase:sweep"].parent == "run"
        assert by_name["phase:init"].parent == "run"
        assert by_name["phase:sort"].parent == "run"

    def test_fine_sweep_trace(self):
        graph = generators.caveman_graph(3, 5)
        sink = MemorySink()
        LinkClustering(graph, tracer=Tracer([sink])).run()
        names = set(sink.span_names())
        assert {"run", "phase:init", "phase:sort", "phase:sweep"} <= names
        assert not any(n.startswith("sweep:chunk") for n in names)

    def test_level_events_emitted(self):
        graph = generators.caveman_graph(4, 5)
        sink = MemorySink()
        LinkClustering(graph, coarse=COARSE, tracer=Tracer([sink])).run()
        level_events = [e for e in sink.events if e.name == "sweep:level"]
        assert level_events
        assert all(e.attrs["kind"] for e in level_events)

    def test_presupplied_similarity_map_skips_init(self):
        graph = generators.caveman_graph(3, 5)
        lc = LinkClustering(graph)
        sim = lc.compute_similarities()
        sink = MemorySink()
        LinkClustering(graph, tracer=Tracer([sink])).run(similarity_map=sim)
        names = set(sink.span_names())
        assert "phase:init" not in names
        assert "phase:sweep" in names

    def test_default_run_has_no_tracer_overhead_path(self):
        from repro.obs import NULL_TRACER

        graph = generators.caveman_graph(3, 4)
        lc = LinkClustering(graph)
        assert lc.tracer is NULL_TRACER
        lc.run()
