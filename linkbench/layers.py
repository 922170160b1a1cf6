"""The traced run: per-layer metrics, one ``src/repro`` module per group.

Each time is one call into a layer's public function, timed here.  Span
and counter metrics come from a ``MemorySink`` the call was given; the
library gains no instrumentation for this benchmark.
"""

from __future__ import annotations

import json
from typing import Any, Callable, Dict, Tuple

import numpy as np

from common import (
    COARSE,
    SERVE_CONFIG,
    SIM_TOLERANCE,
    build_graph,
    coarse_config,
    median,
    pair_column_bytes,
    timed,
)
from repro.cluster.serialize import dumps_dendrogram
from repro.core.coarse import coarse_sweep
from repro.core.linkclust import LinkClustering
from repro.core.simcolumns import SimilarityColumns, wedge_edge_arrays
from repro.core.storage import MmapPairStore, StorageSettings, make_pair_store
from repro.core.sweep import build_edge_index, sweep
from repro.fast.similarity import fast_similarity_columns
from repro.graph.graph import Graph
from repro.graph.io import read_edge_list
from repro.obs import MemorySink, Tracer
from repro.parallel.par_init import parallel_similarity_columns
from repro.parallel.par_sweep import parallel_coarse_sweep
from repro.parallel.runtime import ShmSweepRuntime
from repro.serve.protocol import (
    graph_content_hash,
    parse_submission,
    result_payload,
    run_cache_key,
)
from serving import check_loop, closed_loop

#: Served payloads whose in-process parse / hash / payload steps are timed.
SERVE_LAYER_SAMPLES = 20


def traced(fn: Callable[[Tracer], Any]) -> Tuple[float, Any, MemorySink]:
    sink = MemorySink()
    tracer = Tracer([sink])
    seconds, out = timed(lambda: fn(tracer))
    tracer.flush()
    return seconds, out, sink


def same_columns(a: SimilarityColumns, b: SimilarityColumns) -> bool:
    """Identical pairs and witnesses; similarities within ``SIM_TOLERANCE``.

    The parallel combine sums in another order than the serial pass and
    differs in the last bits, despite its docstring (see NOTES.md).
    """
    return all(
        np.array_equal(getattr(a, f), getattr(b, f))
        for f in ("u", "v", "common_offsets", "common_neighbors")
    ) and bool(np.all(np.abs(a.sim - b.sim) <= SIM_TOLERANCE))


def span_total(sink: MemorySink, name: str) -> float:
    return sum(s.duration for s in sink.spans if s.name == name)


def chunk_self_fraction(sink: MemorySink) -> float:
    """Share of ``sweep:chunk[*]`` time not covered by any child span."""
    chunks = [s for s in sink.spans if s.name.startswith("sweep:chunk[")]
    total = sum(s.duration for s in chunks)
    covered = sum(
        s.duration
        for s in sink.spans
        if s.parent is not None and s.parent.startswith("sweep:chunk[")
    )
    return (total - covered) / total if total else 0.0


def clustering_layers(args, scale, inputs, oracle, checker, workdir):
    g: Graph = inputs.graph
    m: Dict[str, float] = {}

    # repro.corpus / repro.graph
    m["graph.build_s"], built = timed(lambda: build_graph(args.workload, args.seed, scale))
    m["io.read_s"], read_back = timed(lambda: read_edge_list(inputs.edge_file))
    checker.record(read_back.num_edges == built.num_edges == g.num_edges, "io.read edge count")
    m["graph.vertices"] = g.num_vertices
    m["graph.edges"] = g.num_edges

    # repro.fast.similarity, repro.parallel.par_init
    m["init.serial_s"], cols = timed(lambda: fast_similarity_columns(g))
    checker.record((cols.k1, cols.k2) == (oracle.k1, oracle.k2), "init.serial K1/K2")
    m["k1"] = cols.k1
    m["k2"] = cols.k2
    for backend in ("thread", "process"):
        seconds, par = timed(
            lambda: parallel_similarity_columns(g, num_workers=2, backend=backend)
        )
        m[f"init.{backend}2_s"] = seconds
        checker.record(same_columns(par, cols), f"init.{backend}2 columns")

    # repro.core.simcolumns
    m["sort.s"], sorted_cols = timed(cols.sort_pairs)
    m["store.expand_s"], (e1, e2) = timed(lambda: wedge_edge_arrays(g, sorted_cols))

    # repro.core.storage
    index_arr = np.asarray(build_edge_index(g, None), dtype=np.int64)
    m["store.build_s"], store = timed(lambda: make_pair_store(g, cols, index_arr))
    checker.record(
        np.array_equal(store.c1, index_arr[e1]) and np.array_equal(store.c2, index_arr[e2]),
        "store.build wedge stream",
    )
    budget = pair_column_bytes(cols.k1, cols.k2) // 4
    seconds, mstore, sink = traced(
        lambda tr: MmapPairStore.build_streaming(
            g, index_arr, storage_dir=str(workdir), memory_budget_bytes=budget, tracer=tr
        )
    )
    try:
        checker.record(
            np.array_equal(mstore.c1, store.c1)
            and np.array_equal(mstore.c2, store.c2)
            and np.array_equal(mstore.sims, store.sims),
            "store.budget_build pair file",
        )
    finally:
        mstore.close()
    del store
    m["store.budget_build_s"] = seconds
    m["store.spill_runs"] = sink.counters.get("spill_runs", 0)
    m["store.bytes_spilled"] = sink.counters.get("bytes_spilled", 0)
    storage = StorageSettings(kind="mmap", storage_dir=str(workdir), memory_budget_bytes=budget)
    _, res, sink = traced(
        lambda tr: coarse_sweep(g, None, params=COARSE, engine="batch", storage=storage, tracer=tr)
    )
    checker.check("coarse", "batch", res.dendrogram, "budget sweep")
    m["store.window_loads"] = sink.counters.get("window_loads", 0)

    # repro.core.coarse, repro.fast.batch_sweep
    m["sweep.chained_s"], res, _ = traced(
        lambda tr: coarse_sweep(g, sorted_cols, params=COARSE, engine="chained", tracer=tr)
    )
    checker.check("coarse", "chained", res.dendrogram, "sweep.chained")
    m["sweep.batch_s"], batch, sink = traced(
        lambda tr: coarse_sweep(g, sorted_cols, params=COARSE, engine="batch", tracer=tr)
    )
    checker.check("coarse", "batch", batch.dendrogram, "sweep.batch")
    chunks = sum(1 for s in sink.spans if s.name.startswith("sweep:chunk["))
    m["sweep.levels"] = batch.num_levels
    m["sweep.chunks"] = chunks
    m["sweep.rollbacks"] = sink.counters.get("rollbacks", 0)
    m["sweep.commit_ratio"] = batch.num_levels / chunks
    m["sweep.chunk_self_frac"] = chunk_self_fraction(sink)

    # repro.parallel.runtime, shm_sweep, sharded_sweep
    for name, backend, engine in (
        ("sweep.batch_thread2_s", "thread", "batch"),
        ("sweep.batch_process2_s", "process", "batch"),
        ("sweep.sharded_shm2_s", "shm", "sharded"),
        ("sweep.batch_shm2_s", "shm", "batch"),
    ):
        m[name], res, sink = traced(
            lambda tr: parallel_coarse_sweep(
                g, sorted_cols, params=COARSE, num_workers=2,
                backend=backend, engine=engine, tracer=tr,
            )
        )
        checker.check("coarse", engine, res.dendrogram, name)
    for part in ("spawn", "copy", "compute", "merge"):
        m[f"runtime.{part}_s"] = span_total(sink, f"runtime:{part}")
    # Sized at construction, the shm runtime spawns its arena in start();
    # the registry's make_runtime() defers that to the first chunk.
    runtime = ShmSweepRuntime(num_workers=2, n=g.num_edges)
    m["runtime.start_shm2_s"], _ = timed(runtime.start)
    m["runtime.shutdown_shm2_s"], _ = timed(runtime.shutdown)

    # repro.core.sweep
    m["sweep.fine_s"], fine = timed(lambda: sweep(g, sorted_cols))
    checker.check("fine", "fine", fine.dendrogram, "sweep.fine")

    # repro.cluster
    m["cluster.serialize_s"], text = timed(lambda: dumps_dendrogram(batch.dendrogram))
    m["cluster.dendrogram_bytes"] = len(text.encode("utf-8"))

    # repro.obs: the batch serial run traced into memory against untraced.
    config = coarse_config(engine="batch")
    plain, traced_runs = [], []
    for _ in range(2):
        seconds, res = timed(lambda: LinkClustering(g, config=config).run())
        checker.check("coarse", "batch", res.dendrogram, "obs untraced run")
        plain.append(seconds)
        sink = MemorySink()
        seconds, res = timed(lambda: LinkClustering(g, config=config, tracer=Tracer([sink])).run())
        checker.check("coarse", "batch", res.dendrogram, "obs traced run")
        traced_runs.append(seconds)
    m["obs.overhead_frac"] = median(traced_runs) / median(plain) - 1.0
    # The batch serial run's own phase spans, for the profile comparison
    # in NOTES.md (phase:sort wraps the store build, expansion included).
    phases = {
        name: round(span_total(sink, name), 4)
        for name in ("run", "phase:init", "phase:sort", "phase:sweep")
    }
    return m, {"batch_serial_phases": phases}


def serve_layers(inputs, checker) -> Dict[str, float]:
    daemon = inputs.daemon
    loop = closed_loop(daemon, inputs.payloads, range(len(inputs.payloads)))
    client = daemon.client()
    waits, runs = [], []
    for request in loop.misses:
        status = client.status(request.job_id)
        waits.append(status["started_at"] - status["submitted_at"])
        runs.append(status["finished_at"] - status["started_at"])
    cache = client.stats()["cache"]
    daemon.stop()

    parse, hashing, payload, sizes = [], [], [], []
    config = None
    for edges in inputs.payloads[:SERVE_LAYER_SAMPLES]:
        body = json.loads(json.dumps({"edges": edges, "config": SERVE_CONFIG}))
        seconds, submission = timed(lambda: parse_submission(body))
        parse.append(seconds)
        config = submission.config
        seconds, _ = timed(lambda: run_cache_key(graph_content_hash(submission.graph), config))
        hashing.append(seconds)
        result = LinkClustering(submission.graph, config=config).run()
        seconds, served = timed(lambda: result_payload(result))
        payload.append(seconds)
        sizes.append(len(json.dumps(served).encode("utf-8")))
    check_loop(loop, inputs.payloads, checker)
    return {
        "serve.parse_s": median(parse),
        "serve.hash_s": median(hashing),
        "serve.payload_s": median(payload),
        "serve.queue_wait_p50_s": median(waits),
        "serve.run_p50_s": median(runs),
        "serve.fetch_p50_s": median([r.fetch_s for r in loop.misses + loop.hits]),
        "serve.payload_bytes": median(sizes),
        "serve.hit_ratio": cache["hits"] / (cache["hits"] + cache["misses"]),
    }


def per_layer(args, scale, inputs, oracle, checker, workdir):
    values = serve_layers(inputs, checker)
    clustering, raw = clustering_layers(args, scale, inputs, oracle, checker, workdir)
    values.update(clustering)
    return values, raw
