"""High-level link clustering API.

:class:`LinkClustering` is the facade most users want: it wires together
Phase I (similarity initialization), Phase II (fine- or coarse-grained
sweeping), the parallel backends, and the observability layer, and
returns a :class:`LinkClusteringResult` exposing dendrogram cuts, edge
partitions and overlapping node communities.

Configuration lives in a :class:`~repro.core.config.RunConfig`; the
individual settings are also accepted as keyword-only arguments and
folded into one::

    LinkClustering(graph, config=RunConfig(backend="shm", num_workers=4))
    LinkClustering(graph, backend="shm", num_workers=4)   # equivalent

Example
-------
>>> from repro.graph import generators
>>> from repro.core import LinkClustering
>>> g = generators.caveman_graph(4, 5)
>>> result = LinkClustering(g).run()
>>> part, level, density = result.best_partition()
>>> part.num_clusters >= 4
True
"""

from __future__ import annotations

import dataclasses
import json
import random
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.cluster.dendrogram import Dendrogram
from repro.cluster.partition import EdgePartition, node_communities
from repro.cluster.unionfind import ChainArray
from repro.core.cancel import CancelToken
from repro.core.coarse import CoarseParams, CoarseResult, coarse_sweep
from repro.core.config import AUTO_COLUMNAR_MIN_K2, BACKENDS, RunConfig
from repro.core.simcolumns import SimilarityColumns
from repro.core.similarity import SimilarityMap, compute_similarity_map
from repro.core.storage import StorageSettings
from repro.core.sweep import SweepResult, sweep
from repro.errors import ParameterError
from repro.graph.graph import Graph
from repro.obs import Tracer, as_tracer, record_peak_rss

__all__ = [
    "LinkClustering",
    "LinkClusteringResult",
    "ResultSummary",
    "RESULT_SCHEMA_VERSION",
]

#: Version of the machine-readable result schema
#: (:meth:`LinkClusteringResult.to_dict` / :class:`ResultSummary`).
#: History: 1 — original summary dict under the key ``"schema"``;
#: 2 — key renamed to ``"schema_version"``, round-trip
#: :meth:`ResultSummary.from_dict` added (fields otherwise unchanged).
RESULT_SCHEMA_VERSION = 2

# Sentinel distinguishing "not passed" from explicit None/False.
_UNSET: Any = object()


@dataclass(frozen=True)
class ResultSummary:
    """The stable, versioned, machine-readable form of a run's result.

    This is exactly the payload :meth:`LinkClusteringResult.to_dict`
    emits and what service clients receive: counts, the best cut, the
    coarse-epoch breakdown, and the run's config as a plain dict.  It
    round-trips losslessly through :meth:`to_dict` /
    :meth:`from_dict` — the full dendrogram is *not* part of the
    summary (see :mod:`repro.cluster.serialize` for that payload).
    The field set is documented in docs/api.md and only changes with
    a ``schema_version`` bump.
    """

    num_vertices: int
    num_edges: int
    k1: int
    k2: int
    num_levels: int
    best_cut: Dict[str, Any]
    coarse: Optional[Dict[str, Any]] = None
    config: Optional[Dict[str, Any]] = None
    pairs_format: Optional[str] = None
    schema_version: int = RESULT_SCHEMA_VERSION

    def to_dict(self) -> Dict[str, Any]:
        out = dataclasses.asdict(self)
        # Present schema_version first: readers eyeballing JSON see the
        # contract before the data (dict order is preserved by json).
        return {"schema_version": out.pop("schema_version"), **out}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ResultSummary":
        """Inverse of :meth:`to_dict`.

        Unknown keys and unsupported ``schema_version`` values raise
        :class:`ParameterError` so clients fail loudly on a contract
        drift instead of silently dropping fields.
        """
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ParameterError(
                f"unknown result-summary keys: {sorted(unknown)} "
                f"(known: {sorted(known)})"
            )
        version = data.get("schema_version", RESULT_SCHEMA_VERSION)
        if version != RESULT_SCHEMA_VERSION:
            raise ParameterError(
                f"unsupported result schema_version {version!r} "
                f"(this library reads version {RESULT_SCHEMA_VERSION})"
            )
        return cls(**data)

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, payload: str) -> "ResultSummary":
        return cls.from_dict(json.loads(payload))

    def run_config(self) -> Optional[RunConfig]:
        """Rehydrate the run's :class:`RunConfig` (``None`` if absent)."""
        return RunConfig.from_dict(self.config) if self.config is not None else None


@dataclass
class LinkClusteringResult:
    """Unified result of a link clustering run.

    The dendrogram's leaves are *edge indices* (positions in the paper's
    array ``C``); all public accessors translate back to edge ids.
    """

    graph: Graph
    dendrogram: Dendrogram
    chain: ChainArray
    edge_index: List[int]
    k1: int
    k2: int
    num_levels: int
    coarse: Optional[CoarseResult] = None
    config: Optional[RunConfig] = None
    pairs_format: Optional[str] = None

    def edge_labels(self) -> List[int]:
        """Final cluster label of every edge id (min-index canonical)."""
        return [
            self.chain.find(self.edge_index[eid])
            for eid in range(self.graph.num_edges)
        ]

    def labels_at_level(self, level: int) -> List[int]:
        """Cluster label of every edge id after dendrogram level ``level``."""
        by_index = self.dendrogram.labels_at_level(level)
        return [by_index[self.edge_index[eid]] for eid in range(self.graph.num_edges)]

    def partition_at_level(self, level: int) -> EdgePartition:
        """Flat edge partition at a dendrogram level."""
        return EdgePartition(self.graph, self.labels_at_level(level))

    def best_partition(self) -> Tuple[EdgePartition, int, float]:
        """Densest flat cut over all levels (Ahn et al. partition density).

        Uses the incremental density scanner
        (:func:`repro.cluster.density_scan.best_cut`) — O(|E| log |E|)
        instead of O(levels x |E|) — then materializes the winning level.
        Returns ``(partition, level, density)`` with labels in edge-id
        space.
        """
        from repro.cluster.density_scan import best_cut

        level, density = best_cut(self.graph, self.dendrogram, self.edge_index)
        return self.partition_at_level(level), level, density

    def node_communities(self, level: Optional[int] = None, min_edges: int = 2):
        """Overlapping node communities at a level (best level if omitted)."""
        if level is None:
            _, level, _ = self.best_partition()
        return node_communities(
            self.graph, self.labels_at_level(level), min_edges=min_edges
        )

    # ------------------------------------------------------------------
    # machine-readable output
    # ------------------------------------------------------------------
    def summary(self) -> ResultSummary:
        """The versioned :class:`ResultSummary` for machine consumers.

        Holds counts, the best cut, the coarse-epoch breakdown, and the
        run's config — not the full dendrogram (that stays an in-memory
        structure; levels can be re-derived from the result object, or
        serialized separately via :mod:`repro.cluster.serialize`).
        """
        partition, level, density = self.best_partition()
        coarse = None
        if self.coarse is not None:
            coarse = {
                "pairs_processed": self.coarse.pairs_processed,
                "processed_fraction": self.coarse.processed_fraction,
                "stopped_by_phi": self.coarse.stopped_by_phi,
                "epoch_kinds": self.coarse.epoch_kind_counts(),
            }
        return ResultSummary(
            num_vertices=self.graph.num_vertices,
            num_edges=self.graph.num_edges,
            k1=self.k1,
            k2=self.k2,
            num_levels=self.num_levels,
            best_cut={
                "level": level,
                "density": density,
                "num_clusters": partition.num_clusters,
            },
            coarse=coarse,
            config=self.config.to_dict() if self.config is not None else None,
            pairs_format=self.pairs_format,
        )

    def to_dict(self) -> Dict[str, Any]:
        """Stable summary dict (``schema_version`` 2); see
        :class:`ResultSummary` for the round-trip reader."""
        return self.summary().to_dict()

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> ResultSummary:
        """Rehydrate a summary produced by :meth:`to_dict`.

        Returns a :class:`ResultSummary` (the full result object cannot
        be rebuilt from the summary alone — the dendrogram is not part
        of it).
        """
        return ResultSummary.from_dict(data)

    def to_json(self, indent: Optional[int] = None) -> str:
        """:meth:`to_dict` serialized with sorted keys (diff-stable)."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)


class LinkClustering:
    """Configurable link clustering runner.

    Preferred construction is a single :class:`RunConfig`::

        LinkClustering(graph, config=RunConfig(backend="thread", num_workers=4))

    The individual settings below are accepted as **keyword-only**
    arguments and folded into a ``RunConfig`` internally; the
    pre-RunConfig positional spelling was removed after its two-release
    deprecation window (positional settings raise ``TypeError``).
    ``config=`` and individual settings are mutually exclusive.

    Parameters
    ----------
    graph:
        The weighted undirected input graph (positional).
    config:
        A :class:`RunConfig` carrying every other setting.
    coarse:
        ``False`` (default) for the fine-grained Algorithm 2;
        ``True`` for coarse-grained sweeping with default
        :class:`CoarseParams`; or a :class:`CoarseParams` instance.
    backend:
        ``"serial"`` (default), ``"thread"``, ``"process"``, or
        ``"shm"`` — the latter three parallelize the coarse sweep per
        Section VI; ``thread``/``process`` also parallelize Phase I
        (``shm`` applies to the sweep and falls back to the process
        backend for Phase I).  A coarse ``shm`` run needs the batch or
        sharded engine (``config=RunConfig(engine=...)``); the chained
        engine runs on the other three.
    num_workers:
        Worker count for parallel backends (ignored for serial).
    seed:
        When given, edge ids are randomly permuted with this seed (the
        paper enumerates edges in random order); ``None`` keeps insertion
        order.
    vectorized:
        Use the scipy.sparse fast path for Phase I
        (:func:`repro.fast.fast_similarity_map`); identical output,
        faster on large dense graphs.
    pairs_format:
        ``"dict"``, ``"columnar"``, ``"mmap"``, or ``"auto"``
        (default) — representation of map ``M`` through the run; see
        :class:`RunConfig`.  ``auto`` picks columnar when the estimated
        K2 reaches ``AUTO_COLUMNAR_MIN_K2`` and never picks ``mmap``
        (the out-of-core store must be requested explicitly).
    tracer:
        Optional :class:`repro.obs.Tracer` overriding the one the config
        would build (``config.profile`` / ``config.metrics_out``).
    cancel:
        Optional :class:`~repro.core.cancel.CancelToken`; when another
        thread triggers it, the run raises
        :class:`~repro.errors.RunCancelledError` at its next sweep-loop
        checkpoint.
    runtime:
        Optional caller-owned
        :class:`~repro.parallel.runtime.SweepRuntime` to process chunks
        on instead of building one per run — the serving daemon leases
        warm runtimes this way.  Only valid for parallel coarse configs
        (``coarse`` set, parallel ``backend``, ``num_workers > 1``);
        the caller keeps lifecycle ownership (the run never shuts the
        runtime down).
    """

    _BACKENDS = BACKENDS

    def __init__(
        self,
        graph: Graph,
        *,
        config: Optional[RunConfig] = None,
        coarse: Any = _UNSET,
        backend: Any = _UNSET,
        num_workers: Any = _UNSET,
        seed: Any = _UNSET,
        vectorized: Any = _UNSET,
        pairs_format: Any = _UNSET,
        tracer: Optional[Tracer] = None,
        cancel: Optional[CancelToken] = None,
        runtime: Optional[Any] = None,
    ):
        settings: Dict[str, Any] = {}
        for name, value in (
            ("coarse", coarse),
            ("backend", backend),
            ("num_workers", num_workers),
            ("seed", seed),
            ("vectorized", vectorized),
            ("pairs_format", pairs_format),
        ):
            if value is not _UNSET:
                settings[name] = value

        if config is not None:
            if settings:
                raise ParameterError(
                    "pass either config=RunConfig(...) or individual settings "
                    f"({sorted(settings)}), not both"
                )
            if not isinstance(config, RunConfig):
                raise ParameterError(
                    f"config must be a RunConfig, got {type(config).__name__}"
                )
            self.config = config
        else:
            self.config = RunConfig(**settings)

        self.graph = graph
        self.tracer = as_tracer(tracer) if tracer is not None else self.config.make_tracer()
        self.cancel = cancel
        if runtime is not None:
            from repro.parallel.runtime import SweepRuntime

            if not isinstance(runtime, SweepRuntime):
                raise ParameterError(
                    f"runtime must be a SweepRuntime, got {type(runtime).__name__}"
                )
            if (
                self.config.coarse is None
                or self.config.backend == "serial"
                or self.config.num_workers < 2
            ):
                raise ParameterError(
                    "runtime= is only valid for parallel coarse runs "
                    "(coarse set, parallel backend, num_workers > 1); "
                    f"config has backend={self.config.backend!r}, "
                    f"num_workers={self.config.num_workers}, "
                    f"coarse={'set' if self.config.coarse else 'unset'}"
                )
        self.runtime = runtime

    # ------------------------------------------------------------------
    # config views (kept as attributes of record for backward compat)
    # ------------------------------------------------------------------
    @property
    def backend(self) -> str:
        return self.config.backend

    @property
    def num_workers(self) -> int:
        return self.config.num_workers

    @property
    def seed(self) -> Optional[int]:
        return self.config.seed

    @property
    def vectorized(self) -> bool:
        return self.config.vectorized

    @property
    def coarse_params(self) -> Optional[CoarseParams]:
        return self.config.coarse

    @property
    def pairs_format(self) -> str:
        return self.config.pairs_format

    # ------------------------------------------------------------------
    def resolved_pairs_format(self) -> str:
        """The concrete format this run will use (``auto`` resolved).

        ``auto`` estimates K2 from the degree sequence alone —
        ``sum(d * (d - 1)) / 2`` — and picks columnar at
        ``AUTO_COLUMNAR_MIN_K2``; below it the pure-Python dict pipeline
        has less fixed overhead.  The batch and sharded engines consume
        the columnar wedge stream, so either forces ``auto`` to columnar
        regardless of size.  ``auto`` never resolves to ``"mmap"`` —
        the out-of-core store must be requested explicitly.
        """
        if self.pairs_format != "auto":
            return self.pairs_format
        if self.config.engine in ("batch", "sharded"):
            return "columnar"
        k2_estimate = sum(d * (d - 1) for d in self.graph.degrees()) // 2
        return "columnar" if k2_estimate >= AUTO_COLUMNAR_MIN_K2 else "dict"

    def compute_similarities(self) -> Union[SimilarityMap, SimilarityColumns]:
        """Phase I only (useful for reuse across sweeps)."""
        with self.tracer.span(
            "phase:init", backend=self.backend, vectorized=self.vectorized
        ):
            return self._compute_similarities()

    def _compute_similarities(self) -> Union[SimilarityMap, SimilarityColumns]:
        # Parallel mmap runs build the store from the columnar Phase-I
        # output, so they share the columnar init path.  (Serial mmap
        # runs never reach here: Phase I streams inside the store init.)
        if self.resolved_pairs_format() in ("columnar", "mmap"):
            if self.backend == "serial" or self.num_workers == 1:
                from repro.fast.similarity import fast_similarity_columns

                return fast_similarity_columns(self.graph, tracer=self.tracer)
            from repro.parallel.par_init import parallel_similarity_columns

            # Columnar partials are plain arrays, but the combine step
            # runs in the parent either way; shm still uses processes.
            init_backend = "process" if self.backend == "shm" else self.backend
            return parallel_similarity_columns(
                self.graph,
                num_workers=self.num_workers,
                backend=init_backend,
                tracer=self.tracer,
            )
        if self.vectorized:
            from repro.fast.similarity import fast_similarity_map

            return fast_similarity_map(self.graph)
        if self.backend == "serial" or self.num_workers == 1:
            return compute_similarity_map(self.graph, tracer=self.tracer)
        from repro.parallel.par_init import parallel_similarity_map

        # Phase I has no shared-memory variant (its output is a python
        # dict, not a flat array); shm runs use real processes there.
        init_backend = "process" if self.backend == "shm" else self.backend
        return parallel_similarity_map(
            self.graph,
            num_workers=self.num_workers,
            backend=init_backend,
            tracer=self.tracer,
        )

    def run(
        self,
        *,
        similarity_map: Optional[Union[SimilarityMap, SimilarityColumns]] = None,
    ) -> LinkClusteringResult:
        """Run both phases and return the unified result.

        ``similarity_map`` is keyword-only (the positional spelling was
        removed after its deprecation window); pass a precomputed
        Phase-I output to reuse it across sweeps.
        """
        tracer = self.tracer
        resolved = self.resolved_pairs_format()
        span_attrs: Dict[str, Any] = dict(
            backend=self.backend,
            num_workers=self.num_workers,
            coarse=self.coarse_params is not None,
            vectorized=self.vectorized,
            engine=self.config.engine,
            pairs_format=resolved,
        )
        if resolved == "mmap":
            span_attrs["storage_dir"] = self.config.storage_dir
            span_attrs["memory_budget_bytes"] = self.config.memory_budget_bytes
        with tracer.span("run", **span_attrs):
            result = self._run(similarity_map)
            record_peak_rss(tracer)
        tracer.flush()
        return result

    def _run(
        self, similarity_map: Optional[Union[SimilarityMap, SimilarityColumns]]
    ) -> LinkClusteringResult:
        tracer = self.tracer
        resolved = self.resolved_pairs_format()
        # Serial mmap runs stream Phase I inside the store init (wedge
        # chunks spill to sorted runs; no K2-sized array is ever
        # resident), so they skip the materializing init entirely.
        stream_init = (
            resolved == "mmap"
            and similarity_map is None
            and (self.backend == "serial" or self.num_workers == 1)
        )
        sim = similarity_map
        if sim is None and not stream_init:
            sim = self.compute_similarities()
        record_peak_rss(tracer)
        storage: Optional[StorageSettings] = None
        if resolved == "mmap":
            # Validation guarantees mmap runs are coarse, so the fine
            # sweep below never sees a storage spec.
            fmt = "mmap"
            storage = StorageSettings(
                kind="mmap",
                storage_dir=self.config.storage_dir,
                memory_budget_bytes=self.config.memory_budget_bytes,
            )
        else:
            fmt = "columnar" if isinstance(sim, SimilarityColumns) else "dict"
        tracer.event(
            "run:pairs_format", format=fmt, requested=self.pairs_format
        )
        if sim is not None:
            # The streaming path gauges k1/k2 from the store instead
            # (the sweeper emits them once the pair file is built).
            tracer.gauge("k1", sim.k1)
            tracer.gauge("k2", sim.k2)
        edge_order = None
        if self.seed is not None:
            edge_order = self.graph.permuted_edge_ids(random.Random(self.seed))

        if self.coarse_params is None:
            assert sim is not None  # mmap (the only streaming case) is coarse-only
            fine: SweepResult = sweep(
                self.graph, sim, edge_order=edge_order, tracer=tracer,
                cancel=self.cancel,
            )
            return LinkClusteringResult(
                graph=self.graph,
                dendrogram=fine.dendrogram,
                chain=fine.chain,
                edge_index=fine.edge_index,
                k1=fine.k1,
                k2=fine.k2,
                num_levels=fine.num_levels,
                config=self.config,
                pairs_format=fmt,
            )

        if self.backend != "serial" and self.num_workers > 1:
            from repro.parallel.par_sweep import parallel_coarse_sweep

            assert sim is not None  # stream_init implies the serial branch
            coarse = parallel_coarse_sweep(
                self.graph,
                sim,
                params=self.coarse_params,
                edge_order=edge_order,
                num_workers=self.num_workers,
                # A caller-owned warm runtime takes over chunk
                # processing; parallel_coarse_sweep then leaves its
                # lifecycle alone.
                backend=self.runtime if self.runtime is not None else self.backend,
                tracer=tracer,
                engine=self.config.engine,
                cancel=self.cancel,
                storage=storage,
            )
        else:
            coarse = coarse_sweep(
                self.graph,
                sim,
                params=self.coarse_params,
                edge_order=edge_order,
                tracer=tracer,
                engine=self.config.engine,
                cancel=self.cancel,
                storage=storage,
            )
        record_peak_rss(tracer)
        return LinkClusteringResult(
            graph=self.graph,
            dendrogram=coarse.dendrogram,
            chain=coarse.chain,
            edge_index=coarse.edge_index,
            k1=coarse.k1,
            k2=coarse.k2,
            num_levels=coarse.num_levels,
            coarse=coarse,
            config=self.config,
            pairs_format=fmt,
        )
