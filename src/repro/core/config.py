"""Consolidated run configuration for :class:`~repro.core.linkclust.LinkClustering`.

:class:`RunConfig` gathers every knob a clustering run takes — backend,
worker count, coarse-sweep parameters, edge-order seed, Phase I
vectorization, and observability settings — into one frozen, validated,
serializable object.  ``LinkClustering(graph, config=cfg)`` is the
preferred construction path; the legacy keyword arguments remain as a
thin shim that builds a ``RunConfig`` internally.

Serialization round-trips through plain dicts (``to_dict`` /
``from_dict``), so a config can travel through JSON sidecar files, CLI
layers, and benchmark manifests without custom encoders.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Optional

from repro.core.coarse import CoarseParams
from repro.core.registry import (
    backend_names,
    engine_names,
    pair_format_names,
    validate_run_settings,
)
from repro.errors import ParameterError

__all__ = ["RunConfig", "BACKENDS", "ENGINES", "PAIR_FORMATS", "AUTO_COLUMNAR_MIN_K2"]

# Name tuples snapshot the capability registry (repro.core.registry) at
# import time; the registry is the authoritative table — specs,
# constraints, and factory hooks all live there, and engines/backends
# registered later appear in registry.engine_names() etc. first.
BACKENDS = backend_names()

# Sweep merge engines: "chained" is the paper's sequential MERGE chain
# (the oracle), "batch" the per-level vectorized connected-components
# engine (repro.fast.batch_sweep), "sharded" the owner-computes variant
# where each worker holds only its contiguous C slice and the host
# reconciles boundary edges per level (repro.parallel.sharded_sweep).
# Both alternates are dendrogram-identical to chained and require the
# columnar wedge stream plus a coarse (chunked) sweep.
ENGINES = engine_names()

PAIR_FORMATS = pair_format_names()

# K2 threshold for pairs_format="auto": below it the pure-Python dict
# pipeline wins (array setup cost dominates — the small-graph regression
# ablation_vectorized.json recorded), above it the columnar kernels do.
# benchmarks/results/columnar.json puts the measured crossover near
# K2 ~ 500-600; 2000 stays safely past the noise floor, where both
# paths are still sub-millisecond.
AUTO_COLUMNAR_MIN_K2 = 2_000


@dataclass(frozen=True)
class RunConfig:
    """Immutable, validated configuration for one clustering run.

    Parameters
    ----------
    backend:
        ``"serial"`` (default), ``"thread"``, ``"process"``, or ``"shm"``.
    num_workers:
        Worker count for parallel backends (>= 1; ignored for serial).
    coarse:
        ``None`` (default) for the fine-grained Algorithm 2, a
        :class:`CoarseParams` for coarse-grained sweeping.  ``True`` /
        ``False`` are accepted and coerced (``True`` → default params).
    seed:
        Optional seed for random edge-order permutation.
    vectorized:
        Use the scipy.sparse fast path for Phase I.
    pairs_format:
        Representation of map ``M`` through the run: ``"dict"`` (the
        pure-Python :class:`~repro.core.similarity.SimilarityMap`
        oracle), ``"columnar"``
        (:class:`~repro.core.simcolumns.SimilarityColumns`, flat numpy
        arrays — vectorized init/sort and zero-copy shm transport),
        ``"mmap"`` (the out-of-core pair store,
        :mod:`repro.core.storage`: list L lives in one memory-mapped
        file under a run-scoped spill directory and the sweep reads
        bounded windows; requires a coarse sweep), or ``"auto"``
        (default: columnar when the estimated K2 reaches
        ``AUTO_COLUMNAR_MIN_K2``, dict below — never slower than
        pure-Python on small graphs; never resolves to ``"mmap"``,
        which must be asked for explicitly).
    engine:
        Sweep merge engine: ``"chained"`` (default — the paper's
        sequential MERGE chain, the tested oracle), ``"batch"``
        (per-level vectorized connected-components rounds,
        :mod:`repro.fast.batch_sweep`), or ``"sharded"``
        (owner-computes contiguous C shards with host boundary
        reconciliation, :mod:`repro.parallel.sharded_sweep`).  Both
        alternates are dendrogram-identical to chained and require a
        coarse sweep plus the columnar pair format
        (``pairs_format="dict"`` is rejected; ``"auto"`` resolves to
        columnar).  A coarse chained sweep does not run on
        ``backend="shm"``: the shared-memory arena runs only the batch
        and sharded engines (the registry's ``BackendSpec.engines``).
    storage_dir:
        Root directory for the out-of-core store's run-scoped spill
        directory (``pairs_format="mmap"`` only; system temp dir when
        ``None``).  The spill directory is removed when the run's
        sweep finishes, succeeds or not.
    memory_budget_bytes:
        RAM cap for building and reading the out-of-core store
        (``pairs_format="mmap"`` only).  When the pair data exceeds
        it, the build spills sorted runs to disk and external-merges
        them; ``None`` sorts in memory and only the storage is
        file-backed.
    profile:
        Collect a trace and print a human-readable summary at the end
        of the run.
    metrics_out:
        Optional path; when set, the trace is additionally written as
        JSON-lines to this file (implies tracing on).
    """

    backend: str = "serial"
    num_workers: int = 1
    coarse: Optional[CoarseParams] = None
    seed: Optional[int] = None
    vectorized: bool = False
    pairs_format: str = "auto"
    engine: str = "chained"
    storage_dir: Optional[str] = None
    memory_budget_bytes: Optional[int] = None
    profile: bool = False
    metrics_out: Optional[str] = None

    def __post_init__(self) -> None:
        # Coerce the legacy bool spelling so every consumer sees
        # Optional[CoarseParams].
        if self.coarse is True:
            object.__setattr__(self, "coarse", CoarseParams())
        elif self.coarse is False:
            object.__setattr__(self, "coarse", None)
        elif self.coarse is not None and not isinstance(self.coarse, CoarseParams):
            raise ParameterError(
                f"coarse must be None, a bool, or CoarseParams, got {self.coarse!r}"
            )
        if self.seed is not None and not isinstance(self.seed, int):
            raise ParameterError(f"seed must be None or an int, got {self.seed!r}")
        object.__setattr__(self, "vectorized", bool(self.vectorized))
        object.__setattr__(self, "profile", bool(self.profile))
        if self.storage_dir is not None:
            object.__setattr__(self, "storage_dir", str(self.storage_dir))
        if self.metrics_out is not None:
            object.__setattr__(self, "metrics_out", str(self.metrics_out))
        self.validate()

    def validate(self) -> None:
        """Check this config against the capability registry.

        The engine × backend × pairs_format rules live in
        :mod:`repro.core.registry` (one table shared with the coarse
        sweeper, the CLI, and the serving daemon); construction already
        calls this, so an existing ``RunConfig`` is always valid — the
        method exists for callers that rebuild configs from untrusted
        dicts and want the check spelled out.
        """
        validate_run_settings(
            backend=self.backend,
            engine=self.engine,
            pairs_format=self.pairs_format,
            coarse=self.coarse is not None,
            num_workers=self.num_workers,
            storage_dir=self.storage_dir,
            memory_budget_bytes=self.memory_budget_bytes,
        )

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form; ``coarse`` expands to its field dict."""
        return {
            "backend": self.backend,
            "num_workers": self.num_workers,
            "coarse": dataclasses.asdict(self.coarse) if self.coarse else None,
            "seed": self.seed,
            "vectorized": self.vectorized,
            "pairs_format": self.pairs_format,
            "engine": self.engine,
            "storage_dir": self.storage_dir,
            "memory_budget_bytes": self.memory_budget_bytes,
            "profile": self.profile,
            "metrics_out": self.metrics_out,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "RunConfig":
        """Inverse of :meth:`to_dict`; unknown keys raise ParameterError."""
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ParameterError(
                f"unknown RunConfig keys: {sorted(unknown)} (known: {sorted(known)})"
            )
        kwargs = dict(data)
        coarse = kwargs.get("coarse")
        if isinstance(coarse, dict):
            kwargs["coarse"] = CoarseParams(**coarse)
        return cls(**kwargs)

    def replace(self, **changes: Any) -> "RunConfig":
        """A copy with ``changes`` applied (re-validated)."""
        return dataclasses.replace(self, **changes)

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    @property
    def tracing_enabled(self) -> bool:
        return self.profile or self.metrics_out is not None

    def make_tracer(self, summary_stream: Optional[Any] = None) -> Any:
        """Build the tracer this config asks for.

        Returns the shared no-op tracer unless ``profile`` or
        ``metrics_out`` is set.  With ``profile``, a
        :class:`~repro.obs.sinks.SummarySink` prints an aggregated table
        (to ``summary_stream`` or stderr) when the tracer is closed;
        with ``metrics_out``, a JSON-lines trace file is written.
        """
        from repro.obs import JsonLinesSink, NULL_TRACER, SummarySink, Tracer

        if not self.tracing_enabled:
            return NULL_TRACER
        sinks: list = []
        if self.metrics_out is not None:
            sinks.append(JsonLinesSink(Path(self.metrics_out)))
        if self.profile:
            sinks.append(SummarySink(summary_stream))
        return Tracer(sinks)
