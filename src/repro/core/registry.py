"""Capability registry for sweep engines, backends, and pair formats.

The engine × backend × pairs_format rules used to live as ad-hoc
``if`` chains scattered through :class:`~repro.core.config.RunConfig`,
``coarse_sweep``, and the CLI.  This module is the single declarative
home for those facts: each engine, backend, and pair format is a frozen
spec carrying its constraints (and, for backends, the runtime factory),
and every consumer — ``RunConfig.validate()``, the coarse sweeper,
``get_sweep_runtime``, the CLI's flag choices and error messages, and
the serving daemon — reads the same fixed tables.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, Optional, Tuple

from repro.errors import ParameterError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.parallel.runtime import SweepRuntime

__all__ = [
    "EngineSpec",
    "BackendSpec",
    "PairFormatSpec",
    "engine_names",
    "backend_names",
    "pair_format_names",
    "get_engine",
    "get_backend",
    "get_pair_format",
    "validate_run_settings",
    "require_backend_engine",
    "make_runtime",
]


# ----------------------------------------------------------------------
# specs
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class EngineSpec:
    """One sweep merge engine and its requirements.

    ``requires_coarse`` — the engine only exists as a chunked (coarse)
    sweep; ``min_workers`` — the fewest workers a run of it may ask for
    (a one-worker run takes the serial sweep, so an engine without a
    serial path needs two).
    """

    name: str
    summary: str
    requires_coarse: bool = False
    min_workers: int = 1


@dataclass(frozen=True)
class BackendSpec:
    """One execution backend and its runtime factory.

    ``parallel`` — whether ``num_workers > 1`` buys anything;
    ``engines`` — the coarse sweep engines the backend's runtime runs;
    ``runtime_factory`` — builds the :class:`SweepRuntime` for a worker
    count (imports lazily so the registry stays import-cycle-free).
    """

    name: str
    summary: str
    runtime_factory: Callable[[int], "SweepRuntime"] = field(repr=False)
    parallel: bool = True
    engines: Tuple[str, ...] = ("chained", "batch")


@dataclass(frozen=True)
class PairFormatSpec:
    """One representation of map M a run carries.  ``requires_coarse``
    marks formats only the chunked sweep can consume (the out-of-core
    store streams bounded windows, which the one-merge-per-level fine
    sweep cannot do)."""

    name: str
    summary: str
    requires_coarse: bool = False


def _local_runtime(backend_name: str) -> Callable[[int], "SweepRuntime"]:
    def factory(num_workers: int) -> "SweepRuntime":
        from repro.parallel.runtime import LocalSweepRuntime

        return LocalSweepRuntime(backend_name, num_workers)

    return factory


def _shm_runtime(num_workers: int) -> "SweepRuntime":
    from repro.parallel.runtime import ShmSweepRuntime

    return ShmSweepRuntime(num_workers)


# ----------------------------------------------------------------------
# the tables (ordered: declaration order is presentation order)
# ----------------------------------------------------------------------
_ENGINES: Dict[str, EngineSpec] = {
    spec.name: spec
    for spec in (
        EngineSpec(
            name="chained",
            summary="the paper's sequential MERGE chain (the tested oracle)",
        ),
        EngineSpec(
            name="batch",
            summary="per-level vectorized connected-components rounds",
            requires_coarse=True,
        ),
        EngineSpec(
            name="sharded",
            summary="owner-computes C shards with host boundary reconciliation",
            requires_coarse=True,
            min_workers=2,
        ),
    )
}

_BACKENDS: Dict[str, BackendSpec] = {
    spec.name: spec
    for spec in (
        BackendSpec(
            name="serial",
            summary="single-threaded reference path",
            parallel=False,
            runtime_factory=_local_runtime("serial"),
        ),
        BackendSpec(
            name="thread",
            summary="thread pool over shared arrays",
            runtime_factory=_local_runtime("thread"),
        ),
        BackendSpec(
            name="process",
            summary="process pool with pickled chunk copies",
            runtime_factory=_local_runtime("process"),
        ),
        BackendSpec(
            name="shm",
            summary="resident shared-memory arena workers",
            engines=("batch", "sharded"),
            runtime_factory=_shm_runtime,
        ),
    )
}

_PAIR_FORMATS: Dict[str, PairFormatSpec] = {
    spec.name: spec
    for spec in (
        PairFormatSpec(
            name="columnar",
            summary="flat numpy SimilarityColumns (vectorized, shm-transportable)",
        ),
        PairFormatSpec(
            name="mmap",
            summary="memory-mapped out-of-core pair store (external sort + spill)",
            requires_coarse=True,
        ),
    )
}


def engine_names() -> Tuple[str, ...]:
    return tuple(_ENGINES)


def backend_names() -> Tuple[str, ...]:
    return tuple(_BACKENDS)


def pair_format_names() -> Tuple[str, ...]:
    return tuple(_PAIR_FORMATS)


def get_engine(name: str) -> EngineSpec:
    try:
        return _ENGINES[name]
    except KeyError:
        raise ParameterError(
            f"engine must be one of {engine_names()}, got {name!r}"
        ) from None


def get_backend(name: str) -> BackendSpec:
    try:
        return _BACKENDS[name]
    except KeyError:
        raise ParameterError(
            f"backend must be one of {backend_names()}, got {name!r}"
        ) from None


def get_pair_format(name: str) -> PairFormatSpec:
    try:
        return _PAIR_FORMATS[name]
    except KeyError:
        raise ParameterError(
            f"pairs_format must be one of {pair_format_names()}, got {name!r}"
        ) from None


# ----------------------------------------------------------------------
# the one validation routine
# ----------------------------------------------------------------------
def validate_run_settings(
    *,
    backend: str,
    engine: str,
    pairs_format: str,
    coarse: bool,
    num_workers: int,
    storage_dir: Optional[str] = None,
    memory_budget_bytes: Optional[int] = None,
) -> None:
    """Check one engine × backend × pairs_format combination.

    The shared rule table behind ``RunConfig.validate()``, the coarse
    sweeper, and the serving daemon's submit validation.  ``coarse`` is
    whether the run is chunked (any ``CoarseParams``).
    ``storage_dir`` / ``memory_budget_bytes`` configure the out-of-core
    pair store and therefore require ``pairs_format="mmap"``.  Raises
    :class:`ParameterError` with messages naming the live registry
    contents.
    """
    get_backend(backend)
    engine_spec = get_engine(engine)
    format_spec = get_pair_format(pairs_format)
    if coarse:
        require_backend_engine(backend, engine)
    if format_spec.requires_coarse and not coarse:
        raise ParameterError(
            f"pairs_format={pairs_format!r} requires coarse sweeping "
            "(pass coarse=True or CoarseParams)"
        )
    if pairs_format != "mmap":
        if storage_dir is not None:
            raise ParameterError(
                "storage_dir only applies to pairs_format='mmap', "
                f"got pairs_format={pairs_format!r}"
            )
        if memory_budget_bytes is not None:
            raise ParameterError(
                "memory_budget_bytes only applies to pairs_format='mmap', "
                f"got pairs_format={pairs_format!r}"
            )
    if memory_budget_bytes is not None and (
        isinstance(memory_budget_bytes, bool)
        or not isinstance(memory_budget_bytes, int)
        or memory_budget_bytes < 1
    ):
        raise ParameterError(
            "memory_budget_bytes must be a positive int, "
            f"got {memory_budget_bytes!r}"
        )
    if not isinstance(num_workers, int) or num_workers < 1:
        raise ParameterError(
            f"num_workers must be an int >= 1, got {num_workers!r}"
        )
    if engine_spec.requires_coarse and not coarse:
        raise ParameterError(
            f"engine={engine!r} requires coarse sweeping "
            "(pass coarse=True or CoarseParams)"
        )
    if num_workers < engine_spec.min_workers:
        raise ParameterError(
            f"engine={engine!r} needs num_workers >= {engine_spec.min_workers} "
            f"(one-worker runs take the serial sweep), got {num_workers}"
        )


def require_backend_engine(backend: str, engine: str) -> None:
    """Raise :class:`ParameterError` unless ``backend`` runs ``engine``.

    Shared by :func:`validate_run_settings`, the serial coarse sweeper
    (checked as ``backend="serial"``) and
    :func:`repro.parallel.par_sweep.parallel_coarse_sweep`, which checks
    a caller-owned runtime by its backend name.
    """
    get_engine(engine)
    engines = get_backend(backend).engines
    if engine not in engines:
        raise ParameterError(
            f"engine={engine!r} does not run on backend={backend!r}; "
            f"backend {backend!r} runs engines {engines}"
        )


def make_runtime(backend: str, num_workers: int) -> "SweepRuntime":
    """Build the backend's :class:`SweepRuntime`."""
    return get_backend(backend).runtime_factory(num_workers)
