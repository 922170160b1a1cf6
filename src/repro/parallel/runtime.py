"""Persistent parallel runtime for the coarse sweep (Section VI-B).

The paper starts its pthreads once and amortizes that cost over every
chunk of the run.  A :class:`SweepRuntime` does the same for this
reproduction: worker state (thread/process executors, or the
shared-memory arena) is created once per sweep — explicitly via
:meth:`SweepRuntime.start` or lazily on the first chunk — reused across
all chunks and epochs, and released by :meth:`SweepRuntime.shutdown`
(or a ``with`` statement).  The alternative, paying pool construction
and shared-block allocation per chunk, is what
``benchmarks/bench_parallel_runtime.py`` quantifies.

A sweep reaches a runtime through one transport: the sorted pair
columns are loaded once (:meth:`SweepRuntime.load_pairs` or
:meth:`SweepRuntime.load_pairs_file`), and every chunk is then a
``[start, stop)`` window of them — :meth:`SweepRuntime.chunk_merge_range`
for the chained engine, :meth:`SweepRuntime.chunk_batch_range` for the
batch engine, and :meth:`ShmSweepRuntime.chunk_sharded_range` for the
sharded engine, which only the shm arena runs.

Two implementations cover the four backends:

* :class:`LocalSweepRuntime` — ``serial`` / ``thread`` / ``process``
  over :mod:`repro.parallel.pool`: per-chunk ``T`` private copies of
  array ``C``, one map call, hierarchical array merge (the paper's
  Section VI-B sweep, and the only runtime that runs the chained
  engine);
* :class:`ShmSweepRuntime` — the ``shm`` backend over
  :class:`repro.parallel.shm_sweep.ShmArena`: one resident ``T x n``
  shared block plus ``T`` resident worker processes, nothing but range
  tuples crossing a queue; batch and sharded engines only, and the only
  runtime that runs the sharded engine.

Every runtime reports a chunk's cost through its ``tracer`` as
``runtime:spawn`` / ``runtime:copy`` / ``runtime:compute`` /
``runtime:merge`` spans, which ``repro.bench.parallel_runtime`` and the
benchmarks sum into result tables.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.cluster.unionfind import ChainArray
from repro.core.registry import backend_names, make_runtime
from repro.core.storage import PairFileSpec
from repro.errors import ParameterError
from repro.obs import NULL_TRACER
from repro.fast.batch_sweep import batch_components, batch_join_rows
from repro.parallel.merge_arrays import hierarchical_merge
from repro.parallel.partitioner import strided_partition
from repro.parallel.pool import ExecutionBackend, SerialBackend, get_backend
from repro.parallel.shm_sweep import ShmArena

__all__ = [
    "SweepRuntime",
    "LocalSweepRuntime",
    "ShmSweepRuntime",
    "RuntimePool",
    "get_sweep_runtime",
    "SWEEP_BACKENDS",
]

SWEEP_BACKENDS = backend_names()

class SweepRuntime:
    """Long-lived worker state + the per-chunk merge operation.

    Lifecycle: ``start()`` (idempotent; chunk calls start lazily),
    ``shutdown()`` (idempotent), or a ``with`` statement.  After
    ``shutdown`` the runtime is reusable — the next chunk restarts it.
    """

    name: str = "abstract"

    def __init__(self) -> None:
        # Assigned by the driver (parallel_coarse_sweep) for the duration
        # of a sweep; per-chunk costs surface as ``runtime:*`` spans.
        self.tracer = NULL_TRACER
        # Columnar pair columns loaded once per sweep (load_pairs); range
        # chunks then reference [start, stop) windows instead of shipping
        # pair lists.  The token lets backends detect staleness.  When
        # the columns come from an out-of-core store, _pairs_file holds
        # the PairFileSpec and workers map the file themselves.
        self._pairs: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self._pairs_file: Optional[PairFileSpec] = None
        self._pairs_token = 0

    def start(self) -> "SweepRuntime":
        """Create worker state eagerly; returns self."""
        return self

    def shutdown(self) -> None:
        """Release worker state."""

    def __enter__(self) -> "SweepRuntime":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown()

    # ------------------------------------------------------------------
    # columnar pair transport
    # ------------------------------------------------------------------
    def load_pairs(self, i1: np.ndarray, i2: np.ndarray) -> None:
        """Load the sweep's full K2 pair columns once.

        ``i1``/``i2`` are the array-``C`` indices of every wedge's two
        edges, in list-L order.  Subsequent chunk calls
        (``chunk_*_range``) address ``[start, stop)`` windows of these
        columns, so per-chunk dispatch ships only two ints —
        and on the shm backend the columns are written into shared
        memory exactly once.
        """
        i1 = np.ascontiguousarray(i1, dtype=np.int64)
        i2 = np.ascontiguousarray(i2, dtype=np.int64)
        if i1.ndim != 1 or i1.shape != i2.shape:
            raise ParameterError(
                f"i1/i2 must be equal-length 1-D arrays, got shapes "
                f"{i1.shape}/{i2.shape}"
            )
        self._pairs = (i1, i2)
        self._pairs_file = None
        self._pairs_token += 1

    def load_pairs_file(self, spec: PairFileSpec) -> None:
        """Load the sweep's pair columns from an out-of-core pair file.

        Host-side code reads the columns through read-only memory maps;
        backends whose workers live in other processes ship the (small,
        picklable) ``spec`` instead of the arrays, so every worker maps
        the same file and the chunk data is shared through the kernel
        page cache — no per-run publish copy, no second shared block.
        """
        self._pairs = (spec.open_c1(), spec.open_c2())
        self._pairs_file = spec
        self._pairs_token += 1

    def _require_pairs(self, start: int, stop: int) -> Tuple[np.ndarray, np.ndarray]:
        if self._pairs is None:
            raise ParameterError(
                "chunk ranges require load_pairs() to be called first"
            )
        i1, i2 = self._pairs
        if not (0 <= start <= stop <= len(i1)):
            raise ParameterError(
                f"pair range [{start}, {stop}) out of bounds for "
                f"{len(i1)} loaded pairs"
            )
        return i1, i2

    def chunk_merge_range(
        self, chain: ChainArray, start: int, stop: int
    ) -> ChainArray:
        """MERGE the loaded pair columns' ``[start, stop)`` window.

        Starts from ``chain`` and returns the merged array (``chain``
        itself, unmodified, for an empty window); never mutates
        ``chain``.  Requires a prior :meth:`load_pairs` or
        :meth:`load_pairs_file`.  Only :class:`LocalSweepRuntime` runs
        the chained engine; any other runtime raises
        :class:`~repro.errors.ParameterError`.
        """
        raise ParameterError(
            f"engine='chained' does not run on backend={self.name!r}; "
            "use engine='batch' or engine='sharded'"
        )

    def chunk_batch_range(
        self, labels: np.ndarray, start: int, stop: int
    ) -> np.ndarray:
        """Batch-engine counterpart of :meth:`chunk_merge_range`.

        Unions the loaded pair columns' ``[start, stop)`` window into the
        label array ``labels`` with the vectorized connected-components
        kernel (:func:`repro.fast.batch_sweep.batch_components`) instead
        of sequential MERGE calls, and returns the fully compressed
        labels of the join.  Never mutates ``labels``; returns it
        unchanged for an empty window.  This baseline runs one
        in-process contraction; :class:`LocalSweepRuntime` and
        :class:`ShmSweepRuntime` override it with per-worker strided
        contractions plus a batch join.
        """
        i1, i2 = self._require_pairs(start, stop)
        if start == stop:
            return labels
        t0 = time.perf_counter()
        after = batch_components(labels, i1[start:stop], i2[start:stop])
        self.tracer.record("runtime:compute", time.perf_counter() - t0, workers=1)
        return after

    def __repr__(self) -> str:
        return f"{type(self).__name__}(backend={self.name!r})"


def _merge_arrays_worker(
    chain: ChainArray, i1: np.ndarray, i2: np.ndarray
) -> ChainArray:
    """Run MERGE over parallel index arrays on a private copy of ``C``."""
    chain.merge_run(i1, i2, 0, len(i1))
    return chain


def _batch_worker(
    labels: np.ndarray, i1: np.ndarray, i2: np.ndarray
) -> np.ndarray:
    """Batch-engine worker: one contraction over this worker's slice.

    ``labels`` is shared read-only between thread workers — the kernel
    copies internally, so no per-worker duplicate of array ``C`` is
    made up front (the batch engine's "copy" step is folded into the
    contraction).  Returns the fully compressed label row.
    """
    return batch_components(labels, i1, i2)


# Per-process cache of mapped pair-file columns, keyed by file path.  A
# pool worker services many chunks of the same sweep; mapping the file
# once per worker (not per task) keeps dispatch to a few ints.  One
# entry suffices — a new path means a new sweep, and the old file is
# gone (the store unlinks it on close).
_FILE_PAIR_CACHE: Dict[str, Tuple[np.ndarray, np.ndarray]] = {}


def _file_pair_columns(spec: PairFileSpec) -> Tuple[np.ndarray, np.ndarray]:
    cached = _FILE_PAIR_CACHE.get(spec.path)
    if cached is None:
        _FILE_PAIR_CACHE.clear()  # repro: noqa PAR101 (per-process map cache — divergence between workers is the point)
        cached = (spec.open_c1(), spec.open_c2())
        _FILE_PAIR_CACHE[spec.path] = cached  # repro: noqa PAR101 (idempotent memo)
    return cached


def _merge_file_range_worker(
    chain: ChainArray, spec: PairFileSpec, start: int, stop: int, step: int
) -> ChainArray:
    """File-backed variant of :func:`_merge_arrays_worker`.

    The worker maps the pair file itself (cached per process) and runs
    MERGE over its strided slice — only the spec and three ints crossed
    the process boundary.
    """
    i1, i2 = _file_pair_columns(spec)
    return _merge_arrays_worker(chain, i1[start:stop:step], i2[start:stop:step])


def _batch_file_worker(
    labels: np.ndarray, spec: PairFileSpec, start: int, stop: int, step: int
) -> np.ndarray:
    """File-backed variant of :func:`_batch_worker`."""
    i1, i2 = _file_pair_columns(spec)
    return _batch_worker(labels, i1[start:stop:step], i2[start:stop:step])


class LocalSweepRuntime(SweepRuntime):
    """Chunk processing over a persistent pool backend.

    Step 1 copies array ``C`` once per busy worker and maps
    :func:`_merge_arrays_worker` over the copies; step 2 combines them
    with the corrected hierarchical array merge.  The pool itself (threads or
    processes) outlives the chunk: it is started once and reused.
    """

    def __init__(self, backend: Union[str, ExecutionBackend], num_workers: int = 2):
        if num_workers < 1:
            raise ParameterError(f"num_workers must be >= 1, got {num_workers}")
        if isinstance(backend, ExecutionBackend):
            self.backend = backend
        else:
            self.backend = get_backend(backend, num_workers)
        self.name = self.backend.name
        super().__init__()
        self.num_workers = num_workers
        self._spawns = 0
        # Hierarchical array merging re-pickles arrays on the process
        # backend; arrays already live in the parent after step 1, so the
        # combine step stays inline there.
        self._merge_backend = (
            self.backend if self.backend.name == "thread" else SerialBackend()
        )

    def start(self) -> "LocalSweepRuntime":
        was_running = getattr(self.backend, "running", True)
        t0 = time.perf_counter()
        self.backend.start()
        dt = time.perf_counter() - t0
        if not was_running:
            # An actual pool (re-)spawn, not an idempotent no-op call.
            self.tracer.record("runtime:spawn", dt, backend=self.name)
            if self._spawns:
                self.tracer.count("worker_restarts")
            self._spawns += 1
        return self

    def shutdown(self) -> None:
        self.backend.shutdown()

    def _merge_on_copies(
        self,
        chain: ChainArray,
        fn: Callable[..., ChainArray],
        part_args: List[Tuple],
    ) -> ChainArray:
        """The two-step chunk recipe over per-worker argument tuples.

        Step 1: copy array ``C`` per busy worker and map ``fn`` over
        ``(copy, *args)``; step 2: hierarchical array merge.  Shared by
        the in-memory and file-backed pair columns.
        """
        # Spawn before the copy timer starts, so pool construction cost
        # lands in runtime:spawn only.
        self.start()
        tracer = self.tracer

        t0 = time.perf_counter()
        copies = [chain.copy() for _ in part_args]
        t1 = time.perf_counter()
        tracer.record("runtime:copy", t1 - t0, copies=len(part_args))

        merged = self.backend.map(
            fn, [(copy, *args) for copy, args in zip(copies, part_args)]
        )
        t2 = time.perf_counter()
        tracer.record("runtime:compute", t2 - t1, workers=len(part_args))

        after = hierarchical_merge(list(merged), self._merge_backend, n=len(chain))
        tracer.record("runtime:merge", time.perf_counter() - t2)
        return after

    def chunk_merge_range(
        self, chain: ChainArray, start: int, stop: int
    ) -> ChainArray:
        i1, i2 = self._require_pairs(start, stop)
        if start == stop:
            return chain
        # Strided slices give item r of the window to worker r % k (the
        # paper's round-robin split) without materializing pair tuples;
        # strided_partition never yields an empty slice, so no idle
        # worker gets a degenerate task.
        parts = strided_partition(start, stop, self.num_workers)
        if self._pairs_file is not None and self.backend.name == "process":
            # File-backed pairs + process workers: ship the spec and the
            # stride, not the (pickled) column slices — each worker maps
            # the pair file once and pages in only its share.
            spec = self._pairs_file
            file_args = [(spec, p.start, p.stop, p.step) for p in parts]
            return self._merge_on_copies(chain, _merge_file_range_worker, file_args)
        part_args = [
            (i1[p.start : p.stop : p.step], i2[p.start : p.stop : p.step])
            for p in parts
        ]
        return self._merge_on_copies(chain, _merge_arrays_worker, part_args)

    def chunk_batch_range(
        self, labels: np.ndarray, start: int, stop: int
    ) -> np.ndarray:
        """Batch engine over the pool: strided contractions + batch join.

        Step 1 maps :func:`_batch_worker` over the window's
        strided slices (each worker contracts its share against the
        same read-only base labels — the kernel copies internally, so
        no up-front per-worker copy of ``C`` is paid); step 2 joins the
        resulting label rows with one more contraction
        (:func:`repro.fast.batch_sweep.batch_join_rows`) instead of the
        pairwise chain-walk merge.
        """
        i1, i2 = self._require_pairs(start, stop)
        if start == stop:
            return labels
        parts = strided_partition(start, stop, self.num_workers)
        if len(parts) == 1:
            # One busy worker: dispatch buys nothing; contract inline.
            t0 = time.perf_counter()
            after = batch_components(labels, i1[start:stop], i2[start:stop])
            self.tracer.record("runtime:compute", time.perf_counter() - t0, workers=1)
            return after
        self.start()
        tracer = self.tracer

        t1 = time.perf_counter()
        if self._pairs_file is not None and self.backend.name == "process":
            spec = self._pairs_file
            rows = self.backend.map(
                _batch_file_worker,
                [(labels, spec, p.start, p.stop, p.step) for p in parts],
            )
        else:
            rows = self.backend.map(
                _batch_worker,
                [(labels, i1[p.start : p.stop : p.step], i2[p.start : p.stop : p.step])
                 for p in parts],
            )
        t2 = time.perf_counter()
        tracer.record("runtime:compute", t2 - t1, workers=len(parts))

        joined = batch_join_rows(list(rows), tracer=tracer)
        tracer.record("runtime:merge", time.perf_counter() - t2)
        return joined

    def __repr__(self) -> str:
        return (
            f"LocalSweepRuntime(backend={self.name!r}, "
            f"num_workers={self.num_workers})"
        )


def _arena_costs(arena: ShmArena) -> Tuple[float, float, float, float]:
    """The arena's cumulative spawn / copy / compute / merge seconds."""
    return (arena.spawn_time, arena.copy_time, arena.compute_time, arena.merge_time)


class ShmSweepRuntime(SweepRuntime):
    """Chunk processing over the resident shared-memory arena.

    The arena (one ``T x n`` block + ``T`` worker processes) is sized to
    the first chunk's array length and kept for the whole sweep; see
    :class:`repro.parallel.shm_sweep.ShmArena`.
    """

    name = "shm"

    def __init__(self, num_workers: int = 2, n: int | None = None):
        if num_workers < 1:
            raise ParameterError(f"num_workers must be >= 1, got {num_workers}")
        super().__init__()
        self.num_workers = num_workers
        self._arena: ShmArena | None = ShmArena(n, num_workers) if n is not None else None

    @property
    def arena(self) -> ShmArena | None:
        """The live arena (``None`` until the first sized use)."""
        return self._arena

    def _arena_for(self, n: int) -> ShmArena:
        if self._arena is not None and self._arena.n != n:
            # Array C's length is fixed for a sweep; a different n means
            # a new sweep over a different graph — re-size the arena.
            self._arena.shutdown()
            self._arena = None
            self.tracer.count("worker_restarts")
        if self._arena is None:
            self._arena = ShmArena(n, self.num_workers)
        return self._arena

    def start(self) -> "ShmSweepRuntime":
        if self._arena is not None:
            self._arena.start()
        return self

    def shutdown(self) -> None:
        if self._arena is not None:
            self._arena.shutdown()

    def _record_costs(
        self,
        arena: ShmArena,
        before: Tuple[float, float, float, float],
    ) -> None:
        """Record one arena chunk's cost as ``runtime:*`` spans.

        The arena times its own steps (workers run out-of-process); this
        chunk's cost is the change in its counters since ``before``
        (:func:`_arena_costs`).
        """
        spawn, copy, compute, merge = (
            now - then for now, then in zip(_arena_costs(arena), before)
        )
        tracer = self.tracer
        if spawn > 0.0:
            tracer.record("runtime:spawn", spawn, backend=self.name)
        tracer.record("runtime:copy", copy)
        tracer.record("runtime:compute", compute, workers=self.num_workers)
        tracer.record("runtime:merge", merge)

    def _sync_pairs(self, arena: ShmArena, i1: np.ndarray, i2: np.ndarray) -> None:
        """Publish this sweep's pair columns to the arena if stale.

        First range chunk of a sweep (or after an arena re-size): array
        pairs are written into shared memory once; file-backed pairs
        hand the workers the spec instead — they map the pair file
        directly, so nothing K2-sized is copied or shared-block-backed.
        """
        if arena.pairs_token == self._pairs_token:
            return
        if self._pairs_file is not None:
            arena.load_pairs_file(self._pairs_file, token=self._pairs_token)
        else:
            arena.load_pairs(i1, i2, token=self._pairs_token)

    def chunk_batch_range(
        self, labels: np.ndarray, start: int, stop: int
    ) -> np.ndarray:
        """Batch engine over the arena (``("batch_range", ...)`` tasks).

        Pair columns are loaded into shared memory once per sweep and
        each task is only a range tuple; each worker contracts its
        strided slice vectorized in place of its row, and the parent
        joins the rows with one batch contraction.
        """
        i1, i2 = self._require_pairs(start, stop)
        if start == stop:
            return labels
        arena = self._arena_for(len(labels))
        self._sync_pairs(arena, i1, i2)
        before = _arena_costs(arena)
        after = arena.chunk_batch_range(labels, start, stop)
        self._record_costs(arena, before)
        return after

    def chunk_sharded_range(
        self, labels: np.ndarray, start: int, stop: int
    ) -> np.ndarray:
        """Sharded engine over the arena (owner-computes shard tasks).

        The arena keeps array ``C`` once in shared memory; each resident
        worker contracts and writes back only its owned vertex slice
        (:meth:`repro.parallel.shm_sweep.ShmArena.chunk_sharded_range`),
        so no per-worker n-sized copy exists on any path.  Boundary and
        reconciliation counters are surfaced as tracer counts per chunk.
        """
        i1, i2 = self._require_pairs(start, stop)
        if start == stop:
            return labels
        arena = self._arena_for(len(labels))
        self._sync_pairs(arena, i1, i2)
        boundary_before = arena.boundary_edges
        rounds_before = arena.reconcile_rounds
        before = _arena_costs(arena)
        after = arena.chunk_sharded_range(labels, start, stop)
        self._record_costs(arena, before)
        tracer = self.tracer
        tracer.gauge("shard_bytes", arena.shard_bytes)
        boundary_delta = arena.boundary_edges - boundary_before
        if boundary_delta:
            tracer.count("boundary_edges", boundary_delta)
        rounds_delta = arena.reconcile_rounds - rounds_before
        if rounds_delta:
            tracer.count("reconcile_rounds", rounds_delta)
        return after

    def __repr__(self) -> str:
        return f"ShmSweepRuntime(num_workers={self.num_workers})"


class RuntimePool:
    """Keyed pool of warm :class:`SweepRuntime` instances.

    A long-lived caller (the serving daemon) leases a runtime per run
    instead of paying pool/arena construction every time: ``lease``
    returns an idle warm runtime for the ``(backend, num_workers)`` key
    or builds a fresh one, and ``release`` parks it again.  Releasing
    with ``healthy=False`` (after a :class:`~repro.errors.ParallelError`
    — a crashed worker, a poisoned arena) shuts the runtime down instead
    of recycling it, so one crashed job never contaminates the next.

    Leases are exclusive — a runtime is never handed to two callers at
    once — which is what makes the (individually non-thread-safe)
    runtimes safe to share across a worker fleet.  ``shutdown`` closes
    idle runtimes only; in-flight leases finish their run and are
    discarded on release.
    """

    def __init__(self, max_idle_per_key: int = 2):
        if max_idle_per_key < 1:
            raise ParameterError(
                f"max_idle_per_key must be >= 1, got {max_idle_per_key}"
            )
        self.max_idle_per_key = max_idle_per_key
        self._lock = threading.Lock()
        self._idle: Dict[Tuple[str, int], List[SweepRuntime]] = {}
        self._closed = False
        self.hits = 0
        self.misses = 0
        self.discards = 0

    def lease(self, backend: str, num_workers: int, warm: bool = True) -> SweepRuntime:
        """An exclusive runtime for the key (idle one if available).

        ``warm`` starts a freshly-built runtime's workers immediately
        (instead of lazily on its first chunk), so the spawn cost lands
        here — outside any job's measured wall-clock.
        """
        key = (backend, num_workers)
        with self._lock:
            stack = self._idle.get(key)
            if stack:
                self.hits += 1
                return stack.pop()
            self.misses += 1
        runtime = make_runtime(backend, num_workers)
        if warm:
            runtime.start()
        return runtime

    def release(
        self, backend: str, num_workers: int, runtime: SweepRuntime,
        healthy: bool = True,
    ) -> None:
        """Return a leased runtime (park it warm, or discard on damage)."""
        key = (backend, num_workers)
        with self._lock:
            if healthy and not self._closed:
                stack = self._idle.setdefault(key, [])
                if len(stack) < self.max_idle_per_key:
                    stack.append(runtime)
                    return
            self.discards += 1
        runtime.shutdown()

    def warm(self, backend: str, num_workers: int) -> None:
        """Pre-build and park a started runtime for the key."""
        self.release(backend, num_workers, self.lease(backend, num_workers))

    def idle_count(self) -> int:
        with self._lock:
            return sum(len(stack) for stack in self._idle.values())

    def stats(self) -> Dict[str, int]:
        with self._lock:
            idle = sum(len(stack) for stack in self._idle.values())
            return {
                "hits": self.hits,
                "misses": self.misses,
                "discards": self.discards,
                "idle": idle,
            }

    def shutdown(self) -> None:
        """Close all idle runtimes; subsequent releases discard."""
        with self._lock:
            self._closed = True
            runtimes = [rt for stack in self._idle.values() for rt in stack]
            self._idle.clear()
        for runtime in runtimes:
            runtime.shutdown()

    def __enter__(self) -> "RuntimePool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown()

    def __repr__(self) -> str:
        return (
            f"RuntimePool(hits={self.hits}, misses={self.misses}, "
            f"discards={self.discards}, idle={self.idle_count()})"
        )


def get_sweep_runtime(
    backend: Union[str, ExecutionBackend, SweepRuntime], num_workers: int = 2
) -> SweepRuntime:
    """Runtime factory for the parallel sweep backends.

    ``backend`` is a registered backend name (see
    :func:`repro.core.registry.backend_names` — ``"serial"``,
    ``"thread"``, ``"process"``, ``"shm"`` built in), an
    :class:`ExecutionBackend` instance (wrapped in a
    :class:`LocalSweepRuntime`), or an existing :class:`SweepRuntime`
    (returned unchanged, so callers can share one runtime across
    sweeps).  String names dispatch through the capability registry's
    per-backend runtime factories.
    """
    if isinstance(backend, SweepRuntime):
        return backend
    if isinstance(backend, ExecutionBackend):
        return LocalSweepRuntime(backend, num_workers)
    if isinstance(backend, str):
        return make_runtime(backend, num_workers)
    raise ParameterError(
        f"unknown sweep backend {backend!r}; expected one of {backend_names()} "
        "or a backend/runtime instance"
    )
