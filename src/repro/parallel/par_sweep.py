"""Parallel coarse-grained sweeping (Section VI-B).

Each epoch's chunk is processed in two steps:

1. ``T`` duplicate copies of array ``C`` are made; the chunk's incident
   edge pairs are partitioned into ``T`` near-equal sets and each worker
   runs ``MERGE`` over its set on its own copy;
2. the ``T`` copies are combined with the corrected pairwise array-merge
   scheme, hierarchically (:func:`repro.parallel.merge_arrays.hierarchical_merge`).

Both steps run on a persistent :class:`~repro.parallel.runtime.SweepRuntime`
— worker state (thread/process pools, or the shared-memory arena for
``backend="shm"``) is created once per sweep and reused across every
chunk and epoch, exactly as the paper's pthreads outlive the run.

The sweep reaches the runtime through one transport.  A dict similarity
map converts to columns at sweep entry, so every run has a pair store:
its edge-index columns are loaded into the runtime once, and each chunk
is dispatched as a ``[start, stop)`` window of them.

All epoch-machine logic (modes, rollback, chunk estimation, reuse) is
inherited from the serial driver; only chunk application differs.
Because per-thread merge events cannot be interleaved into one global
stream, dendrogram records for a level are derived by *diffing* the
cluster partition before and after the chunk
(:func:`repro.core.coarse.transition_merges`), which yields the same
partition at every level (merge records within a level are unordered by
construction).  The batch and sharded engines carry fully compressed
label arrays through the runtime; the chained engine carries array ``C``.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

from repro.core.cancel import CancelToken
from repro.cluster.unionfind import ChainArray
from repro.core.coarse import (
    CoarseParams,
    ChainState,
    CoarseResult,
    _as_labels,
    _CoarseSweeper,
)
from repro.core.simcolumns import SimilarityColumns
from repro.core.similarity import SimilarityMap, compute_similarity_map
from repro.core.storage import StorageSettings
from repro.errors import ParameterError
from repro.graph.graph import Graph
from repro.parallel.pool import ExecutionBackend
from repro.parallel.runtime import SweepRuntime, get_sweep_runtime

__all__ = ["parallel_coarse_sweep"]


class _ParallelCoarseSweeper(_CoarseSweeper):
    """Coarse sweeper whose chunks run on a persistent sweep runtime."""

    # Per-worker merging never yields a global merge-event stream,
    # regardless of engine: level records always come from diffs.
    per_worker = True

    def __init__(
        self,
        graph: Graph,
        similarity_map: Union[SimilarityMap, SimilarityColumns],
        params: CoarseParams,
        edge_order: Optional[Sequence[int]],
        runtime: SweepRuntime,
        tracer=None,
        engine: str = "chained",
        epsilon: float = 0.0,
        cancel: Optional[CancelToken] = None,
        storage: Optional[StorageSettings] = None,
    ):
        super().__init__(
            graph,
            similarity_map,
            params,
            edge_order,
            tracer,
            engine=engine,
            epsilon=epsilon,
            cancel=cancel,
            storage=storage,
        )
        self._runtime = runtime

    def _apply_chunk(self, chunk: range) -> None:
        # The wedge stream is flat and the runtime holds the edge-index
        # columns (loaded once per sweep, as arrays or as a mapping of
        # the store's pair file), so the chunk reduces to a
        # [w_start, w_end) range.
        store = self.store
        assert store is not None
        w_start = int(store.offsets[chunk.start])
        w_end = int(store.offsets[chunk.stop])
        self.xi += w_end - w_start
        self.p = chunk.stop
        if w_start == w_end:
            return  # nothing to merge; the runtime is not consulted
        before = self.chain
        after: ChainState
        if self.engine == "batch":
            after = self._runtime.chunk_batch_range(
                _as_labels(before), w_start, w_end
            )
        elif self.engine == "sharded":
            after, deferred = self._runtime.chunk_sharded_range(
                _as_labels(before), w_start, w_end, defer_boundary=self.epsilon > 0
            )
            self._push_deferred(deferred)
        else:
            assert isinstance(before, ChainArray)
            after = self._runtime.chunk_merge_range(before, w_start, w_end)
        if after is not before:
            self._advance(after)


def parallel_coarse_sweep(
    graph: Graph,
    similarity_map: Optional[Union[SimilarityMap, SimilarityColumns]] = None,
    params: Optional[CoarseParams] = None,
    edge_order: Optional[Sequence[int]] = None,
    num_workers: int = 2,
    backend: Union[str, ExecutionBackend, SweepRuntime] = "thread",
    tracer=None,
    engine: str = "chained",
    epsilon: float = 0.0,
    cancel: Optional[CancelToken] = None,
    storage: Optional[StorageSettings] = None,
) -> CoarseResult:
    """Coarse-grained sweep with parallel chunk processing.

    ``backend`` is ``"serial"``, ``"thread"``, ``"process"``, or
    ``"shm"`` — the last runs resident worker processes over one
    ``multiprocessing.shared_memory`` block (no array pickling; see
    :mod:`repro.parallel.shm_sweep`).  A
    :class:`~repro.parallel.runtime.SweepRuntime` (or
    :class:`~repro.parallel.pool.ExecutionBackend`) instance may be
    passed instead of a name; the caller then owns its lifecycle, which
    lets one warm runtime serve several sweeps.

    ``engine`` selects how each worker applies its share of a chunk:
    ``"chained"`` walks the paper's sequential MERGE chain,
    ``"batch"`` contracts the share vectorized
    (:mod:`repro.fast.batch_sweep`) and the runtime joins the rows with
    one more contraction, and ``"sharded"`` gives each worker ownership
    of one contiguous vertex range of ``C`` (no private full copies;
    :mod:`repro.parallel.sharded_sweep`) with host-side boundary
    reconciliation per level.  Every engine runs on the columnar pair
    pipeline: a dict ``similarity_map`` is converted up front (same
    list-L order, so the same chunks and levels).
    ``epsilon > 0`` (sharded only) defers boundary reconciliation
    across levels while local merge deltas stay within ``(1 + epsilon)``
    of the reconciled count; the final partition is unchanged.

    ``cancel`` is an optional :class:`~repro.core.cancel.CancelToken`
    checked at chunk boundaries (between runtime dispatches, never
    inside a worker).

    ``storage`` selects the pair-store backing (see
    :func:`repro.core.coarse.coarse_sweep`): with ``kind="mmap"`` the
    sorted wedge columns live in one memory-mapped pair file and the
    runtime publishes its :class:`~repro.core.storage.PairFileSpec` to
    the workers, which map the file directly — page-cache sharing in
    place of a second shared-memory block and its per-run publish copy.
    The store (and any spill directory) is released before this
    returns, even on cancellation or worker failure.

    Produces the same per-level partitions as
    :func:`repro.core.coarse.coarse_sweep` for the same chunk boundaries;
    see the module docstring for how dendrogram records are derived.
    """
    if num_workers < 1:
        raise ParameterError(f"num_workers must be >= 1, got {num_workers}")
    sim = similarity_map if similarity_map is not None else compute_similarity_map(graph)
    caller_owned = isinstance(backend, SweepRuntime)
    runtime = get_sweep_runtime(backend, num_workers)
    sweeper = _ParallelCoarseSweeper(
        graph,
        sim,
        params or CoarseParams(),
        edge_order,
        runtime,
        tracer,
        engine=engine,
        epsilon=epsilon,
        cancel=cancel,
        storage=storage,
    )
    # Publish the sorted wedge columns to the runtime once; every chunk
    # then dispatches as a bare index range.  A file-backed store hands
    # over its spec instead of the arrays — workers map the pair file
    # directly (the shm runtime otherwise ships the arrays zero-copy
    # through a shared block).
    store = sweeper.store
    assert store is not None
    spec = store.file_spec()
    if spec is not None:
        runtime.load_pairs_file(spec)
    else:
        runtime.load_pairs(store.c1, store.c2)
    # The runtime reports per-chunk costs through the sweep's tracer;
    # restore its previous tracer afterwards so a caller-owned runtime
    # never keeps emitting into a tracer that may since have been closed.
    previous_tracer = runtime.tracer
    runtime.tracer = sweeper.tracer
    try:
        if caller_owned:
            return sweeper.run()
        with runtime:
            return sweeper.run()
    finally:
        runtime.tracer = previous_tracer
        sweeper.close_store()
