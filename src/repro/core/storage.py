"""Out-of-core pair store: the storage abstraction over the pair columns.

The sweep's input — list ``L`` — is the sorted pair columns plus the
K2-long wedge edge-id stream.  ROADMAP item 2 asks for that data to be
bounded by *disk*, not RAM.  This module provides the abstraction:

* :class:`PairStore` — what the coarse sweep consumes: the sorted
  ``sim``/``u``/``v`` columns, the CSR ``offsets``, and the ``c1``/``c2``
  merge stream (edge indices into array ``C``), plus bounded *window*
  access for streaming consumers.
* :class:`InMemoryPairStore` — today's behaviour, wrapping
  :meth:`~repro.core.simcolumns.SimilarityColumns.sort_pairs` and
  :func:`~repro.core.simcolumns.wedge_edge_arrays`.  This is the oracle:
  every other store must be bitwise-identical to it at every dendrogram
  level.
* :class:`MmapPairStore` — the out-of-core store.  All six columns live
  in one flat binary file under a run-scoped spill directory, accessed
  through read-only :class:`numpy.memmap` views.  When
  ``memory_budget_bytes`` is smaller than the pair data, the build
  spills budget-sized *sorted runs* to disk and an external k-way merge
  (keyed ``(-sim, u, v)``, a strict total order because ``(u, v)`` is
  unique) produces the globally sorted file without materializing all
  of K2 in RAM.  The merge output is exactly the one-lexsort order —
  ties included — so the store is bitwise-identical to the oracle.

Two build paths produce byte-identical files:

* :meth:`MmapPairStore.build` starts from a materialized
  :class:`SimilarityColumns` (the parallel drivers' path — their hosts
  already ran vectorized Phase I).
* :meth:`MmapPairStore.build_streaming` starts from the *graph* and
  never holds a K2-sized array: wedges are enumerated in budget-bounded
  centre chunks, spilled as pair-rank-sorted runs, and merged
  group-aligned — each pair's dot product is one
  ``np.add.reduceat`` over its contiguous wedge slice, which reproduces
  the oracle's pairwise summation bit for bit (``reduceat`` group sums
  are a function of the group slice alone).  Only O(K1 + |E|) stays
  resident; this is the serial mmap pipeline's init.

The single-file layout (``pairs.bin``) is::

    sim      float64[k1]
    u        int64[k1]
    v        int64[k1]
    offsets  int64[k1 + 1]
    c1       int64[k2]
    c2       int64[k2]

:class:`PairFileSpec` carries the path and section byte offsets; it is
picklable, so parallel runtimes ship it to workers which map the file
directly — zero-copy page-cache sharing in place of a second shared
memory block and its per-run publish copy.

Observability: building a spilled store emits one ``storage:spill``
span per run (``spill_runs`` / ``bytes_spilled`` counters) and one
``storage:merge`` span; every bounded window fetch is a
``storage:window`` span (``window_loads`` counter); both stores gauge
``store_bytes``.
"""

from __future__ import annotations

import dataclasses
import heapq
import os
import shutil
import tempfile
from typing import Iterator, List, Optional, Tuple

import numpy as np

from repro.core.cancel import CancelToken
from repro.core.simcolumns import (
    SimilarityColumns,
    _edge_key_table,
    _lookup_edge_ids,
    wedge_edge_arrays,
)
from repro.errors import ParameterError
from repro.graph.graph import Graph
from repro.obs import as_tracer

__all__ = [
    "DEFAULT_WINDOW_BYTES",
    "InMemoryPairStore",
    "MmapPairStore",
    "PairFileSpec",
    "PairStore",
    "StorageSettings",
    "make_pair_store",
]

_F8 = 8  # bytes per float64 / int64 element
# One wedge costs 16 bytes in the stream (c1 + c2).
_WEDGE_BYTES = 2 * _F8
# One pair costs sim + u + v + its offsets slot.
_PAIR_BYTES = 4 * _F8

#: Window size used for streaming reads when no budget bounds it.
DEFAULT_WINDOW_BYTES = 4 * 1024 * 1024

_MIN_WINDOW_BYTES = 64 * 1024


@dataclasses.dataclass(frozen=True)
class StorageSettings:
    """How the sweep's pair store is materialized.

    ``kind`` is ``"memory"`` (default: plain arrays) or ``"mmap"`` (the
    out-of-core store).  ``storage_dir`` roots the run-scoped spill
    directory (system temp dir when ``None``); ``memory_budget_bytes``
    caps how much pair data the mmap build holds in RAM at once — when
    the pair data exceeds it, sorted runs spill to disk and are
    external-merged.  ``None`` means "sort in memory, store on disk"
    (no spill).
    """

    kind: str = "memory"
    storage_dir: Optional[str] = None
    memory_budget_bytes: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind not in ("memory", "mmap"):
            raise ParameterError(
                f"storage kind must be 'memory' or 'mmap', got {self.kind!r}"
            )
        budget = self.memory_budget_bytes
        if budget is not None and (
            isinstance(budget, bool) or not isinstance(budget, int) or budget < 1
        ):
            raise ParameterError(
                f"memory_budget_bytes must be a positive int, got {budget!r}"
            )


@dataclasses.dataclass(frozen=True)
class PairFileSpec:
    """Path + section byte offsets of one ``pairs.bin`` (picklable).

    Workers re-map the file from this spec alone; the helpers return
    fresh read-only views whose lifetime is the caller's (dropping the
    reference unmaps — :class:`numpy.memmap` has no ``close``).
    """

    path: str
    k1: int
    k2: int

    @property
    def sim_offset(self) -> int:
        return 0

    @property
    def u_offset(self) -> int:
        return self.k1 * _F8

    @property
    def v_offset(self) -> int:
        return 2 * self.k1 * _F8

    @property
    def offsets_offset(self) -> int:
        return 3 * self.k1 * _F8

    @property
    def c1_offset(self) -> int:
        return (4 * self.k1 + 1) * _F8

    @property
    def c2_offset(self) -> int:
        return (4 * self.k1 + 1 + self.k2) * _F8

    @property
    def total_bytes(self) -> int:
        return (4 * self.k1 + 1 + 2 * self.k2) * _F8

    def open_sim(self) -> np.ndarray:
        return _map_f64(self.path, self.sim_offset, self.k1)

    def open_u(self) -> np.ndarray:
        return _map_i64(self.path, self.u_offset, self.k1)

    def open_v(self) -> np.ndarray:
        return _map_i64(self.path, self.v_offset, self.k1)

    def open_offsets(self) -> np.ndarray:
        return _map_i64(self.path, self.offsets_offset, self.k1 + 1)

    def open_c1(self) -> np.ndarray:
        return _map_i64(self.path, self.c1_offset, self.k2)

    def open_c2(self) -> np.ndarray:
        return _map_i64(self.path, self.c2_offset, self.k2)


def _map_i64(path: str, offset: int, count: int) -> np.ndarray:
    if count == 0:
        return np.empty(0, dtype=np.int64)
    return np.memmap(path, dtype=np.int64, mode="r", offset=offset, shape=(count,))


def _map_f64(path: str, offset: int, count: int) -> np.ndarray:
    if count == 0:
        return np.empty(0, dtype=np.float64)
    return np.memmap(path, dtype=np.float64, mode="r", offset=offset, shape=(count,))


class PairStore:
    """List ``L`` plus its K2 merge stream, behind one access surface.

    Attributes are parallel array-likes: ``sims``/``us``/``vs`` (K1,
    sorted non-increasing by similarity, ties by ``(u, v)``),
    ``offsets`` (K1 + 1 CSR row starts into the wedge stream), and
    ``c1``/``c2`` (K2 edge indices into array ``C``).  Consumers read
    the wedge stream through :meth:`window_ranges` / :meth:`window`,
    which bound the resident set of out-of-core stores, instead of
    slicing whole chunks.
    """

    kind: str = "memory"

    k1: int
    k2: int
    sims: np.ndarray
    us: np.ndarray
    vs: np.ndarray
    offsets: np.ndarray
    c1: np.ndarray
    c2: np.ndarray

    @property
    def num_pairs(self) -> int:
        return self.k1

    @property
    def store_bytes(self) -> int:
        raise NotImplementedError

    def window(self, w0: int, w1: int) -> Tuple[np.ndarray, np.ndarray]:
        """The wedge stream slice ``[w0, w1)`` as two arrays."""
        raise NotImplementedError

    def window_ranges(self, w0: int, w1: int) -> Iterator[Tuple[int, int]]:
        """Split ``[w0, w1)`` into store-bounded sub-windows."""
        raise NotImplementedError

    def file_spec(self) -> Optional[PairFileSpec]:
        """The backing file for worker-side mapping (None if memory-only)."""
        return None

    def close(self) -> None:
        """Release resources (idempotent); spill directories are removed."""


class InMemoryPairStore(PairStore):
    """The oracle: sorted columns + wedge stream as plain arrays."""

    kind = "memory"

    def __init__(
        self,
        sorted_columns: SimilarityColumns,
        c1: np.ndarray,
        c2: np.ndarray,
        tracer=None,
    ):
        tracer = as_tracer(tracer)
        self.columns = sorted_columns
        self.k1 = sorted_columns.k1
        self.k2 = sorted_columns.k2
        self.sims = sorted_columns.sim
        self.us = sorted_columns.u
        self.vs = sorted_columns.v
        self.offsets = sorted_columns.common_offsets
        self.c1 = c1
        self.c2 = c2
        tracer.gauge("store_bytes", self.store_bytes)

    @classmethod
    def build(
        cls,
        graph: Graph,
        columns: SimilarityColumns,
        index_arr: np.ndarray,
        tracer=None,
    ) -> "InMemoryPairStore":
        sorted_columns = columns.sort_pairs()
        e1, e2 = wedge_edge_arrays(graph, sorted_columns)
        c1 = index_arr[e1] if len(e1) else e1
        c2 = index_arr[e2] if len(e2) else e2
        return cls(sorted_columns, c1, c2, tracer=tracer)

    @property
    def store_bytes(self) -> int:
        return (
            self.sims.nbytes
            + self.us.nbytes
            + self.vs.nbytes
            + self.offsets.nbytes
            + self.c1.nbytes
            + self.c2.nbytes
        )

    def window(self, w0: int, w1: int) -> Tuple[np.ndarray, np.ndarray]:
        return self.c1[w0:w1], self.c2[w0:w1]

    def window_ranges(self, w0: int, w1: int) -> Iterator[Tuple[int, int]]:
        if w1 > w0:
            yield w0, w1


class _RunFile:
    """One spilled sorted run: six memmapped sections plus a cursor."""

    def __init__(self, path: str, k1: int, k2: int):
        self.path = path
        self.k1 = k1
        self.k2 = k2
        spec = PairFileSpec(path=path, k1=k1, k2=k2)
        self.sim = spec.open_sim()
        self.u = spec.open_u()
        self.v = spec.open_v()
        self.offsets = spec.open_offsets()
        self.c1 = spec.open_c1()
        self.c2 = spec.open_c2()
        self.pos = 0

    def key(self) -> Tuple[float, int, int]:
        pos = self.pos
        return (-float(self.sim[pos]), int(self.u[pos]), int(self.v[pos]))

    def release(self) -> None:
        # Dropping the memmap references unmaps; then the file can go.
        self.sim = self.u = self.v = self.offsets = self.c1 = self.c2 = None  # type: ignore[assignment]
        os.unlink(self.path)


class _SectionWriter:
    """Buffered writer for one section of ``pairs.bin``.

    Appends go into an in-RAM buffer that is flushed with ``seek`` +
    ``write`` once it exceeds the flush threshold, so building the file
    never maps it — the output pages live in the kernel page cache, not
    in this process's resident set.
    """

    def __init__(self, handle, base: int, dtype, flush_elems: int = 1 << 16):
        self._handle = handle
        self._base = base
        self._dtype = dtype
        self._flush_elems = flush_elems
        self._written = 0
        self._chunks: List[np.ndarray] = []
        self._buffered = 0

    def append(self, values: np.ndarray) -> None:
        if len(values) == 0:
            return
        self._chunks.append(np.ascontiguousarray(values, dtype=self._dtype))
        self._buffered += len(values)
        if self._buffered >= self._flush_elems:
            self.flush()

    def append_scalar(self, value) -> None:
        self.append(np.array([value], dtype=self._dtype))

    def flush(self) -> None:
        if not self._chunks:
            return
        data = np.concatenate(self._chunks)
        self._handle.seek(self._base + self._written * data.itemsize)
        self._handle.write(data.tobytes())
        self._written += len(data)
        self._chunks = []
        self._buffered = 0


# Streaming-build wedge record: rank + c1 + c2 (int64) + wprod (float64),
# stored as four parallel sections per run file.
_STREAM_RECORD_BYTES = 4 * _F8


def _center_chunks(indptr: np.ndarray, budget: Optional[int]) -> List[List[int]]:
    """Partition wedge centres into budget-bounded enumeration chunks.

    A centre of degree ``d`` contributes ``d * (d - 1) / 2`` wedges; each
    buffered wedge costs ~2x its record during the chunk sort, so the
    cap is ``budget / (2 * record)`` wedges.  Every chunk holds at least
    one centre (a single high-degree centre may exceed the cap — the
    same way a single pair can exceed a run budget in the columns path).
    """
    degrees = np.diff(indptr)
    centers = np.flatnonzero(degrees >= 2)
    if len(centers) == 0:
        return []
    wedge_counts = (degrees[centers] * (degrees[centers] - 1)) // 2
    effective = budget if budget is not None else 16 * DEFAULT_WINDOW_BYTES
    # Floor of 16 wedges: tiny test budgets still get multi-chunk spills
    # without degenerating into one run per wedge.
    cap = max(16, effective // (2 * _STREAM_RECORD_BYTES))
    chunks: List[List[int]] = []
    current: List[int] = []
    spent = 0
    for center, wedges in zip(centers.tolist(), wedge_counts.tolist()):
        if current and spent + wedges > cap:
            chunks.append(current)
            current = []
            spent = 0
        current.append(center)
        spent += wedges
    if current:
        chunks.append(current)
    return chunks


def _spill_wedge_run(
    path: str,
    indptr: np.ndarray,
    indices: np.ndarray,
    weights: np.ndarray,
    chunk: List[int],
    table: np.ndarray,
    n: int,
    key_table,
    index_arr: np.ndarray,
    counts: np.ndarray,
) -> Optional["_WedgeRunReader"]:
    """Enumerate one centre chunk and spill it as a rank-sorted run.

    Records are ``(rank, c1, c2, wprod)`` with ``rank`` the pair's index
    in the global ``(u, v)`` table; the stable sort keeps each pair's
    wedges in ascending-centre order.  ``counts`` accumulates per-pair
    wedge counts in place.  Returns ``None`` for wedge-free chunks.
    """
    from repro.fast.similarity import _wedge_columns

    w_u, w_v, w_k, w_prod = _wedge_columns(indptr, indices, weights, vertices=chunk)
    if len(w_u) == 0:
        return None
    rank = np.searchsorted(table, w_u * n + w_v)
    order = np.argsort(rank, kind="stable")
    rank = rank[order]
    w_u = w_u[order]
    w_v = w_v[order]
    w_k = w_k[order]
    w_prod = w_prod[order]
    sorted_keys, eids, key_n = key_table
    e1 = _lookup_edge_ids(sorted_keys, eids, key_n, w_u, w_k)
    e2 = _lookup_edge_ids(sorted_keys, eids, key_n, w_v, w_k)
    c1 = index_arr[e1]
    c2 = index_arr[e2]
    counts += np.bincount(rank, minlength=len(counts))
    with open(path, "wb") as handle:
        handle.write(rank.tobytes())
        handle.write(np.ascontiguousarray(c1, dtype=np.int64).tobytes())
        handle.write(np.ascontiguousarray(c2, dtype=np.int64).tobytes())
        handle.write(np.ascontiguousarray(w_prod, dtype=np.float64).tobytes())
    return _WedgeRunReader(path, len(rank))


class _WedgeRunReader:
    """Sequential reader over one spilled wedge run (rank-sorted).

    Refills a bounded record buffer with plain ``read`` calls — the run
    is never mapped, so merge-time residency stays at the buffer size.
    """

    def __init__(self, path: str, count: int, buffer_records: int = 1 << 14):
        self.path = path
        self.count = count
        self._handle = open(path, "rb")
        self._buffer_records = buffer_records

    def set_buffer_records(self, buffer_records: int) -> None:
        """Shrink/grow the refill size (buffers allocate lazily, so the
        merge can split the budget across however many runs spilled)."""
        self._buffer_records = max(1, buffer_records)
        self._read = 0  # records fetched from disk
        self._rank = np.empty(0, dtype=np.int64)
        self._c1 = np.empty(0, dtype=np.int64)
        self._c2 = np.empty(0, dtype=np.int64)
        self._wp = np.empty(0, dtype=np.float64)
        self._at = 0  # consumed prefix of the buffer

    def _refill(self) -> bool:
        take = min(self._buffer_records, self.count - self._read)
        if take <= 0:
            return False
        base = self._read
        handle = self._handle
        handle.seek(base * _F8)
        self._rank = np.frombuffer(handle.read(take * _F8), dtype=np.int64)
        handle.seek((self.count + base) * _F8)
        self._c1 = np.frombuffer(handle.read(take * _F8), dtype=np.int64)
        handle.seek((2 * self.count + base) * _F8)
        self._c2 = np.frombuffer(handle.read(take * _F8), dtype=np.int64)
        handle.seek((3 * self.count + base) * _F8)
        self._wp = np.frombuffer(handle.read(take * _F8), dtype=np.float64)
        self._read += take
        self._at = 0
        return True

    def pull(
        self, rank_limit: int
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """All remaining records with ``rank < rank_limit`` (in order)."""
        rank_parts: List[np.ndarray] = []
        c1_parts: List[np.ndarray] = []
        c2_parts: List[np.ndarray] = []
        wp_parts: List[np.ndarray] = []
        while True:
            if self._at >= len(self._rank) and not self._refill():
                break
            stop = int(
                np.searchsorted(self._rank[self._at :], rank_limit, side="left")
            )
            if stop > 0:
                sl = slice(self._at, self._at + stop)
                rank_parts.append(self._rank[sl])
                c1_parts.append(self._c1[sl])
                c2_parts.append(self._c2[sl])
                wp_parts.append(self._wp[sl])
                self._at += stop
            if self._at < len(self._rank):
                break  # next record is >= rank_limit
        if not rank_parts:
            empty_i = np.empty(0, dtype=np.int64)
            return empty_i, empty_i, empty_i, np.empty(0, dtype=np.float64)
        return (
            np.concatenate(rank_parts),
            np.concatenate(c1_parts),
            np.concatenate(c2_parts),
            np.concatenate(wp_parts),
        )

    def close(self) -> None:
        self._handle.close()
        if os.path.exists(self.path):
            os.unlink(self.path)


def _merge_wedge_runs(
    runs: List[_WedgeRunReader],
    offsets_uv: np.ndarray,
    dots: np.ndarray,
    temp_path: str,
    budget: Optional[int],
    cancel: Optional[CancelToken],
) -> None:
    """Merge rank-sorted runs into grouped order; reduce dots per pair.

    Runs cover disjoint ascending centre ranges, so the global
    ``(u, v, k)`` order is "by rank, runs in order, stable" — a stable
    sort of each rank window's concatenated run slices.  Each window
    holds whole groups, so ``np.add.reduceat`` over the window computes
    every pair's dot product on its complete contiguous slice (bitwise
    the oracle's group sums).  The grouped ``(c1, c2)`` stream goes to
    ``temp_path`` interleaved, in pair-table order.
    """
    k1 = len(dots)
    effective = budget if budget is not None else 16 * DEFAULT_WINDOW_BYTES
    window_elems = max(1024, effective // (2 * _STREAM_RECORD_BYTES))
    with open(temp_path, "wb") as temp:
        p0 = 0
        while p0 < k1:
            if cancel is not None:
                cancel.raise_if_cancelled()
            limit = int(offsets_uv[p0]) + window_elems
            j = int(np.searchsorted(offsets_uv, limit, side="right"))
            p1 = min(k1, max(p0 + 1, j - 1))
            pulls = [run.pull(p1) for run in runs]
            rank = np.concatenate([p[0] for p in pulls])
            c1 = np.concatenate([p[1] for p in pulls])
            c2 = np.concatenate([p[2] for p in pulls])
            wp = np.concatenate([p[3] for p in pulls])
            order = np.argsort(rank, kind="stable")
            rank = rank[order]
            wp = wp[order]
            change = np.empty(len(rank), dtype=bool)
            if len(rank):
                change[0] = True
                change[1:] = rank[1:] != rank[:-1]
                starts = np.flatnonzero(change)
                dots[rank[starts]] = np.add.reduceat(wp, starts)
            interleaved = np.empty(2 * len(order), dtype=np.int64)
            interleaved[0::2] = c1[order]
            interleaved[1::2] = c2[order]
            temp.write(interleaved.tobytes())
            p0 = p1


class MmapPairStore(PairStore):
    """The out-of-core store (see module docstring for layout/merge)."""

    kind = "mmap"

    def __init__(
        self,
        spec: PairFileSpec,
        spill_dir: str,
        *,
        window_bytes: int,
        tracer=None,
    ):
        self._tracer = as_tracer(tracer)
        self.spec = spec
        self.spill_dir = spill_dir
        self.window_bytes = window_bytes
        self.window_elems = max(1, window_bytes // _WEDGE_BYTES)
        self.k1 = spec.k1
        self.k2 = spec.k2
        self.sims = spec.open_sim()
        self.us = spec.open_u()
        self.vs = spec.open_v()
        self.offsets = spec.open_offsets()
        self.c1 = spec.open_c1()
        self.c2 = spec.open_c2()
        self._closed = False
        self._tracer.gauge("store_bytes", spec.total_bytes)

    # ------------------------------------------------------------------
    # build: spill + external merge
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        graph: Graph,
        columns: SimilarityColumns,
        index_arr: np.ndarray,
        *,
        storage_dir: Optional[str] = None,
        memory_budget_bytes: Optional[int] = None,
        tracer=None,
        cancel: Optional[CancelToken] = None,
    ) -> "MmapPairStore":
        tracer = as_tracer(tracer)
        if storage_dir is not None:
            os.makedirs(storage_dir, exist_ok=True)
        spill_dir = tempfile.mkdtemp(prefix="repro-pairs-", dir=storage_dir)
        try:
            spec = cls._build_file(
                graph,
                columns,
                index_arr,
                spill_dir,
                memory_budget_bytes,
                tracer,
                cancel,
            )
        except BaseException:
            shutil.rmtree(spill_dir, ignore_errors=True)
            raise
        window = memory_budget_bytes or DEFAULT_WINDOW_BYTES
        window = max(_MIN_WINDOW_BYTES, min(window, DEFAULT_WINDOW_BYTES))
        return cls(spec, spill_dir, window_bytes=window, tracer=tracer)

    @classmethod
    def _build_file(
        cls,
        graph: Graph,
        columns: SimilarityColumns,
        index_arr: np.ndarray,
        spill_dir: str,
        budget: Optional[int],
        tracer,
        cancel: Optional[CancelToken],
    ) -> PairFileSpec:
        k1, k2 = columns.k1, columns.k2
        pair_bytes = k1 * _PAIR_BYTES + k2 * _WEDGE_BYTES
        spec = PairFileSpec(path=os.path.join(spill_dir, "pairs.bin"), k1=k1, k2=k2)
        if budget is None or pair_bytes <= budget or k1 <= 1:
            # Everything fits: sort in memory (the oracle path) and write
            # the file in one sequential pass.  No runs, no merge.
            sorted_columns = columns.sort_pairs()
            e1, e2 = wedge_edge_arrays(graph, sorted_columns)
            c1 = index_arr[e1] if len(e1) else e1
            c2 = index_arr[e2] if len(e2) else e2
            with open(spec.path, "wb") as handle:
                handle.write(np.ascontiguousarray(sorted_columns.sim).tobytes())
                handle.write(np.ascontiguousarray(sorted_columns.u).tobytes())
                handle.write(np.ascontiguousarray(sorted_columns.v).tobytes())
                handle.write(
                    np.ascontiguousarray(sorted_columns.common_offsets).tobytes()
                )
                handle.write(np.ascontiguousarray(c1, dtype=np.int64).tobytes())
                handle.write(np.ascontiguousarray(c2, dtype=np.int64).tobytes())
            return spec
        runs = cls._spill_runs(
            graph, columns, index_arr, spill_dir, budget, tracer, cancel
        )
        try:
            cls._merge_runs(runs, spec, tracer)
        finally:
            for run in runs:
                if os.path.exists(run.path):
                    run.release()
        return spec

    @staticmethod
    def _spill_runs(
        graph: Graph,
        columns: SimilarityColumns,
        index_arr: np.ndarray,
        spill_dir: str,
        budget: int,
        tracer,
        cancel: Optional[CancelToken],
    ) -> List[_RunFile]:
        k1 = columns.k1
        counts = columns.pair_counts()
        costs = _PAIR_BYTES + counts * _WEDGE_BYTES
        key_table = _edge_key_table(graph)
        runs: List[_RunFile] = []
        start = 0
        while start < k1:
            if cancel is not None:
                cancel.raise_if_cancelled()
            stop = start + 1
            spent = int(costs[start])
            while stop < k1 and spent + int(costs[stop]) <= budget:
                spent += int(costs[stop])
                stop += 1
            with tracer.span(
                "storage:spill", run=len(runs), start=start, stop=stop
            ):
                path = os.path.join(spill_dir, f"run{len(runs)}.bin")
                nbytes = MmapPairStore._write_run(
                    path, graph, columns, index_arr, key_table, start, stop
                )
            tracer.count("spill_runs")
            tracer.count("bytes_spilled", nbytes)
            runs.append(
                _RunFile(
                    path,
                    stop - start,
                    int(columns.common_offsets[stop] - columns.common_offsets[start]),
                )
            )
            start = stop
        return runs

    @staticmethod
    def _write_run(
        path: str,
        graph: Graph,
        columns: SimilarityColumns,
        index_arr: np.ndarray,
        key_table,
        start: int,
        stop: int,
    ) -> int:
        """Sort pairs ``[start, stop)`` and write them as one run file.

        Run files use the ``pairs.bin`` layout over the run's own k1/k2,
        so the merge reads them through the same :class:`PairFileSpec`
        machinery.
        """
        sorted_keys, eids, n = key_table
        u = columns.u[start:stop]
        v = columns.v[start:stop]
        sim = columns.sim[start:stop]
        counts = np.diff(columns.common_offsets[start : stop + 1])
        order = np.lexsort((v, u, -sim))
        counts_sorted = counts[order]
        run_offsets = np.zeros(len(order) + 1, dtype=np.int64)
        np.cumsum(counts_sorted, out=run_offsets[1:])
        total = int(run_offsets[-1])
        old_starts = columns.common_offsets[start:stop][order]
        gather = (
            np.repeat(old_starts - run_offsets[:-1], counts_sorted)
            + np.arange(total, dtype=np.int64)
        )
        witnesses = columns.common_neighbors[gather]
        a = np.repeat(u[order], counts_sorted)
        b = np.repeat(v[order], counts_sorted)
        if total:
            e1 = _lookup_edge_ids(sorted_keys, eids, n, a, witnesses)
            e2 = _lookup_edge_ids(sorted_keys, eids, n, b, witnesses)
            c1 = index_arr[e1]
            c2 = index_arr[e2]
        else:
            c1 = np.empty(0, dtype=np.int64)
            c2 = np.empty(0, dtype=np.int64)
        with open(path, "wb") as handle:
            handle.write(np.ascontiguousarray(sim[order]).tobytes())
            handle.write(np.ascontiguousarray(u[order]).tobytes())
            handle.write(np.ascontiguousarray(v[order]).tobytes())
            handle.write(run_offsets.tobytes())
            handle.write(np.ascontiguousarray(c1, dtype=np.int64).tobytes())
            handle.write(np.ascontiguousarray(c2, dtype=np.int64).tobytes())
        return (stop - start) * _PAIR_BYTES + _F8 + total * _WEDGE_BYTES

    @staticmethod
    def _merge_runs(runs: List[_RunFile], spec: PairFileSpec, tracer) -> None:
        """k-way merge of the sorted runs into the final ``pairs.bin``.

        The heap key ``(-sim, u, v)`` is a strict total order over pairs
        (``(u, v)`` is unique), so the output equals the one-lexsort
        oracle order exactly, duplicate similarities included.  Only the
        run heads and bounded write buffers are resident.
        """
        with tracer.span("storage:merge", runs=len(runs), k1=spec.k1):
            with open(spec.path, "wb") as handle:
                handle.truncate(spec.total_bytes)
            with open(spec.path, "r+b") as handle:
                sim_w = _SectionWriter(handle, spec.sim_offset, np.float64)
                u_w = _SectionWriter(handle, spec.u_offset, np.int64)
                v_w = _SectionWriter(handle, spec.v_offset, np.int64)
                off_w = _SectionWriter(handle, spec.offsets_offset, np.int64)
                c1_w = _SectionWriter(handle, spec.c1_offset, np.int64)
                c2_w = _SectionWriter(handle, spec.c2_offset, np.int64)
                off_w.append_scalar(0)
                heap = [
                    (run.key(), idx) for idx, run in enumerate(runs) if run.k1
                ]
                heapq.heapify(heap)
                wedge_cursor = 0
                while heap:
                    (_key, idx) = heapq.heappop(heap)
                    run = runs[idx]
                    pos = run.pos
                    sim_w.append(run.sim[pos : pos + 1])
                    u_w.append(run.u[pos : pos + 1])
                    v_w.append(run.v[pos : pos + 1])
                    w0 = int(run.offsets[pos])
                    w1 = int(run.offsets[pos + 1])
                    c1_w.append(run.c1[w0:w1])
                    c2_w.append(run.c2[w0:w1])
                    wedge_cursor += w1 - w0
                    off_w.append_scalar(wedge_cursor)
                    run.pos += 1
                    if run.pos < run.k1:
                        heapq.heappush(heap, (run.key(), idx))
                for writer in (sim_w, u_w, v_w, off_w, c1_w, c2_w):
                    writer.flush()

    # ------------------------------------------------------------------
    # build: streaming (graph -> file, no K2-sized residency)
    # ------------------------------------------------------------------
    @classmethod
    def build_streaming(
        cls,
        graph: Graph,
        index_arr: np.ndarray,
        *,
        storage_dir: Optional[str] = None,
        memory_budget_bytes: Optional[int] = None,
        tracer=None,
        cancel: Optional[CancelToken] = None,
    ) -> "MmapPairStore":
        """Build the store from the graph without materializing K2.

        Produces a ``pairs.bin`` byte-identical to :meth:`build` fed the
        vectorized Phase-I columns; resident memory stays O(K1 + |E| +
        budget) throughout (see module docstring for the spill/merge
        shape).
        """
        tracer = as_tracer(tracer)
        if storage_dir is not None:
            os.makedirs(storage_dir, exist_ok=True)
        spill_dir = tempfile.mkdtemp(prefix="repro-pairs-", dir=storage_dir)
        try:
            spec = cls._build_file_streaming(
                graph, index_arr, spill_dir, memory_budget_bytes, tracer, cancel
            )
        except BaseException:
            shutil.rmtree(spill_dir, ignore_errors=True)
            raise
        window = memory_budget_bytes or DEFAULT_WINDOW_BYTES
        window = max(_MIN_WINDOW_BYTES, min(window, DEFAULT_WINDOW_BYTES))
        return cls(spec, spill_dir, window_bytes=window, tracer=tracer)

    @classmethod
    def _build_file_streaming(
        cls,
        graph: Graph,
        index_arr: np.ndarray,
        spill_dir: str,
        budget: Optional[int],
        tracer,
        cancel: Optional[CancelToken],
    ) -> PairFileSpec:
        # Phase-I building blocks are reused verbatim so every wedge
        # product and every correction term is computed by the same code
        # the oracle runs (bitwise identity depends on it).
        from repro.fast.similarity import (
            _adjacency_weights,
            _csr_arrays,
            _h_arrays_columnar,
            _tanimoto,
            _wedge_columns,
        )

        indptr, indices, weights = _csr_arrays(graph)
        h1, h2 = _h_arrays_columnar(indptr, weights)
        n = max(1, graph.num_vertices)
        chunks = _center_chunks(indptr, budget)

        # Sweep A: the global pair table (sorted packed u * n + v keys).
        # K1-sized — within the paper's O(K2 + |E|) bound, K2-free.
        table = np.empty(0, dtype=np.int64)
        for chunk in chunks:
            if cancel is not None:
                cancel.raise_if_cancelled()
            w_u, w_v, _w_k, _w_p = _wedge_columns(
                indptr, indices, weights, vertices=chunk
            )
            table = np.union1d(table, w_u * n + w_v)
        k1 = len(table)
        spec = PairFileSpec(
            path=os.path.join(spill_dir, "pairs.bin"), k1=k1, k2=0
        )
        if k1 == 0:
            with open(spec.path, "wb") as handle:
                handle.write(np.zeros(1, dtype=np.int64).tobytes())
            return spec

        # Sweep B: spill one rank-sorted wedge run per chunk.  A stable
        # sort keeps each pair's wedges in ascending-centre order — the
        # order the oracle's (u, v, k) lexsort produces.
        counts = np.zeros(k1, dtype=np.int64)
        key_table = _edge_key_table(graph)
        runs: List[_WedgeRunReader] = []
        try:
            for chunk in chunks:
                if cancel is not None:
                    cancel.raise_if_cancelled()
                with tracer.span(
                    "storage:spill", run=len(runs), centers=len(chunk)
                ):
                    path = os.path.join(spill_dir, f"wedges{len(runs)}.bin")
                    run = _spill_wedge_run(
                        path, indptr, indices, weights, chunk,
                        table, n, key_table, index_arr, counts,
                    )
                if run is None:
                    continue
                tracer.count("spill_runs")
                tracer.count("bytes_spilled", run.count * _STREAM_RECORD_BYTES)
                runs.append(run)
            offsets_uv = np.zeros(k1 + 1, dtype=np.int64)
            np.cumsum(counts, out=offsets_uv[1:])
            k2 = int(offsets_uv[-1])
            spec = PairFileSpec(path=spec.path, k1=k1, k2=k2)
            dots = np.empty(k1, dtype=np.float64)
            temp_path = os.path.join(spill_dir, "wedges.tmp")
            # Split the budget across the run readers: merge-time
            # residency is runs x buffer, not runs x default.
            effective = budget if budget is not None else 16 * DEFAULT_WINDOW_BYTES
            per_run = effective // (max(1, len(runs)) * 2 * _STREAM_RECORD_BYTES)
            for run in runs:
                run.set_buffer_records(max(256, per_run))
            with tracer.span("storage:merge", runs=len(runs), k1=k1):
                _merge_wedge_runs(
                    runs, offsets_uv, dots, temp_path, budget, cancel
                )
        finally:
            for run in runs:
                run.close()

        # Pass 3 + finalize on K1 arrays only: adjacency correction,
        # Tanimoto, the final (-sim, u, v) sort, and the file sections.
        pair_u = table // n
        pair_v = table % n
        dots = dots + (h1[pair_u] + h1[pair_v]) * _adjacency_weights(
            graph, pair_u, pair_v
        )
        sims = _tanimoto(h2, pair_u, pair_v, dots)
        order = np.lexsort((pair_v, pair_u, -sims))
        final_counts = counts[order]
        final_offsets = np.zeros(k1 + 1, dtype=np.int64)
        np.cumsum(final_counts, out=final_offsets[1:])
        with open(spec.path, "wb") as handle:
            handle.truncate(spec.total_bytes)
            handle.write(np.ascontiguousarray(sims[order]).tobytes())
            handle.write(np.ascontiguousarray(pair_u[order]).tobytes())
            handle.write(np.ascontiguousarray(pair_v[order]).tobytes())
            handle.write(final_offsets.tobytes())
            c1_w = _SectionWriter(handle, spec.c1_offset, np.int64)
            c2_w = _SectionWriter(handle, spec.c2_offset, np.int64)
            with open(temp_path, "rb") as temp:
                starts_uv = offsets_uv[order].tolist()
                counts_list = final_counts.tolist()
                for start, count in zip(starts_uv, counts_list):
                    if count == 0:
                        continue
                    temp.seek(start * _WEDGE_BYTES)
                    pair_block = np.frombuffer(
                        temp.read(count * _WEDGE_BYTES), dtype=np.int64
                    )
                    c1_w.append(pair_block[0::2])
                    c2_w.append(pair_block[1::2])
            c1_w.flush()
            c2_w.flush()
        os.unlink(temp_path)
        return spec

    # ------------------------------------------------------------------
    # access
    # ------------------------------------------------------------------
    @property
    def store_bytes(self) -> int:
        return self.spec.total_bytes

    def window(self, w0: int, w1: int) -> Tuple[np.ndarray, np.ndarray]:
        with self._tracer.span("storage:window", start=w0, stop=w1):
            c1 = self.c1[w0:w1]
            c2 = self.c2[w0:w1]
        self._tracer.count("window_loads")
        return c1, c2

    def window_ranges(self, w0: int, w1: int) -> Iterator[Tuple[int, int]]:
        step = self.window_elems
        pos = w0
        while pos < w1:
            yield pos, min(w1, pos + step)
            pos = min(w1, pos + step)

    def file_spec(self) -> Optional[PairFileSpec]:
        return self.spec

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        # Drop the maps first so the backing file's pages are released,
        # then remove the spill directory.  POSIX keeps live worker maps
        # valid after the unlink; they vanish with the workers' own
        # references.
        self.sims = self.us = self.vs = None  # type: ignore[assignment]
        self.offsets = self.c1 = self.c2 = None  # type: ignore[assignment]
        shutil.rmtree(self.spill_dir, ignore_errors=True)


def make_pair_store(
    graph: Graph,
    columns: Optional[SimilarityColumns],
    index_arr: np.ndarray,
    *,
    settings: Optional[StorageSettings] = None,
    tracer=None,
    cancel: Optional[CancelToken] = None,
) -> PairStore:
    """Build the pair store the settings ask for (memory when ``None``).

    ``columns=None`` requests the streaming out-of-core init: Phase I
    runs inside the build, never materializing K2 — only valid with
    ``kind="mmap"`` settings.
    """
    if columns is None:
        if settings is None or settings.kind != "mmap":
            raise ParameterError(
                "streaming pair-store init (columns=None) requires "
                "StorageSettings(kind='mmap')"
            )
        return MmapPairStore.build_streaming(
            graph,
            index_arr,
            storage_dir=settings.storage_dir,
            memory_budget_bytes=settings.memory_budget_bytes,
            tracer=tracer,
            cancel=cancel,
        )
    if settings is None or settings.kind == "memory":
        return InMemoryPairStore.build(graph, columns, index_arr, tracer=tracer)
    return MmapPairStore.build(
        graph,
        columns,
        index_arr,
        storage_dir=settings.storage_dir,
        memory_budget_bytes=settings.memory_budget_bytes,
        tracer=tracer,
        cancel=cancel,
    )
