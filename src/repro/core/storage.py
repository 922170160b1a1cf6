"""Out-of-core pair store: the storage abstraction over the pair columns.

The sweep's input — list ``L`` — is the sorted pair columns plus the
K2-long wedge edge-id stream.  ROADMAP item 2 asks for that data to be
bounded by *disk*, not RAM.  This module provides the abstraction:

* :class:`PairStore` — what the coarse sweep consumes: the sorted
  ``sim``/``u``/``v`` columns, the CSR ``offsets``, and the ``c1``/``c2``
  merge stream (edge indices into array ``C``), plus bounded *window*
  access for streaming consumers.
* :class:`InMemoryPairStore` — list ``L`` as plain arrays.  This is the
  oracle: every other store must be bitwise-identical to it at every
  dendrogram level.
* :class:`MmapPairStore` — the out-of-core store.  All six columns live
  in one flat binary file under a run-scoped spill directory, accessed
  through read-only :class:`numpy.memmap` views.

Every store builds list ``L`` the same way.
:func:`~repro.core.simcolumns.list_order` picks the K1 permutation
(keyed ``(-sim, u, v)``, a strict total order because ``(u, v)`` is
unique), and one :class:`~repro.core.simcolumns.ListGather` turns it
into the positions of each pair's wedges in the ``(u, v)``-grouped
stream, so ``c1``/``c2`` are filled by gathers: the in-memory store in
one window, the mmap builds a budget-sized window at a time written
straight to ``pairs.bin``.  The two mmap builds produce byte-identical
files:

* :meth:`MmapPairStore.build` starts from a materialized
  :class:`SimilarityColumns` (the parallel drivers' path — their hosts
  already ran vectorized Phase I).  The columns are in RAM already, so
  nothing spills: ``memory_budget_bytes`` bounds each window's gather
  (columns without carried edge ids resolve them a window at a time).
* :meth:`MmapPairStore.build_streaming` starts from the *graph* and
  never holds a K2-sized array: wedges are enumerated in budget-bounded
  centre chunks, once to merge each chunk's sorted unique pair keys into
  the global ``(u, v)`` table (Sweep A), then again to be spilled as
  pair-rank-sorted runs (Sweep B), and merged
  group-aligned into a ``(u, v)``-grouped temp file — each pair's dot
  product is one ``np.add.reduceat`` over its contiguous wedge slice,
  which reproduces the oracle's pairwise summation bit for bit
  (``reduceat`` group sums are a function of the group slice alone).
  The windowed gather then reads list ``L`` out of that file.  Only
  O(K1 + |E|) stays resident; this is the serial mmap pipeline's init.

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

Observability: the streaming build emits one ``storage:pairs`` span for
Sweep A, one ``storage:spill`` span per wedge run (``spill_runs`` /
``bytes_spilled`` counters) and one ``storage:merge`` span; every
bounded window fetch is a ``storage:window`` span (``window_loads``
counter); both stores gauge ``store_bytes``.  An :class:`OSError` while a build writes (a full disk,
say) surfaces as :class:`~repro.errors.StorageError` naming the spill
directory, which is removed first; mapping a ``pairs.bin`` shorter than
its :class:`PairFileSpec` raises it naming the file.
"""

from __future__ import annotations

import dataclasses
import errno
import os
import shutil
import tempfile
import time
from typing import Callable, Iterator, List, Optional, Tuple

import numpy as np

from repro.core.cancel import CancelToken
from repro.core.simcolumns import (
    ListGather,
    SimilarityColumns,
    _merge_stream_windows,
    _pair_keys,
    _sorted_merge_stream,
    list_order,
)
from repro.errors import ParameterError, StorageError
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
    caps how much of the K2 merge stream the mmap build gathers at once
    (the streaming build also spills its wedge runs in chunks of this
    size).  ``None`` means one window: "sort in memory, store on disk".
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
        return _map(self.path, np.float64, self.sim_offset, self.k1)

    def open_u(self) -> np.ndarray:
        return _map(self.path, np.int64, self.u_offset, self.k1)

    def open_v(self) -> np.ndarray:
        return _map(self.path, np.int64, self.v_offset, self.k1)

    def open_offsets(self) -> np.ndarray:
        return _map(self.path, np.int64, self.offsets_offset, self.k1 + 1)

    def open_c1(self) -> np.ndarray:
        return _map(self.path, np.int64, self.c1_offset, self.k2)

    def open_c2(self) -> np.ndarray:
        return _map(self.path, np.int64, self.c2_offset, self.k2)


def _map(path: str, dtype, offset: int, count: int) -> np.ndarray:
    """A read-only view of ``count`` elements at ``offset`` in ``path``.

    A file too short for the view (truncated, or stale against its
    spec) raises :class:`~repro.errors.StorageError` naming the path.
    """
    if count == 0:
        return np.empty(0, dtype=dtype)
    size = os.path.getsize(path)
    if size < offset + count * _F8:
        raise StorageError(
            f"pair file {path} is truncated: {size} bytes, section needs "
            f"{offset + count * _F8}"
        )
    return np.memmap(path, dtype=dtype, mode="r", offset=offset, shape=(count,))


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
    """The oracle: list ``L`` and its wedge stream as plain arrays."""

    kind = "memory"

    def __init__(
        self,
        sims: np.ndarray,
        us: np.ndarray,
        vs: np.ndarray,
        offsets: np.ndarray,
        c1: np.ndarray,
        c2: np.ndarray,
        tracer=None,
    ):
        self.k1 = len(sims)
        self.k2 = len(c1)
        self.sims = sims
        self.us = us
        self.vs = vs
        self.offsets = offsets
        self.c1 = c1
        self.c2 = c2
        as_tracer(tracer).gauge("store_bytes", self.store_bytes)

    @classmethod
    def build(
        cls,
        graph: Graph,
        columns: SimilarityColumns,
        index_arr: np.ndarray,
        tracer=None,
    ) -> "InMemoryPairStore":
        return cls(*_sorted_merge_stream(graph, columns, index_arr), tracer=tracer)

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


def _stream_records(budget: Optional[int]) -> int:
    """Wedge records the streaming build holds per budget.

    Each buffered record costs about twice its size while it is sorted;
    an unbounded build works in 64 MiB steps.
    """
    effective = budget if budget is not None else 16 * DEFAULT_WINDOW_BYTES
    return effective // (2 * _STREAM_RECORD_BYTES)


def _center_chunks(indptr: np.ndarray, budget: Optional[int]) -> List[List[int]]:
    """Partition wedge centres into budget-bounded enumeration chunks.

    A centre of degree ``d`` contributes ``d * (d - 1) / 2`` wedges; each
    buffered wedge costs ~2x its record during the chunk sort, so the
    cap is ``budget / (2 * record)`` wedges.  Every chunk holds at least
    one centre (a single high-degree centre may exceed the cap — the
    same way a single pair can exceed a gather window).
    """
    degrees = np.diff(indptr)
    centers = np.flatnonzero(degrees >= 2)
    if len(centers) == 0:
        return []
    wedge_counts = (degrees[centers] * (degrees[centers] - 1)) // 2
    # Floor of 16 wedges: tiny test budgets still get multi-chunk spills
    # without degenerating into one run per wedge.
    cap = max(16, _stream_records(budget))
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


def _pair_table(
    indptr: np.ndarray,
    indices: np.ndarray,
    weights: np.ndarray,
    eids: np.ndarray,
    chunks: List[List[int]],
    n: int,
    cancel: Optional[CancelToken],
) -> Tuple[np.ndarray, np.ndarray]:
    """Sweep A: the sorted unique ``u * n + v`` pair keys, wedge counts.

    Each chunk's keys are sorted and deduplicated, and the ones the
    table lacks are inserted at their ``searchsorted`` slots: one linear
    merge per chunk.  ``counts[i]`` is pair ``i``'s wedge count.  Both
    are K1-sized, within the paper's O(K2 + |E|) bound.
    """
    from repro.fast.similarity import _wedge_columns

    table = np.empty(0, dtype=np.int64)
    counts = np.empty(0, dtype=np.int64)
    for chunk in chunks:
        if cancel is not None:
            cancel.raise_if_cancelled()
        w_u, w_v = _wedge_columns(indptr, indices, weights, eids, vertices=chunk)[:2]
        keys = _pair_keys(w_u, w_v, n)
        del w_u, w_v
        # Sort and drop repeats in place; np.unique's hash pass is slower.
        keys.sort()
        starts = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
        sizes = np.diff(np.r_[starts, len(keys)])
        keys = keys[starts]
        slots = np.searchsorted(table, keys)
        fresh = slots == len(table)
        fresh[~fresh] = table[slots[~fresh]] != keys[~fresh]
        table = np.insert(table, slots[fresh], keys[fresh])
        counts = np.insert(counts, slots[fresh], 0)
        # Each key moves up by the fresh keys inserted below it.
        counts[slots + np.cumsum(fresh) - fresh] += sizes
    return table, counts


def _merge_bounds(offsets_uv: np.ndarray, budget: Optional[int]) -> np.ndarray:
    """Pair-rank bounds of the merge windows.

    Each window holds whole pairs and at most the streaming build's
    per-budget record count of wedges, or one pair that alone exceeds it.
    """
    k1 = len(offsets_uv) - 1
    window_elems = max(1024, _stream_records(budget))
    bounds = [0]
    while bounds[-1] < k1:
        p0 = bounds[-1]
        limit = int(offsets_uv[p0]) + window_elems
        j = int(np.searchsorted(offsets_uv, limit, side="right"))
        bounds.append(min(k1, max(p0 + 1, j - 1)))
    return np.asarray(bounds, dtype=np.int64)


def _spill_wedge_run(
    path: str,
    indptr: np.ndarray,
    indices: np.ndarray,
    weights: np.ndarray,
    eids: np.ndarray,
    chunk: List[int],
    table: np.ndarray,
    n: int,
    index_arr: np.ndarray,
    bounds: np.ndarray,
) -> Optional["_WedgeRun"]:
    """Enumerate one centre chunk and spill it as a rank-sorted run.

    Records are ``(rank, c1, c2, wprod)`` with ``rank`` the pair's index
    in the global ``(u, v)`` table and ``c1``/``c2`` the wedge's two
    carried edge ids mapped into array ``C``.  ``chunk`` is ascending
    and the generator emits wedges centre by centre, so the stable sort
    by rank keeps each pair's wedges in ascending-centre order (the
    oracle's).  The run notes where each merge window (``bounds``)
    starts in it.  Returns ``None`` for wedge-free chunks.
    """
    from repro.fast.similarity import _wedge_columns

    w_u, w_v, _w_k, w_prod, e_uk, e_vk = _wedge_columns(
        indptr, indices, weights, eids, vertices=chunk
    )
    if len(w_u) == 0:
        return None
    rank = np.searchsorted(table, _pair_keys(w_u, w_v, n))
    del w_u, w_v, _w_k
    order = np.argsort(rank, kind="stable")
    rank = rank[order]
    c1 = index_arr[e_uk[order]]
    c2 = index_arr[e_vk[order]]
    w_prod = w_prod[order]
    with open(path, "wb") as handle:
        handle.write(rank.tobytes())
        handle.write(np.ascontiguousarray(c1, dtype=np.int64).tobytes())
        handle.write(np.ascontiguousarray(c2, dtype=np.int64).tobytes())
        handle.write(np.ascontiguousarray(w_prod, dtype=np.float64).tobytes())
    return _WedgeRun(path, len(rank), np.searchsorted(rank, bounds))


class _WedgeRun:
    """One spilled wedge run (rank-sorted) and its merge-window cuts.

    ``cuts[j]`` is the first record of window ``j``.  Each window's
    records are read with ``pread`` — the run is never mapped, so
    merge-time residency stays at one window.
    """

    def __init__(self, path: str, count: int, cuts: np.ndarray):
        self.path = path
        self.count = count
        self.cuts = cuts.tolist()
        self._fd = os.open(path, os.O_RDONLY)

    def read(self, window: int) -> List[np.ndarray]:
        """Window ``window``'s ``rank``, ``c1``, ``c2``, ``wprod``."""
        lo, hi = self.cuts[window], self.cuts[window + 1]
        sections = []
        for s, dtype in enumerate((np.int64, np.int64, np.int64, np.float64)):
            data = os.pread(self._fd, (hi - lo) * _F8, (s * self.count + lo) * _F8)
            if len(data) != (hi - lo) * _F8:
                raise OSError(errno.EIO, "short read from a wedge run", self.path)
            sections.append(np.frombuffer(data, dtype=dtype))
        return sections

    def close(self) -> None:
        os.close(self._fd)
        if os.path.exists(self.path):
            os.unlink(self.path)


def _merge_wedge_runs(
    runs: List[_WedgeRun],
    bounds: np.ndarray,
    dots: np.ndarray,
    temp_path: str,
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
    with open(temp_path, "wb") as temp:
        for window, (p0, p1) in enumerate(zip(bounds[:-1], bounds[1:])):
            if cancel is not None:
                cancel.raise_if_cancelled()
            rank, c1, c2, wp = map(
                np.concatenate, zip(*(run.read(window) for run in runs))
            )
            order = np.argsort(rank, kind="stable")
            starts = np.flatnonzero(np.r_[True, np.diff(rank[order]) != 0])
            # Every pair has a wedge, so the window's groups are p0..p1-1.
            dots[p0:p1] = np.add.reduceat(wp[order], starts)
            interleaved = np.empty(2 * len(order), dtype=np.int64)
            interleaved[0::2] = c1[order]
            interleaved[1::2] = c2[order]
            temp.write(interleaved.tobytes())


def _interleaved_windows(
    stream: np.ndarray, gather: ListGather, max_wedges: int
) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """List ``L``'s ``(c1, c2)`` windows, read from the grouped stream.

    ``stream`` is a read-only map of the ``(u, v)``-ordered interleaved
    ``(c1, c2)`` file that ``gather`` indexes; each window is one
    vectorized gather from it.  The map is file-backed (clean page
    cache, no anonymous memory).
    """
    for _p0, _p1, pos in gather.windows(max_wedges):
        pos *= 2
        c1 = stream[pos]
        pos += 1
        yield c1, stream[pos]


def _write_pairs_file(
    spec: PairFileSpec,
    gather: ListGather,
    sims: np.ndarray,
    us: np.ndarray,
    vs: np.ndarray,
    merge_windows: Iterator[Tuple[np.ndarray, np.ndarray]],
    cancel: Optional[CancelToken],
) -> None:
    """Write list ``L`` as ``spec``'s ``pairs.bin``.

    The K1 sections go in one sequential pass, each of ``sims``/``us``/
    ``vs`` put in list ``L`` order as it is written (one K1 copy
    resident at a time), then ``gather``'s offsets.  ``merge_windows``
    yields the ``(c1, c2)`` merge stream in consecutive windows,
    appended through buffered section writers with a cancel checkpoint
    per window.
    """
    with open(spec.path, "wb") as handle:
        handle.truncate(spec.total_bytes)
        for column in (sims, us, vs):
            handle.write(column[gather.order])
        handle.write(gather.offsets)
        c1_w = _SectionWriter(handle, spec.c1_offset, np.int64)
        c2_w = _SectionWriter(handle, spec.c2_offset, np.int64)
        for c1, c2 in merge_windows:
            if cancel is not None:
                cancel.raise_if_cancelled()
            c1_w.append(c1)
            c2_w.append(c2)
        c1_w.flush()
        c2_w.flush()


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
    # builds
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
        """Write materialized columns' list ``L`` as the pair file.

        The K1 sections go in one pass and the merge stream follows in
        windows of at most ``memory_budget_bytes`` (one window when
        ``None``), each one gather of the columns: nothing spills.
        """
        budget = memory_budget_bytes
        max_wedges = None if budget is None else max(1, budget // _WEDGE_BYTES)

        def write(spill_dir: str, _tracer) -> PairFileSpec:
            gather = ListGather(
                list_order(columns.u, columns.v, columns.sim), columns.common_offsets
            )
            spec = PairFileSpec(
                path=os.path.join(spill_dir, "pairs.bin"), k1=columns.k1, k2=columns.k2
            )
            _write_pairs_file(
                spec,
                gather,
                columns.sim,
                columns.u,
                columns.v,
                _merge_stream_windows(graph, columns, index_arr, gather, max_wedges),
                cancel,
            )
            return spec

        return cls._build(write, storage_dir, budget, tracer)

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

        def write(spill_dir: str, tracer) -> PairFileSpec:
            return cls._build_file_streaming(
                graph, index_arr, spill_dir, memory_budget_bytes, tracer, cancel
            )

        return cls._build(write, storage_dir, memory_budget_bytes, tracer)

    @classmethod
    def _build(
        cls,
        write: Callable[[str, object], PairFileSpec],
        storage_dir: Optional[str],
        budget: Optional[int],
        tracer,
    ) -> "MmapPairStore":
        """Run ``write(spill_dir, tracer)`` in a new spill dir; map its file.

        On any failure the spill dir is removed; an :class:`OSError`
        (a full disk, say) becomes a :class:`~repro.errors.StorageError`
        that names it.
        """
        tracer = as_tracer(tracer)
        if storage_dir is not None:
            os.makedirs(storage_dir, exist_ok=True)
        spill_dir = tempfile.mkdtemp(prefix="repro-pairs-", dir=storage_dir)
        try:
            spec = write(spill_dir, tracer)
        except OSError as exc:
            shutil.rmtree(spill_dir, ignore_errors=True)
            raise StorageError(
                exc.errno, f"pair store build failed: {exc.strerror or exc}", spill_dir
            ) from exc
        except BaseException:
            shutil.rmtree(spill_dir, ignore_errors=True)
            raise
        window = budget or DEFAULT_WINDOW_BYTES
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
        )

        indptr, indices, weights, eids = _csr_arrays(graph)
        h1, h2 = _h_arrays_columnar(indptr, weights)
        n = max(1, graph.num_vertices)
        chunks = _center_chunks(indptr, budget)

        # Sweep A: the sorted pair table that ranks Sweep B's wedges.
        t0 = time.perf_counter()
        table, counts = _pair_table(indptr, indices, weights, eids, chunks, n, cancel)
        k1 = len(table)
        tracer.record(
            "storage:pairs", time.perf_counter() - t0, chunks=len(chunks), k1=k1
        )
        offsets_uv = np.zeros(k1 + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets_uv[1:])
        k2 = int(offsets_uv[-1])
        spec = PairFileSpec(path=os.path.join(spill_dir, "pairs.bin"), k1=k1, k2=k2)
        if k1 == 0:
            with open(spec.path, "wb") as handle:
                handle.write(np.zeros(1, dtype=np.int64).tobytes())
            return spec

        # Sweep B: spill one rank-sorted wedge run per chunk, each
        # pair's wedges in ascending-centre order — the order the
        # oracle's (u, v, k) sort produces.
        bounds = _merge_bounds(offsets_uv, budget)
        runs: List[_WedgeRun] = []
        try:
            for chunk in chunks:
                if cancel is not None:
                    cancel.raise_if_cancelled()
                with tracer.span(
                    "storage:spill", run=len(runs), centers=len(chunk)
                ):
                    path = os.path.join(spill_dir, f"wedges{len(runs)}.bin")
                    run = _spill_wedge_run(
                        path, indptr, indices, weights, eids, chunk,
                        table, n, index_arr, bounds,
                    )
                if run is None:
                    continue
                tracer.count("spill_runs")
                tracer.count("bytes_spilled", run.count * _STREAM_RECORD_BYTES)
                runs.append(run)
            dots = np.empty(k1, dtype=np.float64)
            temp_path = os.path.join(spill_dir, "wedges.tmp")
            with tracer.span("storage:merge", runs=len(runs), k1=k1):
                _merge_wedge_runs(runs, bounds, dots, temp_path, cancel)
        finally:
            for run in runs:
                run.close()

        # Pass 3 + finalize on K1 arrays only: adjacency correction,
        # Tanimoto, the final (-sim, u, v) sort, and the file sections.
        pair_u = table // n
        pair_v = table % n
        dots = dots + (h1[pair_u] + h1[pair_v]) * _adjacency_weights(
            indptr, indices, weights, pair_u, pair_v
        )
        sims = _tanimoto(h2, pair_u, pair_v, dots)
        gather = ListGather(list_order(pair_u, pair_v, sims), offsets_uv)
        window = max(1024, _stream_records(budget))
        _write_pairs_file(
            spec,
            gather,
            sims,
            pair_u,
            pair_v,
            _interleaved_windows(_map(temp_path, np.int64, 0, 2 * k2), gather, window),
            cancel,
        )
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
