"""Columnar (structure-of-arrays) representation of map ``M``.

:class:`SimilarityColumns` stores the Phase-I output as parallel numpy
arrays instead of a Python dict of tuples:

* ``u``, ``v`` — the K1 vertex pairs (``u[i] < v[i]``);
* ``sim`` — their Tanimoto similarities;
* ``common_offsets`` / ``common_neighbors`` — the per-pair witness
  lists in CSR layout (``common_neighbors[common_offsets[i] :
  common_offsets[i + 1]]`` are pair ``i``'s common neighbours, K2
  entries total);
* ``edge_uk`` / ``edge_vk`` (optional) — for every witness ``k`` the
  edge ids of ``(u, k)`` and ``(v, k)``, aligned with
  ``common_neighbors``.  Phase I knows both edges when it enumerates a
  wedge from the CSR rows, so it carries them here; columns built by
  hand or from a dict map leave them ``None``.

Every downstream stage of the run becomes a C-speed kernel over these
columns: sorting list ``L`` is one stable argsort on ``-sim`` when the
rows are already in ``(u, v)`` order, as Phase I emits them (a
three-key lexsort otherwise, :func:`list_order`), plus one
:class:`ListGather` that says where each pair's wedges sit; the sweep's
K2-long merge stream is the carried edge ids put in list ``L`` order by
that gather (resolved from the graph only for columns that lack them),
in one window for the in-memory store and a bounded window at a time
for the out-of-core builds; and the parallel layer can ship the columns
zero-copy through shared memory.
The dict-based :class:`~repro.core.similarity.SimilarityMap` remains
the pure-Python oracle; the two representations convert losslessly in
both directions.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import Dict, Iterator, Optional, Tuple

import numpy as np

from repro.core.similarity import SimilarityMap, VertexPairEntry
from repro.errors import ClusteringError, ParameterError
from repro.graph.graph import Graph

__all__ = ["ListGather", "SimilarityColumns", "list_order", "wedge_edge_arrays"]


@dataclass(frozen=True)
class SimilarityColumns:
    """Map ``M`` as parallel arrays (see module docstring).

    Rows may be in any order; :meth:`sort_pairs` produces the sweeping
    phase's list ``L`` order (non-increasing similarity, ties by vertex
    pair).  ``edge_uk``/``edge_vk`` are given together or not at all;
    they keep their integer dtype (Phase I stores them as int32 when
    |E| < 2³¹).  Instances are immutable: every transformation returns a
    new object, and only :meth:`without_edge_ids` shares arrays with its
    source.
    """

    u: np.ndarray
    v: np.ndarray
    sim: np.ndarray
    common_offsets: np.ndarray
    common_neighbors: np.ndarray
    edge_uk: Optional[np.ndarray] = None
    edge_vk: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "u", np.ascontiguousarray(self.u, dtype=np.int64))
        object.__setattr__(self, "v", np.ascontiguousarray(self.v, dtype=np.int64))
        object.__setattr__(
            self, "sim", np.ascontiguousarray(self.sim, dtype=np.float64)
        )
        object.__setattr__(
            self,
            "common_offsets",
            np.ascontiguousarray(self.common_offsets, dtype=np.int64),
        )
        object.__setattr__(
            self,
            "common_neighbors",
            np.ascontiguousarray(self.common_neighbors, dtype=np.int64),
        )
        k1 = len(self.u)
        if self.v.shape != (k1,) or self.sim.shape != (k1,):
            raise ParameterError(
                f"u/v/sim must be equal-length 1-D arrays, got shapes "
                f"{self.u.shape}/{self.v.shape}/{self.sim.shape}"
            )
        if self.common_offsets.shape != (k1 + 1,):
            raise ParameterError(
                f"common_offsets must have length k1 + 1 = {k1 + 1}, "
                f"got shape {self.common_offsets.shape}"
            )
        if k1:
            if self.common_offsets[0] != 0:
                raise ParameterError("common_offsets must start at 0")
            if np.any(np.diff(self.common_offsets) < 0):
                raise ParameterError("common_offsets must be non-decreasing")
        elif len(self.common_offsets) and self.common_offsets[0] != 0:
            raise ParameterError("common_offsets must start at 0")
        if self.common_offsets[-1] != len(self.common_neighbors):
            raise ParameterError(
                f"common_offsets must end at len(common_neighbors) = "
                f"{len(self.common_neighbors)}, got {self.common_offsets[-1]}"
            )
        if (self.edge_uk is None) != (self.edge_vk is None):
            raise ParameterError("edge_uk and edge_vk must be given together")
        if self.edge_uk is not None:
            for name in ("edge_uk", "edge_vk"):
                ids = np.ascontiguousarray(getattr(self, name))
                if ids.shape != (self.k2,) or ids.dtype.kind not in "iu":
                    raise ParameterError(
                        f"{name} must be an integer array of length k2 = "
                        f"{self.k2}, got {ids.dtype} shape {ids.shape}"
                    )
                object.__setattr__(self, name, ids)

    # ------------------------------------------------------------------
    # shape
    # ------------------------------------------------------------------
    @property
    def k1(self) -> int:
        """Number of vertex pairs with at least one common neighbour."""
        return len(self.u)

    @property
    def k2(self) -> int:
        """Number of incident edge pairs covered (total witness count)."""
        return len(self.common_neighbors)

    def pair_counts(self) -> np.ndarray:
        """Witness count of every pair (length K1)."""
        return np.diff(self.common_offsets)

    def without_edge_ids(self) -> "SimilarityColumns":
        """These columns minus the carried edge ids (shares the rest)."""
        if self.edge_uk is None:
            return self
        return replace(self, edge_uk=None, edge_vk=None)

    def __len__(self) -> int:
        return self.k1

    def __repr__(self) -> str:
        return f"SimilarityColumns(k1={self.k1}, k2={self.k2})"

    # ------------------------------------------------------------------
    # construction / conversion
    # ------------------------------------------------------------------
    @classmethod
    def empty(cls) -> "SimilarityColumns":
        """The K1 = K2 = 0 instance (empty or wedge-free graphs)."""
        empty_i = np.empty(0, dtype=np.int64)
        return cls(
            u=empty_i,
            v=empty_i.copy(),
            sim=np.empty(0, dtype=np.float64),
            common_offsets=np.zeros(1, dtype=np.int64),
            common_neighbors=empty_i.copy(),
        )

    @classmethod
    def from_similarity_map(cls, similarity_map: SimilarityMap) -> "SimilarityColumns":
        """Columnar copy of a dict map, rows in canonical ``(u, v)`` order."""
        items = sorted(similarity_map.entries.items())
        k1 = len(items)
        u = np.empty(k1, dtype=np.int64)
        v = np.empty(k1, dtype=np.int64)
        sim = np.empty(k1, dtype=np.float64)
        offsets = np.zeros(k1 + 1, dtype=np.int64)
        commons: list = []
        for i, ((pu, pv), entry) in enumerate(items):
            u[i] = pu
            v[i] = pv
            sim[i] = entry.similarity
            commons.extend(entry.common_neighbors)
            offsets[i + 1] = len(commons)
        return cls(
            u=u,
            v=v,
            sim=sim,
            common_offsets=offsets,
            common_neighbors=np.asarray(commons, dtype=np.int64),
        )

    def to_similarity_map(self) -> SimilarityMap:
        """Dict form of these columns (the pure-Python oracle format)."""
        u_list = self.u.tolist()
        v_list = self.v.tolist()
        sim_list = self.sim.tolist()
        offsets = self.common_offsets.tolist()
        commons = self.common_neighbors.tolist()
        entries: Dict[Tuple[int, int], VertexPairEntry] = {}
        for i in range(self.k1):
            entries[(u_list[i], v_list[i])] = VertexPairEntry(
                similarity=sim_list[i],
                common_neighbors=tuple(commons[offsets[i] : offsets[i + 1]]),
            )
        return SimilarityMap(entries)

    # ------------------------------------------------------------------
    # the sweep's list L
    # ------------------------------------------------------------------
    def sort_pairs(self) -> "SimilarityColumns":
        """List ``L`` as new columns: non-increasing similarity, ties by
        ``(u, v)`` — exactly :meth:`SimilarityMap.sorted_pairs` order,
        computed as one argsort (:func:`list_order`) plus one
        :class:`ListGather` of the witnesses and any carried edge ids,
        instead of a Python sort over K1 tuples."""
        if self.k1 == 0:
            return self
        order = list_order(self.u, self.v, self.sim)
        gather = ListGather(order, self.common_offsets)
        pos = gather.positions(0, self.k1)
        carried = self.edge_uk is not None
        return SimilarityColumns(
            u=self.u[order],
            v=self.v[order],
            sim=self.sim[order],
            common_offsets=gather.offsets,
            common_neighbors=self.common_neighbors[pos],
            edge_uk=self.edge_uk[pos] if carried else None,
            edge_vk=self.edge_vk[pos] if carried else None,
        )


def list_order(u: np.ndarray, v: np.ndarray, sim: np.ndarray) -> np.ndarray:
    """The permutation that puts rows into list ``L`` order.

    List ``L`` is keyed ``(-sim, u, v)``.  Similarities are strictly
    positive, so negation is order-exact.  When the rows are already
    strictly ``(u, v)``-increasing (Phase I emits them so), the stable
    order of ``-sim`` alone keeps ties in ``(u, v)`` order and is the
    same permutation as the three-key lexsort, at a fraction of its
    cost; the lexsort stays for rows in any other order.
    """
    if len(u) > 1:
        du = u[1:] - u[:-1]
        if np.all((du > 0) | ((du == 0) & (v[1:] > v[:-1]))):
            return _stable_descending(sim)
    return np.lexsort((v, u, -sim))


class ListGather:
    """Where list ``L``'s wedges sit in a ``(u, v)``-grouped stream.

    ``order`` is the K1 permutation into list ``L`` (:func:`list_order`)
    and ``source_offsets`` the CSR row starts of the grouped stream it
    permutes.  :attr:`offsets` are list ``L``'s own row starts: wedge
    ``t`` of list-``L`` pair ``j`` sits at source position
    ``source_offsets[order[j]] + t``.  Every pair store fills its K2
    columns from :meth:`positions` — the in-memory store in one whole
    window, the mmap builds a bounded window at a time
    (:meth:`windows`).
    """

    def __init__(self, order: np.ndarray, source_offsets: np.ndarray):
        self.order = order
        self.starts = source_offsets[:-1][order]
        # Built in place: no K1 temporaries beyond the two kept arrays.
        self.offsets = np.zeros(len(order) + 1, dtype=np.int64)
        ends = self.offsets[1:]
        np.take(source_offsets[1:], order, out=ends)
        ends -= self.starts
        np.cumsum(ends, out=ends)

    def positions(self, p0: int, p1: int) -> np.ndarray:
        """Source positions of list-``L`` pairs ``[p0, p1)``'s wedges."""
        offsets = self.offsets
        w0 = int(offsets[p0])
        pos = np.repeat(
            self.starts[p0:p1] - (offsets[p0:p1] - w0), np.diff(offsets[p0 : p1 + 1])
        )
        pos += np.arange(int(offsets[p1]) - w0, dtype=np.int64)
        return pos

    def windows(
        self, max_wedges: Optional[int] = None
    ) -> Iterator[Tuple[int, int, np.ndarray]]:
        """``(p0, p1, positions)`` over list ``L`` in windows of whole pairs.

        A window holds at most ``max_wedges`` wedges, or one pair when a
        single pair has more; ``None`` is one window over everything.
        """
        k1 = len(self.order)
        offsets = self.offsets
        p0 = 0
        while p0 < k1:
            p1 = k1
            if max_wedges is not None:
                limit = int(offsets[p0]) + max_wedges
                j = int(np.searchsorted(offsets, limit, side="right")) - 1
                p1 = min(k1, max(p0 + 1, j))
            yield p0, p1, self.positions(p0, p1)
            p0 = p1


def _stable_descending(sim: np.ndarray) -> np.ndarray:
    """``np.argsort(-sim, kind="stable")``, computed faster.

    An unstable argsort (NumPy's vectorized quicksort) ranks the rows
    and numbers the runs of equal similarity; one
    :func:`_stable_argsort` of each row's run number then puts every
    tie run back in row order.
    """
    total = len(sim)
    order = np.argsort(-sim)
    ranked = sim[order]
    runs = np.zeros(total, dtype=np.int64)
    np.cumsum(ranked[1:] != ranked[:-1], out=runs[1:])
    run_of_row = np.empty(total, dtype=np.int64)
    run_of_row[order] = runs
    return _stable_argsort(run_of_row, total)[1]


#: Exclusive upper bound of an int64: packed keys must stay below it.
_INT64_LIMIT = 2**63


def _fits_int64(bound: int) -> bool:
    """Whether non-negative keys below ``bound`` (a Python int) fit an int64."""
    return bound <= _INT64_LIMIT


def _stable_argsort(
    key: np.ndarray, bound: int, unique: bool = False
) -> Tuple[np.ndarray, np.ndarray]:
    """``(sorted key, stable permutation)`` of non-negative int64 keys.

    ``bound`` is an exclusive upper bound of the keys.  When the packed
    ``key * len + row`` fits an int64, one direct sort of that column
    replaces the indirect stable argsort plus gather (about half the
    time).  Otherwise the argsort runs; for ``unique`` keys it is the
    unstable one (several times faster), since unique keys allow only
    one permutation.  ``key`` is consumed: it may be overwritten in
    place.
    """
    total = len(key)
    if not _fits_int64(bound * max(total, 1)):
        order = np.argsort(key, kind=None if unique else "stable")
        return key[order], order
    key *= total
    key += np.arange(total, dtype=np.int64)
    key.sort()
    order = key % total
    key //= total
    return key, order


# ----------------------------------------------------------------------
# edge-id resolution for the K2 wedge stream
# ----------------------------------------------------------------------


def _edge_arrays(graph: Graph) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The edge list as columns ``(eu, ev, w)``, indexed by edge id.

    Built straight from the graph's own endpoint and weight lists (no
    per-edge Python loop); ``eu < ev`` on every row.
    """
    m = graph.num_edges
    ends = np.fromiter(
        itertools.chain.from_iterable(graph.edge_pairs()), dtype=np.int64, count=2 * m
    )
    weights = np.asarray(graph.edge_weights(), dtype=np.float64)
    return ends[0::2], ends[1::2], weights


def _pair_keys(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    """Packed int64 ``a * n + b`` keys, whatever the inputs' int dtype."""
    keys = a.astype(np.int64)
    keys *= n
    keys += b
    return keys


def _edge_key_table(graph: Graph) -> Tuple[np.ndarray, np.ndarray, int]:
    """Sorted ``u * n + v`` keys of the edge list plus their edge ids.

    The graph stores endpoints with ``u < v``, so one int64 key per edge
    is collision-free and :func:`numpy.searchsorted` replaces the
    per-wedge ``graph.edge_id`` dict lookups.
    """
    n = graph.num_vertices
    eu, ev, _ = _edge_arrays(graph)
    keys = eu * n + ev
    order = np.argsort(keys)
    return keys[order], order.astype(np.int64), n


def _lookup_edge_ids(
    sorted_keys: np.ndarray,
    eids: np.ndarray,
    n: int,
    a: np.ndarray,
    b: np.ndarray,
) -> np.ndarray:
    """Edge ids of vertex pairs ``(a, b)`` (any endpoint order)."""
    queries = _pair_keys(np.minimum(a, b), np.maximum(a, b), n)
    pos = np.searchsorted(sorted_keys, queries)
    in_range = pos < len(sorted_keys)
    if not np.all(in_range) or np.any(
        sorted_keys[np.minimum(pos, max(len(sorted_keys) - 1, 0))] != queries
    ):
        raise ClusteringError("wedge references a missing edge (bug)")
    return eids[pos]


def _resolve_edge_ids(
    key_table: Tuple[np.ndarray, np.ndarray, int],
    u: np.ndarray,
    v: np.ndarray,
    counts: np.ndarray,
    commons: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Edge ids of every witness's ``(u, k)`` and ``(v, k)`` edges.

    ``u``/``v``/``counts`` describe the pairs and ``commons`` their
    witnesses in CSR order; ``key_table`` is :func:`_edge_key_table`'s.
    A wedge whose edges are not in the table raises
    :class:`ClusteringError`.
    """
    sorted_keys, eids, n = key_table
    e1 = _lookup_edge_ids(sorted_keys, eids, n, np.repeat(u, counts), commons)
    e2 = _lookup_edge_ids(sorted_keys, eids, n, np.repeat(v, counts), commons)
    return e1, e2


def wedge_edge_arrays(
    graph: Graph, columns: SimilarityColumns
) -> Tuple[np.ndarray, np.ndarray]:
    """The K2-long edge-id stream of the columns' wedges.

    For every witness ``k`` of pair ``(u, v)``, returns the edge ids of
    ``(u, k)`` and ``(v, k)`` — the two edges each MERGE call joins —
    aligned with ``columns.common_neighbors``.  Columns from Phase I
    carry them (``edge_uk``/``edge_vk``, returned as they are, int32
    when |E| < 2³¹; :func:`_checked_edge_ids` vets columns from outside
    the run).  Columns without them (built by hand or from a dict map)
    are resolved by a vectorized binary search over the sorted edge
    keys; a miss raises :class:`ClusteringError` (it would mean the
    columns disagree with the graph).
    """
    if columns.k2 == 0:
        empty_i = np.empty(0, dtype=np.int64)
        return empty_i, empty_i.copy()
    if columns.edge_uk is not None:
        return columns.edge_uk, columns.edge_vk
    return _resolve_edge_ids(
        _edge_key_table(graph),
        columns.u,
        columns.v,
        columns.pair_counts(),
        columns.common_neighbors,
    )


def _checked_edge_ids(graph: Graph, columns: SimilarityColumns) -> SimilarityColumns:
    """``columns``, minus carried edge ids that are not ``graph``'s.

    Carried ids are trusted by every later stage, so columns that come
    from outside the run (computed on another graph, or on the same
    edges in another id order) are vetted once: each id must be in range
    and name the edge between the witness and its pair end, which takes
    K2-long gathers and compares, not binary searches.  Columns that
    fail lose their ids, so :func:`wedge_edge_arrays` resolves the
    stream from ``graph`` itself — exact for a reordered edge list, a
    :class:`ClusteringError` for columns that do not fit the graph.
    """
    if columns.edge_uk is None or columns.k2 == 0:
        return columns
    m = graph.num_edges
    eu, ev, _ = _edge_arrays(graph)
    counts = columns.pair_counts()
    k = columns.common_neighbors
    for ends, ids in ((columns.u, columns.edge_uk), (columns.v, columns.edge_vk)):
        if int(ids.min()) < 0 or int(ids.max()) >= m:
            return columns.without_edge_ids()
        a = np.repeat(ends, counts)
        if not (
            np.array_equal(eu[ids], np.minimum(a, k))
            and np.array_equal(ev[ids], np.maximum(a, k))
        ):
            return columns.without_edge_ids()
    return columns


def _merge_stream_windows(
    graph: Graph,
    columns: SimilarityColumns,
    index_arr: np.ndarray,
    gather: ListGather,
    max_wedges: Optional[int] = None,
) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """List ``L``'s ``c1``/``c2`` merge stream, one window at a time.

    ``gather`` orders ``columns`` into list ``L`` and ``index_arr`` maps
    edge ids to positions in array ``C``.  Carried edge ids are gathered;
    columns without them resolve each window's wedges from the graph's
    edge keys, so only one window's lookups are ever resident.
    """
    carried = columns.edge_uk is not None
    key_table = None if carried else _edge_key_table(graph)
    for p0, p1, pos in gather.windows(max_wedges):
        if carried:
            e1 = columns.edge_uk[pos]
            e2 = columns.edge_vk[pos]
        else:
            rows = gather.order[p0:p1]
            e1, e2 = _resolve_edge_ids(
                key_table,
                columns.u[rows],
                columns.v[rows],
                np.diff(gather.offsets[p0 : p1 + 1]),
                columns.common_neighbors[pos],
            )
        del pos
        c1 = index_arr[e1]
        del e1
        c2 = index_arr[e2]
        del e2
        yield c1, c2


def _sorted_merge_stream(
    graph: Graph, columns: SimilarityColumns, index_arr: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """List ``L`` as ``(sim, u, v, offsets, c1, c2)``, in one window.

    ``c1``/``c2`` index array ``C`` (``index_arr`` maps edge ids to its
    positions).  The witnesses themselves are not gathered: no sweep
    reads them once the edge ids are mapped.
    """
    order = list_order(columns.u, columns.v, columns.sim)
    gather = ListGather(order, columns.common_offsets)
    empty = np.empty(0, dtype=np.int64)
    c1, c2 = next(
        _merge_stream_windows(graph, columns, index_arr, gather), (empty, empty)
    )
    return columns.sim[order], columns.u[order], columns.v[order], gather.offsets, c1, c2
