"""Vectorized Phase I: Algorithm 1 over flat numpy arrays.

Pure-Python wedge enumeration costs one dict operation per incident edge
pair (K2 of them) — the dominant cost of the initialization phase at
scale.  This module computes the same map columnar-natively:

* the CSR adjacency is built once from the graph's own edge lists and
  keeps each slot's edge id; ``H1``/``H2`` are segment reductions over
  it;
* all wedges are enumerated in blocks of centres from one cached slot
  pair template, each wedge carrying the ids of its two edges, then grouped by vertex pair with one argsort of the packed
  ``(u, v, k)`` key + segment-reduce (``np.add.reduceat``) — the
  grouped wedge products are exactly map ``M``'s accumulated dot
  products, the grouped witness columns are its common-neighbour lists
  and the grouped edge ids are the sweep's merge stream, so no later
  stage has to find them again;
* the adjacency correction ``(H1[i]+H1[j]) w_ij`` is a vectorized
  binary search over the sorted CSR keys;
* the Tanimoto normalization is an elementwise array expression.

:func:`fast_similarity_columns` returns the result directly as a
:class:`~repro.core.simcolumns.SimilarityColumns` (the run's native
interchange format; :meth:`~repro.core.simcolumns.SimilarityColumns.to_similarity_map`
converts it to the dict oracle format).  It agrees with
:func:`repro.core.similarity.compute_similarity_map` up to
floating-point summation order; the test suite compares them with 1e-9
relative tolerance on every graph family.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.simcolumns import (
    SimilarityColumns,
    _edge_arrays,
    _fits_int64,
    _pair_keys,
    _stable_argsort,
)
from repro.errors import ClusteringError
from repro.graph.graph import Graph
from repro.obs import as_tracer

__all__ = ["fast_similarity_columns"]


# ----------------------------------------------------------------------
# columnar building blocks (shared with repro.parallel.par_init)
# ----------------------------------------------------------------------


def _pair_template(d: int) -> Tuple[np.ndarray, np.ndarray]:
    """``(first, second)`` slot offsets of every pair in a degree-``d`` row.

    Pairs ``(i, j)``, ``i < j``, are enumerated j-major: ``j = 1, 2,
    ...`` and ``i = 0 .. j - 1`` within each ``j``.  The first
    ``c(c - 1) / 2`` entries are then exactly the pairs of a degree-``c``
    row, so the template of the largest degree serves every row; it is
    no larger than that row's own wedge count.
    """
    js = np.arange(d, dtype=np.int64)
    second = np.repeat(js, js)
    first = np.arange(len(second), dtype=np.int64)
    first -= np.repeat(js * (js - 1) // 2, js)
    return first, second


def _index_dtype(count: int) -> type:
    """Narrowest of int32/int64 that indexes ``count`` items."""
    return np.int32 if count < 2**31 else np.int64


def _csr_arrays(
    graph: Graph,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """CSR adjacency as plain arrays ``(indptr, indices, weights, eids)``.

    ``eids[s]`` is the edge id of CSR slot ``s``, so every wedge knows
    both of its edges without a lookup.  Neighbour lists are sorted
    ascending within each row (matching the reference's
    ``sorted(graph.neighbors(i).items())`` enumeration): the slot order
    is one argsort of the packed ``src * n + dst`` keys, which are
    unique, so it is the permutation a ``(src, dst)`` lexsort gives.
    ``indices`` and ``eids`` are int32 when the counts allow it.
    """
    n = graph.num_vertices
    m = graph.num_edges
    eu, ev, ew = _edge_arrays(graph)
    src = np.concatenate([eu, ev])
    dst = np.concatenate([ev, eu])
    order = np.argsort(src * n + dst)
    indices = dst[order].astype(_index_dtype(n))
    weights = np.concatenate([ew, ew])[order]
    eids = (order % max(m, 1)).astype(_index_dtype(m))
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    return indptr, indices, weights, eids


def _h_arrays_columnar(
    indptr: np.ndarray, weights: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Pass 1 over the CSR arrays: ``H1`` and ``H2`` for all vertices."""
    degrees = np.diff(indptr)
    if len(weights):
        # reduceat rejects indices == len(weights); trailing degree-0
        # vertices produce exactly those, so pad one zero (the pad only
        # ever adds 0.0 to the last row's sum).  Degree-0 rows still
        # pick up a garbage single element — zeroed by the mask below.
        wpad = np.append(weights, 0.0)
        sums = np.add.reduceat(wpad, indptr[:-1])
        sq = np.add.reduceat(wpad * wpad, indptr[:-1])
    else:
        sums = np.zeros(len(degrees))
        sq = np.zeros(len(degrees))
    sums = np.where(degrees > 0, sums, 0.0)
    sq = np.where(degrees > 0, sq, 0.0)
    h1 = sums / np.maximum(degrees, 1)
    h2 = h1 * h1 + sq
    return h1, h2


#: Wedges emitted per block: bounds the index temporaries of one block
#: (every block but a single high-degree centre's stays within it).
_WEDGE_BLOCK = 1 << 16


def _wedge_columns(
    indptr: np.ndarray,
    indices: np.ndarray,
    weights: np.ndarray,
    eids: np.ndarray,
    vertices: Optional[Sequence[int]] = None,
) -> List[np.ndarray]:
    """Pass 2 (step one): every wedge centred on ``vertices`` as columns.

    Returns ``[u, v, k, wprod, e_uk, e_vk]`` with ``u < v`` the outer
    endpoints, ``k`` the centre, ``wprod = w_uk * w_vk`` and ``e_uk`` /
    ``e_vk`` the edge ids of ``(u, k)`` / ``(v, k)`` — one row per
    incident edge pair.  ``vertices`` restricts the centres (the
    parallel init's unit of work); ``None`` enumerates all of them.

    Wedges are generated a block of centres at a time with no
    per-centre Python work: every wedge's slot pair is a gather from
    one ``_pair_template`` at its offset within its centre's run, and
    the six columns are filled in place (no concatenation copy).  Rows
    come out centre by centre, in template order within a centre — not
    ``(u, v, k)`` order; consumers sort by that unique key.  The vertex
    columns share the CSR ``indices`` dtype and the id columns the
    ``eids`` dtype.
    """
    degrees = np.diff(indptr)
    if vertices is None:
        centers = np.flatnonzero(degrees >= 2)
    else:
        centers = np.asarray(vertices, dtype=np.int64)
        centers = centers[degrees[centers] >= 2]
    deg = degrees[centers]
    counts = deg * (deg - 1) // 2
    ends = np.cumsum(counts)
    total = int(ends[-1]) if len(ends) else 0
    u = np.empty(total, dtype=indices.dtype)
    v = np.empty(total, dtype=indices.dtype)
    k = np.empty(total, dtype=indices.dtype)
    wprod = np.empty(total, dtype=np.float64)
    e_uk = np.empty(total, dtype=eids.dtype)
    e_vk = np.empty(total, dtype=eids.dtype)
    first, second = _pair_template(int(deg.max()) if len(deg) else 0)
    c0 = 0
    while c0 < len(centers):
        w0 = int(ends[c0] - counts[c0])
        c1 = max(c0 + 1, int(np.searchsorted(ends, w0 + _WEDGE_BLOCK, side="right")))
        w1 = int(ends[c1 - 1])
        block_counts = counts[c0:c1]
        # Offset of every wedge within its centre's run of wedges.
        local = np.arange(w1 - w0, dtype=np.int64)
        local -= np.repeat(ends[c0:c1] - block_counts - w0, block_counts)
        row_start = np.repeat(indptr[centers[c0:c1]], block_counts)
        su = row_start + first[local]
        sv = row_start + second[local]
        out = slice(w0, w1)
        np.take(indices, su, out=u[out], mode="clip")
        np.take(indices, sv, out=v[out], mode="clip")
        k[out] = np.repeat(centers[c0:c1], block_counts)
        np.multiply(weights[su], weights[sv], out=wprod[out])
        np.take(eids, su, out=e_uk[out], mode="clip")
        np.take(eids, sv, out=e_vk[out], mode="clip")
        c0 = c1
    return [u, v, k, wprod, e_uk, e_vk]


def _group_wedges(
    wedges: List[np.ndarray],
) -> Tuple[np.ndarray, ...]:
    """Pass 2 (step two): group wedges by vertex pair.

    Takes the ``_wedge_columns`` list and empties it, so each K2 input
    column is freed as soon as it has been used.  Sorts by (``u``,
    ``v``, centre ``k``) — so each pair's witnesses come out ascending,
    matching the reference's insertion order — and segment-reduces.
    Every wedge key ``(u, v, k)`` is globally unique, so when the three
    components pack into one int64 a single sort of the packed key
    (:func:`~repro.core.simcolumns._stable_argsort`) yields the exact
    same permutation as the three-pass stable lexsort at a fraction of
    the cost; the lexsort stays as the fallback for vertex counts too
    large to pack (2**21 and up).  Returns ``(pair_u, pair_v, dots,
    offsets, commons, e_uk, e_vk)`` — the accumulated map ``M`` before
    the adjacency correction, with the witnesses' edge ids permuted
    alongside ``commons``.  The vertex columns keep the input dtype on
    the fallback (int32 from an int32 CSR).
    """
    w_u, w_v, w_k, w_prod, e_uk, e_vk = wedges
    wedges.clear()
    if len(w_u) == 0:
        empty_i = np.empty(0, dtype=np.int64)
        return (
            empty_i,
            empty_i.copy(),
            np.empty(0, dtype=np.float64),
            np.zeros(1, dtype=np.int64),
            empty_i.copy(),
            e_uk,
            e_vk,
        )
    hi = int(max(w_u.max(), w_v.max(), w_k.max())) + 1
    if _fits_int64(hi**3):
        key = _pair_keys(w_u, w_v, hi)
        key *= hi
        key += w_k
        del w_u, w_v, w_k
        key, order = _stable_argsort(key, hi**3, unique=True)
        w_prod = w_prod[order]
        e_uk = e_uk[order]
        e_vk = e_vk[order]
        del order
        pair_key = key // hi
        starts = _group_starts(pair_key[1:] != pair_key[:-1])
        pk = pair_key[starts]
        del pair_key
        dots = np.add.reduceat(w_prod, starts)
        del w_prod
        commons = key % hi
        return pk // hi, pk % hi, dots, _offsets(starts, len(key)), commons, e_uk, e_vk
    order = np.lexsort((w_k, w_v, w_u))
    w_u = w_u[order]
    w_v = w_v[order]
    w_k = w_k[order]
    w_prod = w_prod[order]
    e_uk = e_uk[order]
    e_vk = e_vk[order]
    starts = _group_starts((w_u[1:] != w_u[:-1]) | (w_v[1:] != w_v[:-1]))
    dots = np.add.reduceat(w_prod, starts)
    return (
        w_u[starts],
        w_v[starts],
        dots,
        _offsets(starts, len(w_u)),
        w_k,
        e_uk,
        e_vk,
    )


def _group_starts(changed: np.ndarray) -> np.ndarray:
    """Start rows of a sorted column's groups, given ``row[1:] != row[:-1]``."""
    return np.flatnonzero(np.concatenate(([True], changed)))


def _offsets(starts: np.ndarray, total: int) -> np.ndarray:
    offsets = np.empty(len(starts) + 1, dtype=np.int64)
    offsets[:-1] = starts
    offsets[-1] = total
    return offsets


def _adjacency_weights(
    indptr: np.ndarray,
    indices: np.ndarray,
    weights: np.ndarray,
    pair_u: np.ndarray,
    pair_v: np.ndarray,
) -> np.ndarray:
    """Edge weight of every pair that is also an edge, 0.0 elsewhere.

    The CSR rows are sorted, so their packed ``row * n + col`` keys are
    a sorted key table of both edge directions: one binary search per
    pair finds its slot.
    """
    found_weights = np.zeros(len(pair_u), dtype=np.float64)
    if len(indices) == 0 or len(pair_u) == 0:
        return found_weights
    n = len(indptr) - 1
    rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
    slot_keys = rows * n + indices
    queries = _pair_keys(pair_u, pair_v, n)
    pos = np.minimum(np.searchsorted(slot_keys, queries), len(slot_keys) - 1)
    found = slot_keys[pos] == queries
    found_weights[found] = weights[pos[found]]
    return found_weights


def _tanimoto(
    h2: np.ndarray, pair_u: np.ndarray, pair_v: np.ndarray, dots: np.ndarray
) -> np.ndarray:
    """Final step: ``dot / (|a_i|^2 + |a_j|^2 - dot)``, denominator-checked."""
    denom = h2[pair_u] + h2[pair_v] - dots
    if np.any(denom <= 0.0):
        raise ClusteringError("non-positive Tanimoto denominator (bug)")
    return dots / denom


# ----------------------------------------------------------------------
# drivers
# ----------------------------------------------------------------------


def fast_similarity_columns(graph: Graph, tracer=None) -> SimilarityColumns:
    """Vectorized Algorithm 1 producing columnar output directly.

    ``tracer`` gets the same per-pass spans as the serial reference
    (``init:pass1`` .. ``init:finalize``).  Raises
    :class:`ClusteringError` on internal inconsistencies (they would
    indicate a bug, never valid input).
    """
    tracer = as_tracer(tracer)
    with tracer.span("init:pass1"):
        indptr, indices, weights, eids = _csr_arrays(graph)
        h1, h2 = _h_arrays_columnar(indptr, weights)
    with tracer.span("init:pass2"):
        grouped = _group_wedges(_wedge_columns(indptr, indices, weights, eids))
    return _finish_columns(indptr, indices, weights, h1, h2, grouped, tracer)


def _finish_columns(
    indptr, indices, weights, h1, h2, grouped, tracer, **pass3_attrs
) -> SimilarityColumns:
    """Pass 3 and finalize over the grouped wedges (serial and parallel)."""
    pair_u, pair_v, dots, offsets, commons, e_uk, e_vk = grouped
    with tracer.span("init:pass3", **pass3_attrs):
        dots = dots + (h1[pair_u] + h1[pair_v]) * _adjacency_weights(
            indptr, indices, weights, pair_u, pair_v
        )
    with tracer.span("init:finalize"):
        sims = _tanimoto(h2, pair_u, pair_v, dots)
        return SimilarityColumns(
            u=pair_u,
            v=pair_v,
            sim=sims,
            common_offsets=offsets,
            common_neighbors=commons,
            edge_uk=e_uk,
            edge_vk=e_vk,
        )
