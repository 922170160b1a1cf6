"""Cluster-membership structures used by the sweeping phase.

Three structures live here:

* :class:`ChainArray` — the paper's array ``C`` with chain function ``F``
  (Eq. 4) and the ``MERGE`` procedure of Algorithm 2.  It is deliberately
  *not* a classic union-find: every merge rewrites every element of both
  chains to the minimum edge id, so ``min F(i)`` is always reachable in one
  hop afterwards, and cluster ids are stable (always the minimum member).
  Theorem 1 of the paper states ``min F(i)`` is the correct cluster id; the
  amortized cost analysis (Theorem 2) depends on this full rewriting.

* :class:`LabelForest` — the same genuine merges found as a spanning
  forest: a window of wedges is filtered by the labels its endpoints had
  at the window's start, and only the survivors go through a small
  min-root union-find.  It keeps no array ``C``, so it has none of
  :class:`ChainArray`'s counters.

* :class:`DisjointSet` — a textbook union-find with union by size and path
  compression, used by tests to cross-check :class:`ChainArray` and by the
  dendrogram replay utilities.

:class:`ChainArray` additionally counts *changes* to array ``C`` (assignments
that alter a value), which is exactly the quantity plotted in Figure 2(1) of
the paper.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ClusteringError

__all__ = ["ChainArray", "DisjointSet", "LabelForest", "MergeOutcome"]


def _window_segments(
    c1: Sequence[int], c2: Sequence[int], start: int, stop: int, n: int, owner: str
) -> Tuple[np.ndarray, np.ndarray]:
    """Wedges ``start..stop-1`` as int64 arrays, bounds-checked.

    Raises :class:`ClusteringError` for a window outside the columns or
    an index outside ``0..n-1`` before the caller touches its state
    (NumPy indexing would wrap a negative index silently).
    """
    if not 0 <= start <= stop <= min(len(c1), len(c2)):
        raise ClusteringError(
            f"wedge window [{start}, {stop}) out of range for "
            f"{min(len(c1), len(c2))} wedges"
        )
    seg1 = np.asarray(c1[start:stop], dtype=np.int64)
    seg2 = np.asarray(c2[start:stop], dtype=np.int64)
    if seg1.size and (
        min(int(seg1.min()), int(seg2.min())) < 0
        or max(int(seg1.max()), int(seg2.max())) >= n
    ):
        raise ClusteringError(
            f"wedge window [{start}, {stop}) indexes items outside "
            f"{owner} of size {n}"
        )
    return seg1, seg2


class MergeOutcome(NamedTuple):
    """Result of one ``MERGE(i1, i2)`` call.

    ``merged`` is true when the two edges were in *different* clusters
    (``c1 != c2``), i.e. when the paper's Algorithm 2 would increment the
    merging level ``r`` and emit a dendrogram entry
    ``c1, c2 -> parent``.
    """

    merged: bool
    c1: int
    c2: int
    parent: int


class ChainArray:
    """The paper's array ``C`` over ``n`` items (edge ids ``0..n-1``).

    ``C[i]`` points from item ``i`` toward the minimum id of its cluster;
    following the chain until a self-loop enumerates ``F(i)``.  Invariant:
    ``C[i] <= i`` with equality exactly at cluster roots, so chains strictly
    decrease and terminate.

    Examples
    --------
    >>> c = ChainArray(4)
    >>> c.merge(2, 3).parent
    2
    >>> c.merge(1, 3)
    MergeOutcome(merged=True, c1=1, c2=2, parent=1)
    >>> c.find(3)
    1
    >>> c.num_clusters()
    2
    """

    __slots__ = ("_c", "_changes", "_accesses", "_clusters")

    def __init__(self, n: int, _init: Optional[List[int]] = None):
        if n < 0:
            raise ClusteringError(f"need n >= 0 items, got {n}")
        if _init is not None:
            if len(_init) != n:
                raise ClusteringError("_init length does not match n")
            self._c = list(_init)
            self._clusters = sum(
                1 for i, ci in enumerate(self._c) if i == ci
            )
        else:
            self._c = list(range(n))
            self._clusters = n
        self._changes = 0
        self._accesses = 0

    # ------------------------------------------------------------------
    # core paper semantics
    # ------------------------------------------------------------------
    def chain(self, i: int) -> List[int]:
        """``F(i)``: all ids on the chain from ``i`` to its self-loop."""
        self._check(i)
        c = self._c
        out = [i]
        while c[i] != i:
            i = c[i]
            out.append(i)
        return out

    def find(self, i: int) -> int:
        """Cluster id of item ``i``: ``min F(i)`` (Theorem 1).

        Because merges rewrite chains to their minimum, the chain's last
        element *is* the minimum; we still guard the invariant.
        """
        self._check(i)
        c = self._c
        while c[i] != i:
            nxt = c[i]
            if nxt > i:
                raise ClusteringError(
                    f"chain invariant violated: C[{i}] = {nxt} > {i}"
                )
            i = nxt
        return i

    def merge(self, i1: int, i2: int) -> MergeOutcome:
        """The paper's ``MERGE`` procedure (Algorithm 2, lines 23-33).

        Computes ``F(i1)`` and ``F(i2)``, rewrites every member of both
        chains to ``min(F(i1) | F(i2))``, and reports whether a genuine
        cluster merge happened.
        """
        f1 = self.chain(i1)
        f2 = self.chain(i2)
        # Theorem 2's accounting: elements of array C visited by MERGE.
        self._accesses += len(f1) + len(f2)
        c1 = min(f1)
        c2 = min(f2)
        cmin = c1 if c1 < c2 else c2
        c = self._c
        changes = 0
        for j in f1:
            if c[j] != cmin:
                c[j] = cmin
                changes += 1
        for j in f2:
            if c[j] != cmin:
                c[j] = cmin
                changes += 1
        self._changes += changes
        merged = c1 != c2
        if merged:
            self._clusters -= 1
        return MergeOutcome(merged=merged, c1=c1, c2=c2, parent=cmin)

    def merge_run(
        self,
        c1: Sequence[int],
        c2: Sequence[int],
        start: int,
        stop: int,
        changes: Optional[List[int]] = None,
    ) -> List[Tuple[int, int, int, int]]:
        """:meth:`merge` over wedges ``start..stop-1`` in one loop.

        Wedge ``w`` is the edge-index pair ``(c1[w], c2[w])``.  The
        result is exactly that of calling ``merge(c1[w], c2[w])`` in
        order: the same array ``C`` (both chains rewritten to their
        minimum), ``changes``, ``accesses`` and cluster count.  Returns
        ``(w, c1, c2, parent)`` for every genuine merge, in order.  When
        ``changes`` is a list, each wedge's number of array-``C`` value
        changes is appended to it (Figure 2(1)).

        ``c1``/``c2`` may be lists or integer arrays; the window is
        bounds-checked up front, so an out-of-range index raises
        :class:`ClusteringError` before ``C`` is touched.  This is the
        columnar sweeps' MERGE loop: the chain walks are inlined, so a
        wedge costs a few list reads instead of a method call, two
        ``chain()`` lists and a result tuple.
        """
        c = self._c
        seg1, seg2 = _window_segments(c1, c2, start, stop, len(c), "ChainArray")
        merges: List[Tuple[int, int, int, int]] = []
        accesses = 0
        total = 0
        w = start
        for x, y in zip(seg1.tolist(), seg2.tolist()):
            # F(x) and F(y): walk each chain to its self-loop, counting
            # the elements visited (Theorem 2's accesses).
            r1 = c[x]
            n1 = 1
            if r1 != x:
                n1 = 2
                t = c[r1]
                while t != r1:
                    r1 = t
                    t = c[r1]
                    n1 += 1
            r2 = c[y]
            n2 = 1
            if r2 != y:
                n2 = 2
                t = c[r2]
                while t != r2:
                    r2 = t
                    t = c[r2]
                    n2 += 1
            accesses += n1 + n2
            ch = 0
            if r1 != r2 or n1 > 2 or n2 > 2:
                # Rewrite both chains to the minimum.  Chains of length
                # <= 2 in one cluster already point at it, so the common
                # no-op wedge skips this.  Walking the second chain
                # after the first is rewritten stops where they joined,
                # so a shared suffix is counted once, as in merge().
                cmin = r1 if r1 < r2 else r2
                for j in (x, y):
                    while True:
                        t = c[j]
                        if t != cmin:
                            c[j] = cmin
                            ch += 1
                        if t == j:
                            break
                        j = t
                total += ch
                if r1 != r2:
                    merges.append((w, r1, r2, cmin))
            if changes is not None:
                changes.append(ch)
            w += 1
        self._accesses += accesses
        self._changes += total
        self._clusters -= len(merges)
        return merges

    def rewrite(self, members, target: int) -> int:
        """Point every id in ``members`` at ``target`` (target <= each id).

        Used by the parallel array-merge scheme (Section VI-B), which
        rewrites unions of chains computed across two arrays.  Returns the
        number of values actually changed; change counting matches
        :meth:`merge`.
        """
        c = self._c
        changes = 0
        for e in members:
            self._check(e)
            if target > e:
                raise ClusteringError(
                    f"rewrite target {target} > member {e} breaks the chain invariant"
                )
            old = c[e]
            if old != target:
                if old == e:
                    self._clusters -= 1  # e stops being a root
                elif target == e:
                    self._clusters += 1  # e becomes a root
                c[e] = target
                changes += 1
        self._changes += changes
        return changes

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._c)

    @property
    def changes(self) -> int:
        """Total number of value changes applied to array ``C`` so far."""
        return self._changes

    @property
    def accesses(self) -> int:
        """Total array-``C`` elements visited by MERGE chain walks.

        This is the quantity ``2X`` that Theorem 2's amortized analysis
        bounds by ``O(K2 + sqrt(K2) |E|)``; the Theorem-2 benchmark
        checks the bound empirically across graph families.
        """
        return self._accesses

    def reset_change_counter(self) -> int:
        """Zero the change counter, returning the previous total."""
        prev = self._changes
        self._changes = 0
        return prev

    def num_clusters(self) -> int:
        """Number of clusters, maintained in O(1).

        Semantically identical to counting self-loops in ``C`` (the
        paper recomputes from the array at epoch boundaries; a counter
        is exact and free — :meth:`count_roots` still does the scan for
        verification).
        """
        return self._clusters

    def count_roots(self) -> int:
        """O(n) root scan; always equals :meth:`num_clusters` (tested)."""
        return sum(1 for i, ci in enumerate(self._c) if i == ci)

    def cluster_roots(self) -> Iterator[int]:
        """Iterate the root id of each cluster."""
        return (i for i, ci in enumerate(self._c) if i == ci)

    def labels(self) -> List[int]:
        """Cluster label (root id) of every item, index-aligned."""
        return [self.find(i) for i in range(len(self._c))]

    def raw(self) -> Sequence[int]:
        """Read-only view of the underlying array (do not mutate)."""
        return self._c

    def copy(self) -> "ChainArray":
        """Deep copy (used for epoch snapshots and per-thread copies).

        Copies the array and the three counters directly: the cluster
        count is already known, so no O(n) root scan is paid.
        """
        dup = ChainArray._adopt(list(self._c), self._clusters)
        dup._changes = self._changes
        dup._accesses = self._accesses
        return dup

    @classmethod
    def _adopt(cls, values: List[int], clusters: int) -> "ChainArray":
        """Wrap ``values`` (not copied) whose root count is known."""
        chain = cls.__new__(cls)
        chain._c = values
        chain._clusters = clusters
        chain._changes = 0
        chain._accesses = 0
        return chain

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ChainArray):
            return NotImplemented
        return self._c == other._c

    def __repr__(self) -> str:
        return f"ChainArray(n={len(self._c)}, clusters={self.num_clusters()})"

    def _check(self, i: int) -> None:
        if not 0 <= i < len(self._c):
            raise ClusteringError(
                f"item {i} out of range for ChainArray of size {len(self._c)}"
            )


class LabelForest:
    """Algorithm 2's genuine merges, found as a spanning forest.

    Holds one flat label per item, the minimum item of its cluster.
    :meth:`merge_run` has :meth:`ChainArray.merge_run`'s record contract
    (every genuine merge ``(w, c1, c2, parent)``, in wedge order, with
    the clusters' minimum items) at a fraction of its cost: a wedge
    whose endpoints carried one label at the window's start cannot
    merge anything, so only the other wedges reach a union-find, and
    that union-find is over the few labels they name.

    There is no array ``C``, so there are no change or access counters
    (Figure 2(1) and Theorem 2 measure :class:`ChainArray`).
    :meth:`to_chain` hands the labels over as a flat ``ChainArray``.

    Examples
    --------
    >>> forest = LabelForest(4)
    >>> forest.merge_run([2, 1, 0], [3, 3, 1], 0, 3)
    [(0, 2, 3, 2), (1, 1, 2, 1), (2, 0, 1, 0)]
    >>> forest.labels()
    [0, 0, 0, 0]
    """

    __slots__ = ("_labels", "_clusters", "_survivors")

    def __init__(self, n: int):
        if n < 0:
            raise ClusteringError(f"need n >= 0 items, got {n}")
        self._labels = np.arange(n, dtype=np.int64)
        self._clusters = n
        self._survivors = 0

    def merge_run(
        self, c1: Sequence[int], c2: Sequence[int], start: int, stop: int
    ) -> List[Tuple[int, int, int, int]]:
        """Merge wedges ``start..stop-1``; return the genuine merges.

        The records and the labels left behind are exactly those of
        :meth:`ChainArray.merge_run` over the same wedges.  The window
        is bounds-checked up front: an out-of-range index raises
        :class:`ClusteringError` before any label changes.
        """
        labels = self._labels
        seg1, seg2 = _window_segments(c1, c2, start, stop, len(labels), "LabelForest")
        l1 = labels[seg1]
        l2 = labels[seg2]
        keep = np.flatnonzero(l1 != l2)
        self._survivors += len(keep)
        if not len(keep):
            return []
        # Min-root union-find over window-start labels: ``up`` maps each
        # root merged away in this window toward the root it joined.
        up: Dict[int, int] = {}
        merges: List[Tuple[int, int, int, int]] = []
        for w, a, b in zip(
            (keep + start).tolist(), l1[keep].tolist(), l2[keep].tolist()
        ):
            r1 = a
            while r1 in up:
                r1 = up[r1]
            while a != r1:  # path compression
                up[a], a = r1, up[a]
            r2 = b
            while r2 in up:
                r2 = up[r2]
            while b != r2:
                up[b], b = r2, up[b]
            if r1 != r2:
                if r1 < r2:
                    up[r2] = cmin = r1
                else:
                    up[r1] = cmin = r2
                merges.append((w, r1, r2, cmin))
        if merges:
            merged = list(up)
            roots = []
            for r in merged:
                while r in up:
                    r = up[r]
                roots.append(r)
            # Each merged-away root now names its final root, and every
            # other label still names itself, so one gather relabels all.
            labels[merged] = roots
            self._labels = labels[labels]
            self._clusters -= len(merges)
        return merges

    @property
    def survivors(self) -> int:
        """Wedges that passed the label filter and reached the union-find."""
        return self._survivors

    def num_clusters(self) -> int:
        return self._clusters

    def labels(self) -> List[int]:
        """Cluster label (minimum member) of every item, index-aligned."""
        return self._labels.tolist()

    def to_chain(self) -> ChainArray:
        """The labels as a flat :class:`ChainArray` (zero counters)."""
        return ChainArray._adopt(self.labels(), self._clusters)

    def __repr__(self) -> str:
        return f"LabelForest(n={len(self._labels)}, clusters={self._clusters})"


class DisjointSet:
    """Classic union-find with union by size and path compression.

    Cluster ids are canonicalized to the *minimum member id* on query so the
    structure is directly comparable to :class:`ChainArray` in tests.
    """

    __slots__ = ("_parent", "_size", "_min", "_count")

    def __init__(self, n: int):
        if n < 0:
            raise ClusteringError(f"need n >= 0 items, got {n}")
        self._parent = list(range(n))
        self._size = [1] * n
        self._min = list(range(n))
        self._count = n

    def __len__(self) -> int:
        return len(self._parent)

    @property
    def num_clusters(self) -> int:
        return self._count

    def find(self, i: int) -> int:
        """Canonical cluster id (minimum member) of item ``i``."""
        return self._min[self._find_root(i)]

    def _find_root(self, i: int) -> int:
        if not 0 <= i < len(self._parent):
            raise ClusteringError(
                f"item {i} out of range for DisjointSet of size {len(self._parent)}"
            )
        parent = self._parent
        root = i
        while parent[root] != root:
            root = parent[root]
        while parent[i] != root:  # path compression
            parent[i], i = root, parent[i]
        return root

    def union(self, a: int, b: int) -> bool:
        """Merge the clusters of ``a`` and ``b``; true if they differed."""
        ra, rb = self._find_root(a), self._find_root(b)
        if ra == rb:
            return False
        if self._size[ra] < self._size[rb]:
            ra, rb = rb, ra
        self._parent[rb] = ra
        self._size[ra] += self._size[rb]
        if self._min[rb] < self._min[ra]:
            self._min[ra] = self._min[rb]
        self._count -= 1
        return True

    def labels(self) -> List[int]:
        """Canonical cluster label of every item, index-aligned."""
        return [self.find(i) for i in range(len(self._parent))]

    def __repr__(self) -> str:
        return f"DisjointSet(n={len(self._parent)}, clusters={self._count})"
