"""Dendrogram representation produced by the sweeping algorithms.

Algorithm 2 emits one record per genuine cluster merge::

    r : c1, c2 -> cmin        (Eq. 5)

In the fine-grained algorithm ``r`` increments once per merge; in the
coarse-grained algorithm many merges share one level.  :class:`Dendrogram`
stores those records plus (optionally) the similarity at which each merge
happened, and supports the queries the evaluation needs: cluster labels at
any level, the clusters-per-level curve (Figure 2(2)), and threshold cuts.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from itertools import count, repeat
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Set, Tuple

import numpy as np

from repro.cluster.unionfind import DisjointSet
from repro.errors import ClusteringError

__all__ = ["Merge", "Dendrogram", "DendrogramBuilder"]


# Builds a Merge from already-checked fields, skipping Merge.__new__.
_new_record: Callable[..., Any] = tuple.__new__


def _bad_parent(level: int, left: int, right: int, parent: int) -> ClusteringError:
    return ClusteringError(
        f"merge parent must be min(left, right): "
        f"level={level}, left={left}, right={right}, parent={parent}"
    )


class _MergeFields(NamedTuple):
    level: int
    left: int
    right: int
    parent: int
    similarity: Optional[float] = None


class Merge(_MergeFields):
    """One merge record ``level: left, right -> parent``.

    ``similarity`` is the score at which the merge happened (``None`` when
    the producing algorithm did not track it, e.g. coarse-grained levels).
    Records are immutable and compare equal field by field.  A tuple
    underneath, so :class:`DendrogramBuilder` can emit thousands of them
    per sweep without per-record dataclass construction.
    """

    __slots__ = ()

    def __new__(
        cls,
        level: int,
        left: int,
        right: int,
        parent: int,
        similarity: Optional[float] = None,
    ) -> "Merge":
        if parent != min(left, right):
            raise _bad_parent(level, left, right, parent)
        return _new_record(cls, (level, left, right, parent, similarity))


class Dendrogram:
    """An immutable sequence of merges over ``num_items`` leaves.

    Merges must be ordered by non-decreasing level.  Levels may repeat
    (coarse-grained clustering) and need not reach a single root.
    """

    def __init__(self, num_items: int, merges: Sequence[Merge]):
        if num_items < 0:
            raise ClusteringError(f"num_items must be >= 0, got {num_items}")
        self._n = num_items
        self._merges: Tuple[Merge, ...] = tuple(merges)
        last_level = 0
        for m in self._merges:
            if m.level < last_level:
                raise ClusteringError(
                    f"merge levels must be non-decreasing, got {m.level} after {last_level}"
                )
            if not (0 <= m.left < num_items and 0 <= m.right < num_items):
                raise ClusteringError(f"merge {m!r} references unknown items")
            last_level = m.level
        self._levels: List[int] = [m.level for m in self._merges]

    # ------------------------------------------------------------------
    # basic properties
    # ------------------------------------------------------------------
    @property
    def num_items(self) -> int:
        """Number of leaves (edges, for link clustering)."""
        return self._n

    @property
    def merges(self) -> Tuple[Merge, ...]:
        return self._merges

    @property
    def num_merges(self) -> int:
        return len(self._merges)

    @property
    def num_levels(self) -> int:
        """Highest level index appearing in the dendrogram (0 if empty)."""
        return self._levels[-1] if self._levels else 0

    def is_complete(self) -> bool:
        """True when all items end up in one cluster."""
        return self._n <= 1 or self.num_merges_total_clusters() == 1

    def num_merges_total_clusters(self) -> int:
        """Number of clusters after applying all merges."""
        merged = sum(1 for _ in self._merges)
        return self._n - merged

    # ------------------------------------------------------------------
    # replay queries
    # ------------------------------------------------------------------
    def labels_at_level(self, level: int) -> List[int]:
        """Cluster label of every item after all merges with level <= level.

        Labels are canonical minimum-member ids, matching ``min F(i)``.
        """
        dsu = DisjointSet(self._n)
        hi = bisect.bisect_right(self._levels, level)
        for m in self._merges[:hi]:
            dsu.union(m.left, m.right)
        return dsu.labels()

    def labels_at_similarity(self, threshold: float) -> List[int]:
        """Cluster labels after all merges with similarity >= threshold.

        Requires every merge to carry a similarity; raises otherwise.
        """
        dsu = DisjointSet(self._n)
        for m in self._merges:
            if m.similarity is None:
                raise ClusteringError(
                    "labels_at_similarity needs similarities on every merge"
                )
            if m.similarity >= threshold:
                dsu.union(m.left, m.right)
        return dsu.labels()

    def clusters_at_level(self, level: int) -> List[Set[int]]:
        """Clusters (as sets of item ids) after all merges at <= level."""
        groups: Dict[int, Set[int]] = {}
        for item, label in enumerate(self.labels_at_level(level)):
            groups.setdefault(label, set()).add(item)
        return sorted(groups.values(), key=lambda s: min(s))

    def num_clusters_at_level(self, level: int) -> int:
        hi = bisect.bisect_right(self._levels, level)
        return self._n - hi

    def cluster_count_curve(self) -> List[Tuple[int, int]]:
        """``(level, #clusters after that level)`` for every distinct level.

        This is the curve plotted (normalized) in Figure 2(2) of the paper.
        Level 0 with ``num_items`` clusters is always included as the start.
        """
        curve: List[Tuple[int, int]] = [(0, self._n)]
        for i, m in enumerate(self._merges):
            count = self._n - (i + 1)
            if curve and curve[-1][0] == m.level:
                curve[-1] = (m.level, count)
            else:
                curve.append((m.level, count))
        return curve

    def merge_similarities(self) -> List[float]:
        """Similarities of all merges that carry one, in merge order."""
        return [m.similarity for m in self._merges if m.similarity is not None]

    def __repr__(self) -> str:
        return (
            f"Dendrogram(num_items={self._n}, num_merges={self.num_merges},"
            f" num_levels={self.num_levels})"
        )


@dataclass
class DendrogramBuilder:
    """Accumulates merge records while a sweeping algorithm runs."""

    num_items: int
    _merges: List[Merge] = field(default_factory=list)

    def record(
        self,
        level: int,
        left: int,
        right: int,
        parent: int,
        similarity: Optional[float] = None,
    ) -> None:
        if parent != (left if left < right else right):
            raise _bad_parent(level, left, right, parent)
        self._merges.append(
            _new_record(Merge, (level, left, right, parent, similarity))
        )

    def record_merges(
        self, level: int, parents: np.ndarray, children: np.ndarray
    ) -> None:
        """Record ``parents[k], children[k] -> parents[k]`` for every ``k``
        at one level, without similarities.

        ``parents`` and ``children`` are equal-length integer arrays with
        ``parents[k] < children[k]`` — the shape of a partition diff's
        records (:func:`repro.core.coarse.transition_merges`), checked
        once for the whole batch.
        """
        if parents.shape != children.shape or not np.all(parents < children):
            raise ClusteringError(
                "record_merges needs equal-length arrays with "
                "parents[k] < children[k]"
            )
        lefts = parents.tolist()
        fields = zip(repeat(level), lefts, children.tolist(), lefts, repeat(None))
        self._merges.extend(map(_new_record, repeat(Merge), fields))

    def record_run(
        self,
        first_level: int,
        records: Sequence[Tuple[int, int, int, int]],
        similarities: Sequence[float],
    ) -> None:
        """Record a run of ``merge_run`` records, one level per merge.

        ``records`` are :meth:`~repro.cluster.unionfind.LabelForest.merge_run`
        tuples ``(w, left, right, parent)``; record ``k`` becomes
        ``left, right -> parent`` at level ``first_level + k`` with
        ``similarities[k]``.  Parents are checked once for the whole run
        before anything is recorded.
        """
        if len(records) != len(similarities):
            raise ClusteringError(
                "record_run needs one similarity per record, got "
                f"{len(similarities)} for {len(records)}"
            )
        for level, (_, left, right, parent) in zip(count(first_level), records):
            if parent != (left if left < right else right):
                raise _bad_parent(level, left, right, parent)
        self._merges += [
            _new_record(Merge, (level, left, right, parent, similarity))
            for level, (_, left, right, parent), similarity in zip(
                count(first_level), records, similarities
            )
        ]

    @property
    def num_merges(self) -> int:
        return len(self._merges)

    def build(self) -> Dendrogram:
        return Dendrogram(self.num_items, self._merges)
