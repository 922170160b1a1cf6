"""Weighted undirected graph used throughout the library.

The paper's algorithms (Algorithms 1 and 2) are written against a weighted
undirected graph ``G(V, E)`` stored as an adjacency list, with edges carrying
stable integer identifiers (the sweeping phase indexes array ``C`` by edge
id).  :class:`Graph` provides exactly that:

* vertices are arbitrary hashable *labels* mapped to dense integer ids
  ``0 .. |V|-1`` in insertion order;
* edges are undirected, positively weighted, and receive dense integer ids
  ``0 .. |E|-1`` in insertion order;
* adjacency is a ``dict`` of ``dict`` so neighbour iteration and weight
  lookup are both O(1) amortized.

The sweeping phase of the paper assigns edge ids from "a random order"
permutation; :meth:`Graph.permuted_edge_ids` produces such a permutation
without mutating the graph, and the clustering drivers accept it explicitly
so results stay reproducible under a seeded RNG.
"""

from __future__ import annotations

import math
import random
from typing import Dict, Hashable, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.errors import (
    EdgeNotFoundError,
    GraphError,
    InvalidWeightError,
    VertexNotFoundError,
)

__all__ = ["Graph", "Edge"]

Label = Hashable


class Edge(Tuple[int, int, int, float]):
    """A named view of one edge: ``(eid, u, v, weight)`` with ``u < v``.

    Subclassing ``tuple`` keeps edges tiny and hashable while giving the
    fields readable names.
    """

    __slots__ = ()

    def __new__(cls, eid: int, u: int, v: int, weight: float) -> "Edge":
        return super().__new__(cls, (eid, u, v, weight))

    @property
    def eid(self) -> int:
        return self[0]

    @property
    def u(self) -> int:
        return self[1]

    @property
    def v(self) -> int:
        return self[2]

    @property
    def weight(self) -> float:
        return self[3]

    def endpoints(self) -> Tuple[int, int]:
        """Return ``(u, v)`` with ``u < v``."""
        return (self[1], self[2])

    def __repr__(self) -> str:
        return f"Edge(eid={self[0]}, u={self[1]}, v={self[2]}, weight={self[3]!r})"


class Graph:
    """A weighted undirected simple graph with dense vertex and edge ids.

    Parameters
    ----------
    allow_zero_weight:
        When false (the default) edge weights must be strictly positive and
        finite, matching the word-association construction of Eq. (3) which
        only creates an edge when ``w_ij > 0``.

    Examples
    --------
    >>> g = Graph()
    >>> g.add_edge("a", "b", 2.0)
    0
    >>> g.add_edge("b", "c", 1.0)
    1
    >>> g.num_vertices, g.num_edges
    (3, 2)
    >>> sorted(g.neighbors(g.vertex_id("b")))
    [0, 2]
    """

    def __init__(self, allow_zero_weight: bool = False):
        self._allow_zero_weight = bool(allow_zero_weight)
        # label <-> dense id maps
        self._label_to_id: Dict[Label, int] = {}
        self._labels: List[Label] = []
        # adjacency: vertex id -> {neighbor id: weight}
        self._adj: List[Dict[int, float]] = []
        # edge storage: edge id -> (u, v) with u < v, and weight
        self._edge_endpoints: List[Tuple[int, int]] = []
        self._edge_weights: List[float] = []
        # (u, v) with u < v -> edge id
        self._edge_ids: Dict[Tuple[int, int], int] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_vertex(self, label: Label) -> int:
        """Add a vertex (idempotent) and return its dense integer id."""
        existing = self._label_to_id.get(label)
        if existing is not None:
            return existing
        vid = len(self._labels)
        self._label_to_id[label] = vid
        self._labels.append(label)
        self._adj.append({})
        return vid

    def add_edge(self, a: Label, b: Label, weight: float = 1.0) -> int:
        """Add an undirected edge between labels ``a`` and ``b``.

        Returns the new edge's id.  Vertices are created on demand.
        Raises :class:`GraphError` on self-loops or duplicate edges and
        :class:`InvalidWeightError` on non-finite / non-positive weights.
        """
        w = float(weight)
        if not math.isfinite(w):
            raise InvalidWeightError(f"edge weight must be finite, got {weight!r}")
        if w < 0.0 or (w == 0.0 and not self._allow_zero_weight):
            raise InvalidWeightError(
                f"edge weight must be positive, got {weight!r}"
            )
        u = self.add_vertex(a)
        v = self.add_vertex(b)
        if u == v:
            raise GraphError(f"self-loop on vertex {a!r} is not allowed")
        if u > v:
            u, v = v, u
        key = (u, v)
        if key in self._edge_ids:
            raise GraphError(f"duplicate edge between {a!r} and {b!r}")
        eid = len(self._edge_endpoints)
        self._edge_ids[key] = eid
        self._edge_endpoints.append(key)
        self._edge_weights.append(w)
        self._adj[u][v] = w
        self._adj[v][u] = w
        return eid

    @classmethod
    def from_edge_list(
        cls,
        edges: Iterable[Tuple[Label, Label, float]] | Iterable[Tuple[Label, Label]],
        allow_zero_weight: bool = False,
    ) -> "Graph":
        """Build a graph from ``(a, b)`` or ``(a, b, weight)`` tuples."""
        g = cls(allow_zero_weight=allow_zero_weight)
        for item in edges:
            if len(item) == 2:
                a, b = item  # type: ignore[misc]
                g.add_edge(a, b, 1.0)
            else:
                a, b, w = item  # type: ignore[misc]
                g.add_edge(a, b, w)
        return g

    # ------------------------------------------------------------------
    # sizes and global properties
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        return len(self._labels)

    @property
    def num_edges(self) -> int:
        return len(self._edge_endpoints)

    def __len__(self) -> int:
        return self.num_vertices

    def density(self) -> float:
        """Graph density ``2|E| / (|V| (|V|-1))`` (0.0 for < 2 vertices)."""
        n = self.num_vertices
        if n < 2:
            return 0.0
        return 2.0 * self.num_edges / (n * (n - 1))

    # ------------------------------------------------------------------
    # vertex queries
    # ------------------------------------------------------------------
    def vertex_id(self, label: Label) -> int:
        """Map a vertex label to its dense id."""
        try:
            return self._label_to_id[label]
        except KeyError:
            raise VertexNotFoundError(label) from None

    def vertex_label(self, vid: int) -> Label:
        """Map a dense vertex id back to its label."""
        try:
            return self._labels[vid]
        except IndexError:
            raise VertexNotFoundError(vid) from None

    def has_vertex(self, label: Label) -> bool:
        return label in self._label_to_id

    def vertices(self) -> range:
        """Dense vertex ids ``0 .. |V|-1``."""
        return range(self.num_vertices)

    def vertex_labels(self) -> Sequence[Label]:
        """All vertex labels indexed by dense id (do not mutate)."""
        return self._labels

    def neighbors(self, vid: int) -> Mapping[int, float]:
        """Neighbour map ``{neighbor id: weight}`` of vertex ``vid``.

        The returned mapping is a live view; treat it as read-only.
        """
        self._check_vid(vid)
        return self._adj[vid]

    def degree(self, vid: int) -> int:
        self._check_vid(vid)
        return len(self._adj[vid])

    def degrees(self) -> List[int]:
        """Degrees of all vertices indexed by dense vertex id."""
        return [len(nbrs) for nbrs in self._adj]

    # ------------------------------------------------------------------
    # edge queries
    # ------------------------------------------------------------------
    def has_edge(self, u: int, v: int) -> bool:
        if u > v:
            u, v = v, u
        return (u, v) in self._edge_ids

    def edge_id(self, u: int, v: int) -> int:
        """Edge id of the edge between vertex ids ``u`` and ``v``."""
        if u > v:
            u, v = v, u
        try:
            return self._edge_ids[(u, v)]
        except KeyError:
            raise EdgeNotFoundError((u, v)) from None

    def edge_endpoints(self, eid: int) -> Tuple[int, int]:
        """Endpoints ``(u, v)`` with ``u < v`` of edge ``eid``."""
        try:
            return self._edge_endpoints[eid]
        except IndexError:
            raise EdgeNotFoundError(eid) from None

    def edge_weight(self, eid: int) -> float:
        try:
            return self._edge_weights[eid]
        except IndexError:
            raise EdgeNotFoundError(eid) from None

    def weight(self, u: int, v: int) -> float:
        """Weight of the edge between vertex ids ``u`` and ``v``."""
        self._check_vid(u)
        try:
            return self._adj[u][v]
        except KeyError:
            raise EdgeNotFoundError((u, v)) from None

    def edges(self) -> Iterator[Edge]:
        """Iterate all edges as :class:`Edge` tuples in edge-id order."""
        for eid, (u, v) in enumerate(self._edge_endpoints):
            yield Edge(eid, u, v, self._edge_weights[eid])

    def edge_pairs(self) -> Iterator[Tuple[int, int]]:
        """Iterate all edge endpoint pairs ``(u, v)`` in edge-id order."""
        return iter(self._edge_endpoints)

    def edge_weights(self) -> Sequence[float]:
        """All edge weights indexed by edge id (do not mutate)."""
        return self._edge_weights

    def permuted_edge_ids(self, rng: Optional[random.Random] = None) -> List[int]:
        """A random permutation ``perm`` with ``perm[eid]`` = new index.

        The paper enumerates edges "in a random order" and uses the position
        in that permutation as the edge id for array ``C``.  Passing the
        returned list to the sweeping phase reproduces that behaviour while
        keeping this graph immutable.

        When ``rng`` is omitted a generator seeded with 0 is used, so the
        permutation is deterministic; pass your own ``random.Random(seed)``
        to vary it (callers in :mod:`repro.core.linkclust` thread their
        ``seed`` parameter through here).
        """
        order = list(range(self.num_edges))
        (rng or random.Random(0)).shuffle(order)
        perm = [0] * self.num_edges
        for new_index, eid in enumerate(order):
            perm[eid] = new_index
        return perm

    # ------------------------------------------------------------------
    # misc
    # ------------------------------------------------------------------
    def subgraph(self, labels: Iterable[Label]) -> "Graph":
        """Vertex-induced subgraph on ``labels`` (edge ids renumbered)."""
        keep = {self.vertex_id(lbl) for lbl in labels}
        sub = Graph(allow_zero_weight=self._allow_zero_weight)
        for vid in sorted(keep):
            sub.add_vertex(self._labels[vid])
        for eid, (u, v) in enumerate(self._edge_endpoints):
            if u in keep and v in keep:
                sub.add_edge(self._labels[u], self._labels[v], self._edge_weights[eid])
        return sub

    def total_weight(self) -> float:
        """Sum of all edge weights."""
        return sum(self._edge_weights)

    def __repr__(self) -> str:
        return (
            f"Graph(num_vertices={self.num_vertices}, num_edges={self.num_edges},"
            f" density={self.density():.4f})"
        )

    def _check_vid(self, vid: int) -> None:
        if not 0 <= vid < len(self._adj):
            raise VertexNotFoundError(vid)
