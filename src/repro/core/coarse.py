"""Coarse-grained hierarchical link clustering (Section V).

Instead of one dendrogram level per merge, the sorted pair list ``L`` is
processed in *chunks*; every merge inside a chunk lands on the same level.
The chunk boundaries are chosen online so the dendrogram is *sound*: the
cluster count shrinks by at most a factor ``gamma`` per level, until fewer
than ``phi`` clusters remain (then everything merges into the root).

The driver is an epoch machine (Fig. 2(3)):

* an epoch processes vertex pairs until the estimated chunk size ``delta``
  is exhausted, then counts clusters ``beta_new`` and evaluates predicates
  C1/C2/C3 (:mod:`repro.core.modes`);
* soundness violation (¬C2) rolls the epoch back to the last safe state
  ``Q* = (beta, xi, p, C)`` — the discarded state is kept on a rollback
  list both as a slope reference and for *reuse*: a later level whose
  cluster count satisfies ``beta / beta' <= gamma`` against a saved state
  can jump straight to it, skipping recomputation;
* chunk sizes grow exponentially in head mode (factor ``eta``, damped on
  rollback) and are slope-extrapolated in tail/rollback modes
  (:mod:`repro.core.chunking`).

Implementation notes (documented deviations, none behavioural):

* Vertex pairs are atomic (the paper checks ``xi + |l| < Delta + delta``
  before splitting), so instead of accumulating ``Delta += delta`` we
  reset the chunk budget to the *actual* pair count ``xi`` at each epoch
  start; this removes bookkeeping drift with identical boundary decisions.
* A single vertex pair can merge clusters faster than ``gamma`` allows;
  no chunk subdivision can fix that (the unit is atomic), so after the
  chunk size bottoms out at one pair the epoch is *force-committed* and
  flagged (``forced``), keeping the algorithm total.
* Because every reachable state is "the state after processing a prefix
  of ``L``" and merge outcomes are order-independent, a saved rollback
  state is reusable from any earlier position; its pending merge records
  carry their list position so a jump emits exactly the not-yet-emitted
  ones.

State: the chained engine keeps the paper's :class:`ChainArray`; the
batch engine (and the sharded engine, which runs only on the parallel
driver) keeps a fully compressed ``int64`` label array
(``lab[i]`` = minimum member of ``i``'s cluster) and derive a level's
records at commit with one vectorized diff (:func:`transition_merges`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from repro.cluster.dendrogram import Dendrogram, DendrogramBuilder
from repro.cluster.unionfind import ChainArray
from repro.core.chunking import (
    MIN_CHUNK,
    CurvePoint,
    extrapolate_chunk,
    head_next_chunk,
    shrink_eta,
)
from repro.core.cancel import CancelToken
from repro.core.modes import Mode, evaluate_predicates, next_mode
from repro.core.registry import get_engine, require_backend_engine
from repro.core.simcolumns import SimilarityColumns
from repro.core.similarity import SimilarityMap, compute_similarity_map
from repro.core.storage import StorageSettings, make_pair_store
from repro.core.sweep import build_edge_index, merge_pair_positions
from repro.errors import ParameterError
from repro.graph.graph import Graph
from repro.obs import as_tracer

__all__ = [
    "CoarseParams",
    "EpochRecord",
    "CoarseResult",
    "coarse_sweep",
    "FixedChunkLevel",
    "fixed_chunk_sweep",
]

@dataclass(frozen=True)
class CoarseParams:
    """Parameters ``(gamma, phi, delta0)`` plus the head growth factor.

    Defaults follow Section VII-B: ``gamma = 2``, ``phi = 100``,
    ``eta0 = 8``; ``delta0`` is workload-dependent (the paper uses 100 to
    10000 depending on graph size).
    """

    gamma: float = 2.0
    phi: int = 100
    delta0: float = 100.0
    eta0: float = 8.0
    finalize_root: bool = True
    max_consecutive_rollbacks: int = 30

    def __post_init__(self) -> None:
        if self.gamma < 1.0:
            raise ParameterError(f"gamma must be >= 1, got {self.gamma}")
        if self.phi < 1:
            raise ParameterError(f"phi must be >= 1, got {self.phi}")
        if self.delta0 < MIN_CHUNK:
            raise ParameterError(f"delta0 must be >= {MIN_CHUNK}, got {self.delta0}")
        if self.eta0 <= 1.0:
            raise ParameterError(f"eta0 must be > 1, got {self.eta0}")
        if self.max_consecutive_rollbacks < 1:
            raise ParameterError("max_consecutive_rollbacks must be >= 1")

    @property
    def gamma_tilde(self) -> float:
        """Target merging rate ``(1 + gamma) / 2``."""
        return (1.0 + self.gamma) / 2.0


class _PendingMerge(NamedTuple):
    """A genuine merge awaiting level assignment (pos = index into L)."""

    pos: int
    c1: int
    c2: int
    parent: int
    similarity: float


# Per-level partition state: the chained engine's array C, or the batch
# and sharded engines' fully compressed label array.
ChainState = Union[ChainArray, np.ndarray]


def _as_labels(state: ChainState) -> np.ndarray:
    """Fully compressed labels of ``state`` (label arrays pass through)."""
    if isinstance(state, ChainArray):
        from repro.fast.batch_sweep import compress_labels

        return compress_labels(np.asarray(state.raw(), dtype=np.int64))
    return state


def _num_clusters(state: ChainState) -> int:
    if isinstance(state, ChainArray):
        return state.num_clusters()
    return int(np.count_nonzero(state == np.arange(state.size, dtype=np.int64)))


@dataclass
class _EpochState:
    """Snapshot ``Q = (beta, xi, p, C)`` plus pending merges."""

    beta: int
    xi: int
    p: int
    chain: ChainState
    pending: List[_PendingMerge]


@dataclass(frozen=True)
class EpochRecord:
    """One epoch-boundary event, for Figure 5(1)'s breakdown.

    ``kind`` is one of ``head_fresh``, ``tail_fresh``, ``rollback``,
    ``reused``, or ``forced``.
    """

    kind: str
    level: Optional[int]
    chunk: float
    beta_before: int
    beta_after: int
    xi: int
    p: int


@dataclass
class CoarseResult:
    """Output of a coarse-grained sweep."""

    dendrogram: Dendrogram
    chain: ChainArray
    edge_index: List[int]
    epochs: List[EpochRecord]
    num_levels: int
    k1: int
    k2: int
    pairs_processed: int
    stopped_by_phi: bool

    @property
    def processed_fraction(self) -> float:
        """Fraction of incident edge pairs processed before stopping.

        The paper reports 55.1% at fraction 0.005 — the tail skipped by the
        ``phi`` cutoff is the coarse algorithm's speed advantage.
        """
        return self.pairs_processed / self.k2 if self.k2 else 1.0

    def edge_labels(self) -> List[int]:
        """Final cluster label of every edge id."""
        return [self.chain.find(self.edge_index[eid])
                for eid in range(len(self.edge_index))]

    def epoch_kind_counts(self) -> dict:
        """Histogram of epoch kinds (Figure 5(1) bars)."""
        counts: dict = {}
        for epoch in self.epochs:
            counts[epoch.kind] = counts.get(epoch.kind, 0) + 1
        return counts


def transition_merges(
    before: np.ndarray, after: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Merge records ``parents[k], children[k] -> parents[k]`` turning
    label array ``before`` into ``after`` (fully compressed, coarsening
    ``before``).

    Every ``before``-root whose ``after``-label differs merges into that
    label — its group's smallest root, since an after-cluster's minimum
    is a before-root — so the records are exactly those chain-array
    ``MERGE`` would emit, ordered by parent, then child.  Used by the
    drivers without a global merge-event stream.
    """
    roots = np.flatnonzero(before == np.arange(before.size, dtype=np.int64))
    base = after[roots]
    moved = base != roots
    roots = roots[moved]
    base = base[moved]
    order = np.lexsort((roots, base))
    return base[order], roots[order]


class _CoarseSweeper:
    """Single-use driver holding the epoch machine's mutable state.

    ``engine`` selects how a chunk's merge stream is applied:
    ``"chained"`` runs the paper's sequential ``MERGE`` per wedge;
    ``"batch"`` unions the whole chunk with vectorized connected-
    components rounds (:mod:`repro.fast.batch_sweep`).  The parallel
    driver (:mod:`repro.parallel.par_sweep`) overrides chunk
    application and also runs ``"sharded"`` on the shm arena.  Chunk
    boundaries depend only on the pair counts and the per-level
    partitions are identical, so all engines walk the same epoch
    sequence and build the same dendrogram levels.
    """

    # True for drivers whose chunks merge on per-worker copies: they
    # have no global merge-event stream, whatever the engine.
    per_worker = False

    def __init__(
        self,
        graph: Graph,
        similarity_map: Optional[Union[SimilarityMap, SimilarityColumns]],
        params: CoarseParams,
        edge_order: Optional[Sequence[int]],
        tracer=None,
        engine: str = "chained",
        cancel: Optional[CancelToken] = None,
        storage: Optional[StorageSettings] = None,
    ):
        if self.per_worker:
            get_engine(engine)
        else:
            # This driver applies chunks itself: chained MERGE or the
            # batch kernel, the serial backend's engines.
            require_backend_engine("serial", engine)
        self.cancel = cancel
        if isinstance(similarity_map, SimilarityMap) and (
            engine != "chained"
            or self.per_worker
            or (storage is not None and storage.kind == "mmap")
        ):
            # The batch/sharded kernels, the parallel runtimes' range
            # transport, and the out-of-core store consume the flat
            # columnar wedge stream; the dict map converts losslessly
            # (same list-L order).
            similarity_map = SimilarityColumns.from_similarity_map(similarity_map)
        self.engine = engine
        # Chained serial replays saved merge events on a state jump; the
        # batch/sharded engines (and the parallel driver, which overrides
        # this) have no per-merge event stream and diff partitions instead.
        self.records_by_diff = engine != "chained" or self.per_worker
        self.graph = graph
        self.params = params
        self.tracer = as_tracer(tracer)
        self.index = build_edge_index(graph, edge_order)
        self.num_edges = graph.num_edges
        # List L: the dict path keeps the (sim, pair, commons) tuples;
        # the columnar path builds a PairStore — the sorted columns plus
        # the precomputed K2 merge stream, in RAM or memory-mapped under
        # a spill directory depending on the storage settings.
        # ``similarity_map=None`` asks the mmap store to run Phase I
        # itself, streaming: wedges spill in center chunks and merge
        # straight into the pair file, so no K2-sized array ever exists.
        self.store = None
        self.pairs: Optional[
            List[Tuple[float, Tuple[int, int], Tuple[int, ...]]]
        ] = None
        if similarity_map is None:
            with self.tracer.span("phase:sort", streaming=True):
                self.store = make_pair_store(
                    graph,
                    None,
                    np.asarray(self.index, dtype=np.int64),
                    settings=storage,
                    tracer=self.tracer,
                    cancel=cancel,
                )
            self.k1 = self.store.k1
            self.k2 = self.store.k2
        elif isinstance(similarity_map, SimilarityColumns):
            self.k1 = similarity_map.k1
            self.k2 = similarity_map.k2
            with self.tracer.span("phase:sort", k1=self.k1):
                self.store = make_pair_store(
                    graph,
                    similarity_map,
                    np.asarray(self.index, dtype=np.int64),
                    settings=storage,
                    tracer=self.tracer,
                    cancel=cancel,
                )
        else:
            self.k1 = similarity_map.k1
            self.k2 = similarity_map.k2
            with self.tracer.span("phase:sort", k1=self.k1):
                self.pairs = similarity_map.sorted_pairs()
        self.tracer.gauge("k1", self.k1)
        self.tracer.gauge("k2", self.k2)

        self.c1_arr: Optional[np.ndarray] = None
        self.c2_arr: Optional[np.ndarray] = None
        if self.store is not None:
            self.c1_arr = self.store.c1
            self.c2_arr = self.store.c2
            self.num_pairs = self.store.num_pairs
        else:
            assert self.pairs is not None
            self.counts_list = [len(commons) for _s, _p, commons in self.pairs]
            self.num_pairs = len(self.pairs)

        self.chain: ChainState = (
            ChainArray(self.num_edges)
            if engine == "chained"
            else np.arange(self.num_edges, dtype=np.int64)
        )
        self.builder = DendrogramBuilder(self.num_edges)
        # The level so far: MERGE events (chained serial), or the states
        # it passed through before ``self.chain``, diffed at commit.
        self.pending: List[_PendingMerge] = []
        self.pending_states: List[ChainState] = []
        self.epochs: List[EpochRecord] = []
        self.rollback_list: List[_EpochState] = []

        self.beta = self.num_edges
        self.xi = 0
        self.p = 0
        self.level = 0
        self.delta = float(params.delta0)
        self.eta = float(params.eta0)
        self.mode = Mode.HEAD
        self.consecutive_rollbacks = 0
        self.stopped_by_phi = False

        self.prev_point: Optional[CurvePoint] = None
        self.last_point = CurvePoint(0.0, float(self.num_edges))
        self.epoch_start_xi = 0
        self.safe = self._snapshot()

    # ------------------------------------------------------------------
    # state plumbing
    # ------------------------------------------------------------------
    def _snapshot(self) -> _EpochState:
        return _EpochState(
            beta=self.beta,
            xi=self.xi,
            p=self.p,
            chain=self.chain.copy(),
            pending=[],
        )

    def _restore(self, state: _EpochState) -> None:
        self.beta = state.beta
        self.xi = state.xi
        self.p = state.p
        self.chain = state.chain.copy()
        self.pending = []
        self.pending_states = []
        self.epoch_start_xi = self.xi

    # ------------------------------------------------------------------
    # level records of the diff-recorded drivers
    # ------------------------------------------------------------------
    def _advance(self, after: ChainState) -> None:
        """Adopt ``after`` as the current partition within this level."""
        self.pending_states.append(self.chain)
        self.chain = after

    def _record_diffs(self, states: Sequence[ChainState]) -> int:
        """Record, at the current level, the merges between consecutive
        partitions of ``states``; returns how many were recorded."""
        labels = [_as_labels(s) for s in states]
        merges = 0
        for before, after in zip(labels, labels[1:]):
            parents, children = transition_merges(before, after)
            self.builder.record_merges(self.level, parents, children)
            merges += int(parents.size)
        return merges

    def _append_level(self, after: np.ndarray) -> None:
        """Record the transition to ``after`` as one extra level (none if
        it merges nothing) and adopt ``after``."""
        parents, children = transition_merges(_as_labels(self.chain), after)
        if parents.size:
            self.level += 1
            self.builder.record_merges(self.level, parents, children)
            self.tracer.count("merges", int(parents.size))
        self.chain = after

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------
    def run(self) -> CoarseResult:
        # Every chunk — including the one that exhausts the list — goes
        # through the boundary logic, so the soundness property (C2) is
        # enforced on the final level too: an oversized last chunk rolls
        # back and is retried smaller, exactly like any other epoch.
        # The chunk index counts *attempts*: a rolled-back epoch and its
        # retry are separate ``sweep:chunk[i]`` spans.
        tracer = self.tracer
        cancel = self.cancel
        chunk_idx = 0
        with tracer.span("phase:sweep"):
            while self.p < self.num_pairs:
                # Cooperative cancellation checkpoint: chunk (= level)
                # boundaries, the lenticular-lens stop-flag idiom.  The
                # raise unwinds through the open spans, so a cancelled
                # run still flushes everything traced so far.
                if cancel is not None:
                    cancel.raise_if_cancelled()
                with tracer.span(
                    f"sweep:chunk[{chunk_idx}]", p=self.p, delta=self.delta
                ):
                    chunk = self._collect_chunk()
                    self._apply_chunk(chunk)
                    # Level bookkeeping: cluster count, level records,
                    # snapshot, commit or rollback, state jump.
                    with tracer.span("sweep:transition"):
                        stop = self._epoch_boundary()
                chunk_idx += 1
                if stop:
                    break

            if self.stopped_by_phi and self.params.finalize_root:
                self._merge_root()

        chain = self.chain
        if not isinstance(chain, ChainArray):
            chain = ChainArray(self.num_edges, _init=chain.tolist())
        return CoarseResult(
            dendrogram=self.builder.build(),
            chain=chain,
            edge_index=self.index,
            epochs=self.epochs,
            num_levels=self.level,
            k1=self.k1,
            k2=self.k2,
            pairs_processed=self.xi,
            stopped_by_phi=self.stopped_by_phi,
        )

    def _collect_chunk(self) -> range:
        """Positions of this epoch's chunk (>= 1 vertex pair).

        Walks forward from ``p`` until the estimated chunk size ``delta``
        is exhausted, honouring vertex-pair atomicity (the last pair that
        would cross the budget ends the chunk).

        In columnar mode the running pair count ``xi`` always equals
        ``offsets[p]`` (every pair is processed whole, in order, and
        state jumps restore both together), so the walk collapses to one
        ``searchsorted``: the chunk ends before the first pair whose
        *end* offset crosses the budget, clamped so at least one pair is
        taken.  This never touches more than O(log K1) offset entries —
        important when the offsets live in a memory-mapped store.
        """
        start = self.p
        budget = self.epoch_start_xi + self.delta
        if self.store is not None:
            j = int(np.searchsorted(self.store.offsets, budget, side="left"))
            return range(start, min(self.num_pairs, max(start + 1, j - 1)))
        counts = self.counts_list
        end = start
        xi = self.xi
        while end < self.num_pairs:
            count = counts[end]
            if end > start and xi + count >= budget:
                break
            xi += count
            end += 1
        return range(start, end)

    def _apply_chunk(self, chunk: range) -> None:
        """Merge every incident edge pair of the chunk's vertex pairs.

        Overridden by the parallel sweeper (per-thread ``C`` copies plus a
        hierarchical array merge, Section VI-B).
        """
        # The serial path has no spawn/copy/merge steps; its whole chunk
        # cost is compute, traced under the same name the runtimes use so
        # cross-backend traces stay comparable.
        if self.engine == "batch":
            self._apply_chunk_batch(chunk)
            return
        chain = self.chain
        assert isinstance(chain, ChainArray)
        store = self.store
        if store is not None:
            # One kernel call per store window (the whole chunk for the
            # in-memory store); each merge's pair is found from its wedge
            # index, so only genuine merges read offsets and similarities.
            w_start = int(store.offsets[chunk.start])
            w_end = int(store.offsets[chunk.stop])
            with self.tracer.span("runtime:compute", workers=1):
                for s, e in store.window_ranges(w_start, w_end):
                    c1w, c2w = store.window(s, e)
                    found = chain.merge_run(c1w, c2w, 0, e - s)
                    pos = merge_pair_positions(found, store.offsets, base=s)
                    self.pending.extend(
                        _PendingMerge(pair, m[1], m[2], m[3], similarity)
                        for pair, similarity, m in zip(
                            pos.tolist(), store.sims[pos].tolist(), found
                        )
                    )
            self.xi += w_end - w_start
            self.p = chunk.stop
            return
        graph = self.graph
        index = self.index
        pairs = self.pairs
        assert pairs is not None
        with self.tracer.span("runtime:compute", workers=1):
            for pos in chunk:
                similarity, (vi, vj), commons = pairs[pos]
                for vk in commons:
                    i1 = index[graph.edge_id(vi, vk)]
                    i2 = index[graph.edge_id(vj, vk)]
                    outcome = chain.merge(i1, i2)
                    if outcome.merged:
                        self.pending.append(
                            _PendingMerge(
                                pos, outcome.c1, outcome.c2, outcome.parent, similarity
                            )
                        )
                self.xi += len(commons)
                self.p = pos + 1

    def _apply_chunk_batch(self, chunk: range) -> None:
        """Union the whole chunk in O(log n) vectorized rounds.

        The chunk's wedge window ``[offsets[start], offsets[stop])`` of
        the precomputed edge-index stream goes through one connected-
        components contraction; level records come from the partition
        diff (within a level merge records are unordered by
        construction, so per-level partitions — and therefore the
        dendrogram — match the chained engine exactly).  Merge records
        carry no similarity: a batch level is one set-union, not a
        sequence of per-wedge events.
        """
        from repro.fast.batch_sweep import batch_components

        store = self.store
        assert store is not None
        w_start = int(store.offsets[chunk.start])
        w_end = int(store.offsets[chunk.stop])
        self.xi += w_end - w_start
        self.p = chunk.stop
        if w_start == w_end:
            return
        # Window-at-a-time application is exact: union merges are
        # order-independent, so the partition after the last window
        # equals one whole-chunk contraction, and level records come
        # from the before/after diff either way.
        after = _as_labels(self.chain)
        with self.tracer.span("runtime:compute", workers=1):
            for s, e in store.window_ranges(w_start, w_end):
                c1w, c2w = store.window(s, e)
                after = batch_components(after, c1w, c2w, tracer=self.tracer)
        self._advance(after)

    # ------------------------------------------------------------------
    # epoch boundary handling
    # ------------------------------------------------------------------
    def _epoch_boundary(self) -> bool:
        """Handle one boundary; returns True when the sweep should stop."""
        params = self.params
        beta_new = _num_clusters(self.chain)
        preds = evaluate_predicates(
            self.beta, beta_new, self.num_edges, params.gamma, params.phi
        )
        mode_next = next_mode(preds)

        if mode_next is Mode.ROLLBACK:
            at_floor = self.delta <= MIN_CHUNK
            exhausted = (
                self.consecutive_rollbacks >= params.max_consecutive_rollbacks
            )
            if not (at_floor or exhausted):
                self._rollback(beta_new)
                return False
            # Atomic vertex pair (or rollback budget) prevents soundness:
            # force-commit and flag it.
            self._commit("forced", beta_new)
        else:
            kind = "tail_fresh" if mode_next is Mode.TAIL else "head_fresh"
            self._commit(kind, beta_new)

        if preds.c3 and beta_new <= self.num_edges / 2.0:
            self.stopped_by_phi = True
            return True

        if self._try_jump():
            if self.beta <= params.phi:
                self.stopped_by_phi = True
                return True

        self._estimate_next_chunk()
        return False

    def _rollback(self, beta_new: int) -> None:
        params = self.params
        # Save the discarded state for future reuse / as a slope reference.
        self.rollback_list.append(
            _EpochState(
                beta=beta_new,
                xi=self.xi,
                p=self.p,
                chain=self.chain.copy(),
                pending=list(self.pending),
            )
        )
        self.epochs.append(
            EpochRecord(
                kind="rollback",
                level=None,
                chunk=self.delta,
                beta_before=self.beta,
                beta_after=beta_new,
                xi=self.xi,
                p=self.p,
            )
        )
        self.tracer.count("rollbacks")
        if self.mode is Mode.HEAD:
            self.eta = shrink_eta(self.eta)
        reference = CurvePoint(float(self.xi), float(beta_new))
        if self.consecutive_rollbacks > 0:
            # Consecutive rollbacks: halve the step toward the safe level.
            self.delta = max(float(MIN_CHUNK), self.delta / 2.0)
        else:
            self.delta = extrapolate_chunk(
                self.last_point,
                self.prev_point,
                reference,
                params.gamma_tilde,
                fallback=max(float(MIN_CHUNK), self.delta / 2.0),
            )
        self.consecutive_rollbacks += 1
        self.mode = Mode.ROLLBACK
        self._restore(self.safe)

    def _commit(self, kind: str, beta_new: int) -> None:
        self.level += 1
        if self.records_by_diff:
            merges = self._record_diffs(self.pending_states + [self.chain])
        else:
            for pm in self.pending:
                self.builder.record(
                    self.level, pm.c1, pm.c2, pm.parent, pm.similarity
                )
            merges = len(self.pending)
        self.tracer.count("merges", merges)
        self.tracer.event(
            "sweep:level",
            level=self.level,
            kind=kind,
            merges=merges,
            beta=beta_new,
        )
        self.pending = []
        self.pending_states = []
        self.epochs.append(
            EpochRecord(
                kind=kind,
                level=self.level,
                chunk=self.delta,
                beta_before=self.beta,
                beta_after=beta_new,
                xi=self.xi,
                p=self.p,
            )
        )
        self.prev_point = self.last_point
        self.last_point = CurvePoint(float(self.xi), float(beta_new))
        self.beta = beta_new
        self.consecutive_rollbacks = 0
        self.mode = Mode.TAIL if beta_new <= self.num_edges / 2.0 else Mode.HEAD
        self.epoch_start_xi = self.xi
        self.safe = self._snapshot()
        # Saved states the sweep has passed can never be used again.
        self.rollback_list = [
            s for s in self.rollback_list if s.beta < self.beta and s.p > self.p
        ]

    def _record_jump_merges(self, target: _EpochState) -> None:
        """Record the merges a jump to ``target`` contributes to the level.

        The chained serial driver replays the saved state's pending
        merge events, skipping those already emitted (``pos < p``).
        Drivers without a global per-merge event stream — the batch
        engine and the parallel driver, both of which set
        ``records_by_diff`` — diff the partitions instead.  This is the
        *only* part of the jump the drivers do differently; all state
        mutation lives in :meth:`_try_jump` so it cannot drift between
        them.
        """
        if self.records_by_diff:
            self._record_diffs([self.chain, target.chain])
            return
        current_pos = self.p
        for pm in target.pending:
            if pm.pos >= current_pos:
                self.builder.record(
                    self.level, pm.c1, pm.c2, pm.parent, pm.similarity
                )

    def _try_jump(self) -> bool:
        """Reuse a saved rollback state as the next level, if one is sound.

        Candidates must be ahead of the current level (``beta' < beta``)
        and sound against it (``beta / beta' <= gamma``); the one with the
        *smallest* cluster count is taken — the most progress per level.
        """
        params = self.params
        candidates = [
            s
            for s in self.rollback_list
            if s.beta < self.beta and self.beta / s.beta <= params.gamma
        ]
        if not candidates:
            return False
        target = min(candidates, key=lambda s: s.beta)
        self.rollback_list.remove(target)

        self.level += 1
        self.tracer.count("jump_hits")
        self.tracer.event(
            "sweep:jump", level=self.level, beta=target.beta, p=target.p
        )
        self._record_jump_merges(target)
        self.epochs.append(
            EpochRecord(
                kind="reused",
                level=self.level,
                chunk=float(target.xi - self.xi),
                beta_before=self.beta,
                beta_after=target.beta,
                xi=target.xi,
                p=target.p,
            )
        )
        self.chain = target.chain.copy()
        self.xi = target.xi
        self.p = target.p
        self.prev_point = self.last_point
        self.last_point = CurvePoint(float(self.xi), float(target.beta))
        self.beta = target.beta
        self.mode = Mode.TAIL if self.beta <= self.num_edges / 2.0 else Mode.HEAD
        self.pending = []
        self.pending_states = []
        self.epoch_start_xi = self.xi
        self.safe = self._snapshot()
        self.rollback_list = [
            s for s in self.rollback_list if s.beta < self.beta and s.p > self.p
        ]
        return True

    def _estimate_next_chunk(self) -> None:
        params = self.params
        if self.mode is Mode.HEAD:
            self.delta = head_next_chunk(max(self.delta, float(MIN_CHUNK)), self.eta)
            return
        # Tail mode: Eq. (6) — the *closest* saved state ahead of us.
        reference: Optional[CurvePoint] = None
        ahead = [s for s in self.rollback_list if s.beta < self.beta]
        if ahead:
            closest = max(ahead, key=lambda s: s.beta)
            reference = CurvePoint(float(closest.xi), float(closest.beta))
        self.delta = extrapolate_chunk(
            self.last_point,
            self.prev_point,
            reference,
            params.gamma_tilde,
            fallback=self.delta,
        )

    def _merge_root(self) -> None:
        """Merge the remaining clusters into one at the root level."""
        chain = self.chain
        if not isinstance(chain, ChainArray):
            # Every label joins item 0, the minimum of every partition.
            self._append_level(np.zeros(self.num_edges, dtype=np.int64))
            return
        roots = sorted(chain.cluster_roots())
        if len(roots) <= 1:
            return
        self.level += 1
        base = roots[0]
        merges = 0
        for other in roots[1:]:
            outcome = chain.merge(base, other)
            if outcome.merged:
                merges += 1
                self.builder.record(
                    self.level, outcome.c1, outcome.c2, outcome.parent, None
                )
        self.tracer.count("merges", merges)

    def close_store(self) -> None:
        """Release the pair store (drops maps, removes any spill dir)."""
        if self.store is not None:
            self.store.close()


def coarse_sweep(
    graph: Graph,
    similarity_map: Optional[Union[SimilarityMap, SimilarityColumns]] = None,
    params: Optional[CoarseParams] = None,
    edge_order: Optional[Sequence[int]] = None,
    tracer=None,
    engine: str = "chained",
    cancel: Optional[CancelToken] = None,
    storage: Optional[StorageSettings] = None,
) -> CoarseResult:
    """Run the coarse-grained sweeping algorithm of Section V.

    Parameters mirror :func:`repro.core.sweep.sweep`, with
    :class:`CoarseParams` controlling the dendrogram shape;
    ``similarity_map`` may be the dict or the columnar Phase-I output
    (identical results — the columnar path precomputes the K2 stream
    vectorized).  Edge ids carried by caller columns are trusted here,
    not checked against ``graph``; :meth:`LinkClustering.run
    <repro.core.linkclust.LinkClustering.run>` is the entry that vets
    them.  ``engine`` selects the chunk merge engine: ``"chained"``
    (sequential MERGE, the oracle) or ``"batch"`` (per-level vectorized
    connected components; dict input is converted to columns for it).
    ``"sharded"`` raises :class:`~repro.errors.ParameterError`: it runs
    only on the shm arena with two or more workers
    (:func:`repro.parallel.par_sweep.parallel_coarse_sweep`).
    ``tracer`` gets ``phase:sort``, ``phase:sweep``, and per-epoch
    ``sweep:chunk[i]`` spans (the batch engine adds per-round
    ``sweep:batch_round`` spans and a ``batch_rounds`` counter) plus
    level events and merge/rollback/jump counters.  ``cancel`` is an optional
    :class:`~repro.core.cancel.CancelToken` checked at every chunk
    boundary (:class:`~repro.errors.RunCancelledError` when triggered).
    ``storage`` selects the pair-store backing
    (:class:`~repro.core.storage.StorageSettings`): the default keeps
    list L in RAM; ``kind="mmap"`` writes it to one pair file, the K2
    columns a ``memory_budget_bytes``-sized window at a time, and the
    sweep reads it through bounded windows — results are bitwise
    identical either way.  With mmap storage and no ``similarity_map``,
    Phase I runs *inside* the store init, streaming wedge chunks to
    spilled runs so no K2-sized array is ever resident.  The store —
    and its spill directory — is released before this returns, even on
    cancellation or error.
    """
    # With an mmap store there is no need to materialize Phase I here:
    # the store's streaming init computes similarities chunk by chunk.
    sim = similarity_map
    if sim is None and not (storage is not None and storage.kind == "mmap"):
        sim = compute_similarity_map(graph)
    sweeper = _CoarseSweeper(
        graph,
        sim,
        params or CoarseParams(),
        edge_order,
        tracer,
        engine=engine,
        cancel=cancel,
        storage=storage,
    )
    try:
        return sweeper.run()
    finally:
        sweeper.close_store()


# ----------------------------------------------------------------------
# Fixed-size chunking (the exploratory experiments behind Figure 2)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class FixedChunkLevel:
    """Statistics of one fixed-size chunk level (Figure 2(1)/(2) data)."""

    level: int
    pairs_processed: int
    clusters: int
    changes: int


def fixed_chunk_sweep(
    graph: Graph,
    similarity_map: Optional[Union[SimilarityMap, SimilarityColumns]] = None,
    chunk_size: int = 1000,
    edge_order: Optional[Sequence[int]] = None,
) -> List[FixedChunkLevel]:
    """Sweep with fixed-size chunks, recording per-level statistics.

    This is the instrumentation run behind Figure 2: incident edge pairs
    are processed in similarity order in chunks of ``chunk_size``, and at
    each boundary the cluster count and the number of changes applied to
    array ``C`` are recorded.
    """
    if chunk_size < 1:
        raise ParameterError(f"chunk_size must be >= 1, got {chunk_size}")
    sim = similarity_map if similarity_map is not None else compute_similarity_map(graph)
    if isinstance(sim, SimilarityColumns):
        # This exploratory path is not performance-critical; reuse the
        # dict loop via lossless conversion.
        sim = sim.to_similarity_map()
    index = build_edge_index(graph, edge_order)
    chain = ChainArray(graph.num_edges)

    levels: List[FixedChunkLevel] = []
    processed = 0
    boundary = chunk_size
    level = 1
    changes_mark = 0
    for similarity, (vi, vj), commons in sim.sorted_pairs():
        for vk in commons:
            chain.merge(
                index[graph.edge_id(vi, vk)], index[graph.edge_id(vj, vk)]
            )
        processed += len(commons)
        if processed >= boundary:
            levels.append(
                FixedChunkLevel(
                    level=level,
                    pairs_processed=processed,
                    clusters=chain.num_clusters(),
                    changes=chain.changes - changes_mark,
                )
            )
            changes_mark = chain.changes
            level += 1
            while boundary <= processed:
                boundary += chunk_size
    if processed and (not levels or levels[-1].pairs_processed != processed):
        levels.append(
            FixedChunkLevel(
                level=level,
                pairs_processed=processed,
                clusters=chain.num_clusters(),
                changes=chain.changes - changes_mark,
            )
        )
    return levels
