"""Tests for coarse-grained sweeping (Section V)."""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.unionfind import ChainArray
from repro.cluster.validation import same_partition
from repro.core.coarse import (
    CoarseParams,
    coarse_sweep,
    fixed_chunk_sweep,
    transition_merges,
)
from repro.core.similarity import compute_similarity_map
from repro.core.sweep import sweep
from repro.errors import ParameterError
from repro.graph import generators


class TestParams:
    def test_defaults_match_paper(self):
        p = CoarseParams()
        assert p.gamma == 2.0
        assert p.phi == 100
        assert p.eta0 == 8.0
        assert p.gamma_tilde == 1.5

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"gamma": 0.5},
            {"phi": 0},
            {"delta0": 0},
            {"eta0": 1.0},
            {"max_consecutive_rollbacks": 0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ParameterError):
            CoarseParams(**kwargs)


class TestCoarseSweep:
    def test_same_final_partition_as_fine_when_complete(self, weighted_caveman):
        """With phi=1 (no early stop) the coarse sweep processes the whole
        list, so its final clusters equal the fine sweep's."""
        g = weighted_caveman
        sim = compute_similarity_map(g)
        fine = sweep(g, sim)
        coarse = coarse_sweep(g, sim, CoarseParams(phi=1, delta0=10, finalize_root=False))
        assert same_partition(fine.edge_labels(), coarse.edge_labels())

    def test_fewer_levels_than_fine(self, weighted_caveman):
        g = weighted_caveman
        sim = compute_similarity_map(g)
        fine = sweep(g, sim)
        coarse = coarse_sweep(g, sim, CoarseParams(phi=1, delta0=10))
        assert coarse.num_levels < fine.num_levels

    def test_soundness_property(self, planted):
        """The defining property: cluster count shrinks by at most gamma
        per committed level (forced epochs exempt by construction)."""
        g = planted
        params = CoarseParams(gamma=2.0, phi=2, delta0=5)
        result = coarse_sweep(g, params=params)
        forced_levels = {e.level for e in result.epochs if e.kind == "forced"}
        prev = g.num_edges
        for epoch in result.epochs:
            if epoch.level is None or epoch.level in forced_levels:
                continue
            if epoch.kind in ("head_fresh", "tail_fresh", "reused"):
                assert epoch.beta_before / epoch.beta_after <= params.gamma + 1e-9
                prev = epoch.beta_after

    def test_phi_stops_early(self):
        g = generators.caveman_graph(6, 5, weight=generators.random_weights(seed=2))
        sim = compute_similarity_map(g)
        full = coarse_sweep(g, sim, CoarseParams(phi=1, delta0=10, finalize_root=False))
        early = coarse_sweep(g, sim, CoarseParams(phi=20, delta0=10, finalize_root=False))
        assert early.pairs_processed <= full.pairs_processed
        assert early.processed_fraction <= 1.0

    def test_finalize_root_completes_dendrogram(self):
        g = generators.caveman_graph(6, 5, weight=generators.random_weights(seed=2))
        result = coarse_sweep(g, params=CoarseParams(phi=20, delta0=10))
        if result.stopped_by_phi:
            assert result.chain.num_clusters() == 1
            assert result.dendrogram.is_complete()

    def test_epoch_records_well_formed(self, weighted_caveman):
        result = coarse_sweep(
            weighted_caveman, params=CoarseParams(phi=2, delta0=5)
        )
        assert result.epochs
        for epoch in result.epochs:
            assert epoch.kind in (
                "head_fresh", "tail_fresh", "rollback", "reused", "forced"
            )
            assert epoch.beta_after <= epoch.beta_before
            if epoch.kind == "rollback":
                assert epoch.level is None
            else:
                assert epoch.level is not None

    def test_levels_are_consecutive(self, weighted_caveman):
        result = coarse_sweep(
            weighted_caveman, params=CoarseParams(phi=2, delta0=5)
        )
        committed = [e.level for e in result.epochs if e.level is not None]
        assert committed == sorted(committed)
        assert committed[0] == 1

    def test_dendrogram_levels_within_epochs(self, weighted_caveman):
        result = coarse_sweep(
            weighted_caveman, params=CoarseParams(phi=2, delta0=5)
        )
        assert result.dendrogram.num_levels <= result.num_levels + 1

    def test_head_epochs_grow_exponentially(self):
        """With a huge gamma (no rollbacks) head chunks grow by eta."""
        g = generators.complete_graph(12, weight=generators.random_weights(seed=4))
        params = CoarseParams(gamma=1e9, phi=1, delta0=4, eta0=2.0, finalize_root=False)
        result = coarse_sweep(g, params=params)
        head_chunks = [e.chunk for e in result.epochs if e.kind == "head_fresh"]
        for a, b in zip(head_chunks, head_chunks[1:]):
            assert b == pytest.approx(a * 2.0)

    def test_epoch_kind_counts(self, weighted_caveman):
        result = coarse_sweep(
            weighted_caveman, params=CoarseParams(phi=2, delta0=5)
        )
        counts = result.epoch_kind_counts()
        assert sum(counts.values()) == len(result.epochs)

    def test_processed_fraction_bounds(self, planted):
        result = coarse_sweep(planted, params=CoarseParams(phi=5, delta0=10))
        assert 0.0 < result.processed_fraction <= 1.0

    def test_edge_order_respected(self, weighted_caveman):
        g = weighted_caveman
        order = g.permuted_edge_ids()
        result = coarse_sweep(g, edge_order=order, params=CoarseParams(phi=1, delta0=10, finalize_root=False))
        fine = sweep(g)
        assert same_partition(result.edge_labels(), fine.edge_labels())


class TestForcedEpochs:
    def test_atomic_pair_forces_commit(self):
        """A single vertex pair can merge clusters faster than a tight
        gamma allows; the sweep must force-commit (flagged) and finish
        rather than loop."""
        from repro.graph.graph import Graph

        g = Graph()
        # K_{2,8}: vertices a, b share 8 common neighbours; the pair
        # (a, b) alone merges 8 edge pairs at one go.
        for k in range(8):
            g.add_edge("a", f"k{k}", 1.0)
            g.add_edge("b", f"k{k}", 1.0)
        params = CoarseParams(
            gamma=1.01, phi=1, delta0=1, finalize_root=False,
            max_consecutive_rollbacks=3,
        )
        result = coarse_sweep(g, params=params)
        counts = result.epoch_kind_counts()
        assert counts.get("forced", 0) >= 1
        # It still terminates with the fine partition.
        fine = sweep(g)
        assert same_partition(result.edge_labels(), fine.edge_labels())

    def test_rollback_budget_respected(self):
        from repro.graph.graph import Graph

        g = Graph()
        for k in range(6):
            g.add_edge("a", f"k{k}", 1.0)
            g.add_edge("b", f"k{k}", 1.0)
        params = CoarseParams(
            gamma=1.001, phi=1, delta0=50, finalize_root=False,
            max_consecutive_rollbacks=2,
        )
        result = coarse_sweep(g, params=params)
        # consecutive rollbacks never exceed the budget
        streak = 0
        for epoch in result.epochs:
            if epoch.kind == "rollback":
                streak += 1
                assert streak <= params.max_consecutive_rollbacks
            else:
                streak = 0


@settings(max_examples=15, deadline=None)
@given(
    n=st.integers(6, 10),
    p=st.floats(0.4, 0.9),
    seed=st.integers(0, 200),
    gamma=st.floats(1.3, 3.0),
)
def test_property_soundness_of_committed_levels(n, p, seed, gamma):
    """Every committed (non-forced) level respects beta/beta' <= gamma."""
    g = generators.erdos_renyi(
        n, p, seed=seed, weight=generators.random_weights(seed=seed)
    )
    if g.num_edges < 4:
        return
    params = CoarseParams(gamma=gamma, phi=2, delta0=3)
    result = coarse_sweep(g, params=params)
    for epoch in result.epochs:
        if epoch.kind in ("head_fresh", "tail_fresh", "reused"):
            assert epoch.beta_before / epoch.beta_after <= gamma + 1e-9


def labels_of(chain):
    return np.array(chain.labels(), dtype=np.int64)


def records_of(before, after):
    parents, children = transition_merges(before, after)
    return list(zip(parents.tolist(), children.tolist(), parents.tolist()))


def dict_walk_transition(before, after):
    """The chain-array reference the vectorized diff replaced: group the
    ``before``-roots by ``after``-cluster (dict insertion order) and
    merge each group's larger roots into its smallest one."""
    groups: dict = {}
    for root in before.cluster_roots():
        groups.setdefault(after.find(root), []).append(root)
    merges = []
    for roots in groups.values():
        if len(roots) < 2:
            continue
        roots.sort()
        base = roots[0]
        for other in roots[1:]:
            merges.append((base, other, base))
    return merges


class TestTransitionMerges:
    def test_empty_when_equal(self):
        c = ChainArray(5)
        c.merge(0, 1)
        assert records_of(labels_of(c), labels_of(c)) == []

    def test_records_regroupings(self):
        before = ChainArray(6)
        before.merge(0, 1)
        after = before.copy()
        after.merge(0, 2)
        after.merge(3, 4)
        merges = records_of(labels_of(before), labels_of(after))
        assert (0, 2, 0) in merges
        assert (3, 4, 3) in merges
        assert len(merges) == 2

    def test_replay_reproduces_after_partition(self):
        rng = random.Random(3)
        before = ChainArray(20)
        for _ in range(8):
            before.merge(rng.randrange(20), rng.randrange(20))
        after = before.copy()
        for _ in range(8):
            after.merge(rng.randrange(20), rng.randrange(20))
        replay = before.copy()
        for c1, c2, _ in records_of(labels_of(before), labels_of(after)):
            replay.merge(c1, c2)
        assert replay.labels() == after.labels()


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(1, 40),
    seed=st.integers(0, 10_000),
    before_merges=st.integers(0, 40),
    after_merges=st.integers(0, 40),
)
def test_property_vectorized_diff_equals_dict_walk(
    n, seed, before_merges, after_merges
):
    """Random partition, random coarsening of it: the vectorized diff
    returns exactly the dict walk's records, in the same order — from
    the compressed labels and from the raw (uncompressed) array C."""
    rng = random.Random(seed)
    before = ChainArray(n)
    for _ in range(before_merges):
        before.merge(rng.randrange(n), rng.randrange(n))
    after = before.copy()
    for _ in range(after_merges):
        after.merge(rng.randrange(n), rng.randrange(n))
    expected = dict_walk_transition(before, after)
    assert records_of(labels_of(before), labels_of(after)) == expected
    raw_before = np.asarray(before.raw(), dtype=np.int64)
    assert records_of(raw_before, labels_of(after)) == expected


class TestFixedChunkSweep:
    def test_level_statistics_consistent(self, weighted_caveman):
        levels = fixed_chunk_sweep(weighted_caveman, chunk_size=10)
        assert levels
        # pairs processed strictly increases; clusters never increase
        for a, b in zip(levels, levels[1:]):
            assert b.pairs_processed > a.pairs_processed
            assert b.clusters <= a.clusters

    def test_total_pairs_is_k2(self, paper_example_graph):
        from repro.core.metrics import count_k2

        levels = fixed_chunk_sweep(paper_example_graph, chunk_size=3)
        assert levels[-1].pairs_processed == count_k2(paper_example_graph)

    def test_changes_sum_to_chain_changes(self, weighted_caveman):
        levels = fixed_chunk_sweep(weighted_caveman, chunk_size=7)
        fine = sweep(weighted_caveman, record_changes=True)
        assert sum(lv.changes for lv in levels) == sum(fine.per_merge_changes)

    def test_chunk_size_validation(self, triangle):
        with pytest.raises(ParameterError):
            fixed_chunk_sweep(triangle, chunk_size=0)


@settings(max_examples=15, deadline=None)
@given(
    n=st.integers(5, 10),
    p=st.floats(0.4, 0.9),
    seed=st.integers(0, 300),
    delta0=st.integers(1, 30),
    gamma=st.floats(1.2, 4.0),
)
def test_property_coarse_equals_fine_partition(n, p, seed, delta0, gamma):
    """For any parameters, a full (phi=1, no root) coarse sweep ends with
    the fine sweep's partition — chunking changes levels, not clusters."""
    g = generators.erdos_renyi(
        n, p, seed=seed, weight=generators.random_weights(seed=seed)
    )
    if g.num_edges < 2:
        return
    sim = compute_similarity_map(g)
    fine = sweep(g, sim)
    coarse = coarse_sweep(
        g, sim,
        CoarseParams(gamma=gamma, phi=1, delta0=delta0, finalize_root=False),
    )
    assert same_partition(fine.edge_labels(), coarse.edge_labels())
    # phi=1 stops early only when a single cluster already formed, which
    # cannot change the partition; otherwise the whole list is processed.
    if coarse.stopped_by_phi:
        assert coarse.chain.num_clusters() == 1
    else:
        assert coarse.pairs_processed == sim.k2
