"""Tests for the vectorized sweep (repro.fast.sweep)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.validation import same_partition
from repro.core.similarity import compute_similarity_map
from repro.core.storage import make_pair_store
from repro.core.sweep import sweep
from repro.fast.similarity import fast_similarity_columns
from repro.fast.sweep import fast_sweep
from repro.graph import generators
from repro.graph.graph import Graph


def _wedge_stream(graph):
    """The sweep's K2 wedge stream as its in-memory pair store holds it:
    ``(e1, e2, per-wedge similarity, k1)`` (identity edge order)."""
    store = make_pair_store(
        graph,
        fast_similarity_columns(graph),
        np.arange(graph.num_edges, dtype=np.int64),
    )
    sims = np.repeat(store.sims, np.diff(store.offsets))
    return store.c1, store.c2, sims, store.k1


class TestWedgeStream:
    def test_length_is_k2(self, weighted_caveman):
        from repro.core.metrics import count_k1, count_k2

        e1, e2, sims, k1 = _wedge_stream(weighted_caveman)
        assert len(e1) == len(e2) == len(sims) == count_k2(weighted_caveman)
        assert k1 == count_k1(weighted_caveman)

    def test_sorted_non_increasing(self, weighted_caveman):
        _, _, sims, _ = _wedge_stream(weighted_caveman)
        assert np.all(np.diff(sims) <= 1e-15)

    def test_pairs_are_incident(self, planted):
        e1, e2, _, _ = _wedge_stream(planted)
        for a, b in zip(e1.tolist()[:200], e2.tolist()[:200]):
            u1, v1 = planted.edge_endpoints(a)
            u2, v2 = planted.edge_endpoints(b)
            assert {u1, v1} & {u2, v2}

    def test_similarities_match_reference(self, weighted_caveman):
        """Each wedge's similarity equals the reference pair score."""
        g = weighted_caveman
        sim = compute_similarity_map(g)
        e1, e2, sims, _ = _wedge_stream(g)
        for a, b, s in zip(e1.tolist(), e2.tolist(), sims.tolist()):
            u1, v1 = g.edge_endpoints(a)
            u2, v2 = g.edge_endpoints(b)
            k = ({u1, v1} & {u2, v2}).pop()
            i = u1 if v1 == k else v1
            j = u2 if v2 == k else v2
            assert s == pytest.approx(sim.similarity(i, j), rel=1e-9)

    def test_empty_graph(self):
        e1, e2, sims, k1 = _wedge_stream(Graph())
        assert len(e1) == 0 and len(sims) == 0 and k1 == 0


class TestFastSweep:
    def test_same_partition_as_reference(self, weighted_caveman):
        ref = sweep(weighted_caveman)
        fast = fast_sweep(weighted_caveman)
        assert same_partition(ref.edge_labels(), fast.edge_labels())
        assert ref.k1 == fast.k1 and ref.k2 == fast.k2

    def test_threshold_cuts_agree(self, weighted_caveman):
        ref = sweep(weighted_caveman)
        fast = fast_sweep(weighted_caveman)
        for threshold in (0.9, 0.6, 0.3, 0.05):
            assert same_partition(
                ref.dendrogram.labels_at_similarity(threshold),
                fast.dendrogram.labels_at_similarity(threshold),
            )

    def test_edge_order_supported(self, planted):
        order = planted.permuted_edge_ids()
        ref = sweep(planted, edge_order=order)
        fast = fast_sweep(planted, edge_order=order)
        assert same_partition(ref.edge_labels(), fast.edge_labels())

    def test_change_recording(self, triangle):
        fast = fast_sweep(triangle, record_changes=True)
        assert fast.per_merge_changes is not None
        assert len(fast.per_merge_changes) == fast.k2
        assert sum(fast.per_merge_changes) == fast.chain.changes

    def test_merge_similarities_match(self, weighted_caveman):
        ref = sorted(
            round(s, 9) for s in sweep(weighted_caveman).dendrogram.merge_similarities()
        )
        fast = sorted(
            round(s, 9)
            for s in fast_sweep(weighted_caveman).dendrogram.merge_similarities()
        )
        assert ref == fast


@settings(max_examples=30, deadline=None)
@given(n=st.integers(3, 12), p=st.floats(0.25, 0.95), seed=st.integers(0, 800))
def test_property_fast_sweep_equals_reference(n, p, seed):
    g = generators.erdos_renyi(
        n, p, seed=seed, weight=generators.random_weights(seed=seed)
    )
    ref = sweep(g)
    fast = fast_sweep(g)
    assert same_partition(ref.edge_labels(), fast.edge_labels())
    assert ref.k1 == fast.k1 and ref.k2 == fast.k2
