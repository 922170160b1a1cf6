"""ChainArray.merge_run and LabelForest.merge_run: the MERGE kernels.

``ChainArray.merge_run`` must be indistinguishable from calling the
reference ``ChainArray.merge`` once per wedge: same array ``C``, change
and access counters (Theorem 2), cluster count, merge records and
per-wedge change counts (Figure 2(1)).  ``LabelForest.merge_run`` must
return the same merge records and leave the same labels.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.unionfind import ChainArray, LabelForest
from repro.errors import ClusteringError


@st.composite
def chain_runs(draw):
    """A chain state built by prior merges, plus a wedge run and window."""
    n = draw(st.integers(1, 40))
    item = st.integers(0, n - 1)
    prior = draw(st.lists(st.tuples(item, item), max_size=60))
    wedges = draw(st.lists(st.tuples(item, item), max_size=80))
    start = draw(st.integers(0, len(wedges)))
    stop = draw(st.integers(start, len(wedges)))
    return n, prior, wedges, start, stop


def _state(n, prior):
    chain = ChainArray(n)
    for a, b in prior:
        chain.merge(a, b)
    return chain


def _reference(chain, c1, c2, start, stop):
    """The per-wedge ``merge`` loop the kernel replaces."""
    merges, per_wedge = [], []
    for w in range(start, stop):
        before = chain.changes
        outcome = chain.merge(c1[w], c2[w])
        per_wedge.append(chain.changes - before)
        if outcome.merged:
            merges.append((w, outcome.c1, outcome.c2, outcome.parent))
    return merges, per_wedge


def _assert_same(got, want):
    assert list(got.raw()) == list(want.raw())
    assert got.changes == want.changes
    assert got.accesses == want.accesses
    assert got.num_clusters() == want.num_clusters() == want.count_roots()


@given(chain_runs())
@settings(max_examples=300, deadline=None)
def test_property_merge_run_equals_per_wedge_merge(case):
    n, prior, wedges, start, stop = case
    c1 = [a for a, _ in wedges]
    c2 = [b for _, b in wedges]
    want = _state(n, prior)
    want_merges, want_changes = _reference(want, c1, c2, start, stop)

    got = _state(n, prior)
    got_changes: list = []
    got_merges = got.merge_run(c1, c2, start, stop, changes=got_changes)
    _assert_same(got, want)
    assert got_merges == want_merges
    assert got_changes == want_changes

    # Integer arrays in, no change list: same state and records.
    plain = _state(n, prior)
    arrays = (np.asarray(c1, dtype=np.int64), np.asarray(c2, dtype=np.int64))
    assert plain.merge_run(*arrays, start, stop) == want_merges
    _assert_same(plain, want)


def test_split_windows_equal_one_run():
    """Window boundaries are invisible: the sweeps rely on this."""
    rng = np.random.default_rng(7)
    c1 = rng.integers(0, 50, 400)
    c2 = rng.integers(0, 50, 400)
    whole = ChainArray(50)
    merges = whole.merge_run(c1, c2, 0, 400)
    split = ChainArray(50)
    pieces = []
    for start in range(0, 400, 37):
        pieces += split.merge_run(c1, c2, start, min(400, start + 37))
    assert pieces == merges
    _assert_same(split, whole)


@pytest.mark.parametrize("bad", [-1, 6, 100])
def test_out_of_range_index_raises_before_touching_c(bad):
    chain = ChainArray(6)
    chain.merge(4, 5)
    before = list(chain.raw())
    for c1, c2 in (([0, 1, bad], [1, 2, 3]), ([0, 1, 2], [1, bad, 3])):
        with pytest.raises(ClusteringError):
            chain.merge_run(c1, c2, 0, 3)
        assert list(chain.raw()) == before
        assert chain.changes == 1 and chain.num_clusters() == 5


def test_bad_window_raises():
    chain = ChainArray(4)
    with pytest.raises(ClusteringError):
        chain.merge_run([0, 1], [1, 2], 1, 3)
    with pytest.raises(ClusteringError):
        chain.merge_run([0, 1], [1, 2], 2, 1)
    with pytest.raises(ClusteringError):
        chain.merge_run([0, 1], [1, 2], -1, 1)


def test_empty_window_is_a_no_op():
    chain = ChainArray(3)
    changes: list = []
    assert chain.merge_run([0], [1], 1, 1, changes=changes) == []
    assert changes == [] and chain.changes == 0 and chain.accesses == 0


# ----------------------------------------------------------------------
# LabelForest.merge_run: the fine run's spanning-forest MERGE
# ----------------------------------------------------------------------


@st.composite
def wedge_streams(draw):
    """Wedge columns over ``n`` items with self-wedges and repeats."""
    n = draw(st.integers(1, 60))
    item = st.integers(0, n - 1)
    fresh = st.tuples(item, item)
    wedges = draw(st.lists(fresh, max_size=300))
    # Repeat earlier wedges (either orientation) and add self-wedges.
    extra = draw(st.lists(st.tuples(st.integers(0, 10**6), st.booleans()), max_size=100))
    for pick, flip in extra:
        if wedges:
            a, b = wedges[pick % len(wedges)]
            wedges.insert(pick % (len(wedges) + 1), (b, a) if flip else (a, a))
    window = draw(st.sampled_from([1, 7, 4096]))
    return n, wedges, window


@given(wedge_streams())
@settings(max_examples=300, deadline=None)
def test_property_label_forest_equals_chain_array(case):
    n, wedges, window = case
    c1 = np.asarray([a for a, _ in wedges], dtype=np.int64)
    c2 = np.asarray([b for _, b in wedges], dtype=np.int64)
    chain, forest = ChainArray(n), LabelForest(n)
    want, got = [], []
    for start in range(0, len(wedges), window):
        stop = min(len(wedges), start + window)
        want += chain.merge_run(c1, c2, start, stop)
        got += forest.merge_run(c1, c2, start, stop)
    assert got == want
    assert forest.labels() == chain.labels()
    assert forest.num_clusters() == chain.num_clusters()
    assert forest.survivors <= len(wedges)
    flat = forest.to_chain()
    assert flat.labels() == chain.labels() and list(flat.raw()) == chain.labels()
    assert flat.num_clusters() == flat.count_roots() == chain.num_clusters()
    assert flat.changes == 0 and flat.accesses == 0


@given(wedge_streams(), st.sampled_from([-1, -7, 0, 5]))
@settings(max_examples=100, deadline=None)
def test_property_label_forest_rejects_bad_index_untouched(case, offset):
    # NumPy would wrap a negative index silently; the forest must not.
    n, wedges, _ = case
    bad = offset if offset < 0 else n + offset
    forest = LabelForest(n)
    c1 = [a for a, _ in wedges] + [0]
    c2 = [b for _, b in wedges] + [0]
    forest.merge_run(c1, c2, 0, len(wedges) // 2)
    before = forest.labels(), forest.num_clusters(), forest.survivors
    for col in (c1, c2):
        col[-1] = bad
        with pytest.raises(ClusteringError):
            forest.merge_run(c1, c2, len(wedges) // 2, len(c1))
        col[-1] = 0
        assert (forest.labels(), forest.num_clusters(), forest.survivors) == before


def test_label_forest_bad_window_raises():
    forest = LabelForest(4)
    for start, stop in ((1, 3), (2, 1), (-1, 1)):
        with pytest.raises(ClusteringError):
            forest.merge_run([0, 1], [1, 2], start, stop)
    assert forest.labels() == [0, 1, 2, 3]
    with pytest.raises(ClusteringError):
        LabelForest(-1)
