"""Cooperative cancellation: the token and the sweep-loop checkpoints."""

from __future__ import annotations

import threading

import pytest

from repro.core.cancel import CHECK_INTERVAL, CancelToken
from repro.core.coarse import CoarseParams, coarse_sweep
from repro.core.linkclust import LinkClustering
from repro.core.similarity import compute_similarity_map
from repro.core.sweep import sweep
from repro.errors import RunCancelledError
from repro.fast.similarity import fast_similarity_columns
from repro.graph import generators
from repro.obs import MemorySink, Tracer
from repro.obs.sinks import Sink


@pytest.fixture()
def graph():
    return generators.caveman_graph(4, 5)


class TestCancelToken:
    def test_initial_state(self):
        token = CancelToken()
        assert not token.cancelled()
        assert token.reason is None
        token.raise_if_cancelled()  # no-op while untripped

    def test_cancel_is_idempotent_first_reason_wins(self):
        token = CancelToken()
        token.cancel("first")
        token.cancel("second")
        assert token.cancelled()
        assert token.reason == "first"

    def test_raise_carries_reason(self):
        token = CancelToken()
        token.cancel("client went away")
        with pytest.raises(RunCancelledError, match="client went away") as info:
            token.raise_if_cancelled()
        assert info.value.reason == "client went away"

    def test_cross_thread_visibility(self):
        token = CancelToken()
        seen = threading.Event()

        def trip():
            token.cancel("from other thread")
            seen.set()

        thread = threading.Thread(target=trip)
        thread.start()
        thread.join()
        assert seen.is_set() and token.cancelled()

    def test_check_interval_is_sane(self):
        # The columnar sweep checks between kernel windows of
        # CHECK_INTERVAL wedges.
        assert CHECK_INTERVAL > 0 and CHECK_INTERVAL & (CHECK_INTERVAL - 1) == 0


class _CancelAfterRecords(Sink):
    """Trips the token once the tracer has emitted ``limit`` records."""

    def __init__(self, token: CancelToken, limit: int):
        self.token = token
        self.limit = limit
        self.count = 0

    def emit(self, record) -> None:
        self.count += 1
        if self.count >= self.limit:
            self.token.cancel("enough records")


class _TripOnCheck(CancelToken):
    """Cancels itself at its ``at``-th checkpoint."""

    def __init__(self, at: int):
        super().__init__()
        self.at = at
        self.checks = 0

    def raise_if_cancelled(self) -> None:
        self.checks += 1
        if self.checks == self.at:
            self.cancel("mid-sweep")
        super().raise_if_cancelled()


class TestSweepCancellation:
    def test_pre_cancelled_fine_sweep_raises(self, graph):
        sim = compute_similarity_map(graph)
        token = CancelToken()
        token.cancel("before start")
        with pytest.raises(RunCancelledError, match="before start"):
            sweep(graph, sim, cancel=token)

    def test_pre_cancelled_coarse_sweep_raises(self, graph):
        sim = compute_similarity_map(graph)
        token = CancelToken()
        token.cancel()
        with pytest.raises(RunCancelledError):
            coarse_sweep(graph, sim, CoarseParams(), cancel=token)

    def test_mid_sweep_cancel_flushes_partial_spans(self, graph):
        # Trip the token from inside the trace stream: after a few
        # records the next chunk-boundary checkpoint must raise, and the
        # spans opened before that point must still be in the sink
        # (span __exit__ emits on exception).
        sim = compute_similarity_map(graph)
        token = CancelToken()
        memory = MemorySink()
        tracer = Tracer([memory, _CancelAfterRecords(token, 3)])
        with pytest.raises(RunCancelledError, match="enough records"):
            coarse_sweep(
                graph, sim, CoarseParams(delta0=5.0), tracer=tracer, cancel=token
            )
        assert len(memory.records) >= 3
        names = memory.span_names()
        assert any(name.startswith("sweep:chunk") for name in names)

    def test_columnar_fine_sweep_stops_between_windows(self):
        # K2 spans several kernel windows; the token trips at the second
        # checkpoint, so the sweep must stop there, mid-run.
        big = generators.caveman_graph(4, 20)
        columns = fast_similarity_columns(big)
        assert columns.k2 > 2 * CHECK_INTERVAL
        token = _TripOnCheck(2)
        with pytest.raises(RunCancelledError, match="mid-sweep"):
            sweep(big, columns, cancel=token)
        assert token.checks == 2

    def test_uncancelled_token_changes_nothing(self, graph):
        sim = compute_similarity_map(graph)
        baseline = sweep(graph, sim)
        watched = sweep(graph, sim, cancel=CancelToken())
        assert watched.dendrogram.merges == baseline.dendrogram.merges


class TestLinkClusteringCancel:
    def test_run_accepts_and_propagates_token(self, graph):
        token = CancelToken()
        token.cancel("caller gave up")
        lc = LinkClustering(graph, cancel=token)
        with pytest.raises(RunCancelledError, match="caller gave up"):
            lc.run()

    def test_parallel_coarse_run_cancels(self, graph):
        token = CancelToken()
        token.cancel()
        lc = LinkClustering(
            graph, coarse=True, backend="thread", num_workers=2, cancel=token
        )
        with pytest.raises(RunCancelledError):
            lc.run()
