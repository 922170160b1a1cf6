"""The span-vocabulary contract: declared names, wildcards, and the
OBS1xx gate over the real codebase."""

from __future__ import annotations

from pathlib import Path

from repro.obs.vocabulary import (
    COUNTERS,
    EVENTS,
    SPANS,
    is_known_counter,
    is_known_event,
    is_known_span,
)

REPO_SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


class TestDeclaredNames:
    def test_core_phase_spans_declared(self):
        # The span names the obs integration tests assert on must all be
        # part of the declared contract.
        for name in (
            "run",
            "phase:init",
            "phase:sort",
            "phase:sweep",
            "init:pass1",
            "runtime:spawn",
            "runtime:copy",
            "runtime:compute",
            "runtime:merge",
            "sweep:batch_round",
            "sweep:reconcile",
            "sweep:transition",
            "storage:spill",
            "storage:merge",
            "storage:window",
        ):
            assert name in SPANS, name
            assert is_known_span(name)

    def test_events_and_counters_declared(self):
        assert is_known_event("sweep:level")
        assert is_known_event("sweep:jump")
        assert is_known_event("run:pairs_format")
        # The serving daemon's job-lifecycle event.
        assert is_known_event("job:state")
        for counter in (
            "k1", "k2", "merges", "rollbacks", "jump_hits", "batch_rounds",
            "boundary_edges", "reconcile_rounds", "shard_bytes",
            "spill_runs", "bytes_spilled", "window_loads", "store_bytes",
            "mem_peak_rss",
        ):
            assert counter in COUNTERS
            assert is_known_counter(counter)
        assert EVENTS  # non-empty contract


class TestWildcards:
    def test_chunk_wildcard_matches_instances(self):
        assert is_known_span("sweep:chunk[0]")
        assert is_known_span("sweep:chunk[17]")
        # the f-string placeholder the analyzer substitutes for holes
        assert is_known_span("sweep:chunk[\x007]")

    def test_wildcard_does_not_match_typos(self):
        assert not is_known_span("sweep:chnk[0]")
        assert not is_known_span("phase:swep")
        assert not is_known_span("sweep:chunk[0] extra")

    def test_figure_prefix_wildcard(self):
        assert is_known_span("figure:4.1")
        assert not is_known_span("figures:4.1")

    def test_shard_wildcard_matches_instances(self):
        assert is_known_span("sweep:shard[0]")
        assert is_known_span("sweep:shard[31]")
        assert is_known_span("sweep:shard[\x007]")
        assert not is_known_span("sweep:shards[0]")


class TestContractHoldsOverCodebase:
    def test_every_tracer_name_in_src_is_declared(self):
        """OBS101/OBS102/OBS103 over the real tree: the vocabulary and
        the instrumented call sites may never drift apart."""
        from repro.analysis import analyze_paths

        result = analyze_paths(
            [REPO_SRC], select=["OBS101", "OBS102", "OBS103"]
        )
        assert result.findings == [], [str(f) for f in result.findings]
