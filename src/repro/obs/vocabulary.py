"""The declared span/event/counter vocabulary for the tracing layer.

``docs/observability.md`` promises that "all four backends emit
identical core span names".  That promise used to live in prose and a
handful of test assertions; this module makes it a checkable artifact.
Every name the library may hand to :meth:`Tracer.span`,
:meth:`Tracer.record`, :meth:`Tracer.event`, :meth:`Tracer.count`, or
:meth:`Tracer.gauge` must appear here, and the OBS1xx analysis rules
(``repro analyze``) statically verify every call site against it — a
misspelled ``tracer.span("phase:swep")`` fails the gate at analysis
time, before any trace is ever recorded.

Entries may contain ``*`` as a wildcard for a runtime-formatted
fragment: ``sweep:chunk[*]`` covers ``sweep:chunk[0]``,
``sweep:chunk[17]``, and the f-string ``f"sweep:chunk[{i}]"`` the
sweep actually emits.

Adding a new instrumentation point is a two-step change by design:
add the call site *and* register the name here (and in the docs table)
so the vocabulary stays a reviewed, documented contract.
"""

from __future__ import annotations

import re
from typing import FrozenSet, Iterable

__all__ = [
    "COUNTERS",
    "EVENTS",
    "SPANS",
    "is_known_counter",
    "is_known_event",
    "is_known_span",
]

# Span names: `Tracer.span(...)` intervals plus the synthetic worker
# spans the parallel runtime emits through `Tracer.record(...)`.
SPANS: FrozenSet[str] = frozenset(
    {
        "run",
        "phase:init",
        "phase:sort",
        "phase:sweep",
        "init:pass1",
        "init:pass2",
        "init:pass3",
        "init:finalize",
        "sweep:chunk[*]",
        "sweep:batch_round",
        "sweep:shard[*]",
        "sweep:reconcile",
        # Level bookkeeping at an epoch boundary: cluster count, level
        # records, snapshot, commit or rollback, state jump.
        "sweep:transition",
        "runtime:spawn",
        "runtime:copy",
        "runtime:compute",
        "runtime:merge",
        # Out-of-core pair store: one spill span per sorted run, one
        # merge span per build, one window span per bounded read.
        "storage:spill",
        "storage:merge",
        "storage:window",
        "figure:*",
    }
)

# Point-in-time facts attached to the current span.
EVENTS: FrozenSet[str] = frozenset(
    {
        "run:pairs_format",
        "sweep:level",
        "sweep:jump",
        # Serving daemon: one event per job state transition
        # (queued/running/done/failed/cancelled), emitted into the
        # job's own ReplaySink stream.
        "job:state",
    }
)

# Counter/gauge names emitted on `Tracer.flush()`.
COUNTERS: FrozenSet[str] = frozenset(
    {
        "k1",
        "k2",
        "merges",
        "rollbacks",
        "jump_hits",
        "batch_rounds",
        "boundary_edges",
        "reconcile_rounds",
        "shard_bytes",
        "worker_restarts",
        # Out-of-core pair store build + access.
        "spill_runs",
        "bytes_spilled",
        "window_loads",
        "store_bytes",
        # Peak resident set size (bytes, ru_maxrss high-water) sampled
        # at phase boundaries on every backend.
        "mem_peak_rss",
    }
)


def _entry_regex(entry: str) -> "re.Pattern[str]":
    return re.compile(
        ".*".join(re.escape(part) for part in entry.split("*")) + r"\Z"
    )


def _matches(name: str, vocabulary: Iterable[str]) -> bool:
    for entry in vocabulary:
        if "*" in entry:
            if _entry_regex(entry).match(name):
                return True
        elif name == entry:
            return True
    return False


def is_known_span(name: str) -> bool:
    """True when ``name`` is a declared span name (wildcards honoured)."""
    return _matches(name, SPANS)


def is_known_event(name: str) -> bool:
    """True when ``name`` is a declared event name."""
    return _matches(name, EVENTS)


def is_known_counter(name: str) -> bool:
    """True when ``name`` is a declared counter/gauge name."""
    return _matches(name, COUNTERS)
