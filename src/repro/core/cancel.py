"""Cooperative cancellation for clustering runs.

The sweep loops are pure compute with no natural interruption point, so
cancellation follows the stop-flag idiom (lenticular-lens's
``stop_clustering()``): the caller holds a :class:`CancelToken`, flips
it from any thread, and the run raises
:class:`~repro.errors.RunCancelledError` at its next checkpoint —
chunk/level boundaries in the coarse sweep, every vertex pair (dict
path) or between kernel windows of :data:`CHECK_INTERVAL` wedges
(columnar path, one :meth:`~repro.cluster.unionfind.ChainArray.merge_run`
call per window) in the fine-grained sweep.  Checkpoints sit outside
the inner MERGE loops, so an un-cancelled run pays one attribute test
per boundary and nothing per merge.

Tokens are single-shot: once cancelled they stay cancelled.  A token
may be shared by several runs (cancel them as a group) but is most
often per-job — the serving daemon creates one per submitted job and
wires both the cancel endpoint and the job timeout to it.
"""

from __future__ import annotations

import threading
from typing import Optional

from repro.errors import RunCancelledError

__all__ = ["CancelToken", "CHECK_INTERVAL"]

#: Kernel window length, in wedges, of the columnar fine sweep; the
#: cancel checkpoint sits between windows.  Frequent
#: enough that cancellation lands in well under a millisecond of
#: compute, sparse enough that the flag test vanishes in the loop cost.
CHECK_INTERVAL = 4096


class CancelToken:
    """A thread-safe, single-shot stop flag with an optional reason."""

    def __init__(self) -> None:
        self._event = threading.Event()
        self._reason: Optional[str] = None

    def cancel(self, reason: Optional[str] = None) -> None:
        """Trigger the token (idempotent; the first reason wins)."""
        if not self._event.is_set():
            # Benign race: two concurrent first-cancels may both write,
            # but the event only ever goes unset -> set and a reason is
            # always one of the actually-supplied strings.
            self._reason = reason
            self._event.set()

    def cancelled(self) -> bool:
        return self._event.is_set()

    @property
    def reason(self) -> Optional[str]:
        """The first ``cancel()`` caller's reason, once triggered."""
        return self._reason

    def raise_if_cancelled(self) -> None:
        """Checkpoint: raise :class:`RunCancelledError` if triggered."""
        if self._event.is_set():
            raise RunCancelledError(self._reason)

    def __repr__(self) -> str:
        state = f"cancelled, reason={self._reason!r}" if self.cancelled() else "live"
        return f"CancelToken({state})"
