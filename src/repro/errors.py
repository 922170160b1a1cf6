"""Exception hierarchy for the :mod:`repro` package.

All exceptions raised by this library derive from :class:`ReproError`, so a
caller can catch library-level failures with a single ``except`` clause while
still letting programming errors (``TypeError`` from bad call signatures,
``KeyError`` from user dictionaries, ...) propagate untouched.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "GraphError",
    "EdgeNotFoundError",
    "VertexNotFoundError",
    "InvalidWeightError",
    "CorpusError",
    "ClusteringError",
    "ParameterError",
    "ParallelError",
    "AnalysisError",
    "RunCancelledError",
    "StorageError",
    "ServeError",
    "QueueFullError",
    "RequestTooLargeError",
]


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class GraphError(ReproError):
    """A structural problem with a graph (duplicate edge, self loop, ...)."""


class VertexNotFoundError(GraphError, KeyError):
    """A vertex id was not present in the graph."""

    def __init__(self, vertex: object):
        super().__init__(vertex)
        self.vertex = vertex

    def __str__(self) -> str:  # KeyError quotes its repr; give a message.
        return f"vertex {self.vertex!r} is not in the graph"


class EdgeNotFoundError(GraphError, KeyError):
    """An edge (by endpoints or by id) was not present in the graph."""

    def __init__(self, edge: object):
        super().__init__(edge)
        self.edge = edge

    def __str__(self) -> str:
        return f"edge {self.edge!r} is not in the graph"


class InvalidWeightError(GraphError, ValueError):
    """An edge weight was rejected (non-finite or non-positive)."""


class CorpusError(ReproError):
    """A problem with a document corpus or its preprocessing."""


class ClusteringError(ReproError):
    """A clustering algorithm was driven into an invalid state."""


class ParameterError(ReproError, ValueError):
    """An algorithm parameter (gamma, phi, delta0, eta0, ...) is invalid."""


class ParallelError(ReproError):
    """A failure inside one of the parallel execution backends.

    ``task_index`` is the position (in the submitted task sequence) of
    the first failing task, when known; ``worker`` is the index of the
    failing worker for backends with fixed worker identities (the
    shared-memory arena).  Either may be ``None``.
    """

    def __init__(
        self,
        message: str,
        task_index: "int | None" = None,
        worker: "int | None" = None,
    ):
        super().__init__(message)
        self.task_index = task_index
        self.worker = worker


class AnalysisError(ReproError):
    """A failure inside the static-analysis subsystem (bad rule id, ...)."""


class RunCancelledError(ReproError):
    """A clustering run was cancelled cooperatively.

    Raised from a sweep-loop checkpoint when the run's
    :class:`~repro.core.cancel.CancelToken` has been triggered; the
    partially-built dendrogram is discarded but spans already opened are
    flushed normally.  ``reason`` carries the canceller's message
    (``None`` when no reason was given).
    """

    def __init__(self, reason: "str | None" = None):
        super().__init__(reason or "run cancelled")
        self.reason = reason


class StorageError(ReproError, OSError):
    """Writing or mapping the out-of-core pair store failed.

    Raised from :class:`~repro.core.storage.MmapPairStore`'s builds
    (a full disk, say), chained from the original :class:`OSError` and
    carrying its ``errno``; ``filename`` names the spill directory,
    which is removed before this propagates.  Also raised, naming the
    file in its message, when a ``pairs.bin`` is shorter than its
    :class:`~repro.core.storage.PairFileSpec` (truncated or stale).  It
    is an :class:`OSError` too, so callers that catch that keep working.
    """


class ServeError(ReproError):
    """A failure in the serving daemon or its client protocol.

    Raised for malformed submissions, unknown job ids, requests against
    a shut-down job manager, and (client-side) non-2xx HTTP responses.
    """


class QueueFullError(ServeError):
    """A job submission was rejected because the job queue is full.

    The daemon bounds its backlog; clients should retry later (the
    HTTP layer maps this to a 429 response).
    """


class RequestTooLargeError(ServeError):
    """A request declared a body larger than the daemon accepts.

    The daemon rejects it from the ``Content-Length`` header alone,
    without reading the body (the HTTP layer maps this to a 413
    response and closes the connection).
    """
