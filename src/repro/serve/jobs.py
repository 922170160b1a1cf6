"""The job manager: a bounded worker fleet over warm runtime pools.

:class:`JobManager` is the daemon's engine room.  Submissions enter a
bounded FIFO queue (full queue → :class:`~repro.errors.QueueFullError`,
HTTP 429) and are drained by a fixed fleet of worker *threads*; the
actual sweep parallelism stays inside each run's
:class:`~repro.parallel.runtime.SweepRuntime`, leased warm from a
shared :class:`~repro.parallel.runtime.RuntimePool` so repeated jobs
skip worker-spawn and arena-construction cost.

Crash isolation reuses the parallel layer's contract: a crashed worker
process surfaces as :class:`~repro.errors.ParallelError` (its message
carries the :func:`~repro.parallel.shm_sweep.describe_exitcode`
classification), the job fails, and the leased runtime is released
``healthy=False`` so the pool discards it instead of recycling a
poisoned arena — the daemon itself keeps serving.

Cancellation is cooperative: each job owns a
:class:`~repro.core.cancel.CancelToken` that the sweep drivers check at
their loop checkpoints.  A per-job timeout is just a timer that trips
the same token.  Every state transition is emitted as a ``job:state``
event into the job's own :class:`~repro.obs.ReplaySink`, so progress
followers see the lifecycle inline with the run's spans — including the
partial spans a cancelled run flushed before it stopped.
"""

from __future__ import annotations

import dataclasses
import queue
import threading
import time
from typing import Any, Dict, List, Optional

from repro.core.cancel import CancelToken
from repro.core.config import RunConfig
from repro.core.linkclust import LinkClustering
from repro.errors import (
    ParallelError,
    ParameterError,
    QueueFullError,
    ReproError,
    RunCancelledError,
    ServeError,
)
from repro.graph.graph import Graph
from repro.obs import ReplaySink, Tracer
from repro.parallel.runtime import RuntimePool
from repro.serve.cache import ResultCache
from repro.serve.protocol import (
    JOB_CANCELLED,
    JOB_DONE,
    JOB_FAILED,
    JOB_QUEUED,
    JOB_RUNNING,
    TERMINAL_STATES,
    graph_content_hash,
    job_status_dict,
    result_payload,
    run_cache_key,
)

__all__ = ["Job", "JobManager"]

# Queue sentinel: one per worker thread is enqueued on shutdown.
_STOP = None


@dataclasses.dataclass
class Job:
    """One submitted clustering run and its lifecycle state.

    The manager owns all mutation; readers (the HTTP layer) use
    :meth:`status` for a consistent snapshot.  ``sink`` buffers the
    job's full trace for replay/follow; ``result`` is the served
    payload once the job is done (shared with the cache — read-only).
    """

    job_id: str
    graph: Graph
    config: RunConfig
    cache_key: str
    timeout: Optional[float]
    use_cache: bool
    sink: ReplaySink
    tracer: Tracer
    cancel: CancelToken
    state: str = JOB_QUEUED
    cached: bool = False
    error: Optional[str] = None
    result: Optional[Dict[str, Any]] = None
    submitted_at: float = 0.0
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    timed_out: bool = False
    cancel_requested: bool = False

    def status(self) -> Dict[str, Any]:
        """The ``GET /jobs/<id>`` view (never includes the payload)."""
        return job_status_dict(
            self.job_id,
            self.state,
            cached=self.cached,
            error=self.error,
            cancel_requested=self.cancel_requested,
            submitted_at=self.submitted_at,
            started_at=self.started_at,
            finished_at=self.finished_at,
            num_events=len(self.sink),
        )


class JobManager:
    """Run clustering jobs on a bounded worker fleet with warm pools.

    Parameters
    ----------
    job_workers:
        Concurrent jobs (worker *threads*; each job's sweep parallelism
        comes from its own leased runtime).
    queue_size:
        Pending-job bound; a full queue rejects submissions with
        :class:`~repro.errors.QueueFullError`.
    cache_entries:
        LRU capacity of the result cache (0 disables caching).
    default_timeout:
        Seconds a job may run before its cancel token is tripped;
        ``None`` means no limit.  A submission's own ``timeout``
        overrides this.
    max_idle_per_key:
        Warm runtimes parked per (backend, num_workers) key — see
        :class:`~repro.parallel.runtime.RuntimePool`.

    Lifecycle: construct → :meth:`start` → submissions → :meth:`shutdown`.
    ``start`` is idempotent; jobs submitted before it simply wait in the
    queue (tests use that window to exercise cancel-before-start).
    """

    def __init__(
        self,
        *,
        job_workers: int = 2,
        queue_size: int = 16,
        cache_entries: int = 32,
        default_timeout: Optional[float] = None,
        max_idle_per_key: int = 2,
    ):
        if job_workers < 1:
            raise ParameterError(f"job_workers must be >= 1, got {job_workers}")
        if queue_size < 1:
            raise ParameterError(f"queue_size must be >= 1, got {queue_size}")
        if default_timeout is not None and default_timeout <= 0:
            raise ParameterError(
                f"default_timeout must be positive or None, got {default_timeout}"
            )
        self.job_workers = job_workers
        self.queue_size = queue_size
        self.default_timeout = default_timeout
        self.pool = RuntimePool(max_idle_per_key=max_idle_per_key)
        self.cache = ResultCache(cache_entries)
        self._queue: "queue.Queue[Optional[Job]]" = queue.Queue(maxsize=queue_size)
        self._jobs: Dict[str, Job] = {}
        self._order: List[str] = []
        self._lock = threading.Lock()
        self._threads: List[threading.Thread] = []
        self._next_id = 0
        self._too_large = 0
        self._started = False
        self._closed = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Spawn the worker fleet (idempotent)."""
        with self._lock:
            if self._started or self._closed:
                return
            self._started = True
            for i in range(self.job_workers):
                thread = threading.Thread(
                    target=self._worker_loop, name=f"repro-serve-worker-{i}", daemon=True
                )
                self._threads.append(thread)
                thread.start()

    def shutdown(self, timeout: Optional[float] = 10.0) -> None:
        """Stop accepting jobs, drain the fleet, close the pool.

        Queued jobs still in the queue ahead of the stop sentinels are
        run to completion; the per-worker sentinel then stops each
        thread.  Idle warm runtimes are shut down with the pool.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            started = self._started
        if started:
            for _ in self._threads:
                self._queue.put(_STOP)
            for thread in self._threads:
                thread.join(timeout=timeout)
        self.pool.shutdown()

    def __enter__(self) -> "JobManager":
        self.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown()

    # ------------------------------------------------------------------
    # submission / lookup / cancellation
    # ------------------------------------------------------------------
    def submit(
        self,
        graph: Graph,
        config: Optional[RunConfig] = None,
        *,
        timeout: Optional[float] = None,
        use_cache: bool = True,
        graph_hash: Optional[str] = None,
    ) -> Job:
        """Queue one clustering run; returns the (possibly done) job.

        A cache hit completes the job immediately — it never enters the
        queue, its event stream still shows ``queued → done``.  A full
        queue raises :class:`~repro.errors.QueueFullError` and leaves
        no trace of the job.  ``graph_hash`` lets ``graph_path``
        submissions reuse the file's chunked content hash instead of
        re-walking the parsed graph edge by edge.
        """
        if self._closed:
            raise ServeError("job manager is shut down")
        if config is None:
            config = RunConfig()
        if graph_hash is None:
            graph_hash = graph_content_hash(graph)
        cache_key = run_cache_key(graph_hash, config)
        sink = ReplaySink()
        job = Job(
            job_id="",
            graph=graph,
            config=config,
            cache_key=cache_key,
            timeout=timeout if timeout is not None else self.default_timeout,
            use_cache=use_cache,
            sink=sink,
            tracer=Tracer([sink]),
            cancel=CancelToken(),
            submitted_at=time.time(),
        )

        cached = self.cache.get(cache_key) if use_cache else None
        with self._lock:
            self._next_id += 1
            job.job_id = f"j{self._next_id}"
            if cached is None:
                # Reserve a queue slot while holding the registry lock so
                # a rejected job is never visible to status readers.
                try:
                    self._queue.put_nowait(job)
                except queue.Full:
                    raise QueueFullError(
                        f"job queue is full ({self.queue_size} pending); retry later"
                    ) from None
            self._jobs[job.job_id] = job
            self._order.append(job.job_id)

        job.tracer.event("job:state", job=job.job_id, state=JOB_QUEUED)
        if cached is not None:
            job.cached = True
            job.result = cached
            self._transition(job, JOB_DONE)
        return job

    def job(self, job_id: str) -> Optional[Job]:
        """The job registered under ``job_id`` (None when unknown)."""
        with self._lock:
            return self._jobs.get(job_id)

    def jobs(self) -> List[Job]:
        """All jobs, in submission order."""
        with self._lock:
            return [self._jobs[job_id] for job_id in self._order]

    def cancel(self, job_id: str, reason: Optional[str] = None) -> Job:
        """Trip a job's cancel token (idempotent; no-op when terminal).

        A queued job is marked cancelled on the spot (its worker skips
        it when it surfaces from the queue); a running job raises
        :class:`~repro.errors.RunCancelledError` at its next sweep
        checkpoint and transitions from the worker thread.
        """
        job = self.job(job_id)
        if job is None:
            raise ServeError(f"unknown job id {job_id!r}")
        job.cancel_requested = True
        job.cancel.cancel(reason)
        # Only a still-queued job flips here; a running one transitions
        # from its worker thread when the token raises at a checkpoint.
        self._transition(job, JOB_CANCELLED, only_from=JOB_QUEUED)
        return job

    def note_too_large(self) -> None:
        """Count one request refused with a 413 (``rejected_too_large``)."""
        with self._lock:
            self._too_large += 1

    def stats(self) -> Dict[str, Any]:
        """Daemon-level counters for ``GET /stats``."""
        with self._lock:
            states = {state: 0 for state in (JOB_QUEUED, JOB_RUNNING) + TERMINAL_STATES}
            for job_id in self._order:
                states[self._jobs[job_id].state] += 1
            submitted = self._next_id
            too_large = self._too_large
        return {
            "submitted": submitted,
            "rejected_too_large": too_large,
            "jobs": states,
            "queue_depth": self._queue.qsize(),
            "cache": self.cache.stats(),
            "pool": self.pool.stats(),
        }

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _transition(
        self,
        job: Job,
        state: str,
        error: Optional[str] = None,
        only_from: Optional[str] = None,
    ) -> bool:
        """Move ``job`` to ``state`` and emit the ``job:state`` event.

        The state update is atomic under the manager lock; ``only_from``
        makes it conditional (e.g. queued→cancelled must not clobber a
        job a worker just started), and terminal states never change
        again.  Returns whether the transition happened.  Terminal
        states close the job's tracer (and so its ReplaySink), which is
        what ends every follower's stream.
        """
        with self._lock:
            if job.state in TERMINAL_STATES:
                return False
            if only_from is not None and job.state != only_from:
                return False
            job.state = state
            if error is not None:
                job.error = error
            if state in TERMINAL_STATES:
                job.finished_at = time.time()
        attrs: Dict[str, Any] = {"job": job.job_id, "state": state}
        if error is not None:
            attrs["error"] = error
        if state == JOB_CANCELLED and job.cancel.reason:
            attrs["reason"] = job.cancel.reason
        job.tracer.event("job:state", **attrs)
        if state in TERMINAL_STATES:
            job.tracer.close()
        return True

    def _worker_loop(self) -> None:
        while True:
            job = self._queue.get()
            if job is _STOP:
                return
            self._run_job(job)

    def _timeout_job(self, job: Job) -> None:
        job.timed_out = True
        job.cancel.cancel(f"timed out after {job.timeout}s")

    def _run_job(self, job: Job) -> None:
        if job.cancel.cancelled():
            # Cancelled while queued; `cancel` usually already flipped
            # the state — the conditional transition dedupes if so.
            self._transition(job, JOB_CANCELLED, only_from=JOB_QUEUED)
            return
        job.started_at = time.time()
        if not self._transition(job, JOB_RUNNING, only_from=JOB_QUEUED):
            return

        # The daemon owns observability: the job's trace goes to its
        # ReplaySink, never to server-side files or stderr tables.
        config = job.config
        if config.profile or config.metrics_out is not None:
            config = config.replace(profile=False, metrics_out=None)

        timer: Optional[threading.Timer] = None
        if job.timeout is not None:
            timer = threading.Timer(job.timeout, self._timeout_job, args=(job,))
            timer.daemon = True
            timer.start()

        wants_runtime = (
            config.coarse is not None
            and config.backend != "serial"
            and config.num_workers > 1
        )
        runtime = None
        healthy = True
        try:
            if wants_runtime:
                runtime = self.pool.lease(config.backend, config.num_workers)
            result = LinkClustering(
                job.graph,
                config=config,
                tracer=job.tracer,
                cancel=job.cancel,
                runtime=runtime,
            ).run()
        except RunCancelledError:
            if job.timed_out:
                self._transition(job, JOB_FAILED, error=f"timed out after {job.timeout}s")
            else:
                self._transition(job, JOB_CANCELLED)
        except ParallelError as exc:
            # A crashed/poisoned worker pool: fail the job, discard the
            # runtime (release unhealthy), keep the daemon serving.  The
            # message already carries the exitcode classification from
            # describe_exitcode().
            healthy = False
            self._transition(job, JOB_FAILED, error=f"parallel backend failure: {exc}")
        except ReproError as exc:
            self._transition(job, JOB_FAILED, error=str(exc))
        except Exception as exc:
            # Not a library error: record the failure so clients see it,
            # then re-raise — a bug in the serving layer itself should
            # be loud (it kills this worker thread), not swallowed.
            self._transition(job, JOB_FAILED, error=f"internal error: {exc!r}")
            raise
        else:
            job.result = result_payload(result)
            self.cache.put(job.cache_key, job.result)
            self._transition(job, JOB_DONE)
        finally:
            if timer is not None:
                timer.cancel()
            if runtime is not None:
                self.pool.release(
                    config.backend, config.num_workers, runtime, healthy=healthy
                )

    def __repr__(self) -> str:
        with self._lock:
            n = len(self._jobs)
        return (
            f"JobManager(workers={self.job_workers}, jobs={n}, "
            f"queue={self._queue.qsize()}/{self.queue_size})"
        )
