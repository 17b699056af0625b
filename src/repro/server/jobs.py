"""Async jobs: heavy read-only analytics off the request/response path.

The paper's workloads (temporal slicing, snapshot reconstruction over
compressed segments) run for seconds — long enough that a synchronous
server design makes them monopolize a worker thread while the client
blocks on the socket.  The :class:`JobManager` runs them UWS-style
instead (the pattern production services like gavo's job layer use):

- ``submit`` parses and admission-checks the query, pins a snapshot,
  queues the job on a **bounded executor separate from the session
  worker pool**, and returns a shareable job id immediately;
- the job moves through ``PENDING → RUNNING → COMPLETED`` (or
  ``ERROR`` / ``ABORTED``), observable from any connection via
  ``job.status`` / ``job.list``;
- the finished result is cached on the manager and fetched — possibly
  repeatedly, possibly by a different client — via ``job.result``
  until its TTL expires and the job is evicted;
- ``job.cancel`` is cooperative: it flips the job's cancel event,
  which is honored before the query starts and again before the
  result is stored (a scan already inside the engine runs to its end,
  but its result is discarded and the job reports ``ABORTED``).

Jobs are **read-only by construction**: SQL jobs must be SELECTs and
run against the snapshot pinned at submit time, XQuery jobs run the
archive's translator the same way.  That keeps the job executor free
of lock/transaction interactions with the session pool.

Each job runs under a tracer span carrying the submitting request's
trace id, so one trace follows a query from the client through
``job.submit`` into the engine run; progress is exposed as the job's
phase plus elapsed time, and the lifecycle counters/gauge live in the
process metrics registry (``jobs.*``, ``job.seconds``).
"""

from __future__ import annotations

import threading
import time
import uuid
from concurrent.futures import ThreadPoolExecutor

from repro.errors import (
    JobError,
    JobNotFoundError,
    JobStateError,
    ServerBusyError,
)
from repro.obs.metrics import get_registry
from repro.obs.tracer import get_tracer
from repro.sql import ast
from repro.sql.parser import parse_sql
from repro.sql.session import execute_sql
from repro.xmlkit.dom import Element
from repro.xmlkit.serializer import serialize

PENDING = "PENDING"
RUNNING = "RUNNING"
COMPLETED = "COMPLETED"
ERROR = "ERROR"
ABORTED = "ABORTED"

#: states a job can never leave (its result/error is final)
TERMINAL = frozenset({COMPLETED, ERROR, ABORTED})

_SUBMITTED = get_registry().counter("jobs.submitted")
_COMPLETED = get_registry().counter("jobs.completed")
_FAILED = get_registry().counter("jobs.failed")
_ABORTED = get_registry().counter("jobs.aborted")
_REJECTED = get_registry().counter("jobs.rejected")
_EVICTED = get_registry().counter("jobs.evicted")
_ACTIVE = get_registry().gauge("jobs.active")
_SECONDS = get_registry().histogram("job.seconds")


class Job:
    """One submitted query and its lifecycle state.

    All mutable fields are guarded by the owning manager's lock except
    ``cancel``, a :class:`threading.Event` safe to set from any thread.
    """

    __slots__ = (
        "id",
        "kind",
        "text",
        "params",
        "allow_fallback",
        "day",
        "state",
        "phase",
        "trace_id",
        "submitted_at",
        "started_at",
        "finished_at",
        "monotonic_finished",
        "result",
        "error",
        "cancel",
        "future",
    )

    def __init__(
        self,
        job_id: str,
        kind: str,
        text: str,
        params: dict | None,
        allow_fallback: bool,
        day: int | None,
        trace_id: str | None,
    ) -> None:
        self.id = job_id
        self.kind = kind
        self.text = text
        self.params = params
        self.allow_fallback = allow_fallback
        self.day = day
        self.state = PENDING
        self.phase = "queued"
        self.trace_id = trace_id
        self.submitted_at = time.time()
        self.started_at: float | None = None
        self.finished_at: float | None = None
        self.monotonic_finished: float | None = None
        self.result = None
        self.error: BaseException | None = None
        self.cancel = threading.Event()
        self.future = None

    def describe(self) -> dict:
        """The JSON-facing status view of this job."""
        status = {
            "job": self.id,
            "kind": self.kind,
            "state": self.state,
            "progress": {"phase": self.phase},
            "submitted_at": self.submitted_at,
        }
        if self.started_at is not None:
            status["started_at"] = self.started_at
            end = self.finished_at or time.time()
            status["progress"]["elapsed_seconds"] = round(
                end - self.started_at, 6
            )
        if self.finished_at is not None:
            status["finished_at"] = self.finished_at
        if self.state == COMPLETED and self.result is not None:
            status["rows"] = self.result.get("row_count")
        if self.state == ERROR and self.error is not None:
            status["message"] = str(self.error)
        return status


class JobManager:
    """Owns the job executor, registry and result cache.

    One manager is shared by every session of a server, so job ids are
    shareable: the connection that fetches a result need not be the one
    that submitted the job.  ``workers`` bounds concurrent jobs (the
    executor is distinct from the server's session workers, so a long
    analytics job never starves short interactive requests), and at
    most ``max_queued`` jobs may be waiting or running at once — past
    that, ``submit`` answers ``BUSY``.  Terminal jobs are evicted
    ``result_ttl`` seconds after finishing.
    """

    def __init__(
        self,
        manager,
        archis=None,
        *,
        workers: int = 2,
        result_ttl: float = 300.0,
        max_queued: int | None = None,
    ) -> None:
        if workers < 1:
            raise JobError("need at least one job worker")
        self.manager = manager
        self.archis = archis
        self.result_ttl = result_ttl
        self.max_queued = max_queued if max_queued is not None else workers * 8
        self._jobs: dict[str, Job] = {}
        self._lock = threading.Lock()
        self._executor = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-job"
        )
        self._closed = False

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Cancel queued jobs and wait for running ones to finish."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            jobs = list(self._jobs.values())
        for job in jobs:
            job.cancel.set()
        self._executor.shutdown(wait=True, cancel_futures=True)
        with self._lock:
            for job in self._jobs.values():
                if job.state in (PENDING, RUNNING):
                    self._finish(job, ABORTED)

    # -- submission --------------------------------------------------------

    def submit(
        self,
        kind: str,
        text: str,
        *,
        params: dict | None = None,
        allow_fallback: bool = True,
        day: int | None = None,
        trace_id: str | None = None,
    ) -> Job:
        """Queue one read-only query; returns the registered job.

        Parse errors and non-SELECT SQL are rejected here, synchronously
        — the caller gets the real error instead of submitting a job
        doomed to ``ERROR``.
        """
        if kind == "sql":
            statement = parse_sql(text)
            if not isinstance(statement, ast.Select):
                raise JobError(
                    "jobs are read-only: only SELECT statements may be "
                    "submitted as sql jobs"
                )
        elif kind == "xquery":
            if self.archis is None:
                raise JobError("no archive attached; xquery jobs unavailable")
        else:
            raise JobError(f"unknown job kind {kind!r}")
        job = Job(
            uuid.uuid4().hex[:12],
            kind,
            text,
            params,
            allow_fallback,
            day,
            trace_id,
        )
        with self._lock:
            if self._closed:
                raise JobError("job manager is shut down")
            self._evict_expired_locked()
            waiting = sum(
                1 for j in self._jobs.values() if j.state not in TERMINAL
            )
            if waiting >= self.max_queued:
                _REJECTED.inc()
                raise ServerBusyError(
                    f"job queue full ({waiting} jobs queued or running); "
                    "retry later"
                )
            self._jobs[job.id] = job
            _SUBMITTED.inc()
            _ACTIVE.set(waiting + 1)
        job.future = self._executor.submit(self._run, job)
        return job

    # -- queries -----------------------------------------------------------

    def get(self, job_id: str) -> Job:
        with self._lock:
            self._evict_expired_locked()
            job = self._jobs.get(job_id)
        if job is None:
            raise JobNotFoundError(
                f"no job {job_id!r} (never submitted, or expired past the "
                f"{self.result_ttl:g}s result TTL)"
            )
        return job

    def list(self) -> list[Job]:
        with self._lock:
            self._evict_expired_locked()
            return sorted(
                self._jobs.values(), key=lambda job: job.submitted_at
            )

    def result(self, job_id: str) -> dict:
        """The cached result payload of a COMPLETED job.

        A job in ``ERROR`` re-raises its stored (typed) error; any other
        non-terminal state raises :class:`JobStateError` so the client
        knows to poll ``job.status`` first.
        """
        job = self.get(job_id)
        if job.state == COMPLETED:
            return job.result
        if job.state == ERROR:
            raise job.error
        raise JobStateError(
            f"job {job_id} is {job.state}; its result is not available"
        )

    def cancel(self, job_id: str) -> Job:
        """Request cancellation; returns the job (state may already be
        terminal, in which case this is a no-op)."""
        job = self.get(job_id)
        job.cancel.set()
        with self._lock:
            if job.state == PENDING and job.future.cancel():
                self._finish(job, ABORTED)
        return job

    # -- execution ---------------------------------------------------------

    def _run(self, job: Job) -> None:
        if job.cancel.is_set():
            with self._lock:
                self._finish(job, ABORTED)
            return
        with self._lock:
            job.state = RUNNING
            job.phase = "running"
            job.started_at = time.time()
        started = time.perf_counter()
        tracer = get_tracer()
        try:
            with tracer.context(job.trace_id):
                with tracer.span("job.run", job=job.id, kind=job.kind):
                    payload = self._evaluate(job)
            with self._lock:
                if job.cancel.is_set():
                    self._finish(job, ABORTED)
                else:
                    job.result = payload
                    job.phase = "done"
                    self._finish(job, COMPLETED)
        except BaseException as exc:  # noqa: BLE001 - stored, re-raised on fetch
            with self._lock:
                if job.cancel.is_set():
                    self._finish(job, ABORTED)
                else:
                    job.error = exc
                    job.phase = "failed"
                    self._finish(job, ERROR)
        finally:
            _SECONDS.observe(time.perf_counter() - started)

    def _evaluate(self, job: Job) -> dict:
        """Run the query on its own snapshot; returns the plain-data
        result payload cached on the job (no engine objects retained)."""
        snapshot = self.manager.snapshot(job.day)
        if job.kind == "sql":
            result = snapshot.run(
                execute_sql, self.manager.db, job.text, job.params
            )
            rows = [
                [
                    serialize(cell) if isinstance(cell, Element) else cell
                    for cell in row
                ]
                for row in result.rows
            ]
            return {
                "columns": list(result.columns or []),
                "rows": rows,
                "row_count": len(rows),
                "day": snapshot.day,
            }
        result = snapshot.run(
            self.archis.xquery,
            job.text,
            allow_fallback=job.allow_fallback,
        )
        forest = [
            serialize(item) if isinstance(item, Element) else item
            for item in result.rows
        ]
        return {
            "forest": forest,
            "row_count": len(forest),
            "day": snapshot.day,
        }

    # -- bookkeeping (callers hold self._lock) -----------------------------

    def _finish(self, job: Job, state: str) -> None:
        job.state = state
        job.finished_at = time.time()
        job.monotonic_finished = time.monotonic()
        if state == COMPLETED:
            _COMPLETED.inc()
        elif state == ERROR:
            _FAILED.inc()
        else:
            job.phase = "aborted"
            _ABORTED.inc()
        _ACTIVE.set(
            sum(1 for j in self._jobs.values() if j.state not in TERMINAL)
        )

    def _evict_expired_locked(self) -> None:
        """Evict terminal jobs older than the result TTL."""
        now = time.monotonic()
        expired = [
            job_id
            for job_id, job in self._jobs.items()
            if job.state in TERMINAL
            and job.monotonic_finished is not None
            and now - job.monotonic_finished > self.result_ttl
        ]
        for job_id in expired:
            del self._jobs[job_id]
            _EVICTED.inc()


__all__ = [
    "ABORTED",
    "COMPLETED",
    "ERROR",
    "Job",
    "JobManager",
    "PENDING",
    "RUNNING",
    "TERMINAL",
]
