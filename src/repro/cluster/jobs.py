"""The async job queue behind the cluster front door.

``submit`` admits a job (or rejects it: bounded depth, per-tenant quota),
hands back a job ID, and wakes a dispatcher; the dispatcher claims it with
``next_job``, executes it against a replica, and settles it with
``finish``/``fail`` — or puts it back with ``requeue`` when the replica
died under it, burning one unit of the job's retry budget.  Completed,
failed, and cancelled jobs stay pollable until their TTL expires; ``reap``
(called opportunistically from submits and the router's monitor loop)
evicts them.

States::

    queued ──▶ running ──▶ done
       │          │  ╰───▶ failed        (error / retry budget exhausted)
       │          ╰──────▶ queued        (requeue after a replica crash)
       ╰───▶ cancelled                   (cancel while queued; running jobs
                                          honor cancel at settle time)

Every transition is lock-protected and counted in a
:class:`repro.parallel.observe.JobCounters` (the ``jobs`` metrics block).
"""

from __future__ import annotations

import secrets
import threading
import time
from collections import deque
from dataclasses import asdict, dataclass, field

from repro import wire
from repro.cluster.quotas import QuotaExceeded, TenantQuotas
from repro.parallel.observe import JobCounters

#: Terminal job states (pollable until the TTL reaper evicts them).
TERMINAL_STATES = ("done", "failed", "cancelled")

#: Default seconds a settled job stays pollable.
DEFAULT_RESULT_TTL_S = 600.0

#: Default cap on queued-but-unclaimed jobs (admission control).
DEFAULT_MAX_DEPTH = 256

#: Default re-dispatch budget after replica crashes/timeouts.
DEFAULT_MAX_RETRIES = 2


class AdmissionError(Exception):
    """Submit rejected (queue saturated or tenant over quota) → HTTP 429.

    ``retry_after_s`` is the server's backoff hint (the ``Retry-After``
    response header).
    """

    def __init__(self, reason: str, retry_after_s: float) -> None:
        super().__init__(reason)
        self.reason = reason
        self.retry_after_s = retry_after_s


@dataclass
class Job:
    """One unit of work flowing through the queue."""

    id: str
    kind: str  # "compile" | "run" | "lint"
    body: dict
    tenant: str
    #: A run's request bytes (JSON body or wire frame), forwarded
    #: verbatim; ``body`` holds the request minus its arrays.  Both are
    #: dropped when the job settles: only a retry reads them.
    raw_body: bytes | None = None
    state: str = "queued"
    submitted_at: float = 0.0  # time.time(), for clients
    started_at: float | None = None
    finished_at: float | None = None
    #: Dispatch attempts so far (1 on the first execution).
    attempts: int = 0
    max_retries: int = DEFAULT_MAX_RETRIES
    result: dict | None = None
    #: A run's reply bytes as the replica sent them (JSON or wire, per
    #: ``result_content_type``); set instead of ``result``.
    result_raw: bytes | None = None
    result_content_type: str | None = None
    error: str | None = None
    #: HTTP status to relay for client-caused failures (4xx from a replica).
    error_status: int | None = None
    #: Why the job needed degrading (last transient replica failure).
    fallback_reason: str | None = None
    #: Replica index of the current/most recent execution.
    replica: int | None = None
    cancel_requested: bool = False
    _done: threading.Event = field(default_factory=threading.Event, repr=False)
    _settled_mono: float | None = field(default=None, repr=False)

    @property
    def retries(self) -> int:
        """Re-dispatches that actually happened (attempts beyond the first)."""
        return max(0, self.attempts - 1)

    def wait(self, timeout: float | None = None) -> bool:
        """Block until the job settles (done/failed/cancelled)."""
        return self._done.wait(timeout)

    def describe(self, with_result: bool = False) -> dict:
        doc = {
            "job_id": self.id,
            "kind": self.kind,
            "tenant": self.tenant,
            "state": self.state,
            "attempts": self.attempts,
            "retries": self.retries,
            "max_retries": self.max_retries,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "replica": self.replica,
            "error": self.error,
            "fallback_reason": self.fallback_reason,
        }
        if self.result_content_type == wire.CONTENT_TYPE:
            doc["result_encoding"] = "wire"
            doc["result_nbytes"] = len(self.result_raw)
        if with_result:
            doc["result"] = self.result
        return doc


class JobQueue:
    """Thread-safe bounded FIFO of jobs with quotas, TTLs, and retries."""

    def __init__(
        self,
        max_depth: int = DEFAULT_MAX_DEPTH,
        max_retries: int = DEFAULT_MAX_RETRIES,
        result_ttl_s: float = DEFAULT_RESULT_TTL_S,
        quotas: TenantQuotas | None = None,
    ) -> None:
        self.max_depth = max_depth
        self.max_retries = max_retries
        self.result_ttl_s = result_ttl_s
        self.quotas = quotas or TenantQuotas()
        self.counters = JobCounters()
        self._jobs: dict[str, Job] = {}
        self._queued: deque[Job] = deque()
        self._cond = threading.Condition()
        #: EWMA of job service time, feeding the Retry-After hint.
        self._service_ewma_s = 0.05

    # -- admission ---------------------------------------------------------
    def retry_after_hint(self) -> float:
        """Seconds a rejected client should back off: the queue's current
        backlog times the measured per-job service time, clamped sane."""
        with self._cond:
            depth = len(self._queued)
        return min(30.0, max(1.0, depth * self._service_ewma_s))

    def submit(
        self,
        kind: str,
        body: dict,
        tenant: str = "anon",
        max_retries: int | None = None,
        raw_body: bytes | None = None,
    ) -> Job:
        """Admit a job or raise :class:`AdmissionError` (→ 429).

        ``raw_body`` attaches a run's request bytes (JSON or wire) that
        dispatchers forward verbatim; ``body`` then carries only the
        fields admission and routing read (the request minus arrays).
        """
        self.reap()
        hint = self.retry_after_hint()
        with self._cond:
            if self.max_depth > 0 and len(self._queued) >= self.max_depth:
                self.counters.rejected += 1
                raise AdmissionError(
                    f"queue saturated ({len(self._queued)} jobs deep, "
                    f"max_depth={self.max_depth})",
                    hint,
                )
            try:
                self.quotas.acquire(tenant)
            except QuotaExceeded as exc:
                self.counters.rejected += 1
                raise AdmissionError(str(exc), hint) from exc
            job = Job(
                id=f"j-{secrets.token_hex(8)}",
                kind=kind,
                body=body,
                tenant=tenant,
                raw_body=raw_body,
                submitted_at=time.time(),
                max_retries=(
                    self.max_retries if max_retries is None else max_retries
                ),
            )
            self._jobs[job.id] = job
            self._queued.append(job)
            self.counters.submitted += 1
            self._cond.notify()
        return job

    # -- dispatch ----------------------------------------------------------
    def next_job(self, timeout: float | None = None) -> Job | None:
        """Claim the oldest queued job (state → running); None on timeout."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            while True:
                while self._queued:
                    job = self._queued.popleft()
                    if job.state != "queued":  # cancelled while queued
                        continue
                    job.state = "running"
                    job.attempts += 1
                    if job.started_at is None:
                        job.started_at = time.time()
                    return job
                if deadline is None:
                    self._cond.wait()
                else:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return None
                    self._cond.wait(remaining)

    def unclaim(self, job: Job) -> None:
        """Return a claimed job to the queue untouched (no retry burned,
        no counters moved) — a dispatcher that noticed it is paused after
        winning the claim race puts the job back with this."""
        with self._cond:
            if job.state != "running":
                return
            job.attempts -= 1
            if job.attempts == 0:
                job.started_at = None
            job.state = "queued"
            self._queued.appendleft(job)
            self._cond.notify()

    def requeue(self, job: Job, reason: str) -> bool:
        """Put a running job back after a transient replica failure.

        Burns one retry; returns False (and fails the job) once the
        budget is exhausted or cancellation was requested meanwhile.
        """
        with self._cond:
            if job.cancel_requested:
                self._settle(job, "cancelled")
                self.counters.cancelled += 1
                return False
            job.fallback_reason = reason
            if job.retries >= job.max_retries:
                job.error = (
                    f"retry budget exhausted after {job.attempts} "
                    f"attempts: {reason}"
                )
                self._settle(job, "failed")
                self.counters.failed += 1
                return False
            job.state = "queued"
            self._queued.appendleft(job)  # retries jump the line
            self.counters.retried += 1
            self._cond.notify()
            return True

    def finish(
        self,
        job: Job,
        result: dict | bytes,
        content_type: str | None = None,
    ) -> None:
        """Settle a job as done.  ``result`` is either the decoded dict
        (compile, lint) or a run's verbatim reply bytes, which
        ``content_type`` labels (JSON or wire)."""
        with self._cond:
            if job.cancel_requested:
                self._settle(job, "cancelled")
                self.counters.cancelled += 1
                return
            if isinstance(result, (bytes, bytearray)):
                job.result_raw = bytes(result)
                job.result_content_type = content_type
            else:
                job.result = result
            self._settle(job, "done")
            self.counters.completed += 1

    def fail(
        self, job: Job, error: str, status: int | None = None
    ) -> None:
        with self._cond:
            if job.cancel_requested:
                self._settle(job, "cancelled")
                self.counters.cancelled += 1
                return
            job.error = error
            job.error_status = status
            self._settle(job, "failed")
            self.counters.failed += 1

    def _settle(self, job: Job, state: str) -> None:
        """Terminal transition (caller holds the lock)."""
        was_settled = job.state in TERMINAL_STATES
        job.state = state
        job.finished_at = time.time()
        job._settled_mono = time.monotonic()
        job.body, job.raw_body = {}, None  # only a retry would read them
        if not was_settled:
            self.quotas.release(job.tenant)
            if job.started_at is not None:
                self._service_ewma_s = (
                    0.8 * self._service_ewma_s
                    + 0.2 * max(0.0, job.finished_at - job.started_at)
                )
        job._done.set()

    # -- client-facing lookups --------------------------------------------
    def get(self, job_id: str) -> Job | None:
        with self._cond:
            return self._jobs.get(job_id)

    def cancel(self, job_id: str) -> Job | None:
        """Cancel a job: immediate while queued, best-effort while running
        (the in-flight execution completes but its result is discarded)."""
        with self._cond:
            job = self._jobs.get(job_id)
            if job is None:
                return None
            if job.state == "queued":
                try:
                    # Drop the carcass so it stops occupying admission depth.
                    self._queued.remove(job)
                except ValueError:  # pragma: no cover - claim race
                    pass
                self._settle(job, "cancelled")
                self.counters.cancelled += 1
            elif job.state == "running":
                job.cancel_requested = True
            return job

    def forget(self, job: Job) -> None:
        """Drop a job from the table (a settled synchronous job, whose
        id no client holds)."""
        with self._cond:
            self._jobs.pop(job.id, None)

    # -- gauges / maintenance ---------------------------------------------
    def depth(self) -> int:
        """Queued-but-unclaimed jobs (the admission gauge)."""
        with self._cond:
            return sum(1 for j in self._queued if j.state == "queued")

    def states(self) -> dict[str, int]:
        with self._cond:
            gauge: dict[str, int] = {}
            for job in self._jobs.values():
                gauge[job.state] = gauge.get(job.state, 0) + 1
            return gauge

    def reap(self) -> int:
        """Evict settled jobs older than the TTL; returns evictions."""
        if self.result_ttl_s is None:
            return 0
        now = time.monotonic()
        evicted = 0
        with self._cond:
            for job_id in [
                jid
                for jid, j in self._jobs.items()
                if j.state in TERMINAL_STATES
                and j._settled_mono is not None
                and now - j._settled_mono > self.result_ttl_s
            ]:
                del self._jobs[job_id]
                self.counters.expired += 1
                evicted += 1
        return evicted

    def stats(self) -> dict:
        """The ``jobs`` metrics block: monotonic counters + live gauges."""
        return {
            **asdict(self.counters),
            "depth": self.depth(),
            "states": self.states(),
            "service_ewma_s": round(self._service_ewma_s, 6),
        }
