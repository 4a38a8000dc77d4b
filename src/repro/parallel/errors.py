"""Exception hierarchy of the process-parallel runtime.

Lives in its own module so both layers of the runtime — the dispatch
drivers (:mod:`repro.parallel.runtime`) and the persistent worker pool
(:mod:`repro.parallel.pool`) — can raise the same types without importing
each other.  The public import path is unchanged: every class is
re-exported from :mod:`repro.parallel` and :mod:`repro.parallel.runtime`.
"""

from __future__ import annotations


class ParallelError(Exception):
    """Base class for process-parallel runtime failures."""


class ParallelDispatchError(ParallelError):
    """The procedure cannot be dispatched (e.g. outer loop is not DOALL)."""


class SafetyVerificationError(ParallelDispatchError):
    """The safety verdict refused every dispatch: no loop is proven race-free.

    Raised *before* any worker process is created, so the caller (e.g. the
    mp backend's serial-fallback path) can rerun the procedure serially and
    record the refusal reason.
    """


class WorkerCrashError(ParallelError):
    """A worker process raised or died; peers were terminated cleanly."""


class ParallelTimeoutError(ParallelError):
    """The run exceeded its deadline; workers were killed."""
