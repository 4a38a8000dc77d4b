"""The persistent worker pool: spawn once, dispatch many times.

Paying one fleet of ``fork``/``spawn`` calls, one fresh queue, and one
chunk-source compile *per dispatched DOALL* makes a hybrid program like
Gauss–Jordan (one dispatch per pivot row) process-creation bound —
exactly the per-dispatch scheduling overhead the paper's coalescing
transformation exists to amortize (the ruler's ``nest_dispatch``
workload measures what is left of it).  A :class:`WorkerPool` — the one
engine under :func:`repro.parallel.runtime.run_parallel_procedure`,
created for a run or borrowed warm from its caller — moves all of that
to setup time:

* worker processes are spawned **once**, with the shared-memory array
  views and the (resettable) shared claim counter already attached;
* each dispatch is then one lightweight job descriptor per worker over a
  private queue, plus the implicit barrier of gathering one result
  message per worker — no fork, no re-attach, no new segments;
* chunk functions are cached by source text on both sides
  (:func:`repro.codegen.pygen.compile_chunk_source` is memoized), so a
  loop shape dispatched N times is generated and compiled once.

A program that qualifies for the SPMD region
(:mod:`repro.parallel.region`) goes one step further: its whole run is
*one* dispatch, during which the workers synchronise among themselves at
a native barrier and the parent only waits.

The robustness contract: a worker that raises or dies marks the pool
*broken*, stops the region barrier (a survivor parked there would never
report), terminates the fleet, and raises :class:`WorkerCrashError`; a
deadline overrun kills the fleet and raises
:class:`ParallelTimeoutError`; and the shared-memory segments the pool
owns are unlinked on ``close()``/``__exit__`` no matter how the run
ended.
"""

from __future__ import annotations

import multiprocessing
import queue as queue_mod
import time
from typing import Callable, Mapping

import numpy as np

from repro.parallel.counter import SharedClaimCounter
from repro.parallel.errors import (
    ParallelError,
    ParallelTimeoutError,
    WorkerCrashError,
)
from repro.parallel.shm import SharedArrayPool
from repro.parallel.worker import pool_worker_main

#: Seconds allowed for result-queue feeders to flush after every pending
#: worker has exited, before the survivors are declared crashed.
GATHER_GRACE = 1.0


def mp_context() -> multiprocessing.context.BaseContext:
    """The multiprocessing context the runtime uses (fork where possible)."""
    try:  # fork is fastest and fine for these self-contained workers
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context("spawn")


def resolve_workers(requested) -> int:
    """A worker count: an integer >= 1.

    A bool, a float or a value below 1 raises :class:`ValueError` —
    never a silent floor to 1, so a reported count is the one that ran.
    """
    if (
        isinstance(requested, bool)
        or not isinstance(requested, (int, np.integer))
        or requested < 1
    ):
        raise ValueError(f"workers must be an integer >= 1 (got {requested!r})")
    return int(requested)


def terminate_procs(procs: list) -> None:
    """Terminate (then kill) every still-alive process, reaping them all."""
    for p in procs:
        if p.is_alive():
            p.terminate()
    for p in procs:
        p.join(timeout=1.0)
    for p in procs:
        if p.is_alive():  # pragma: no cover - terminate() refused
            p.kill()
            p.join(timeout=1.0)


def gather_results(
    procs: list,
    q,
    deadline: float | None,
    want: set[int],
    key: Callable = lambda msg: msg[1],
) -> dict:
    """Collect one result message per worker id in ``want``.

    ``key`` maps a queue message to the worker id it accounts for (return
    None to discard stale traffic).  Watches for crashes: once *any*
    pending worker has exited (or any worker has reported an error, after
    which it exits), a short grace period lets the queue feeders flush,
    the queue is drained one final time — a worker that exited cleanly
    right after posting its result is counted from the message log, never
    misclassified by its exit code — and only then are the messageless
    dead marked ``("dead", wid, exitcode)`` and the gather ends,
    survivors or not: a peer waiting for the lost worker at a region
    barrier would never report (the caller terminates the fleet).
    """
    results: dict[int, tuple] = {}
    pending = set(want)
    grace_until: float | None = None

    def take(msg) -> None:
        wid = key(msg)
        if wid in pending:
            results[wid] = msg
            pending.discard(wid)

    def lost() -> bool:
        return any(not procs[w].is_alive() for w in pending) or any(
            m[0] == "err" for m in results.values()
        )

    while pending:
        now = time.monotonic()
        if deadline is not None and now > deadline:
            raise ParallelTimeoutError(
                f"parallel run exceeded its deadline with {len(pending)} "
                "worker(s) still running"
            )
        try:
            msg = q.get(timeout=0.05)
        except queue_mod.Empty:
            if lost():
                if grace_until is None:
                    grace_until = now + GATHER_GRACE
                elif now > grace_until:
                    # Message log first: drain anything the feeders
                    # flushed between our last get() and now.
                    while pending:
                        try:
                            take(q.get_nowait())
                        except queue_mod.Empty:
                            break
                    if lost():
                        for w in pending:
                            if not procs[w].is_alive():
                                results[w] = ("dead", w, procs[w].exitcode)
                        break
                    grace_until = None
            continue
        take(msg)
    return results


def raise_worker_crashes(results: Mapping[int, tuple], procs: list) -> None:
    """Raise :class:`WorkerCrashError` if any worker errored or died.

    ``results`` holds one message per worker: ``("ok", wid, ...)``,
    ``("err", wid, ..., traceback)``, or ``("dead", wid, exitcode)`` — or
    none at all for a worker that was still running when a peer's death
    ended the gather.
    """
    crashes = []
    for wid in range(len(procs)):
        msg = results.get(wid)
        if msg is None:
            continue
        if msg[0] == "dead":
            crashes.append(f"worker {wid}: died (exitcode {msg[2]})")
        elif msg[0] == "err":
            crashes.append(f"worker {wid}:\n{msg[-1]}")
    if crashes:
        raise WorkerCrashError(
            "parallel DOALL failed in {} worker(s):\n{}".format(
                len(crashes), "\n".join(crashes)
            )
        )


class WorkerPool:
    """A resident fleet of worker processes over one shared array pool.

    Usage::

        with WorkerPool(arrays, workers=4) as pool:
            results = pool.dispatch(job, lo, hi, deadline)
            ...more dispatches, same processes...
            pool.copy_back(arrays)      # only on success
        # workers stopped, segments unlinked here — success or not

    ``dispatch`` is a barrier: it returns only once every worker has
    reported on the current job, so the shared counter can be safely
    reset for the next loop range and the parent may run serial program
    segments over ``views`` between dispatches.  (A region job is a
    whole run: between *its* DOALL instances the workers re-arm the
    counter themselves.)

    Workers start from :func:`mp_context` (fork where possible); ``ctx``
    supplies another multiprocessing context — e.g. ``spawn`` — and is
    how a caller runs the driver under it (``run_parallel_procedure(...,
    pool=WorkerPool(arrays, ctx=...))``).
    """

    def __init__(
        self,
        arrays: Mapping[str, np.ndarray],
        workers: int = 4,
        ctx: multiprocessing.context.BaseContext | None = None,
    ) -> None:
        self.ctx = ctx or mp_context()
        self.workers = resolve_workers(workers)
        self._closed = False
        self._broken = False
        self._seq = 0
        self.shared = SharedArrayPool(arrays)
        started: list = []
        try:
            # Created drained; dispatch() re-arms it per loop range.
            # (Synchronized objects only cross the process boundary at
            # spawn time, which is why one resettable counter serves
            # every dispatch.)
            self.counter = SharedClaimCounter(0, -1, self.ctx)
            self._jobs = [self.ctx.SimpleQueue() for _ in range(self.workers)]
            self._results = self.ctx.Queue()
            specs = self.shared.specs()
            self._procs = [
                self.ctx.Process(
                    target=pool_worker_main,
                    args=(wid, specs, self.counter, self._jobs[wid], self._results),
                    name=f"repro-pool-{wid}",
                    daemon=True,
                )
                for wid in range(self.workers)
            ]
            for p in self._procs:
                p.start()
                started.append(p)
        except BaseException:
            # A worker that did start is attached to the segments and
            # blocked on its job queue: reap it before they are unlinked,
            # or it outlives this failed constructor until the parent exits.
            terminate_procs(started)
            self.shared.close()
            raise

    # -- array plumbing (delegated to the owned SharedArrayPool) ----------
    @property
    def views(self) -> dict[str, np.ndarray]:
        """Parent-side shm-backed ndarrays (shared with every worker)."""
        return self.shared.views

    def copy_back(self, arrays: Mapping[str, np.ndarray]) -> None:
        """Copy shared results back into the caller's arrays."""
        self.shared.copy_back(arrays)

    def load(self, arrays: Mapping[str, np.ndarray]) -> None:
        """Load a new request's arrays into the shared views (warm reuse)."""
        self.shared.load(arrays)

    # -- dispatch ---------------------------------------------------------
    def dispatch(
        self,
        job: dict,
        lo: int,
        hi: int,
        deadline: float | None = None,
    ) -> dict[int, tuple]:
        """Run one DOALL dispatch on the resident fleet.

        Re-arms the shared counter for ``[lo, hi]`` (dynamic plans only),
        sends ``job`` to every worker, and gathers one result message per
        worker.  Returns ``results``, mapping worker id to the worker's own
        ``("ok", wid, seq, report)`` message — ``report`` the same dict on
        both claim protocols (:func:`repro.parallel.worker._report`: the
        ``rec``/``tim`` tables, the packed claim log, the chunk language
        run), which :func:`repro.parallel.region._assemble` folds.  A crash
        or timeout terminates the fleet, marks the pool broken, and raises.
        """
        if self._closed:
            raise ParallelError("worker pool is closed")
        if self._broken:
            raise ParallelError(
                "worker pool is broken (a previous dispatch crashed or "
                "timed out)"
            )
        if "region" in job:
            # One job for the whole run: the workers arm the counter
            # themselves, at their barrier (repro.parallel.region).
            self.counter.reset_barrier()
        elif job["plan"].rule is not None:
            self.counter.reset(lo, hi)
        self._seq += 1
        seq = self._seq

        def key(msg):
            # ok/err messages carry (kind, wid, seq, ...); ignore ok
            # traffic from any earlier dispatch (cannot normally occur —
            # dispatch is a barrier — but a stale message must never
            # corrupt accounting).  err messages always count: a worker
            # that failed before taking its first job reports seq None.
            if msg[0] == "err":
                return msg[1]
            return msg[1] if msg[2] == seq else None

        try:
            for q in self._jobs:
                q.put(("job", seq, job))
            results = gather_results(
                self._procs,
                self._results,
                deadline,
                set(range(self.workers)),
                key=key,
            )
            raise_worker_crashes(results, self._procs)
        except BaseException:
            self._broken = True
            self.counter.stop_barrier()
            terminate_procs(self._procs)
            raise
        return results

    # -- lifecycle --------------------------------------------------------
    @property
    def broken(self) -> bool:
        return self._broken

    def close(self) -> None:
        """Stop the workers and unlink every shared segment (idempotent)."""
        if self._closed:
            return
        self._closed = True
        if not self._broken:
            for q in self._jobs:
                try:
                    q.put(("stop",))
                except Exception:  # pragma: no cover - worker already gone
                    pass
            for p in self._procs:
                p.join(timeout=2.0)
        terminate_procs(self._procs)
        # Unblock and reap the result queue's feeder thread before the
        # segments go away.
        try:
            self._results.close()
            self._results.join_thread()
        except Exception:  # pragma: no cover - defensive
            pass
        self.shared.close()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:  # last-resort safety net
        try:
            self.close()
        except Exception:  # pragma: no cover - interpreter shutdown
            pass
