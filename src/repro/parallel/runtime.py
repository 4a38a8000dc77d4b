"""The process-parallel driver for coalesced procedures.

:func:`run_parallel_procedure` is the one way into the process-parallel
runtime.  Every dispatchable DOALL — top-level or nested under serial
control flow — is handed to worker processes, everything else runs
serially in the parent over the same shared-memory views: arrays move
into shared memory once, workers claim chunks through the shared
fetch&add counter, and the parent copies results back on success.
Coalescing makes a nest one flat DOALL, so a single-loop procedure is
simply a procedure whose run has one dispatch.  A *hybrid* program
(e.g. Gauss–Jordan) performs one dispatch per serial-outer iteration
(one per pivot row) — unless it qualifies for the native SPMD region
(:mod:`repro.parallel.region`), where the workers run the serial loops
themselves and the whole run is a single fork/join.

A call is plan → dispatch → combine.  Everything decidable before the
data arrives — validation, the safety verdict, each loop's strategy,
chunk sources, kernel builds, the region — lives in a
prepared :class:`~repro.parallel.plan.Plan`, built by the first call of
a procedure and run shape and reused by every later one; a warm call only
fills in scalars, trip counts and claim batches, dispatches, combines and
copies back (:mod:`repro.parallel.dispatch`).
This module keeps the public driver, the ``resolve_*`` helpers and the
result types.

Every dispatch goes through one engine, the persistent
:class:`repro.parallel.pool.WorkerPool`: workers spawn once per run (or
are borrowed from a caller that keeps a warm fleet — the server's
per-shape pools), each dispatch is a job message plus a gather barrier,
and the shared claim counter is reset between loops instead of
recreated.  (A spawn-per-dispatch engine preceded it; DESIGN.md keeps
the reason it is gone.)

The claim batch — chunks handed out per claim — is derived, never
requested: unit/fixed self-scheduling takes ``min(64, chunks //
(8·active))`` chunks per claim, at least 1
(:func:`repro.parallel.dispatch._resolve_claim_batch`); GSS keeps its
one-chunk atomic read-of-remaining semantics (see
:meth:`repro.parallel.counter.SharedClaimCounter.claim_batch`).

Each dispatch drives the shared counter through exactly one claim
protocol, reported as ``ParallelRunResult.claim_loop``: ``"native"`` —
dynamic plans with C kernels; every worker enters a region driver once
(:mod:`repro.parallel.region`) and claims with hardware atomics — ``"py"``
— the Python loop around the lock-guarded counter, for everything else —
or ``"static"`` (no counter).  The choice follows from what could be
bound, never from a setting: if a worker cannot bind the driver, nothing
has run, the work goes out once on the Python protocol, the rest of the
run stays there, and the plan is dropped.  Claim logs come back raw and
become :class:`ClaimEvent` objects only when ``ParallelRunResult.events``
is read.

Robustness contract:

* the procedure is validated and checked for a dispatchable (DOALL,
  unit-step) loop *before* any process or segment is created —
  :class:`ParallelDispatchError` otherwise — and a run the safety
  verdict refuses outright raises :class:`SafetyVerificationError` at
  the same point;
* a worker that raises (or dies) triggers termination of its peers and a
  :class:`WorkerCrashError` carrying the worker traceback;
* a per-run ``timeout`` kills the fleet and raises
  :class:`ParallelTimeoutError` (the ``backend="mp"`` adapter turns this
  into a graceful serial fallback);
* shared-memory segments are unlinked on **every** exit path — success,
  crash, or timeout — on pool close / context-manager exit, so
  ``/dev/shm`` never accumulates garbage.

Accounting: a run's result carries every fact ``/metrics`` counts of it,
and :func:`repro.parallel.observe.record_run` folds it once, when the run
returns (or is refused: then only its verdict and blocked loops count).
A run that raises after its plan is built records nothing.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from repro.analysis.safety import dispatchable

# The plan builder and the dispatcher resolve these through this module's
# namespace at call time: it is where the ruler's tracer
# (benchmarks/e2e/trace.py) wraps them and where tests patch them.
from repro.codegen.cgen import THUNK_SUFFIX, generate_chunk_c  # noqa: F401
from repro.codegen.cload import (  # noqa: F401
    claim_loop_library,
    compile_chunk_library,
    have_compiler,
)
from repro.ir.stmt import Block, If, Loop, Procedure, Stmt
from repro.parallel.errors import (
    ParallelDispatchError,
    ParallelError,
    ParallelTimeoutError,
    SafetyVerificationError,
    WorkerCrashError,
)
from repro.parallel.observe import record_run
from repro.parallel.pool import WorkerPool, resolve_workers
from repro.runtime import inspector
from repro.scheduling.policies import SchedulingPolicy

__all__ = [
    "SAFETY_MODES",
    "ClaimEvent",
    "ParallelDispatchError",
    "ParallelError",
    "ParallelProcedureResult",
    "ParallelRunResult",
    "ParallelTimeoutError",
    "SafetyVerificationError",
    "WorkerCrashError",
    "resolve_safety",
    "resolve_timeout",
    "run_parallel_procedure",
]


#: The chunk-safety modes a run may request; None means ``"inspect"``.
SAFETY_MODES = ("inspect", "off")


def _claim_batch_is_derived(claim_batch) -> None:
    """Refuse every claim batch but ``"auto"``, the rule itself: the batch
    is derived per dispatch, never requested (:class:`ValueError`)."""
    if claim_batch != "auto":
        raise ValueError(
            f"'claim_batch' must be 'auto' (got {claim_batch!r}): the "
            "claim batch is derived, never requested"
        )


def resolve_timeout(requested) -> float | None:
    """None (no deadline), or a per-run timeout in seconds: a number > 0.

    A bool, a string, zero, a negative value or NaN raises
    :class:`ValueError` before any pool exists — never a fleet forked
    only to time out (which ``backend="mp"`` would turn into a silent
    serial fallback on every call).
    """
    if requested is None:
        return None
    if (
        isinstance(requested, bool)
        or not isinstance(requested, (int, float, np.integer, np.floating))
        or not requested > 0
    ):
        raise ValueError(f"timeout must be a number > 0 (got {requested!r})")
    return float(requested)


def resolve_safety(requested: str | None) -> str:
    """``"inspect"`` (also for None) or ``"off"``; anything else, the
    retired ``"warn"`` and ``"enforce"`` included, raises
    :class:`ValueError` before any pool exists.

    ``"inspect"`` never dispatches a loop the verifier cannot prove
    race-free: the runtime inspector decides the unproven loops it can,
    the rest run serially with their rule codes, and a run left with
    nothing to dispatch raises :class:`SafetyVerificationError`.
    ``"off"`` skips verification and dispatches every loop as tagged, for
    loops parallel by an argument the verifier cannot make.
    """
    # "speculate", the old name of "inspect", stays only while the
    # end-to-end benchmark (benchmarks/e2e/workloads.py) still passes it.
    if requested is None or requested == "speculate":
        return "inspect"
    if requested not in SAFETY_MODES:
        raise ValueError(
            "safety must be 'inspect' (the default) or 'off' "
            f"(got {requested!r})"
        )
    return requested


@dataclass(frozen=True)
class ClaimEvent:
    """One executed chunk: who claimed it, what range, when (run-relative)."""

    worker: int
    lo: int
    hi: int  # inclusive loop values
    t_claim: float  # claim issued (seconds from run start)
    t_work: float  # claim granted, body work begins
    t_end: float  # chunk finished

    @property
    def size(self) -> int:
        return self.hi - self.lo + 1


@dataclass
class ParallelRunResult:
    """Measured outcome of one parallel DOALL dispatch."""

    loop_var: str
    lo: int
    hi: int
    workers: int
    policy: str
    wall_time: float
    iterations_per_worker: list[int]
    claims: int
    #: The workers' claim logs as shipped: ``(worker, rows)`` pairs, rows
    #: being the bytes of an ``(n, 5)`` float64 array of ``lo, hi,
    #: t_claim, t_work, t_end`` on the monotonic clock — on both claim
    #: protocols.  Kept raw — :attr:`events` is the readable form, built
    #: only if someone asks.
    event_log: list = field(default_factory=list, repr=False, compare=False)
    #: The monotonic-clock instant the dispatch started: its workers'
    #: earliest start (``event_log`` times are absolute; :attr:`events`
    #: reports them relative to this).  ``wall_time`` runs from here to
    #: their latest finish.
    t_base: float = field(default=0.0, repr=False, compare=False)
    #: Counter critical sections (or, on the native protocol, atomic
    #: claims) that granted work; < ``claims`` when claims were batched,
    #: 0 for static plans (no shared counter at all).
    lock_ops: int = 0
    #: Chunk language the workers actually executed: ``"c"`` (every worker
    #: ran the native kernel), ``"numpy"`` (whole-slice vectorized),
    #: ``"py"``, or ``"mixed"`` (some workers degraded mid-fleet).
    chunk_lang: str = "py"
    #: Chunks claimed per counter critical section: the value of the
    #: batch rule for this dispatch (1 under GSS and static plans).
    claim_batch: int = 1
    #: Set when this dispatch ran through the partial-accumulator
    #: reduction engine: the accumulator's name and its folded final
    #: value (also written back into the caller's scalar environment).
    reduction_scalar: str | None = None
    reduction_value: float | None = None
    #: The plan wanted the C kernel and this dispatch ran a lower rung:
    #: the kernel did not build, or a worker could not bind it.
    chunk_fallback: bool = False
    #: Which claim protocol drove the shared counter: ``"native"`` (the C
    #: claim loop under a region driver — hardware atomics, one crossing
    #: into C per worker per job),
    #: ``"py"`` (the Python loop around the lock-guarded counter), or
    #: ``"static"`` (precomputed chunk lists, no counter).  One per
    #: dispatch, never two (:mod:`repro.parallel.counter`).
    claim_loop: str = "py"

    @functools.cached_property
    def events(self) -> list[ClaimEvent]:
        """Every executed chunk as a :class:`ClaimEvent`, sorted by
        ``(worker, t_claim)``, times relative to the dispatch start.

        Materialized from :attr:`event_log` on first access and cached: a
        fine-grained dispatch logs tens of thousands of claims, and a
        caller that never reads them should not pay for as many objects.
        Empty when the run was made with ``log_events=False``.
        """
        t_base = self.t_base
        events = []
        for wid, rows in self.event_log:
            rows = np.frombuffer(rows).reshape(-1, 5).tolist()
            for lo, hi, t0, t1, t2 in rows:
                events.append(
                    ClaimEvent(
                        wid, int(lo), int(hi),
                        t0 - t_base, t1 - t_base, t2 - t_base,
                    )
                )
        events.sort(key=lambda e: (e.worker, e.t_claim))
        return events

    @property
    def total_iterations(self) -> int:
        return sum(self.iterations_per_worker)

    def to_sim_result(self):
        """Measured schedule as a :class:`repro.machine.trace.SimResult`."""
        from repro.parallel.observe import to_sim_result

        return to_sim_result(self)

    def gantt(self, width: int = 50, time_scale: float = 1e6) -> str:
        """Text Gantt chart of the *measured* schedule (default: µs)."""
        from repro.machine.gantt import render_gantt
        from repro.parallel.observe import to_sim_result

        return render_gantt(to_sim_result(self, time_scale), width=width)


@dataclass
class ParallelProcedureResult:
    """Outcome of a whole-procedure run: one entry per dispatched DOALL.

    The one record of a run: ``/metrics`` folds it
    (:func:`repro.parallel.observe.record_run`) and ``/run`` reports it
    (:meth:`to_dict`).
    """

    wall_time: float
    dispatches: list[ParallelRunResult] = field(default_factory=list)
    #: Chunk-safety mode the run executed under ("inspect" or "off").
    safety_mode: str = "off"
    #: The plan's :class:`~repro.analysis.safety.SafetyReport`, shared by
    #: every run of the procedure and never changed by one (None when
    #: ``safety_mode == "off"``).
    safety: object | None = field(default=None, repr=False)
    #: Dispatches of unproven loops executed serially instead: refused
    #: by the verdict, or refuted by the inspector.
    blocked_dispatches: int = 0
    #: This run's certificate of each dispatch the inspector addressed,
    #: in run order — a
    #: :class:`~repro.runtime.inspector.InspectionResult`.  Proven ones
    #: dispatched normally; the rest ran serially and count as blocked.
    certificates: list = field(default_factory=list, repr=False)
    #: Dispatches executed through the partial-accumulator reduction
    #: engine (recognized ``s := s ⊕ expr`` loops).
    reductions: int = 0
    #: How a program with a DOALL under a serial loop ran: ``"native"``
    #: (one SPMD region, :mod:`repro.parallel.region`) or the rule-coded
    #: reason it ran per dispatch; None for programs with no such nest.
    region: str | None = None
    #: Native jobs a worker could not enter: each went out again on the
    #: lock-guarded protocol (:func:`repro.parallel.region.enter`).
    claim_fallbacks: int = 0

    @property
    def fork_joins(self) -> int:
        """Fork/joins of the fleet: one for a region, else one per dispatch."""
        return 1 if self.region == "native" else len(self.dispatches)

    @property
    def inspected(self) -> int:
        """Dispatches the inspector addressed."""
        return len(self.certificates)

    @property
    def proven_dynamic(self) -> int:
        """Inspected dispatches it proved (and that then dispatched)."""
        return sum(c.proven for c in self.certificates)

    @property
    def claims(self) -> int:
        return sum(d.claims for d in self.dispatches)

    @property
    def lock_ops(self) -> int:
        return sum(d.lock_ops for d in self.dispatches)

    @property
    def total_iterations(self) -> int:
        return sum(d.total_iterations for d in self.dispatches)

    @property
    def chunk_lang(self) -> str:
        """Aggregate chunk language across dispatches
        (``c``/``numpy``/``py``/``mixed``)."""
        return _aggregate({d.chunk_lang for d in self.dispatches})

    @property
    def claim_loop(self) -> str:
        """Aggregate claim protocol across dispatches
        (``native``/``py``/``static``/``mixed``)."""
        return _aggregate({d.claim_loop for d in self.dispatches})

    def to_dict(self) -> dict:
        """The run's ``/run`` statistics: the same record
        :func:`~repro.parallel.observe.record_run` folds into ``/metrics``."""
        stats = {
            "dispatches": len(self.dispatches),
            "fork_joins": self.fork_joins,
            "region": self.region,
            "claims": self.claims,
            "lock_ops": self.lock_ops,
            "iterations": self.total_iterations,
            "chunk_lang": self.chunk_lang,
            "claim_loop": self.claim_loop,
            "safety": self.safety_mode,
            "blocked_dispatches": self.blocked_dispatches,
            "reductions": self.reductions,
        }
        if self.safety_mode == "inspect":
            stats["inspect"] = {
                "inspected": self.inspected,
                "proven_dynamic": self.proven_dynamic,
                "certificates": [c.to_dict() for c in self.certificates],
            }
        return stats


def _empty_result(loop: Loop, lo: int, hi: int, workers: int, policy):
    """The result of a DOALL whose range is empty: nothing was sent."""
    name = policy if isinstance(policy, str) else policy.name
    return ParallelRunResult(
        loop.var, lo, hi, workers, name, 0.0, [0] * workers, 0
    )


def _aggregate(values: set[str]) -> str:
    """One label for a set of per-worker / per-dispatch labels."""
    if not values:
        return "py"
    if len(values) == 1:
        return next(iter(values))
    return "mixed"


def _contains_dispatchable(stmt: Stmt) -> bool:
    """Does this statement tree contain any dispatchable DOALL?"""
    if isinstance(stmt, Loop):
        return dispatchable(stmt) or _contains_dispatchable(stmt.body)
    if isinstance(stmt, Block):
        return any(_contains_dispatchable(s) for s in stmt.stmts)
    if isinstance(stmt, If):
        return _contains_dispatchable(stmt.then) or _contains_dispatchable(
            stmt.orelse
        )
    return False


def _serial_outer(stmt: Stmt) -> bool:
    """Does some dispatchable DOALL sit under a serial loop?"""
    if isinstance(stmt, Loop):
        return not dispatchable(stmt) and _contains_dispatchable(stmt.body)
    if isinstance(stmt, If):
        return _serial_outer(stmt.then) or _serial_outer(stmt.orelse)
    return isinstance(stmt, Block) and any(map(_serial_outer, stmt.stmts))


def _dispatchable_loops(stmt: Stmt) -> list[Loop]:
    """Every loop :func:`repro.parallel.dispatch.execute` would dispatch, in
    program order.

    Mirrors the executor's traversal: a dispatchable loop is a leaf (its
    body is never searched — workers own it), everything else recurses.
    """
    if isinstance(stmt, Loop):
        if dispatchable(stmt):
            return [stmt]
        return _dispatchable_loops(stmt.body)
    if isinstance(stmt, Block):
        return [lp for s in stmt.stmts for lp in _dispatchable_loops(s)]
    if isinstance(stmt, If):
        return _dispatchable_loops(stmt.then) + _dispatchable_loops(stmt.orelse)
    return []


def inspect_dispatch(loop: Loop, env, arrays, native=None):
    """Inspect one blocked dispatch: the plan's ``native`` pass first (if
    any); all but its proof goes to :mod:`repro.runtime.inspector`."""
    proof = native and native(loop, env, arrays)
    return proof or inspector.inspect_dispatch(loop, env, arrays)


# ---------------------------------------------------------------------------
# The driver
# ---------------------------------------------------------------------------


def run_parallel_procedure(
    proc: Procedure,
    arrays: Mapping[str, np.ndarray],
    scalars: Mapping[str, int | float] | None = None,
    workers: int = 4,
    policy: SchedulingPolicy | str = "gss",
    chunk: int | None = None,
    timeout: float | None = None,
    log_events: bool = True,
    claim_batch: str = "auto",
    pool: WorkerPool | None = None,
    safety: str | None = None,
    preloaded: bool = False,
) -> ParallelProcedureResult:
    """Execute a whole procedure, dispatching every reachable DOALL.

    Statements between DOALLs (the serial pivot loop of a hybrid program,
    scalar setup, non-unit-step loops) run in the parent over the same
    shared-memory views, so array state flows through the whole program
    without extra copies.  DOALLs nested under serial control flow are
    dispatched too — one dispatch per enclosing serial iteration, the
    paper's hybrid execution model.  Raises
    :class:`ParallelDispatchError` if there is nothing to dispatch — a
    purely serial program should use the serial backends instead of
    paying for a pool.  On success the caller's ``arrays`` hold the
    results; on any failure they are untouched (workers mutate only the
    shared copies).

    One persistent worker fleet serves every dispatch of the run.
    Passing an already-warm ``pool`` (the server's per-shape fleets)
    skips even the per-run spawn: the caller's arrays are loaded into the
    pool's shared views, the run dispatches through the resident workers,
    results are copied back, and the pool is left running for the next
    run.  The pool's array environment must match ``arrays`` by name and
    shape, and the caller must serialize concurrent runs on one pool.
    ``preloaded=True`` additionally skips the load/copy-back pair for
    callers that stage data into ``pool.views`` themselves and read
    results straight out of them (the binary wire transport).

    How workers execute claimed blocks is the plan's to derive, not the
    caller's to choose (:class:`~repro.parallel.plan.Plan`): the native C
    kernel where a compiler is on PATH and every array is float64, else
    the whole-slice numpy chunk where the body vectorizes, else the
    generated Python chunk.  Each dispatch reports the language that
    actually ran in ``chunk_lang``.

    The claim batch is derived, not chosen: unit/fixed dispatches take
    ``min(64, chunks // (8·active))`` chunks per claim, at least 1, where
    ``active`` is the number of workers with work — resolved per
    dispatch, from that dispatch's own trip count.  GSS and static plans
    never batch; each dispatch reports its batch in ``claim_batch``.
    The ``claim_batch`` keyword accepts only ``"auto"``, the rule itself;
    any other value raises :class:`ValueError` before any pool exists.

    ``safety`` is ``"inspect"`` (the default) or ``"off"``
    (:func:`resolve_safety`).  By default, a loop the verifier cannot
    prove race-free is never dispatched on trust: the inspector decides
    the unproven loops it can (dispatching with a certificate when
    proven), every other one executes serially in the parent with its
    rule code (counted in ``result.blocked_dispatches``), and when
    nothing is left to dispatch the run raises
    :class:`SafetyVerificationError` before any worker or shared segment
    is created — a run that could only ever execute serially should not
    pay for a pool.  Each inspection's result is the run's certificate
    for that dispatch, in ``result.certificates``
    (``inspected`` / ``proven_dynamic`` count them).  ``"off"``
    verifies nothing and dispatches every loop as tagged.
    """
    from repro.parallel.dispatch import Run, execute
    from repro.parallel.plan import prepare

    _claim_batch_is_derived(claim_batch)
    mode = resolve_safety(safety)
    workers = resolve_workers(workers)
    timeout = resolve_timeout(timeout)
    owned = pool is None
    plan = prepare(
        proc, arrays if owned else pool.views, scalars or {}, mode, policy,
        chunk, workers if owned else pool.workers,
    )
    out = ParallelProcedureResult(0.0, safety_mode=plan.mode, safety=plan.report)
    if plan.refusal is not None:
        out.blocked_dispatches = len(plan.loops)
        record_run(out, ran=False)
        raise SafetyVerificationError(plan.refusal)
    env: dict[str, int | float] = dict(scalars or {})
    deadline = None if timeout is None else time.monotonic() + timeout
    t_start = time.monotonic()
    # A pool made here is copied back on success only and always closed;
    # a borrowed one is loaded, copied back and left running.
    # ``preloaded=True`` is the zero-copy serving path: the caller has
    # already written the request data into ``pool.views`` (e.g. the wire
    # transport loading ``np.frombuffer`` views straight into the shm
    # segments) and will read results out of the views itself, so the
    # load/copy-back round trip through ``arrays`` is skipped.
    copies = owned or not preloaded
    if owned:
        pool = WorkerPool(arrays, workers=workers)
    elif copies:
        pool.load(arrays)
    try:
        run = Run(plan, pool, env, out, policy, chunk, deadline, log_events)
        execute(run)
        if copies:
            pool.copy_back({name: arrays[name] for name in plan.written})
    finally:
        if owned:
            pool.close()
    run.finish()
    out.wall_time = time.monotonic() - t_start
    record_run(out)
    return out
