"""Process-parallel drivers for coalesced DOALL procedures.

:func:`run_parallel_doall` executes a procedure whose body is one flat DOALL
(the shape coalescing produces) across worker processes: arrays move into
shared memory once, workers claim chunks through the shared fetch&add
counter, and the parent copies results back on success.

:func:`run_parallel_procedure` generalizes to whole programs (the paper's
*hybrid* case, e.g. Gauss–Jordan): every dispatchable DOALL — top-level or
nested under serial control flow — is handed to workers, everything else
runs serially in the parent over the same shared-memory views.  A hybrid
program therefore performs one dispatch per serial-outer iteration (one
per pivot row) — unless it qualifies for the native SPMD region
(:mod:`repro.parallel.region`), where the workers run the serial loops
themselves and the whole run is a single fork/join.

Both drivers dispatch through one engine, the persistent
:class:`repro.parallel.pool.WorkerPool`: workers spawn once per run (or
are borrowed from a caller that keeps a warm fleet — the server's
per-shape pools), each dispatch is a job message plus a gather barrier,
chunk sources are cached by loop shape on both sides, and the shared
claim counter is reset between loops instead of recreated.  (A
spawn-per-dispatch engine preceded it; DESIGN.md keeps the reason it
is gone.)

``claim_batch=k`` lets unit/fixed self-scheduling take ``k`` chunks per
claim (GSS keeps its one-chunk atomic read-of-remaining semantics — see
:meth:`repro.parallel.counter.SharedClaimCounter.claim_batch`).  The
default ``claim_batch="auto"`` sizes the batch from the measured
per-chunk service time via the variant farm's micro-calibration
(:mod:`repro.tuning.calibrate`), pinning the decision in the artifact
cache so warm runs dispatch with zero re-measurement.

Each dispatch drives the shared counter through exactly one claim
protocol, decided here in the parent (:func:`_build_job`) and reported as
``ParallelRunResult.claim_loop``: ``"native"`` — dynamic plans whose
chunks are C kernels; workers enter C once and claim with hardware
atomics (:data:`repro.codegen.cgen.CLAIM_LOOP_C`) — ``"py"`` — the
Python loop around the lock-guarded counter, for everything else — or
``"static"`` (no counter).  The choice follows from what could be bound,
never from a setting.  Workers that cannot follow the native protocol sit
the dispatch out rather than mix protocols on one counter; if the whole
fleet did, nothing ran, and :func:`_dispatch_pool` re-issues the dispatch
once on the Python protocol.  Claim logs come back raw and become
:class:`ClaimEvent` objects only when ``ParallelRunResult.events`` is
read.

Robustness contract:

* the procedure is validated and checked for a dispatchable (DOALL,
  unit-step) loop *before* any process or segment is created —
  :class:`ParallelDispatchError` otherwise;
* a worker that raises (or dies) triggers termination of its peers and a
  :class:`WorkerCrashError` carrying the worker traceback;
* a per-run ``timeout`` kills the fleet and raises
  :class:`ParallelTimeoutError` (the ``backend="mp"`` adapter turns this
  into a graceful serial fallback);
* shared-memory segments are unlinked on **every** exit path — success,
  crash, or timeout — on pool close / context-manager exit, so
  ``/dev/shm`` never accumulates garbage.
"""

from __future__ import annotations

import functools
import itertools
import time
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from repro.analysis.pdg import Reduction, recognize_reduction
from repro.cache import artifact_key, resolve_cache
from repro.codegen.cgen import THUNK_SUFFIX, generate_chunk_c
from repro.codegen.cload import (
    claim_loop_library,
    compile_chunk_library,
    have_compiler,
    prefetch_claim_loop_library,
)
from repro.codegen.npgen import generate_chunk_numpy
from repro.codegen.pygen import generate_chunk_source, generate_source
from repro.ir.expr import (
    INTRINSICS,
    ArrayRef,
    BinOp,
    Const,
    Var,
    apply_binop,
    min_,
)
from repro.ir.printer import to_source
from repro.ir.stmt import Assign, Block, If, Loop, LoopKind, Procedure, Stmt
from repro.ir.validate import validate
from repro.ir.visitor import walk_exprs, walk_stmts
from repro.parallel.counter import SharedClaimCounter, policy_plan
from repro.parallel.errors import (
    ParallelDispatchError,
    ParallelError,
    ParallelTimeoutError,
    SafetyVerificationError,
    WorkerCrashError,
)
from repro.parallel.observe import (
    record_chunk_fallback,
    record_claim_fallback,
    record_reduction_dispatch,
    record_run,
    record_safety,
    record_safety_block,
    record_speculate,
)
from repro.parallel.pool import WorkerPool
from repro.parallel.shm import SharedArrayPool, native_layout
from repro.parallel.speculate import (
    SpecCertificate,
    SpecPlan,
    shadow_alias,
    speculation_plan,
    validate_chunk_logs,
)
from repro.runtime.inspector import inspect_dispatch
from repro.runtime.interp import Interpreter, InterpreterError, eval_bound
from repro.scheduling.policies import SchedulingPolicy
from repro.tuning.variants import default_variant, variant_by_name

__all__ = [
    "ClaimEvent",
    "ParallelDispatchError",
    "ParallelError",
    "ParallelProcedureResult",
    "ParallelRunResult",
    "ParallelTimeoutError",
    "SafetyVerificationError",
    "WorkerCrashError",
    "resolve_chunk_lang",
    "resolve_safety",
    "run_parallel_doall",
    "run_parallel_procedure",
]


def resolve_chunk_lang(requested: str | None) -> str:
    """Resolve a requested chunk language to what this host can run.

    ``None``/``"auto"`` pick ``"c"`` when a compiler is on PATH, else
    ``"numpy"`` — a compiler-less host runs whole-slice vectorized chunks
    rather than the interpreted ones (shapes the numpy generator refuses
    still degrade per-dispatch to ``"py"``).  An explicit ``"c"`` without
    a compiler degrades to ``"numpy"`` and records a chunk fallback (the
    run still succeeds — native chunks are an optimization, never a
    requirement).  Anything else raises :class:`ValueError`.
    """
    if requested in (None, "auto"):
        return "c" if have_compiler() else "numpy"
    if requested not in ("py", "c", "numpy"):
        raise ValueError(
            "chunk_lang must be 'py', 'c', 'numpy', or 'auto' "
            f"(got {requested!r})"
        )
    if requested == "c" and not have_compiler():
        record_chunk_fallback()
        return "numpy"
    return requested


def resolve_safety(requested: str | None) -> str:
    """Resolve a requested chunk-safety mode.

    ``None`` defaults to ``"warn"``: every run is verified and the report
    is attached to the result, but nothing is refused.  ``"enforce"``
    additionally refuses to dispatch any loop the verifier cannot prove
    race-free (it runs serially instead, or — when *nothing* is provable —
    the whole run raises :class:`SafetyVerificationError` before any
    worker is created).  ``"speculate"`` gives those unproven loops a
    dynamic chance instead: a runtime inspector proves disjointness where
    it can, speculation with commit/rollback covers the rest, and only
    loops neither can handle (scalar hazards) drop to serial.  ``"off"``
    skips verification entirely.
    """
    if requested is None:
        return "warn"
    if requested not in ("off", "warn", "enforce", "speculate"):
        raise ValueError(
            "safety must be 'off', 'warn', 'enforce', or 'speculate' "
            f"(got {requested!r})"
        )
    return requested


def _safety_gate(proc: Procedure, mode: str):
    """Verify ``proc``; return ``(report, blocked-loop-id set)``.

    Under ``"enforce"`` and ``"speculate"`` a verifier crash fails closed
    (the run is refused rather than optimistically dispatched); under
    ``"warn"`` it degrades to an unchecked run.  The blocked set is the
    statically-unproven loops — what enforce runs serially and speculate
    hands to the inspector/speculation machinery.
    """
    if mode == "off":
        return None, frozenset()
    from repro.analysis.safety import verify_procedure

    try:
        report = verify_procedure(proc)
    except Exception as exc:
        if mode in ("enforce", "speculate"):
            raise SafetyVerificationError(
                f"safety={mode}: chunk-safety verification of "
                f"{proc.name!r} failed: {exc}"
            ) from exc
        return None, frozenset()
    record_safety(report)
    if mode not in ("enforce", "speculate"):
        return report, frozenset()
    blocked = frozenset(
        loop_id for loop_id, v in report.by_id.items() if not v.proven
    )
    return report, blocked


def _unproven_summary(report) -> str:
    """One-line refusal reason: each unproven loop with its rule codes."""
    parts = []
    for v in report.loops:
        if not v.proven:
            rules = sorted({f.rule for f in v.findings}) or ["unproven"]
            parts.append(f"loop {v.loop_var} ({', '.join(rules)})")
    return "; ".join(parts)


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
    #: being 5-tuples ``lo, hi, t_claim, t_work, t_end`` on the monotonic
    #: clock, or (native loop) the bytes of an ``(n, 5)`` float64 array of
    #: the same.  Kept raw — :attr:`events` is the readable form, built
    #: only if someone asks.
    event_log: list = field(default_factory=list, repr=False, compare=False)
    #: The monotonic-clock instant the dispatch started (``event_log``
    #: times are absolute; :attr:`events` reports them relative to this).
    t_base: float = field(default=0.0, repr=False, compare=False)
    #: Counter critical sections (or, on the native protocol, atomic
    #: claims) that granted work; < ``claims`` when claims were batched,
    #: 0 for static plans (no shared counter at all).
    lock_ops: int = 0
    #: Chunk language the workers actually executed: ``"c"`` (every worker
    #: ran the native kernel), ``"numpy"`` (whole-slice vectorized),
    #: ``"py"``, or ``"mixed"`` (some workers degraded mid-fleet).
    chunk_lang: str = "py"
    #: Variant-farm build the dispatch executed (``"gcc-O3"``,
    #: ``"numpy"``, ``"py"``, ...) or None when workers disagreed.
    variant: str | None = None
    #: Chunks claimed per counter critical section, as actually resolved
    #: (the calibrated/heuristic value behind ``claim_batch="auto"``).
    claim_batch: int = 1
    #: How ``safety=speculate`` handled this dispatch: ``"proven-dynamic"``
    #: (inspector certified, normal execution), ``"committed"`` /
    #: ``"rolled-back"`` (speculative execution), or None (not speculated).
    speculation: str | None = None
    #: The workers' recorded chunk access logs (speculative dispatches
    #: only): ``(lo, hi, writes, reads)`` per executed chunk.
    spec_logs: list = field(default_factory=list, repr=False)
    #: Set when this dispatch ran through the partial-accumulator
    #: reduction engine: the accumulator's name and its folded final
    #: value (also written back into the caller's scalar environment).
    reduction_scalar: str | None = None
    reduction_value: float | None = None
    #: Which claim protocol drove the shared counter: ``"native"`` (the C
    #: claim loop — hardware atomics, one crossing into C per worker),
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
            if isinstance(rows, bytes):
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
    """Outcome of a whole-procedure run: one entry per dispatched DOALL."""

    wall_time: float
    dispatches: list[ParallelRunResult] = field(default_factory=list)
    serial_stmts: int = 0
    #: Chunk-safety mode the run executed under ("off", "warn", "enforce").
    safety_mode: str = "off"
    #: The verifier's :class:`~repro.analysis.safety.SafetyReport`
    #: (None when ``safety_mode == "off"`` or verification crashed under
    #: "warn").
    safety: object | None = field(default=None, repr=False)
    #: Dispatches refused under enforce and executed serially instead.
    blocked_dispatches: int = 0
    #: ``safety=speculate`` accounting: dispatches the inspector addressed,
    #: the subset it proved (dispatched normally with a certificate),
    #: dispatches run speculatively, and how those resolved.
    inspected: int = 0
    proven_dynamic: int = 0
    speculated: int = 0
    committed: int = 0
    rolled_back: int = 0
    #: Dispatches executed through the partial-accumulator reduction
    #: engine (recognized ``s := s ⊕ expr`` loops).
    reductions: int = 0
    #: Variant-farm accounting: micro-calibrations this run performed
    #: (full + quick) and decisions served from a pinned manifest entry
    #: with zero re-measurement.
    calibrations: int = 0
    pinned_decisions: int = 0
    #: How a program with a DOALL under a serial loop ran: ``"native"``
    #: (one SPMD region, :mod:`repro.parallel.region`) or the rule-coded
    #: reason it ran per dispatch; None for programs with no such nest.
    region: str | None = None

    @property
    def fork_joins(self) -> int:
        """Fork/joins of the fleet: one for a region, else one per dispatch."""
        return 1 if self.region == "native" else len(self.dispatches)

    @property
    def variants(self) -> list[str]:
        """Distinct variant-farm builds the run's dispatches executed."""
        return sorted({d.variant for d in self.dispatches if d.variant})

    @property
    def certificates(self) -> list:
        """Runtime certificates recorded on the safety report (may be [])."""
        report = self.safety
        return list(getattr(report, "dynamic", ()) or ())

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


def _aggregate(values: set[str]) -> str:
    """One label for a set of per-worker / per-dispatch labels."""
    if not values:
        return "py"
    if len(values) == 1:
        return next(iter(values))
    return "mixed"


def _dispatchable(loop: Loop) -> bool:
    """A loop we can hand to workers: DOALL with unit step."""
    return loop.is_doall and isinstance(loop.step, Const) and loop.step.value == 1


def _contains_dispatchable(stmt: Stmt) -> bool:
    """Does this statement tree contain any dispatchable DOALL?"""
    if isinstance(stmt, Loop):
        return _dispatchable(stmt) or _contains_dispatchable(stmt.body)
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
        return not _dispatchable(stmt) and _contains_dispatchable(stmt.body)
    if isinstance(stmt, If):
        return _serial_outer(stmt.then) or _serial_outer(stmt.orelse)
    return isinstance(stmt, Block) and any(map(_serial_outer, stmt.stmts))


def _dispatchable_loops(stmt: Stmt) -> list[Loop]:
    """Every loop :func:`_exec_hybrid` would dispatch, in program order.

    Mirrors the executor's traversal: a dispatchable loop is a leaf (its
    body is never searched — workers own it), everything else recurses.
    """
    if isinstance(stmt, Loop):
        if _dispatchable(stmt):
            return [stmt]
        return _dispatchable_loops(stmt.body)
    if isinstance(stmt, Block):
        return [lp for s in stmt.stmts for lp in _dispatchable_loops(s)]
    if isinstance(stmt, If):
        return _dispatchable_loops(stmt.then) + _dispatchable_loops(stmt.orelse)
    return []


def _check_dispatchable(proc: Procedure) -> None:
    """Raise :class:`ParallelDispatchError` unless something can go parallel."""
    if not _contains_dispatchable(proc.body):
        raise ParallelDispatchError(
            f"procedure {proc.name!r} has no dispatchable unit-step DOALL "
            "(coalesce it first, or run the serial backend)"
        )


# ---------------------------------------------------------------------------
# Dispatch preparation
# ---------------------------------------------------------------------------


@dataclass
class _DispatchCaches:
    """Per-run memoization of everything a dispatch recomputes needlessly.

    The same ``Loop`` object is dispatched once per serial-outer iteration
    in a hybrid program; its chunk source, parameter order, and (for a
    fixed trip count) its scheduling plan are identical every time.  Keys
    use object identity — valid for the lifetime of one run, which is the
    lifetime of this cache.

    Behind the per-run identity memo sits the on-disk artifact cache
    (kind ``"chunk"``): generated chunk sources are keyed by the printed
    loop (variable, bounds, *and* body) plus the calling convention, so
    repeated runs of the same program — across processes, or through the
    server — reuse one generated source.  The store is resolved lazily
    from the process default; disabling the default cache disables this
    layer too.
    """

    source: dict = field(default_factory=dict)
    plans: dict = field(default_factory=dict)
    kernels: dict = field(default_factory=dict)
    np_chunks: dict = field(default_factory=dict)
    #: id(loop) -> :class:`_ReductionPlan` | None (not a reduction).
    reductions: dict = field(default_factory=dict)
    #: id(stmt) -> compiled serial-residue entry | False (interpret).
    residues: dict = field(default_factory=dict)
    store: object = "default"  # resolved on first use
    #: The run's :class:`repro.tuning.calibrate.DispatchTuner` (None for
    #: the legacy fixed-default path).
    tuner: object = None

    def _store(self):
        if self.store == "default":
            self.store = resolve_cache("default")
        return self.store

    def chunk_source(
        self, proc: Procedure, loop: Loop, extra: tuple[str, ...]
    ) -> tuple[str, str, list[str]]:
        key = (id(loop), extra)
        hit = self.source.get(key)
        if hit is None:
            fname = f"{proc.name}__chunk"
            scalar_order = list(proc.scalars) + list(extra)

            def generate() -> str:
                return (
                    _chunk_source_with_extras(proc, loop, extra)
                    if extra
                    else generate_chunk_source(proc, loop=loop)
                )

            store = self._store()
            if store is None:
                source = generate()
            else:
                # The printed loop covers var, bounds, and body — two
                # loops that collide here generate identical chunk
                # sources, so a collision is harmless by construction.
                ckey = artifact_key(
                    "chunk",
                    loop=to_source(loop),
                    name=fname,
                    arrays=list(proc.arrays),
                    scalars=scalar_order,
                )
                source = store.memo_text(ckey, "chunk.py", generate)
            hit = self.source[key] = (source, fname, scalar_order)
        return hit

    def chunk_kernel(
        self,
        proc: Procedure,
        loop: Loop,
        extra: tuple[str, ...],
        env: Mapping[str, int | float],
        variant=None,
    ) -> tuple[str, str, tuple[str, ...], tuple[str, ...]] | None:
        """Compiled C kernel for this loop shape, or None (stay on Python).

        Returns ``(so_path, fname, sig, scalar_types)`` — everything the
        job descriptor needs for the native path.  Keyed by loop identity
        plus the *C types* of the live scalar values (a hybrid program can
        feed the same loop integer scalars on one dispatch and serially
        computed floats on the next — those are different kernels) plus
        the farm variant: ``variant`` (a
        :class:`repro.tuning.variants.Variant`) selects the compiler and
        flag set; None means the pre-farm default build.
        Any codegen or compile failure is memoized as None, so a shape
        that cannot go native costs one attempt per run, not one per
        dispatch.

        Behind the per-run memo, :func:`compile_chunk_library` is
        content-addressed in the artifact cache: across processes and runs
        each kernel build is compiled exactly once.
        """
        scalar_order = list(proc.scalars) + list(extra)
        types = tuple(
            "double"
            if isinstance(env[s], (float, np.floating))
            else "long"
            for s in scalar_order
        )
        key = (id(loop), extra, types, variant.name if variant else None)
        if key in self.kernels:
            return self.kernels[key]
        fname = f"{proc.name}__chunk"
        try:
            widened = Procedure(
                proc.name, proc.body, proc.arrays,
                tuple(proc.scalars) + extra,
            )
            source = generate_chunk_c(
                widened,
                loop=loop,
                name=fname,
                scalar_types=dict(zip(scalar_order, types)),
            )
            build = {}
            if variant is not None:
                build = dict(cc=variant.cc, optimize=variant.optimize)
            # The dispatch this kernel is for will want the claim-loop
            # library too; where that is still unresolved (a process's
            # first native build) its compiler run shares this one's wait.
            warming = prefetch_claim_loop_library(self._store())
            try:
                so_path, _ = compile_chunk_library(
                    source, fname, cache=self._store(), **build
                )
            finally:
                if warming is not None:
                    warming.join()
            sig: list[str] = []
            for rank in proc.arrays.values():
                sig.append("ptr")
                sig.extend(["long"] * rank)
            sig.extend(types)
            hit = (so_path, fname, tuple(sig), types)
        except Exception:
            hit = None
        self.kernels[key] = hit
        return hit

    def numpy_chunk(
        self, proc: Procedure, loop: Loop, extra: tuple[str, ...]
    ) -> tuple[str, str] | None:
        """Whole-slice numpy chunk source, or None (shape refused).

        Returns ``(np_source, np_fname)``.  Refusals — shapes outside
        :mod:`repro.codegen.npgen`'s vectorization-safety rules — are
        memoized per run, and accepted sources are disk-memoized under
        kind ``"chunk_numpy"`` like the Python chunk source.
        """
        key = (id(loop), extra)
        if key in self.np_chunks:
            return self.np_chunks[key]
        try:
            widened = Procedure(
                proc.name, proc.body, proc.arrays,
                tuple(proc.scalars) + extra,
            )
            fname = f"{proc.name}__chunk_np"

            def generate() -> str:
                return generate_chunk_numpy(widened, loop=loop, name=fname)

            store = self._store()
            if store is None:
                source = generate()
            else:
                ckey = artifact_key(
                    "chunk_numpy",
                    loop=to_source(loop),
                    name=fname,
                    arrays=list(proc.arrays),
                    scalars=list(proc.scalars) + list(extra),
                )
                source = store.memo_text(ckey, "chunk_np.py", generate)
            hit = (source, fname)
        except Exception:
            hit = None
        self.np_chunks[key] = hit
        return hit

    def plan_for(
        self,
        policy: SchedulingPolicy | str,
        n: int,
        workers: int,
        chunk: int | None,
    ):
        key = (
            policy if isinstance(policy, str) else id(policy),
            n,
            workers,
            chunk,
        )
        hit = self.plans.get(key)
        if hit is None:
            hit = self.plans[key] = policy_plan(policy, n, workers, chunk)
        return hit


def _chunk_source_with_extras(
    proc: Procedure, loop: Loop, extra: tuple[str, ...]
) -> str:
    """Chunk source whose parameter list also carries env-local scalars."""
    widened = Procedure(
        proc.name, proc.body, proc.arrays, tuple(proc.scalars) + extra
    )
    return generate_chunk_source(widened, loop=loop)


def _empty_result(
    loop: Loop, lo: int, hi: int, workers: int, policy: SchedulingPolicy | str
) -> ParallelRunResult:
    name = policy if isinstance(policy, str) else policy.name
    return ParallelRunResult(
        loop.var, lo, hi, workers, name, 0.0, [0] * workers, 0
    )


def _build_job(
    proc: Procedure,
    loop: Loop,
    pool: SharedArrayPool,
    env: Mapping[str, int | float],
    plan,
    lo: int,
    batch: int,
    log_events: bool,
    caches: _DispatchCaches,
    chunk_lang: str,
    speculate: dict | None = None,
    decision=None,
    extra_specs: list | None = None,
    extra_views: Mapping[str, np.ndarray] | None = None,
) -> dict:
    """The picklable job descriptor the pool workers execute.

    The Python chunk source is always present (the safety net every
    fallback lands on).  When ``chunk_lang == "c"`` and the shape compiles
    — every array float64 C-contiguous at its declared rank, codegen and
    the compiler both succeed — the descriptor also carries the native
    kernel (``c_so``/``c_fname``/``c_sig``/``c_scalar_types``); when
    ``chunk_lang == "numpy"`` and the shape passes the vectorization
    rules it carries the whole-slice chunk (``np_source``/``np_fname``);
    otherwise the dispatch degrades to Python and the fallback is counted
    in metrics.  ``job["variant"]`` names the farm build attached.

    This is also where the dispatch's one claim protocol is decided.  A
    dynamic plan whose native kernel was attached — every precondition of
    the C chunk path holds — additionally carries the claim-loop library
    (``claim_so``, plus ``c_thunk``, the kernel's uniform entry): its
    workers run the native fetch&add loop.  Any job without ``claim_so``
    runs the Python loop over the lock-guarded counter.

    A pinned/measured ``decision``
    (:class:`repro.tuning.calibrate.TuningDecision`) overrides the build:
    its variant selects both the chunk language and — for C variants —
    the compiler and flag set.

    A speculative dispatch instead ships the dispatched ``Loop`` itself
    plus shadow-segment specs and the written→shadow alias map: workers
    run the recording interpreter against the shadows (chunk kernels
    cannot log element accesses), so the chunk source is ignored and the
    native path is skipped.

    ``extra_specs``/``extra_views`` ship side-channel arrays that live
    outside the main pool — the reduction engine's per-dispatch partial
    accumulators.  They extend ``job["specs"]`` (workers attach them on
    demand) and participate in the native-path eligibility check, but are
    never copied back through the main pool.
    """
    extra = tuple(
        sorted(k for k in env if k not in proc.scalars and k != loop.var)
    )
    source, fname, scalar_order = caches.chunk_source(proc, loop, extra)
    job = {
        "source": source,
        "fname": fname,
        "specs": pool.specs(),
        "array_order": list(proc.arrays),
        "scalar_order": scalar_order,
        "scalars": {name: env[name] for name in scalar_order},
        "plan": plan,
        "lo": lo,
        "batch": batch,
        "log_events": log_events,
        "variant": "py",
    }
    if extra_specs:
        job["specs"] = list(job["specs"]) + list(extra_specs)
    if speculate is not None:
        job["specs"] = list(job["specs"]) + list(speculate["specs"])
        job["speculate"] = {
            "loop": speculate["loop"],
            "written": tuple(speculate["written"]),
            "aliases": dict(speculate["aliases"]),
        }
        return job
    variant = None
    lang = chunk_lang
    if decision is not None:
        try:
            variant = variant_by_name(decision.variant)
            lang = variant.lang
        except ValueError:
            variant = None
    if lang == "c":
        views = dict(pool.views)
        if extra_views:
            views.update(extra_views)
        kernel = (
            caches.chunk_kernel(proc, loop, extra, env, variant=variant)
            if native_layout(views, proc.arrays)
            else None
        )
        if kernel is not None:
            so_path, c_fname, sig, scalar_types = kernel
            job["chunk_lang"] = "c"
            job["c_so"] = so_path
            job["c_fname"] = c_fname
            job["c_sig"] = sig
            job["c_scalar_types"] = scalar_types
            job["variant"] = (variant or default_variant("c")).name
            claim_so = (
                claim_loop_library(caches._store())
                if plan.rule is not None
                else None
            )
            if claim_so is not None:
                job["claim_so"] = claim_so
                job["c_thunk"] = c_fname + THUNK_SUFFIX
        else:
            record_chunk_fallback()
    elif lang == "numpy":
        npk = caches.numpy_chunk(proc, loop, extra)
        if npk is not None:
            np_source, np_fname = npk
            job["chunk_lang"] = "numpy"
            job["np_source"] = np_source
            job["np_fname"] = np_fname
            job["variant"] = "numpy"
        else:
            record_chunk_fallback()
    return job


def _resolve_claim_batch(
    requested, decision, plan, n: int, active: int
) -> int:
    """Resolve ``claim_batch`` (int or ``"auto"``) to the value workers use.

    Explicit integers pass through (floored at 1).  ``"auto"`` takes the
    calibrated batch when a decision carries one — clamped so this
    dispatch still gives every worker at least one claim round — and
    otherwise a conservative load-balance heuristic.  GSS and static
    plans never batch.
    """
    if requested != "auto":
        return max(1, int(requested))
    if plan.rule is None or plan.rule[0] == "gss":
        return 1
    per_claim = 1 if plan.rule[0] == "unit" else max(1, plan.rule[1])
    chunks = max(1, -(-n // per_claim))
    cap = max(1, chunks // max(1, active))
    if decision is not None and decision.claim_batch:
        return max(1, min(decision.claim_batch, cap))
    return max(1, min(64, chunks // (max(1, active) * 8), cap))


def _finalize_result(
    results: Mapping[int, tuple],
    loop: Loop,
    lo: int,
    hi: int,
    n: int,
    active: int,
    plan,
    t_base: float,
) -> ParallelRunResult:
    """Fold per-worker result messages into one :class:`ParallelRunResult`."""
    wall = time.monotonic() - t_base
    per_worker = [0] * active
    claims = 0
    lock_ops = 0
    langs: set[str] = set()
    event_log: list = []
    spec_logs: list = []
    for wid, msg in results.items():
        _, _, _, iters, wclaims, wlocks, wevents, wlang, wextra = msg
        langs.add(wlang)
        spec_logs.extend(wextra.get("spec_log", ()))
        if wid < active:
            per_worker[wid] = iters
        elif iters:  # pragma: no cover - plan contract violated
            raise ParallelError(
                f"idle worker {wid} executed {iters} iterations"
            )
        claims += wclaims
        lock_ops += wlocks
        if len(wevents):
            event_log.append((wid, wevents))
    if sum(per_worker) != n:
        raise ParallelError(
            f"claim accounting violated: {sum(per_worker)} iterations "
            f"executed for a range of {n}"
        )
    spec_logs.sort(key=lambda log: (log[0], log[1]))
    return ParallelRunResult(
        loop.var,
        lo,
        hi,
        active,
        plan.name,
        wall,
        per_worker,
        claims,
        event_log,
        t_base,
        lock_ops=lock_ops,
        chunk_lang=_aggregate(langs),
        spec_logs=spec_logs,
    )


# ---------------------------------------------------------------------------
# The dispatch engine
# ---------------------------------------------------------------------------


def _stamp_result(result: ParallelRunResult, job: dict, batch: int):
    """Record the dispatch's resolved batch and variant on its result.

    The variant reflects what workers *actually executed*: a fleet that
    degraded from the attached build (dlopen/bind failure) reports
    ``"py"`` and counts a chunk fallback, exactly like a parent-side
    degradation.
    """
    result.claim_batch = batch
    wanted = job.get("chunk_lang", "py")
    if result.chunk_lang == wanted:
        result.variant = job.get("variant", "py")
    elif result.chunk_lang == "py":
        result.variant = "py"
        record_chunk_fallback()  # worker-side dlopen/bind degradation
    else:
        record_chunk_fallback()  # mixed fleet: some workers degraded
    return result


def _dispatch_pool(
    wpool: WorkerPool,
    proc: Procedure,
    loop: Loop,
    env: Mapping[str, int | float],
    policy: SchedulingPolicy | str,
    chunk: int | None,
    batch: int,
    deadline: float | None,
    log_events: bool,
    caches: _DispatchCaches,
    chunk_lang: str = "py",
    speculate: dict | None = None,
    extra_specs: list | None = None,
    extra_views: Mapping[str, np.ndarray] | None = None,
) -> ParallelRunResult:
    """Run one DOALL on the persistent pool: a message, not a fork."""
    lo = eval_bound(loop.lower, env, wpool.views, "loop lower bound")
    hi = eval_bound(loop.upper, env, wpool.views, "loop upper bound")
    n = max(0, hi - lo + 1)
    if n == 0:
        # Nothing to do — and nothing sent: the pool idles through empty
        # ranges and stays usable for the next dispatch.
        return _empty_result(loop, lo, hi, wpool.workers, policy)
    active = max(1, min(wpool.workers, n))
    plan = caches.plan_for(policy, n, active, chunk)
    decision = None
    if speculate is None and caches.tuner is not None:
        # Speculative dispatches run the recording interpreter: no build
        # to choose, nothing to measure.
        decision = caches.tuner.decision_for(
            proc, loop, env, wpool.views, plan, n, wpool.workers, chunk,
            caches, batch,
        )
    batch_n = _resolve_claim_batch(batch, decision, plan, n, active)
    job = _build_job(
        proc, loop, wpool.shared, env, plan, lo, batch_n, log_events,
        caches, chunk_lang, speculate, decision, extra_specs, extra_views,
    )
    t_base, results = wpool.dispatch(job, lo, hi, deadline)
    claim_loop = "static" if plan.rule is None else "py"
    if "claim_so" in job:
        claim_loop = "native"
        # A worker that could not bind the native loop sat the dispatch
        # out (lang "py", no work) and its peers drained the range.  Only
        # when *nobody* could bind has nothing run at all — then, and only
        # then, the same dispatch goes out again on the lock-guarded
        # protocol: one protocol per counter per dispatch, always.
        sat_out = sum(1 for msg in results.values() if msg[7] != "c")
        if sat_out:
            record_claim_fallback(sat_out)
            if not any(msg[3] for msg in results.values()):
                record_claim_fallback()
                claim_loop = "py"
                job = {
                    k: v
                    for k, v in job.items()
                    if k not in ("claim_so", "c_thunk")
                }
                t_base, results = wpool.dispatch(job, lo, hi, deadline)
    result = _finalize_result(results, loop, lo, hi, n, active, plan, t_base)
    result.claim_loop = claim_loop
    return _stamp_result(result, job, batch_n)


# ---------------------------------------------------------------------------
# Reduction dispatch (recognized ``s := s ⊕ expr`` loops)
# ---------------------------------------------------------------------------

#: Upper bound on partial accumulators per reduction dispatch.  The chunk
#: grid is a pure function of the trip count (never the worker count), so
#: the folded result is deterministic across fleet sizes.
_RED_MAX_CHUNKS = 64

#: Finite identity constants for the derived init statement.  ``min`` and
#: ``max`` use ±float-max instead of ±inf — generated Python and C sources
#: cannot spell infinity as a literal — which folds exactly like the true
#: identity for any representable finite data.
_RED_IDENTITY: dict[str, float] = {
    "+": 0.0,
    "*": 1.0,
    "min": float(np.finfo(np.float64).max),
    "max": float(-np.finfo(np.float64).max),
}


@dataclass(frozen=True)
class _ReductionPlan:
    """Everything one recognized reduction loop needs to dispatch.

    ``origin`` is the loop as written (``s := s ⊕ expr``); ``proc`` /
    ``loop`` are the derived strip-mined form the workers actually
    execute; ``partial``/``chunks``/``stride`` name the partial array and
    the two symbolic grid scalars, so one cached chunk kernel serves
    every trip count.
    """

    reduction: Reduction
    origin: Loop
    proc: Procedure
    loop: Loop
    partial: str
    chunks: str
    stride: str


def _fresh_red_name(base: str, used: set[str]) -> str:
    name = base
    while name in used:
        name += "_"
    used.add(name)
    return name


def derive_reduction_dispatch(
    proc: Procedure, loop: Loop, red: Reduction
) -> _ReductionPlan:
    """Build the strip-mined partial-accumulator form of a reduction loop.

    The original ``for i = lo, hi: s := s ⊕ u(i)`` becomes::

        doall __rc = 0, __red_c - 1:
            __red_p(__rc) := identity
            for i = lo + __rc*__red_k, min(hi, lo + (__rc+1)*__red_k - 1):
                [if guard then] __red_p(__rc) := __red_p(__rc) ⊕ u(i)

    ``__red_c`` (chunk count) and ``__red_k`` (chunk stride) stay
    *symbolic* — shipped as env scalars per dispatch — so the generated
    chunk source, and therefore the compiled kernel, is one per loop
    shape rather than one per trip count.  The inner loop keeps the
    original induction variable, so ``u(i)`` and the guard need no
    renaming.  Each ``__rc`` owns exactly one partial element and a
    disjoint slice of the original range: the derived loop is race-free
    by construction (and the safety verifier can re-prove it).
    """
    used = set(proc.arrays) | set(proc.scalars)
    for s in walk_stmts(proc.body):
        if isinstance(s, Loop):
            used.add(s.var)
    for e in walk_exprs(proc.body):
        if isinstance(e, Var):
            used.add(e.name)
    partial = _fresh_red_name("__red_p", used)
    chunks = _fresh_red_name("__red_c", used)
    stride = _fresh_red_name("__red_k", used)
    rc = _fresh_red_name("__rc", used)

    pref = ArrayRef(partial, (Var(rc),))
    update = Assign(pref, BinOp(red.op, pref, red.update))
    body: Stmt = (
        update if red.guard is None else If(red.guard, Block((update,)))
    )
    inner_lo = loop.lower + Var(rc) * Var(stride)
    inner_hi = min_(loop.upper, loop.lower + (Var(rc) + 1) * Var(stride) - 1)
    inner = Loop(
        loop.var, inner_lo, inner_hi, Block((body,)), Const(1),
        LoopKind.SERIAL,
    )
    outer = Loop(
        rc, Const(0), Var(chunks) - 1,
        Block((Assign(pref, Const(_RED_IDENTITY[red.op])), inner)),
        Const(1), LoopKind.DOALL,
    )
    arrays = dict(proc.arrays)
    arrays[partial] = 1
    derived = Procedure(
        f"{proc.name}__red", Block((outer,)), arrays,
        tuple(proc.scalars) + (chunks, stride),
    )
    validate(derived)
    return _ReductionPlan(red, loop, derived, outer, partial, chunks, stride)


def _reduction_plan(
    caches: _DispatchCaches, proc: Procedure, loop: Loop
) -> _ReductionPlan | None:
    """The cached reduction plan for ``loop``, or None (dispatch normally).

    Recognition runs once per loop identity per run; a loop that is not
    the reduction idiom memoizes None and costs nothing on re-dispatch.
    """
    key = id(loop)
    if key not in caches.reductions:
        red = recognize_reduction(loop)
        if red is None or red.scalar in proc.arrays:
            caches.reductions[key] = None
        else:
            try:
                caches.reductions[key] = derive_reduction_dispatch(
                    proc, loop, red
                )
            except Exception:
                caches.reductions[key] = None
    return caches.reductions[key]


def _reduction_grid(n: int) -> tuple[int, int]:
    """``(chunk_count, chunk_stride)`` for a trip count of ``n``.

    A pure function of ``n`` alone: the same input always folds through
    the same partials in the same order, whatever the worker count.
    """
    n_chunks = max(1, min(_RED_MAX_CHUNKS, n))
    return n_chunks, -(-n // n_chunks)


def _dispatch_reduction(
    plan: _ReductionPlan,
    env: dict,
    views: Mapping[str, np.ndarray],
    workers: int,
    policy: SchedulingPolicy | str,
    engine,
) -> ParallelRunResult:
    """Run a recognized reduction through partial accumulators + ordered fold.

    ``engine(env2, extra_specs, extra_views)`` must dispatch the derived
    loop through a normal engine with the partial array attached as a
    side-channel shared segment.  On return the parent folds the partials
    in ascending chunk order, seeded with the incoming accumulator value,
    and writes the result back into ``env`` — exactly the serial
    association ``((s ⊕ p₁) ⊕ p₂) …`` with ``p_c = ((id ⊕ u_{c,1}) ⊕ …)``,
    which is bit-identical to serial execution whenever ⊕ is exact on the
    data (min/max always; float +/* on integer-valued data).

    The partial array lives in its own :class:`SharedArrayPool`, shipped
    via the job's extra specs and unlinked before this function returns —
    it never flows through the main pool's ``copy_back``.
    """
    red = plan.reduction
    if red.scalar not in env:
        raise ParallelDispatchError(
            f"reduction scalar {red.scalar!r} has no incoming value"
        )
    lo = eval_bound(plan.origin.lower, env, views, "loop lower bound")
    hi = eval_bound(plan.origin.upper, env, views, "loop upper bound")
    n = max(0, hi - lo + 1)
    result = _empty_result(plan.origin, lo, hi, workers, policy)
    if n > 0:
        n_chunks, stride = _reduction_grid(n)
        seed = np.full(n_chunks, _RED_IDENTITY[red.op], dtype=np.float64)
        env2 = dict(env)
        env2[plan.chunks] = n_chunks
        env2[plan.stride] = stride
        with SharedArrayPool({plan.partial: seed}) as ppool:
            result = engine(env2, ppool.specs(), ppool.views)
            parts = ppool.views[plan.partial][:n_chunks].tolist()
        acc = env[red.scalar]
        for part in parts:
            acc = apply_binop(red.op, acc, part)
        env[red.scalar] = acc
    result.reduction_scalar = red.scalar
    result.reduction_value = float(env[red.scalar])
    record_reduction_dispatch()
    return result


def _with_reduction(dispatch_raw, proc, caches, views, workers, policy, out):
    """Wrap an engine closure so recognized reductions take the partial path.

    ``dispatch_raw(dproc, dloop, env, speculate, extra_specs,
    extra_views)`` is the underlying engine.  The returned closure has the
    ``dispatch(loop, env, speculate=None)`` signature
    :func:`_exec_hybrid` expects.  Routing is independent of the safety
    mode: a DOALL-tagged reduction loop would otherwise dispatch with the
    accumulator silently frozen at its incoming value (each worker holds
    a private scalar copy), so the reduction engine is a correctness
    matter, not an optimization.  Speculative dispatches never take this
    path — a blocked loop is by definition not a proven reduction.
    """

    def dispatch(
        loop: Loop, env, speculate: dict | None = None
    ) -> ParallelRunResult:
        if speculate is None:
            plan = _reduction_plan(caches, proc, loop)
            if plan is not None:
                result = _dispatch_reduction(
                    plan, env, views, workers, policy,
                    lambda env2, specs, pviews: dispatch_raw(
                        plan.proc, plan.loop, env2, None, specs, pviews
                    ),
                )
                if out is not None:
                    out.reductions += 1
                return result
        return dispatch_raw(proc, loop, env, speculate, None, None)

    return dispatch


# ---------------------------------------------------------------------------
# Speculative dispatch (safety="speculate")
# ---------------------------------------------------------------------------

#: Process-global counter making shadow alias names unique per dispatch
#: occurrence, so a persistent worker never mistakes a stale shadow
#: attachment for the current one.
_SPEC_TOKEN = itertools.count()


def _speculative_dispatch(dispatch_fn, loop, env, views, written):
    """Dispatch ``loop`` into shadow copies of its written arrays.

    ``dispatch_fn(info)`` must run the loop through a normal engine with
    the speculation descriptor attached (workers then execute the
    recording interpreter against the shadows).  The gathered chunk logs
    are validated for cross-chunk conflicts; on success the shadows are
    committed into ``views`` by bulk copy-back, on failure ``views`` are
    left exactly as before the dispatch (the caller retries serially).
    Returns ``(result, validation)``.  The shadow segments are unlinked
    on every exit path.
    """
    token = next(_SPEC_TOKEN)
    aliases = {name: shadow_alias(name, token) for name in written}
    shadow = SharedArrayPool({aliases[name]: views[name] for name in written})
    try:
        info = {
            "loop": loop,
            "written": tuple(written),
            "aliases": aliases,
            "specs": shadow.specs(),
        }
        result = dispatch_fn(info)
        validation = validate_chunk_logs(result.spec_logs)
        if validation.ok:
            for name in written:
                np.copyto(views[name], shadow.views[aliases[name]])
        return result, validation
    finally:
        shadow.close()


def _speculation_plans(
    loops, blocked: frozenset[int], report
) -> dict[int, SpecPlan]:
    """The per-loop speculation plan for every statically-blocked loop."""
    plans: dict[int, SpecPlan] = {}
    for lp in loops:
        if id(lp) in blocked:
            verdict = report.by_id.get(id(lp)) if report is not None else None
            plans[id(lp)] = speculation_plan(lp, verdict)
    return plans


def _inspect(loop: Loop, env, views, report):
    """Run the inspector on one blocked dispatch; certify its verdict."""
    record_speculate(inspected=1)
    insp = inspect_dispatch(loop, env, views)
    if report is not None:
        report.dynamic.append(
            SpecCertificate(
                loop_var=loop.var,
                mode="inspector",
                status="proven-dynamic" if insp.proven else "refuted",
                iterations=insp.iterations,
                conflicts=len(insp.conflicts),
                wall_s=insp.wall_s,
                detail=insp.describe(),
            )
        )
    if insp.proven:
        record_speculate(proven_dynamic=1)
    return insp


# ---------------------------------------------------------------------------
# Hybrid program execution (serial segments + nested dispatch)
# ---------------------------------------------------------------------------


_MISSING = object()

#: Namespace for compiled serial-residue functions (mirrors the chunk
#: compiler's: the IR intrinsics plus the builtins codegen emits).
_RESIDUE_NAMESPACE = {**INTRINSICS, "min": min, "max": max, "range": range}


def _compile_residue(stmt: Loop, env: Mapping[str, int | float]):
    """Compile one dispatch-free serial loop into a callable, or ``False``.

    Wraps the subtree in a throwaway procedure, generates Python with
    :func:`repro.codegen.pygen.generate_source` (the backend the test
    suite holds bit-identical to the interpreter), and appends a return
    of every scalar the subtree writes so the parent can fold the
    results back into ``env``.  Returns ``(fn, array_order, params,
    returns)`` or ``False`` when the shape cannot be compiled (the
    caller interprets instead).
    """
    try:
        refs: dict[str, int] = {}
        for e in walk_exprs(stmt):
            if isinstance(e, ArrayRef):
                refs.setdefault(e.name, len(e.indices))
        bound = {s.var for s in walk_stmts(stmt) if isinstance(s, Loop)}
        names = {e.name for e in walk_exprs(stmt) if isinstance(e, Var)}
        writes = {
            s.target.name
            for s in walk_stmts(stmt)
            if isinstance(s, Assign) and isinstance(s.target, Var)
        } - bound
        params = tuple(sorted((names - bound - set(refs)) & set(env)))
        returns = tuple(sorted(writes))
        wrapper = Procedure("__residue", Block((stmt,)), refs, params)
        source = generate_source(wrapper, name="__residue")
        source += "    return (" + "".join(f"{r}, " for r in returns) + ")\n"
        namespace = dict(_RESIDUE_NAMESPACE)
        code = compile(source, filename="<residue>", mode="exec")
        exec(code, namespace)
        return namespace["__residue"], tuple(refs), params, returns
    except Exception:
        return False


def _make_residue_runner(caches: _DispatchCaches, interp, views):
    """Compiled execution of dispatch-free serial loops in the parent.

    The serial residue of a fissioned program (the cyclic-SCC sub-loops)
    runs in the parent; driving it through the tree interpreter would
    dominate the wall clock and bury the dispatched majority's speedup.
    Each residue loop compiles once per run (generated Python, the same
    backend E10 proves bit-identical to the interpreter) and falls back
    to the interpreter on any failure — compile or call.
    """

    def run(stmt: Loop, env: dict) -> None:
        entry = caches.residues.get(id(stmt))
        if entry is None:
            entry = caches.residues[id(stmt)] = _compile_residue(stmt, env)
        if entry is not False:
            fn, array_order, params, returns = entry
            try:
                args = [views[a] for a in array_order]
                args += [env[p] for p in params]
                out_vals = fn(*args)
            except Exception:
                caches.residues[id(stmt)] = False
            else:
                for name, val in zip(returns, out_vals):
                    env[name] = val
                return
        interp._exec(stmt, env, views)

    return run


def _exec_hybrid(
    stmt: Stmt,
    dispatch,
    interp: Interpreter,
    env: dict[str, int | float],
    views: Mapping[str, np.ndarray],
    out: ParallelProcedureResult,
    deadline: float | None,
    blocked: frozenset[int] = frozenset(),
    on_blocked=None,
    residue=None,
) -> None:
    """Execute a statement tree, dispatching every reachable DOALL.

    Serial loops *containing* dispatchable DOALLs are driven by the
    parent (their control flow must interleave with dispatches — the
    pivot loop of Gauss–Jordan); everything else falls through to the
    interpreter over the shared views in one call.  Loops whose ``id`` is
    in ``blocked`` (statically unproven) go to ``on_blocked``: under
    ``safety="enforce"`` that runs them serially in the parent and counts
    the refusal; under ``"speculate"`` it tries the inspector or a
    speculative dispatch first (see :func:`_make_blocked_handler`).
    Dispatch-free serial loops go to ``residue`` when provided — the
    compiled serial-residue runner (:func:`_make_residue_runner`).
    """
    if on_blocked is None:
        on_blocked = _serial_blocked_handler(interp, views, out)
    if isinstance(stmt, Block):
        for s in stmt.stmts:
            _exec_hybrid(
                s, dispatch, interp, env, views, out, deadline, blocked,
                on_blocked, residue,
            )
        return
    if deadline is not None and time.monotonic() > deadline:
        raise ParallelTimeoutError(
            "parallel run exceeded its deadline in a serial segment"
        )
    if isinstance(stmt, Loop) and _dispatchable(stmt):
        if id(stmt) in blocked:
            on_blocked(stmt, env)
            return
        out.dispatches.append(dispatch(stmt, env))
        return
    if isinstance(stmt, Loop) and _contains_dispatchable(stmt.body):
        lo = eval_bound(stmt.lower, env, views, "loop lower bound")
        hi = eval_bound(stmt.upper, env, views, "loop upper bound")
        st = eval_bound(stmt.step, env, views, "loop step")
        if st <= 0:
            raise InterpreterError(
                f"loop {stmt.var!r}: non-positive step {st}"
            )
        saved = env.get(stmt.var, _MISSING)
        for value in range(lo, hi + 1, st):
            env[stmt.var] = value
            _exec_hybrid(
                stmt.body, dispatch, interp, env, views, out, deadline,
                blocked, on_blocked, residue,
            )
        if saved is _MISSING:
            env.pop(stmt.var, None)
        else:
            env[stmt.var] = saved
        out.serial_stmts += 1
        return
    if isinstance(stmt, If) and _contains_dispatchable(stmt):
        cond = interp._eval(stmt.cond, env, views)
        branch = stmt.then if cond else stmt.orelse
        _exec_hybrid(
            branch, dispatch, interp, env, views, out, deadline, blocked,
            on_blocked, residue,
        )
        out.serial_stmts += 1
        return
    if isinstance(stmt, Loop) and residue is not None:
        residue(stmt, env)
        out.serial_stmts += 1
        return
    interp._exec(stmt, env, views)
    out.serial_stmts += 1


def _serial_blocked_handler(interp, views, out):
    """Enforce-mode handling of a blocked loop: serial in the parent."""

    def handler(stmt: Loop, env: dict[str, int | float]) -> None:
        record_safety_block()
        out.blocked_dispatches += 1
        interp._exec(stmt, env, views)
        out.serial_stmts += 1

    return handler


def _make_blocked_handler(
    mode: str,
    plans: Mapping[int, SpecPlan],
    report,
    interp: Interpreter,
    views: Mapping[str, np.ndarray],
    out: ParallelProcedureResult,
    dispatch,
) -> object:
    """The per-dispatch policy for statically-unproven loops.

    Enforce (and any plan-less loop under speculate) drops to serial.
    Speculate routes by plan: inspector-eligible loops are addressed
    first and dispatched normally when proven; value-carrying loops run
    speculatively into shadows with commit-or-rollback; scalar-hazard
    loops are refused to serial.  Every dynamic decision leaves a
    :class:`SpecCertificate` on the safety report.
    """
    serial = _serial_blocked_handler(interp, views, out)
    if mode != "speculate":
        return serial

    def handler(stmt: Loop, env: dict[str, int | float]) -> None:
        plan = plans.get(id(stmt))
        if plan is None or plan.action == "refuse":
            serial(stmt, env)
            return
        if plan.action == "inspect":
            out.inspected += 1
            if not _inspect(stmt, env, views, report).proven:
                serial(stmt, env)
                return
            out.proven_dynamic += 1
            result = dispatch(stmt, env)
            result.speculation = "proven-dynamic"
            out.dispatches.append(result)
            return
        # plan.action == "speculate"
        record_speculate(speculated=1)
        out.speculated += 1
        t0 = time.monotonic()
        result, validation = _speculative_dispatch(
            lambda info: dispatch(stmt, env, speculate=info),
            stmt, env, views, plan.written,
        )
        status = "committed" if validation.ok else "rolled-back"
        result.speculation = status
        out.dispatches.append(result)
        if report is not None:
            report.dynamic.append(
                SpecCertificate(
                    loop_var=stmt.var,
                    mode="speculative",
                    status=status,
                    iterations=result.total_iterations,
                    chunks=validation.chunks,
                    conflicts=len(validation.conflicts),
                    wall_s=time.monotonic() - t0,
                    detail=validation.describe(),
                )
            )
        if validation.ok:
            record_speculate(committed=1)
            out.committed += 1
        else:
            # Misspeculation: the shadows are gone, the primaries
            # untouched — retry serially for the exact serial result.
            record_speculate(rolled_back=1)
            out.rolled_back += 1
            interp._exec(stmt, env, views)
            out.serial_stmts += 1

    return handler


# ---------------------------------------------------------------------------
# Public drivers
# ---------------------------------------------------------------------------


def _run(
    proc: Procedure,
    arrays: Mapping[str, np.ndarray],
    scalars: Mapping[str, int | float] | None,
    mode: str,
    report,
    blocked: frozenset[int],
    plans: Mapping[int, SpecPlan],
    workers: int,
    policy: SchedulingPolicy | str,
    chunk: int | None,
    timeout: float | None,
    log_events: bool,
    method: str | None,
    claim_batch: int | str,
    chunk_lang: str | None,
    variants,
    calibrate: bool | None,
    pool: WorkerPool | None = None,
    preloaded: bool = False,
) -> ParallelProcedureResult:
    """The one run driver behind both public entry points.

    The caller has already validated ``proc`` and passed it through the
    safety gate (``mode``/``report``/``blocked``/``plans``); nothing
    before this point creates a process or a segment.  A *borrowed*
    ``pool`` is loaded with ``arrays`` and copied back (both skipped when
    ``preloaded``) and left running; with no pool given one is created
    for the run, copied back on success only, and always closed.
    """
    # Imported here, not at module level: ``repro.tuning.calibrate`` imports
    # ``repro.parallel`` (counter, observe), which imports this module.
    from repro.tuning.calibrate import make_tuner

    if claim_batch != "auto":
        claim_batch = int(claim_batch)
    env: dict[str, int | float] = dict(scalars or {})
    deadline = None if timeout is None else time.monotonic() + timeout
    t_start = time.monotonic()
    out = ParallelProcedureResult(0.0, safety_mode=mode, safety=report)
    interp = Interpreter()
    caches = _DispatchCaches()
    lang = resolve_chunk_lang(chunk_lang)
    caches.tuner = make_tuner(lang, variants, calibrate)
    # ``preloaded=True`` is the zero-copy serving path: the caller has
    # already written the request data into ``pool.views`` (e.g. the wire
    # transport loading ``np.frombuffer`` views straight into the shm
    # segments) and will read results out of the views itself, so the
    # load/copy-back round trip through ``arrays`` is skipped.
    owned = pool is None
    copies = owned or not preloaded
    if owned:
        pool = WorkerPool(arrays, workers=workers, method=method)
    elif copies:
        pool.load(arrays)
    try:
        views = pool.views

        def raw(dproc, dloop, denv, speculate, extra_specs, extra_views):
            return _dispatch_pool(
                pool, dproc, dloop, denv, policy, chunk, claim_batch,
                deadline, log_events, caches, lang, speculate,
                extra_specs, extra_views,
            )

        dispatch = _with_reduction(
            raw, proc, caches, views, pool.workers, policy, out
        )
        handler = _make_blocked_handler(
            mode, plans, report, interp, views, out, dispatch
        )
        in_region = False
        if _serial_outer(proc.body):
            # Imported here so that no other program's run ever loads it.
            from repro.parallel.region import try_region

            in_region = try_region(
                proc, env, pool, policy, chunk, claim_batch, deadline,
                log_events, caches, lang, mode, blocked, out,
            )
        if not in_region:
            _exec_hybrid(
                proc.body, dispatch, interp, env, views, out, deadline,
                blocked, handler,
                _make_residue_runner(caches, interp, views),
            )
        if copies:
            pool.copy_back(arrays)
    finally:
        if owned:
            pool.close()
    out.wall_time = time.monotonic() - t_start
    if caches.tuner is not None:
        out.calibrations = (
            caches.tuner.calibrations + caches.tuner.quick_calibrations
        )
        out.pinned_decisions = caches.tuner.pinned_hits
    record_run(out)
    return out


def run_parallel_doall(
    proc: Procedure,
    arrays: Mapping[str, np.ndarray],
    scalars: Mapping[str, int | float] | None = None,
    workers: int = 4,
    policy: SchedulingPolicy | str = "gss",
    chunk: int | None = None,
    timeout: float | None = None,
    log_events: bool = True,
    method: str | None = None,
    claim_batch: int | str = "auto",
    chunk_lang: str | None = None,
    safety: str | None = None,
    variants=None,
    calibrate: bool | None = None,
) -> ParallelRunResult:
    """Execute a single-DOALL procedure across worker processes.

    The procedure body must be exactly one top-level unit-step DOALL (what
    :func:`repro.transforms.coalesce.coalesce_procedure` produces).  On
    success the caller's ``arrays`` hold the results; on any failure they
    are untouched (workers mutate only the shared copies).  The run is
    :func:`run_parallel_procedure`'s, narrowed to that one loop: the same
    pool, reduction routing, and speculation machinery, returning the
    loop's own :class:`ParallelRunResult`.

    ``chunk_lang`` selects how workers execute claimed blocks: ``"c"``
    (native kernel via ctypes — the default when a compiler is available),
    ``"numpy"`` (whole-slice vectorized — the compiler-less default),
    ``"py"`` (generated Python), or ``None``/``"auto"``.  Faster paths
    degrade automatically on any codegen, compile, or load failure; the
    language actually used is reported in ``result.chunk_lang``.

    ``claim_batch`` is an explicit chunks-per-critical-section count or
    ``"auto"`` (default): unit/fixed dispatches size the batch from the
    measured per-chunk service time — a bounded first-use
    micro-calibration whose decision is pinned in the artifact cache, so
    warm runs re-measure nothing (see :mod:`repro.tuning.calibrate`).
    ``variants`` restricts the farm to named builds
    (:data:`repro.tuning.variants.VARIANTS`; comma string or list), and
    ``calibrate=True`` runs a full variant sweep — measure every
    available build of the chunk shape, dispatch the winner — while
    ``calibrate=False`` disables measurement entirely.  The build
    executed is reported in ``result.variant`` and the resolved batch in
    ``result.claim_batch``.

    ``safety`` selects the chunk-safety mode (see :func:`resolve_safety`;
    default ``"warn"``).  Under ``"enforce"`` a loop the verifier cannot
    prove race-free raises :class:`SafetyVerificationError` *before* any
    worker or shared segment is created.  Under ``"speculate"`` that loop
    gets a dynamic chance first: the runtime inspector certifies it when
    it can (normal dispatch, ``result.speculation == "proven-dynamic"``),
    otherwise the dispatch runs speculatively into shadow segments and is
    committed or — on a detected cross-chunk conflict — rolled back and
    re-run serially, leaving the caller's arrays bit-identical to a
    serial execution (``result.speculation`` is ``"committed"`` or
    ``"rolled-back"``).  Only a scalar-hazard loop (or an
    inspector-refuted one) still raises, exactly like enforce.
    """
    validate(proc)
    body = proc.body
    if len(body) != 1 or not isinstance(body.stmts[0], Loop):
        raise ParallelDispatchError(
            "procedure body must be a single loop (use run_parallel_procedure "
            "for mixed serial/parallel programs)"
        )
    loop = body.stmts[0]
    if not _dispatchable(loop):
        raise ParallelDispatchError(
            f"outer loop {loop.var!r} is not a unit-step DOALL"
        )
    mode = resolve_safety(safety)
    report, blocked = _safety_gate(proc, mode)
    plans: dict[int, SpecPlan] = {}
    proven_dynamic = False
    if id(loop) in blocked:
        # Where the whole-procedure driver would run this loop serially,
        # a single-loop run has nothing left to parallelize: refuse it
        # here, before any process or segment exists.
        refusal = None
        if mode == "enforce":
            refusal = f"safety=enforce refused to dispatch {proc.name!r}: " + (
                _unproven_summary(report)
            )
        else:
            plans = _speculation_plans([loop], blocked, report)
            plan = plans[id(loop)]
            if plan.action == "refuse":
                refusal = (
                    f"safety=speculate refused to dispatch {proc.name!r}: "
                    f"{plan.reason}"
                )
            elif plan.action == "inspect":
                insp = _inspect(loop, dict(scalars or {}), arrays, report)
                if insp.proven:
                    # Certified on the caller's arrays — the state the one
                    # dispatch will see — so it goes out as a proven loop.
                    blocked, proven_dynamic = blocked - {id(loop)}, True
                else:
                    refusal = (
                        "safety=speculate: runtime inspector refuted "
                        f"dispatch of {proc.name!r}: {insp.describe()}"
                    )
        if refusal is not None:
            record_safety_block()
            raise SafetyVerificationError(refusal)
    out = _run(
        proc, arrays, scalars, mode, report, blocked, plans, workers, policy,
        chunk, timeout, log_events, method, claim_batch, chunk_lang,
        variants, calibrate,
    )
    (result,) = out.dispatches
    if proven_dynamic:
        result.speculation = "proven-dynamic"
    return result


def run_parallel_procedure(
    proc: Procedure,
    arrays: Mapping[str, np.ndarray],
    scalars: Mapping[str, int | float] | None = None,
    workers: int = 4,
    policy: SchedulingPolicy | str = "gss",
    chunk: int | None = None,
    timeout: float | None = None,
    log_events: bool = True,
    method: str | None = None,
    claim_batch: int | str = "auto",
    pool: WorkerPool | None = None,
    chunk_lang: str | None = None,
    safety: str | None = None,
    variants=None,
    calibrate: bool | None = None,
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
    paying for a pool.

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

    ``chunk_lang``, ``claim_batch`` (default ``"auto"``), ``variants``,
    and ``calibrate`` behave exactly as in :func:`run_parallel_doall`;
    decisions are resolved per dispatched loop shape, so a hybrid program
    calibrates each of its DOALLs at most once per run and every later
    dispatch of the same shape reuses the pinned decision
    (``result.calibrations`` / ``result.pinned_decisions`` count both).

    ``safety`` selects the chunk-safety mode (default ``"warn"``: verify
    and report, dispatch everything).  Under ``"enforce"``, unproven
    loops execute serially in the parent instead of being dispatched
    (counted in ``result.blocked_dispatches``); when *no* dispatchable
    loop is proven, the run raises :class:`SafetyVerificationError`
    before any worker is created — a run that could only ever execute
    serially should not pay for a pool.  Under ``"speculate"``, unproven
    loops are inspected (dispatching with a certificate when proven) or
    run speculatively with commit/rollback; per-dispatch outcomes land in
    ``result.inspected`` / ``proven_dynamic`` / ``speculated`` /
    ``committed`` / ``rolled_back`` and certificates on the safety
    report.  The refuse-everything raise then only fires when every
    dispatchable loop has a scalar hazard no dynamic mode can fix.
    """
    validate(proc)
    _check_dispatchable(proc)
    mode = resolve_safety(safety)
    report, blocked = _safety_gate(proc, mode)
    plans: dict[int, SpecPlan] = {}
    if blocked:
        loops = _dispatchable_loops(proc.body)
        if mode == "speculate":
            plans = _speculation_plans(loops, blocked, report)
            workable = [
                lp
                for lp in loops
                if id(lp) not in blocked
                or plans[id(lp)].action != "refuse"
            ]
            if not workable:
                record_safety_block(len(loops))
                raise SafetyVerificationError(
                    f"safety=speculate refused every dispatch in "
                    f"{proc.name!r}: {_unproven_summary(report)}"
                )
        elif all(id(lp) in blocked for lp in loops):
            record_safety_block(len(loops))
            raise SafetyVerificationError(
                f"safety=enforce refused every dispatch in {proc.name!r}: "
                f"{_unproven_summary(report)}"
            )
    return _run(
        proc, arrays, scalars, mode, report, blocked, plans, workers, policy,
        chunk, timeout, log_events, method, claim_batch, chunk_lang,
        variants, calibrate, pool=pool, preloaded=preloaded,
    )
