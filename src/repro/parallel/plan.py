"""The prepared plan: what a run decides once, kept for every later run.

The paper's bargain is to decide at compile time whatever can be decided
there and to pay only the claims at run time.  A :class:`Plan` is that
decision for one procedure and one *run shape*, built by the first
:func:`~repro.parallel.runtime.run_parallel_procedure` call that needs it
and reused by every later one — the ruler's warm pools,
``MPCompiledProcedure`` and the server's registered programs gain it
without a new argument.  The key (:func:`prepare`):

* the procedure, by identity (IR nodes are frozen; the memo entry holds
  the procedure, so its ``id`` cannot be reused while the plan lives);
* the safety mode, the chunk language derived from the host and the
  array dtypes (:func:`chunk_lang`), the scalar C types and the array
  dtypes and ranks;
* the policy (its name, or its type and name) with its chunk rule,
  ``chunk`` and the worker count;
* the identity of the resolved artifact store.

What a plan holds: the procedure, validated and checked for something
dispatchable; the policy, resolved once (:attr:`Plan.policy_shape`); the
chunk language its loops start from (:func:`chunk_lang`, derived from
the host and the dtypes — no caller picks it); the safety verdict, its
blocked set, the strategy each dispatchable loop runs under
(``dispatch``, ``reduce``, ``serial``, ``inspect``) and, for each blocked
loop, why the inspector may or may not decide it; the reduction plans;
the arrays it writes (all a run copies back); and — filled by the first
run that reaches them, then never changed — each loop shape's job
template (its rung of the chunk ladder: the built kernel, else the
numpy or the scalar Python chunk) with its one-instance region, each
inspected loop's native inspector, the compiled serial residues, and the
region verdict with its job template.  Never in a plan: certificates
(each run keeps its own), counters, results, scalar values, trip counts,
claim batches and ``params`` of a region; nor arrays, which a pool's
workers attach once, at spawn.

Plans live in a bounded, lock-guarded memo.  :func:`drop_plans` empties
it (:func:`repro.tuning.reset_tuning_memo` calls it), and a run whose
workers could not bind a plan's artifacts drops that plan, so the next
run builds it again.  :mod:`repro.parallel.dispatch` runs plans.
"""

from __future__ import annotations

import ctypes
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from repro.analysis.pdg import Reduction, recognize_reduction
from repro.analysis.safety import inspector_eligible
from repro.codegen.cgen import INSPECT_SUFFIX
from repro.codegen.cload import _CTYPES, prefetch_claim_loop_library
from repro.codegen.npgen import generate_chunk_numpy
from repro.codegen.pygen import (
    compile_function,
    generate_chunk_source,
    generate_source,
)
from repro.ir.expr import ArrayRef, BinOp, Const, Var, min_
from repro.ir.stmt import Assign, Block, If, Loop, LoopKind, Procedure, Stmt
from repro.ir.validate import validate
from repro.ir.visitor import stored_arrays, walk_exprs, walk_stmts
from repro.parallel import runtime
from repro.parallel.counter import PARTIALS_KEY, policy_plan
from repro.parallel.errors import ParallelDispatchError, SafetyVerificationError
from repro.parallel.region import instance_template
from repro.parallel.shm import native_layout
from repro.runtime.inspector import InspectionResult
from repro.runtime.interp import InterpreterError, eval_bound

#: Plans (and verdicts) kept per process.  A plan is a few job templates
#: and references to IR the caller holds anyway.
MEMO_BOUND = 128

_PLANS: OrderedDict = OrderedDict()
_VERDICTS: OrderedDict = OrderedDict()
_LOCK = threading.Lock()


def _recall(memo: OrderedDict, key):
    with _LOCK:
        hit = memo.get(key)
        if hit is not None:
            memo.move_to_end(key)
        return hit


def _remember(memo: OrderedDict, key, value):
    with _LOCK:
        memo[key] = value
        memo.move_to_end(key)
        while len(memo) > MEMO_BOUND:
            memo.popitem(last=False)
    return value


def drop_plans() -> None:
    """Forget every plan and verdict (the next run of anything rebuilds)."""
    with _LOCK:
        _PLANS.clear()
        _VERDICTS.clear()


def verdict(proc: Procedure):
    """The chunk-safety report of ``proc``, verified once per procedure.

    The one verdict path: plans read it, and so do
    ``MPCompiledProcedure.safety_report`` and the API's.
    """
    hit = _recall(_VERDICTS, id(proc))
    if hit is None:
        from repro.analysis.safety import verify_procedure

        hit = _remember(_VERDICTS, id(proc), (proc, verify_procedure(proc)))
    return hit[1]


def _kind(value) -> str:
    """What a scalar is to a kernel and to the region's skeleton."""
    if isinstance(value, (float, np.floating)):
        return "double"
    if isinstance(value, (int, np.integer)):
        return "long"
    return type(value).__name__


def _shape(proc: Procedure, loop: Loop, env) -> tuple[tuple, tuple]:
    """``(env-local scalar names, every scalar's kind)`` of a dispatch."""
    extra = tuple(sorted(k for k in env if k not in proc.scalars and k != loop.var))
    return extra, tuple(_kind(env[s]) for s in tuple(proc.scalars) + extra)


def _unproven_summary(report) -> str:
    """One-line refusal reason: each unproven loop with its rule codes."""
    parts = []
    for v in report.loops:
        if not v.proven:
            rules = sorted({f.rule for f in v.findings}) or ["unproven"]
            parts.append(f"loop {v.loop_var} ({', '.join(rules)})")
    return "; ".join(parts)


def chunk_lang(arrays: Mapping[str, np.ndarray]) -> str:
    """The chunk language a plan over ``arrays`` starts from: ``"c"``
    where a compiler is on PATH, else ``"numpy"`` — both only when every
    array is float64, what the compiled and vectorized chunks are built
    for — else ``"py"``, the dtype-generic floor.  Each loop shape then
    steps down from it as far as it must (:meth:`Plan._prep`)."""
    if any(a.dtype != np.float64 for a in arrays.values()):
        return "py"
    return "c" if runtime.have_compiler() else "numpy"


def prepare(
    proc: Procedure,
    arrays: Mapping[str, np.ndarray],
    scalars: Mapping[str, int | float],
    mode: str,
    policy,
    chunk: int | None,
    workers: int,
) -> "Plan":
    """The plan for this call: a memo hit, or built now (before any pool).

    The chunk language (:func:`chunk_lang`) and the resolved policy are
    part of the key; resolving a bad policy (an unknown name, a chunk
    below 1) raises here, before any pool and before anything is
    memoized.  Building validates the procedure, checks it has something
    to dispatch and runs the safety verdict — any of which raises here.
    Only dtypes and ranks of ``arrays`` are read, in any order, so a
    caller may ask with placeholders before it has a pool or the data;
    the run records the verdict in the metrics.
    """
    from repro.cache import resolve_cache

    store = resolve_cache("default")
    lang = chunk_lang(arrays)
    shape = policy_plan(policy, 1, 1, chunk)
    key = (
        id(proc), mode, lang,
        tuple(sorted((k, _kind(v)) for k, v in scalars.items())),
        tuple(sorted((k, a.dtype.str, a.ndim) for k, a in arrays.items())),
        policy if isinstance(policy, str) else (
            type(policy).__name__, policy.name,
        ),
        shape.rule, chunk, workers, id(store),
    )
    plan = _recall(_PLANS, key)
    if plan is None:
        plan = _remember(
            _PLANS, key, Plan(key, proc, mode, lang, store, shape)
        )
    return plan


def drop(plan: "Plan") -> None:
    """Forget ``plan`` (a run found its artifacts unbindable)."""
    with _LOCK:
        if _PLANS.get(plan.key) is plan:
            del _PLANS[plan.key]


@dataclass(frozen=True)
class _Prep:
    """One loop shape's dispatch, less what each dispatch fills in."""

    #: The lock-guarded loop's job.
    job: dict
    #: The C kernel could not be built: a chunk fallback, counted per
    #: dispatch.
    fallback: bool = False
    #: The one-instance region (:func:`repro.parallel.region.instance_template`)
    #: a dynamic dispatch with a C kernel runs on, or None.
    native: object = None


class Plan:
    """One procedure prepared for one run shape (see the module docstring)."""

    def __init__(self, key, proc, mode, lang, store, shape) -> None:
        validate(proc)
        loops = runtime._dispatchable_loops(proc.body)
        if not loops:
            tagged = any(
                isinstance(s, Loop) and s.is_doall for s in walk_stmts(proc.body)
            )
            raise ParallelDispatchError(
                f"procedure {proc.name!r} has no dispatchable unit-step DOALL "
                + (
                    "(coalesce it first, or run the serial backend)"
                    if tagged
                    else "(no loop is tagged DOALL: none was, or the analysis "
                    "could not prove one parallel; run the serial backend)"
                )
            )
        self.key = key
        self.proc = proc
        #: The policy as one worker would run a one-iteration loop: its
        #: name and its chunk rule (None for a static policy).
        self.policy_shape = shape
        self.mode = mode
        self.lang = lang
        self.store = store
        self.loops = loops
        self.serial_outer = runtime._serial_outer(proc.body)
        self.report, self.blocked = self._safety(proc, mode)
        self.reductions: dict[int, _ReductionPlan] = {}
        self.strategies: dict[int, str] = {}
        #: Why the inspector may (``inspect``) or may not (``serial``)
        #: decide each blocked loop.
        self.reasons: dict[int, str] = {}
        for lp in loops:
            if id(lp) in self.blocked:
                self.strategies[id(lp)] = self._route(lp)
                continue
            red = _reduction_plan(proc, lp)
            if red is not None:
                self.reductions[id(lp)] = red
            self.strategies[id(lp)] = "dispatch" if red is None else "reduce"
        #: Why the whole run is refused — nothing left but serial loops —
        #: or None.
        self.refusal = None
        if all(s == "serial" for s in self.strategies.values()):
            self.refusal = (
                f"safety={mode} refused every dispatch in {proc.name!r}: "
                f"{_unproven_summary(self.report)}"
            )
        #: The arrays the procedure stores to: all a run copies back.
        self.written = stored_arrays(proc.body)
        self.kernels = KernelBuilder(store)
        #: Compiled serial residues by ``id(stmt)`` (False: did not
        #: compile, so interpreted).
        self.residues: dict[int, object] = {}
        self._slots: dict = {}
        self._lock = threading.Lock()

    @staticmethod
    def _safety(proc: Procedure, mode: str):
        """``(report, blocked-loop ids)``: nothing under off; otherwise
        every unproven loop is blocked, and a verifier crash fails closed."""
        if mode == "off":
            return None, frozenset()
        try:
            report = verdict(proc)
        except Exception as exc:
            raise SafetyVerificationError(
                f"safety={mode}: chunk-safety verification of "
                f"{proc.name!r} failed: {exc}"
            ) from exc
        return report, frozenset(
            loop_id for loop_id, v in report.by_id.items() if not v.proven
        )

    def _route(self, loop: Loop) -> str:
        """``inspect`` or ``serial`` for a loop the verdict blocks.  The
        inspector decides one only when no scalar carries a value across
        iterations (PRIV002) and no array is both written and read
        (:func:`inspector_eligible`)."""
        findings = self.report.by_id[id(loop)].findings
        hazards = sorted(
            {f.scalar for f in findings if f.rule == "PRIV002" and f.scalar}
        )
        if hazards:
            self.reasons[id(loop)] = (
                "scalar(s) %s carry values across iterations; the inspector "
                "cannot recover them" % ", ".join(hazards)
            )
            return "serial"
        eligible, self.reasons[id(loop)] = inspector_eligible(loop)
        return "inspect" if eligible else "serial"

    def once(self, key, build: Callable[[], object]):
        """Slot ``key``, built by ``build()`` on first use and then fixed."""
        hit = self._slots.get(key)
        if hit is None:
            with self._lock:
                hit = self._slots.get(key)
                if hit is None:
                    hit = self._slots[key] = build()
        return hit

    def inspector(self, loop, env):
        """An inspected ``loop``'s native inspector, or None.  It is in the
        kernel unit the loop dispatches with: no compiler run of its own."""
        if self.lang != "c" or self.strategies.get(id(loop)) != "inspect":
            return None
        extra, types = _shape(self.proc, loop, env)
        key = ("inspect", id(loop), extra, types)
        return self.once(key, lambda: self._inspector(loop, extra, env)) or None

    def _inspector(self, loop, extra, env):
        kernel = self.kernels.chunk_kernel(self.proc, loop, extra, env, inspect=True)
        lib = kernel and ctypes.CDLL(kernel["c_so"])
        fn = lib and getattr(lib, kernel["c_fname"] + INSPECT_SUFFIX, None)
        if not fn:  # no kernel, or a loop the C pass cannot check
            return False
        fn.restype = ctypes.c_long
        fn.argtypes = [ctypes.c_long, ctypes.c_long] + [
            ctypes.c_void_p if t == "ptr" else _CTYPES[t] for t in kernel["c_sig"]
        ] + [ctypes.c_void_p]
        ranks, reason = self.proc.arrays, self.reasons[id(loop)]
        order = tuple(self.proc.scalars) + extra

        def native(loop, env, arrays) -> InspectionResult | None:
            """A proof, or None (eligibility is the plan's: no IR walk)."""
            t0 = time.perf_counter()
            if not native_layout(arrays, ranks):
                return None
            try:
                lo = eval_bound(loop.lower, env, arrays)
                hi = eval_bound(loop.upper, env, arrays)
                scalars = [env[s] for s in order]
            except (InterpreterError, KeyError):
                return None
            args = [x for a in map(arrays.get, ranks) for x in (a.ctypes.data, *a.shape)]
            out = ctypes.c_long()
            if fn(lo, hi, *args, *scalars, ctypes.byref(out)):
                return None
            return InspectionResult(
                loop.var, True, reason, proven=True,
                iterations=max(hi - lo + 1, 0), elements=out.value,
                wall_s=time.perf_counter() - t0, inspector="native",
            )

        return native

    def prep(self, run, proc, loop, env):
        """The :class:`_Prep` of one dispatch of ``loop`` under ``env``.

        Keyed by loop identity, the env-local scalar names and every
        scalar's C type (a hybrid program can feed one loop integers on
        one dispatch and serially computed floats on the next).
        """
        extra, types = _shape(proc, loop, env)
        return self.once(
            (id(loop), extra, types),
            lambda: self._prep(run, proc, loop, extra, env),
        )

    def _prep(self, run, proc, loop, extra, env) -> _Prep:
        """The job template, down the ladder from the plan's language: the
        C kernel with its one-instance region; else, or when the kernel
        does not build, the whole-slice numpy chunk where npgen accepts
        the body; else the scalar Python chunk.  A job carries one Python
        chunk — for a C job the scalar one, where a worker that cannot
        bind the kernel lands.

        The one array a derived reduction adds to the program's is its
        partials, bound to the counter block's slots
        (:data:`~repro.parallel.counter.PARTIALS_KEY`); the workers
        attached every other at spawn."""
        widened = _widened(proc, extra)
        order = [
            a if a in self.proc.arrays else PARTIALS_KEY for a in proc.arrays
        ]
        job = {"array_order": order, "scalar_order": list(widened.scalars)}
        fallback = False
        if self.lang == "c":
            inspect = self.strategies.get(id(loop)) == "inspect"
            kernel = (
                self.kernels.chunk_kernel(proc, loop, extra, env, inspect)
                if native_layout(run.views, self.proc.arrays)
                else None
            )
            if kernel is not None:
                kernel = {**kernel, "array_order": order}
                job.update(kernel, chunk_lang="c")
                job.update(_chunk(widened, loop, generate_chunk_source))
                return _Prep(job, native=instance_template(run, loop, kernel))
            fallback = True
        if self.lang != "py":
            try:
                job.update(
                    _chunk(widened, loop, generate_chunk_numpy, "_np"),
                    chunk_lang="numpy",
                )
                return _Prep(job, fallback)
            except Exception:  # a body npgen refuses (NumpyGenError)
                pass
        job.update(_chunk(widened, loop, generate_chunk_source), chunk_lang="py")
        return _Prep(job, fallback)


# ---------------------------------------------------------------------------
# The kernel path
# ---------------------------------------------------------------------------


def _widened(proc: Procedure, extra: tuple[str, ...]) -> Procedure:
    """``proc`` whose parameter list also carries env-local scalars."""
    return Procedure(
        proc.name, proc.body, proc.arrays, tuple(proc.scalars) + extra
    )


def _chunk(widened: Procedure, loop: Loop, generate, suffix: str = "") -> dict:
    """The ``source``/``fname`` job keys of one Python chunk of ``loop``
    (scalar or whole-slice: one calling convention, one chunk compiler).
    Generated afresh per plan slot — cheaper than any cache lookup."""
    fname = f"{widened.name}__chunk{suffix}"
    return {"source": generate(widened, loop=loop, name=fname), "fname": fname}


class KernelBuilder:
    """The plan builder's kernel path: C kernel builds per loop shape.

    Memoized by loop identity for the builder's lifetime (a plan's, or one
    server ``/compile``'s) and content-addressed in the artifact store
    behind that (:func:`~repro.codegen.cload.compile_chunk_library`'s
    ``chunk_clib``), so a shape is compiled once across runs, processes
    and the server.  A codegen or compile failure is memoized as None: a
    shape that cannot go native costs one attempt.
    """

    def __init__(self, store) -> None:
        self.store = store
        self._memo: dict = {}

    def chunk_kernel(self, proc, loop, extra, env, inspect=False):
        """The C kernel as the job keys of every job that runs it, or None.

        ``c_so``, ``c_thunk``, ``array_order``, ``scalar_order`` and
        ``c_scalar_types`` are what a worker binds, on either claim
        protocol; ``c_fname`` and ``c_sig`` name and type the native
        inspector's entry.  Keyed by loop identity plus the C types of the
        live scalar values plus whether the unit also carries the loop's
        native inspector.
        """
        widened = _widened(proc, extra)
        types = tuple(
            "double" if _kind(env[s]) == "double" else "long"
            for s in widened.scalars
        )
        key = ("c", id(loop), extra, types, inspect)
        if key not in self._memo:
            try:
                self._memo[key] = self._build_kernel(
                    widened, loop, types, inspect
                )
            except Exception:
                self._memo[key] = None
        return self._memo[key]

    def _build_kernel(self, widened, loop, types, inspect):
        fname = f"{widened.name}__chunk"
        source = runtime.generate_chunk_c(
            widened, loop=loop, name=fname,
            scalar_types=dict(zip(widened.scalars, types)), inspect=inspect,
        )
        # The dispatch this kernel is for will want the claim library
        # too; where that is still unresolved (a process's first native
        # build) its compiler run shares this one's wait.
        warming = prefetch_claim_loop_library(self.store)
        try:
            so_path, _ = runtime.compile_chunk_library(
                source, fname, cache=self.store
            )
        finally:
            if warming is not None:
                warming.join()
        sig: list[str] = []
        for rank in widened.arrays.values():
            sig.append("ptr")
            sig.extend(["long"] * rank)
        return {
            "c_so": so_path, "c_fname": fname, "c_sig": (*sig, *types),
            "c_thunk": fname + runtime.THUNK_SUFFIX,
            "array_order": list(widened.arrays),
            "scalar_order": list(widened.scalars), "c_scalar_types": types,
        }


def prewarm(proc: Procedure, store) -> int:
    """Build the C kernel every loop shape of ``proc`` will run with.

    What the server does at ``/compile``: each kernel is compiled with
    the integer-scalar signature JSON scalars decode to (for a recognized
    reduction, the derived strip-mined loop the run dispatches), so the
    first ``/run``'s plan finds it in the store.  Returns the number of
    kernels warmed — 0 without a compiler, where nothing is worth
    keeping; a shape that fails warms nothing.
    """
    if not runtime.have_compiler():
        return 0
    kernels = KernelBuilder(store)
    warmed = 0
    for lp in runtime._dispatchable_loops(proc.body):
        red = _reduction_plan(proc, lp)
        kproc, kloop = (proc, lp) if red is None else (red.proc, red.loop)
        env = {name: 1 for name in kproc.scalars}
        warmed += kernels.chunk_kernel(kproc, kloop, (), env) is not None
    return warmed


# ---------------------------------------------------------------------------
# Reduction plans (recognized ``s := s ⊕ expr`` loops)
# ---------------------------------------------------------------------------

#: Finite identity constants for the derived init statement.  ``min`` and
#: ``max`` use ±float-max instead of ±inf — generated Python and C sources
#: cannot spell infinity as a literal — which folds exactly like the true
#: identity for any representable finite data.
RED_IDENTITY: dict[str, float] = {
    "+": 0.0,
    "*": 1.0,
    "min": float(np.finfo(np.float64).max),
    "max": float(-np.finfo(np.float64).max),
}


@dataclass(frozen=True)
class _ReductionPlan:
    """Everything one recognized reduction loop needs to dispatch.

    ``proc``/``loop`` are the derived strip-mined form the workers
    execute (its one array beyond the program's is the partials);
    ``chunks``/``stride`` name the two symbolic grid scalars, so one
    cached chunk kernel serves every trip count.
    """

    reduction: Reduction
    proc: Procedure
    loop: Loop
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
        Block((Assign(pref, Const(RED_IDENTITY[red.op])), inner)),
        Const(1), LoopKind.DOALL,
    )
    arrays = dict(proc.arrays)
    arrays[partial] = 1
    derived = Procedure(
        f"{proc.name}__red", Block((outer,)), arrays,
        tuple(proc.scalars) + (chunks, stride),
    )
    validate(derived)
    return _ReductionPlan(red, derived, outer, chunks, stride)


def _reduction_plan(proc: Procedure, loop: Loop) -> _ReductionPlan | None:
    """The reduction plan for ``loop``, or None (it dispatches normally)."""
    red = recognize_reduction(loop)
    if red is None or red.scalar in proc.arrays:
        return None
    try:
        return derive_reduction_dispatch(proc, loop, red)
    except Exception:
        return None


# ---------------------------------------------------------------------------
# Serial residues (dispatch-free serial loops the parent runs)
# ---------------------------------------------------------------------------


def compile_residue(stmt: Loop, env: Mapping[str, int | float]):
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
        return compile_function(source, "__residue"), tuple(refs), params, returns
    except Exception:
        return False
