"""Running a prepared plan: fill in, dispatch, combine — nothing else.

:func:`execute` runs one :class:`~repro.parallel.plan.Plan` on one pool.
Everything compile-time is already in the plan (or, on a plan's first
run, goes into it the first time it is reached); what happens here per
call is what the paper leaves dynamic: evaluate the bounds, fill the
job's scalars, trip count, batch clamp and the pool's ``specs``,
dispatch, fold the workers' reports into a
:class:`~repro.parallel.runtime.ParallelRunResult` (on either protocol,
:func:`repro.parallel.region._assemble`), and — for the
loops the plan says so — inspect or combine partials.

Each dispatchable loop runs under the strategy the plan picked for it:

``dispatch``  one job on the pool (:func:`_dispatch_pool`): a region of
              one instance when the chunks are C kernels and the policy
              is dynamic, else the lock-guarded or static Python loop;
``reduce``    partial accumulators in a side segment, folded in order;
``serial``    refused by the verdict: the parent runs it through the
              plan's compiled residue, like any dispatch-free serial loop;
``inspect``   the runtime inspector (native when the plan has a C
              kernel), then a normal dispatch if it proves
              the loop, else serial.

A program with a DOALL under a serial loop first tries its SPMD region
(:mod:`repro.parallel.region`); the rest of the statement tree is walked
by :func:`_exec`, which drives serial loops around their DOALLs in the
parent and hands dispatch-free serial loops to the plan's compiled
residues.
"""

from __future__ import annotations

import time
from typing import Mapping

import numpy as np

from repro.analysis.safety import dispatchable
from repro.ir.expr import apply_binop
from repro.ir.stmt import Block, If, Loop, Stmt
from repro.parallel import runtime
from repro.parallel.counter import policy_plan
from repro.parallel.errors import ParallelDispatchError, ParallelTimeoutError
from repro.parallel.observe import (
    record_lang_fallback,
    record_reduction_dispatch,
    record_safety_block,
)
from repro.parallel.plan import (
    RED_IDENTITY,
    RED_MAX_CHUNKS,
    compile_residue,
    drop,
)
from repro.parallel.region import _assemble, enter, try_region
from repro.parallel.runtime import (
    ParallelRunResult,
    _contains_dispatchable,
    _empty_result,
)
from repro.parallel.shm import SharedArrayPool
from repro.runtime.interp import Interpreter, InterpreterError, eval_bound

class Run:
    """One call's state — never kept in the plan.

    ``stale`` is set when workers could not bind the plan's artifacts:
    the plan is dropped after the run, and the rest of the run claims on
    the lock-guarded protocol.
    """

    def __init__(
        self, plan, pool, env, out, policy, chunk, claim_batch, deadline,
        log_events,
    ) -> None:
        self.plan = plan
        self.pool = pool
        self.views = pool.views
        self.env = env
        self.out = out
        self.policy = policy
        self.chunk = chunk
        self.claim_batch = claim_batch
        self.deadline = deadline
        self.log_events = log_events
        self.interp = Interpreter()
        self.stale = False
        self._policy_plans: dict = {}

    def policy_plan(self, n: int, active: int):
        key = (n, active)
        hit = self._policy_plans.get(key)
        if hit is None:
            hit = self._policy_plans[key] = policy_plan(
                self.policy, n, active, self.chunk
            )
        return hit

    def finish(self) -> None:
        """Forget a plan whose artifacts did not bind."""
        if self.stale:
            drop(self.plan)


def execute(run: Run) -> None:
    """Run the whole procedure of ``run.plan``."""
    if run.plan.serial_outer and try_region(run):
        return
    _exec(run, run.plan.proc.body, run.env)


# ---------------------------------------------------------------------------
# One dispatch
# ---------------------------------------------------------------------------


def _resolve_claim_batch(requested, plan, n: int, active: int) -> int:
    """Resolve ``claim_batch`` (an int >= 1 or ``"auto"``) to the value
    the lock-guarded loop uses.

    GSS and static plans never batch: 1, whatever was asked.  Otherwise
    explicit integers pass through, and ``"auto"`` is one fixed rule: at
    most 64 chunks per claim, and at least eight claim rounds per active
    worker (DESIGN.md §4g).  The region driver's ``phase_`` computes the
    same value in C (:data:`repro.codegen.cgen._REGION_RUNTIME`).
    """
    if plan.rule is None or plan.rule[0] == "gss":
        return 1
    if requested != "auto":
        return requested
    per_claim = 1 if plan.rule[0] == "unit" else max(1, plan.rule[1])
    chunks = max(1, -(-n // per_claim))
    return max(1, min(64, chunks // (8 * max(1, active))))


def _dispatch_pool(
    run: Run,
    proc,
    loop: Loop,
    env: Mapping[str, int | float],
    extra_specs: list | None = None,
    extra_views: Mapping[str, np.ndarray] | None = None,
) -> ParallelRunResult:
    """Run one DOALL on the persistent pool: a message, not a fork.

    The job is the plan's template for this loop shape plus what this
    dispatch fills in: its one-instance region when it has one and the
    run's workers have bound everything so far, else the lock-guarded
    loop's job.  ``extra_specs``/``extra_views`` ship side-channel
    arrays outside the main pool (the reduction engine's partials).
    """
    wpool = run.pool
    lo = eval_bound(loop.lower, env, run.views, "loop lower bound")
    hi = eval_bound(loop.upper, env, run.views, "loop upper bound")
    n = max(0, hi - lo + 1)
    if n == 0:
        # Nothing to do — and nothing sent: the pool idles through empty
        # ranges and stays usable for the next dispatch.
        return _empty_result(loop, lo, hi, wpool.workers, run.policy)
    prep = run.plan.prep(run, proc, loop, env, extra_views)
    if prep.fallback:
        record_lang_fallback()
    specs = wpool.shared.specs() + list(extra_specs or ())
    if prep.native is not None and not run.stale:
        results = enter(run, prep.native, [lo, hi], env, specs)
        if results is not None:
            tpl = prep.native
            return _assemble(results, tpl.loops, tpl.policy_name, run.policy)[0]
    active = max(1, min(wpool.workers, n))
    plan = run.policy_plan(n, active)
    batch = _resolve_claim_batch(run.claim_batch, plan, n, active)
    job = dict(prep.job)
    job.update(
        specs=specs,
        scalars={name: env[name] for name in job["scalar_order"]},
        plan=plan,
        lo=lo,
        hi=hi,
        batch=batch,
        log_events=run.log_events,
    )
    results = wpool.dispatch(job, lo, hi, run.deadline)
    claim_loop = "static" if plan.rule is None else "py"
    (result,) = _assemble(results, [loop], plan.name, run.policy, claim_loop)
    if result.chunk_lang != job["chunk_lang"]:
        # A worker degraded from the build (dlopen/bind failure): a chunk
        # fallback, like a parent-side one, and the plan is stale.
        record_lang_fallback()
        run.stale = True
    return result


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------


def _dispatched(run: Run, loop: Loop, env: dict) -> None:
    run.out.dispatches.append(_dispatch_pool(run, run.plan.proc, loop, env))


def _reduced(run: Run, loop: Loop, env: dict) -> None:
    """A recognized reduction, through partial accumulators + ordered fold.

    The derived strip-mined loop dispatches with the partial array
    attached as a side-channel segment; the parent then folds the
    partials in ascending chunk order, seeded with the incoming
    accumulator value, and writes the result back into ``env`` — exactly
    the serial association ``((s ⊕ p₁) ⊕ p₂) …`` with ``p_c = ((id ⊕
    u_{c,1}) ⊕ …)``, bit-identical to serial execution whenever ⊕ is
    exact on the data (min/max always; float +/* on integer-valued data).
    A correctness matter, not an optimization: dispatched plainly, each
    worker would hold a private copy of the accumulator.  The chunk grid
    is a pure function of the trip count, never the worker count.
    """
    red_plan = run.plan.reductions[id(loop)]
    red = red_plan.reduction
    if red.scalar not in env:
        raise ParallelDispatchError(
            f"reduction scalar {red.scalar!r} has no incoming value"
        )
    lo = eval_bound(loop.lower, env, run.views, "loop lower bound")
    hi = eval_bound(loop.upper, env, run.views, "loop upper bound")
    n = max(0, hi - lo + 1)
    result = _empty_result(loop, lo, hi, run.pool.workers, run.policy)
    if n > 0:
        n_chunks = max(1, min(RED_MAX_CHUNKS, n))
        seed = np.full(n_chunks, RED_IDENTITY[red.op], dtype=np.float64)
        env2 = dict(env)
        env2[red_plan.chunks] = n_chunks
        env2[red_plan.stride] = -(-n // n_chunks)
        with SharedArrayPool({red_plan.partial: seed}) as ppool:
            result = _dispatch_pool(
                run, red_plan.proc, red_plan.loop, env2, ppool.specs(),
                ppool.views,
            )
            parts = ppool.views[red_plan.partial][:n_chunks].tolist()
        acc = env[red.scalar]
        for part in parts:
            acc = apply_binop(red.op, acc, part)
        env[red.scalar] = acc
    result.reduction_scalar = red.scalar
    result.reduction_value = float(env[red.scalar])
    record_reduction_dispatch()
    run.out.reductions += 1
    run.out.dispatches.append(result)


def _serial(run: Run, loop: Loop, env: dict) -> None:
    """A loop the verdict refuses to dispatch (or the inspector refutes):
    serial, in the parent, through the compiled residue."""
    record_safety_block()
    run.out.blocked_dispatches += 1
    _residue(run, loop, env)
    run.out.serial_stmts += 1


def _inspected(run: Run, loop: Loop, env: dict) -> None:
    """Inspect one blocked dispatch and keep the result as the run's
    certificate: a proven loop dispatches normally, a refuted one runs
    serially."""
    native = run.plan.inspector(loop, env)
    insp = runtime.inspect_dispatch(loop, env, run.views, native)
    run.out.certificates.append(insp)
    if insp.proven:
        _dispatched(run, loop, env)
    else:
        _serial(run, loop, env)


_STRATEGIES = {
    "dispatch": _dispatched,
    "reduce": _reduced,
    "serial": _serial,
    "inspect": _inspected,
}


# ---------------------------------------------------------------------------
# The statement walk (serial segments + nested dispatch)
# ---------------------------------------------------------------------------


_MISSING = object()


def _residue(run: Run, stmt: Loop, env: dict) -> None:
    """A loop the parent runs serially, through the plan's compiled residue.

    The serial residue of a fissioned program (the cyclic-SCC sub-loops)
    and every DOALL the plan runs serially (blocked or refuted) run in
    the parent; the tree interpreter would dominate the wall clock.  Each
    residue compiles once per plan (generated Python, the backend the
    suite holds bit-identical to the interpreter); only a residue that
    does not compile is interpreted.  A raise from a compiled residue is
    the run's error, as the interpreter would report it: rerunning the
    loop over arrays the failed call already wrote is no recovery, and
    the residue stays compiled for the next run.  (Two runs racing here
    compile the same residue twice, harmlessly.)
    """
    residues = run.plan.residues
    entry = residues.get(id(stmt))
    if entry is None:
        entry = residues[id(stmt)] = compile_residue(stmt, env)
    if entry is False:
        run.interp._exec(stmt, env, run.views)
        return
    fn, array_order, params, returns = entry
    try:
        out_vals = fn(
            *[run.views[a] for a in array_order], *[env[p] for p in params]
        )
    except Exception as exc:
        raise InterpreterError(f"serial loop {stmt.var!r}: {exc}") from exc
    for name, val in zip(returns, out_vals):
        env[name] = val


def _exec(run: Run, stmt: Stmt, env: dict[str, int | float]) -> None:
    """Execute a statement tree, running every reachable DOALL under its
    strategy.

    Serial loops *containing* dispatchable DOALLs are driven by the
    parent (their control flow must interleave with dispatches — the
    pivot loop of Gauss–Jordan); dispatch-free serial loops go to the
    compiled residue; everything else falls through to the interpreter
    over the shared views.
    """
    out, views = run.out, run.views
    if isinstance(stmt, Block):
        for s in stmt.stmts:
            _exec(run, s, env)
        return
    if run.deadline is not None and time.monotonic() > run.deadline:
        raise ParallelTimeoutError(
            "parallel run exceeded its deadline in a serial segment"
        )
    if isinstance(stmt, Loop) and dispatchable(stmt):
        _STRATEGIES[run.plan.strategies[id(stmt)]](run, stmt, env)
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
            _exec(run, stmt.body, env)
        if saved is _MISSING:
            env.pop(stmt.var, None)
        else:
            env[stmt.var] = saved
    elif isinstance(stmt, If) and _contains_dispatchable(stmt):
        cond = run.interp._eval(stmt.cond, env, views)
        _exec(run, stmt.then if cond else stmt.orelse, env)
    elif isinstance(stmt, Loop):
        _residue(run, stmt, env)
    else:
        run.interp._exec(stmt, env, views)
    out.serial_stmts += 1
