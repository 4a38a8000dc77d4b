"""Running a prepared plan: fill in, dispatch, combine — nothing else.

:func:`execute` runs one :class:`~repro.parallel.plan.Plan` on one pool.
Everything compile-time is already in the plan (or, on a plan's first
run, goes into it the first time it is reached); what happens here per
call is what the paper leaves dynamic: evaluate the bounds, fill the
job's scalars, trip count and claim batch, dispatch, append the workers'
reports to the run's :class:`~repro.parallel.runtime.RunTable` (on
either protocol, :func:`repro.parallel.region._assemble`; an empty range
is :meth:`~repro.parallel.runtime.RunTable.add_empty`, a reduction
rewrites the row it added), and — for the loops the plan says so —
inspect or combine partials.  No ``ParallelRunResult`` is built here,
and nothing here bumps a counter: what ``/metrics`` counts of a dispatch (a chunk
fallback, a blocked loop, a reduction) goes on the run's result, which
:func:`repro.parallel.observe.record_run` folds once the run is over.

Each dispatchable loop runs under the strategy the plan picked for it:

``dispatch``  one job on the pool (:func:`_dispatch_pool`): a region of
              one instance when the chunks are C kernels and the policy
              is dynamic, else the lock-guarded or static Python loop;
``reduce``    partial accumulators in the counter block's slots, folded
              in order;
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
from repro.parallel.counter import RED_MAX_CHUNKS, policy_plan
from repro.parallel.errors import ParallelDispatchError, ParallelTimeoutError
from repro.parallel.plan import compile_residue, drop
from repro.parallel.region import _assemble, enter, try_region
from repro.parallel.runtime import _aggregate, _contains_dispatchable
from repro.runtime.interp import Interpreter, InterpreterError, eval_bound

class Run:
    """One call's state — never kept in the plan.

    ``stale`` is set when workers could not bind the plan's artifacts:
    the plan is dropped after the run, and the rest of the run claims on
    the lock-guarded protocol.
    """

    def __init__(
        self, plan, pool, env, out, policy, chunk, deadline, log_events,
    ) -> None:
        self.plan = plan
        self.pool = pool
        self.views = pool.views
        self.env = env
        self.out = out
        self.policy = policy
        self.chunk = chunk
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


def _resolve_claim_batch(plan, n: int, active: int) -> int:
    """The chunks per claim of a dispatch of ``n`` iterations on
    ``active`` workers under ``plan`` — the one batch rule.

    GSS and static plans never batch: 1.  Otherwise at most 64 chunks per
    claim, and at least eight claim rounds per active worker (DESIGN.md
    §4g).  The region driver's ``phase_`` computes the same value in C
    (:data:`repro.codegen.cgen._REGION_RUNTIME`).
    """
    if plan.rule is None or plan.rule[0] == "gss":
        return 1
    per_claim = 1 if plan.rule[0] == "unit" else max(1, plan.rule[1])
    chunks = max(1, -(-n // per_claim))
    return max(1, min(64, chunks // (8 * max(1, active))))


def _dispatch_pool(
    run: Run,
    proc,
    loop: Loop,
    env: Mapping[str, int | float],
    log_events: bool,
) -> int:
    """Run one DOALL on the persistent pool: a message, not a fork.

    The job is the plan's template for this loop shape plus what this
    dispatch fills in: its one-instance region when it has one and the
    run's workers have bound everything so far, else the lock-guarded
    loop's job.  Returns the row the dispatch added to the run's table.
    """
    wpool, table = run.pool, run.out.table
    lo = eval_bound(loop.lower, env, run.views, "loop lower bound")
    hi = eval_bound(loop.upper, env, run.views, "loop upper bound")
    n = max(0, hi - lo + 1)
    if n == 0:
        # Nothing to do — and nothing sent: the pool idles through empty
        # ranges and stays usable for the next dispatch.
        return table.add_empty(loop.var, lo, hi, wpool.workers, run.policy)
    prep = run.plan.prep(run, proc, loop, env)
    if prep.native is not None and not run.stale:
        results = enter(run, prep.native, [lo, hi], env, log_events)
        if results is not None:
            tpl = prep.native
            return _assemble(table, results, tpl.loops, tpl.policy_name, run.policy)
    active = max(1, min(wpool.workers, n))
    plan = run.policy_plan(n, active)
    batch = _resolve_claim_batch(plan, n, active)
    job = dict(prep.job)
    job.update(
        scalars={name: env[name] for name in job["scalar_order"]},
        plan=plan,
        lo=lo,
        hi=hi,
        batch=batch,
        log_events=log_events,
    )
    results = wpool.dispatch(job, lo, hi, run.deadline)
    claim_loop = "static" if plan.rule is None else "py"
    # A worker that degraded from the build (dlopen/bind failure) is a
    # chunk fallback, like a parent-side one, and the plan is stale.
    langs = {msg[3]["lang"] for msg in results.values()}
    degraded = _aggregate(langs) != job["chunk_lang"]
    run.stale |= degraded
    return _assemble(
        table, results, [loop], plan.name, run.policy, claim_loop,
        prep.fallback or degraded,
    )


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------


def _dispatched(run: Run, loop: Loop, env: dict) -> None:
    _dispatch_pool(run, run.plan.proc, loop, env, run.log_events)


def _reduced(run: Run, loop: Loop, env: dict) -> None:
    """A recognized reduction, through partial accumulators + ordered fold.

    The derived strip-mined loop dispatches with its partial array bound
    to the counter block's slots (each chunk seeds its own with the
    identity); the parent then folds the partials in ascending chunk
    order, seeded with the incoming accumulator value, and writes the
    result back into ``env`` — exactly the serial association ``((s ⊕
    p₁) ⊕ p₂) …`` with ``p_c = ((id ⊕ u_{c,1}) ⊕ …)``, bit-identical to
    serial execution whenever ⊕ is exact on the data (min/max always;
    float +/* on integer-valued data).
    A correctness matter, not an optimization: dispatched plainly, each
    worker would hold a private copy of the accumulator.  The chunk grid
    is a pure function of the trip count, never the worker count: at most
    :data:`RED_MAX_CHUNKS` chunks of one stride, none empty.
    """
    red_plan = run.plan.reductions[id(loop)]
    red = red_plan.reduction
    if red.scalar not in env:
        raise ParallelDispatchError(
            f"reduction scalar {red.scalar!r} has no incoming value"
        )
    table = run.out.table
    lo = eval_bound(loop.lower, env, run.views, "loop lower bound")
    hi = eval_bound(loop.upper, env, run.views, "loop upper bound")
    n = max(0, hi - lo + 1)
    if n > 0:
        stride = -(-n // min(RED_MAX_CHUNKS, n))
        n_chunks = -(-n // stride)
        env2 = {**env, red_plan.chunks: n_chunks, red_plan.stride: stride}
        row = _dispatch_pool(run, red_plan.proc, red_plan.loop, env2, True)
        acc = env[red.scalar]
        for part in run.pool.counter.partials[:n_chunks].tolist():
            acc = apply_binop(red.op, acc, part)
        env[red.scalar] = acc
        _as_written(table, row, loop, lo, hi, stride, run.log_events)
    else:
        row = table.add_empty(loop.var, lo, hi, run.pool.workers, run.policy)
    table.reduced[row] = (red.scalar, float(env[red.scalar]))
    run.out.reductions += 1


def _as_written(table, row, loop, lo, hi, stride, keep_log) -> None:
    """Rewrite the strip-mined dispatch's ``row`` in the terms of the
    loop as written: its variable and bounds, and per worker the
    iterations of the chunks its claim log shows (chunk ``c`` runs from
    ``lo + c·stride`` to the next chunk or ``hi``).  The log's rows
    become those ranges."""
    done, logs = [0] * table.workers[row], []
    for first, wid, _, rows in table.logs:
        if first != row:
            continue
        rows = np.frombuffer(rows).reshape(-1, 5).copy()
        rows[:, :2] = lo + rows[:, :2] * stride + [0, stride - 1]
        rows[:, 1] = np.minimum(rows[:, 1], hi)
        done[wid] += int((rows[:, 1] - rows[:, 0] + 1).sum())
        logs.append((wid, rows.tobytes()))
    table.rewrite(row, loop.var, lo, hi, done, logs if keep_log else [])


def _serial(run: Run, loop: Loop, env: dict) -> None:
    """A loop the verdict refuses to dispatch (or the inspector refutes):
    serial, in the parent, through the compiled residue."""
    run.out.blocked_dispatches += 1
    _residue(run, loop, env)


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
    views = run.views
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
