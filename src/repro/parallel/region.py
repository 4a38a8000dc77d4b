"""The SPMD region: one fork/join for a whole serial-outer nest.

The per-dispatch path (:func:`repro.parallel.dispatch.execute`) pays
one job message, one pickle and one gather per DOALL *instance* — 257 of
them for Gauss–Jordan at n = 256 — with the serial loops between them
interpreted in the parent.  Here the whole run is one
:meth:`~repro.parallel.pool.WorkerPool.dispatch`: every worker enters the
program's *region driver* (:func:`repro.codegen.cgen.generate_region_c`)
once, runs the serial skeleton redundantly (SPMD), and at each DOALL
instance meets its peers at a native barrier whose last arriver arms the
shared counter; the instance is then drained by the same native claim loop
and kernel thunks the per-dispatch path uses.  One result message per
worker comes back, carrying per-instance tables from which
:func:`_assemble` rebuilds exactly the ``ParallelRunResult`` list the
per-dispatch path would have produced — one entry per instance, same
chunks, same ``claims``/``lock_ops`` — so ``result.dispatches`` keeps its
meaning and the new fact is ``result.fork_joins == 1``.

Whether a run takes the region is a function of the program, the safety
verdict, the kernels that could be bound and the policy — never of a
setting.  :func:`try_region` either runs it (``result.region ==
"native"``) or records why not, with a rule code, and the caller falls
through to the per-dispatch path unchanged:

``SPMD001`` a DOALL of the program is a recognized reduction;
``SPMD002`` a DOALL is blocked under ``safety="enforce"``;
``SPMD003`` a DOALL needs the inspector or speculation (``"speculate"``);
``SPMD004`` the skeleton is not pure control over parameters and serial
induction variables;
``SPMD005`` the policy is static (no claim rule);
``SPMD006`` a DOALL has no C kernel under the native claim loop, or the
region unit could not be built or bound.

The verdict — a job template or the refusal — is a slot of the run's
:class:`~repro.parallel.plan.Plan`: the plan's first run decides it, and
every later run only fills in the parameters and the pool's specs.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from repro.codegen.cgen import REGION_SUFFIX, _CEmitter, generate_region_c
from repro.ir.expr import ArrayRef, Const, Var
from repro.ir.stmt import Block, If, Loop, Procedure, Stmt
from repro.ir.visitor import walk_exprs
from repro.parallel import runtime
from repro.parallel.counter import policy_plan
from repro.parallel.dispatch import _empty_result
from repro.parallel.errors import ParallelError
from repro.parallel.observe import record_claim_fallback
from repro.parallel.runtime import (
    ParallelRunResult,
    _contains_dispatchable,
    _dispatchable,
)
from repro.parallel.shm import native_layout

#: Barrier spins before the futex sleep when every worker has a CPU of its
#: own (DESIGN §4b has the measurements); 0 when workers outnumber CPUs —
#: there a spinning waiter only delays the peer it waits for.
BARRIER_SPIN = 100


class _Refused(Exception):
    """The run keeps the per-dispatch path; ``str()`` is the coded reason."""

    def __init__(self, code: str, reason: str) -> None:
        super().__init__(f"{code}: {reason}")


def _skeleton(proc: Procedure, env: Mapping) -> list[tuple[Loop, tuple]]:
    """``(loop, enclosing serial induction variables)`` per DOALL, in
    program order — or SPMD004 unless everything else is pure control."""
    found: list[tuple[Loop, tuple]] = []
    lowering = _CEmitter(proc, {})  # the C backend's own long/double oracle

    def control(what: str, *exprs, ivs: tuple) -> None:
        for expr in exprs:
            if not lowering.is_long(expr):
                raise _Refused("SPMD004", f"{what} is not integer arithmetic")
            for e in walk_exprs(expr):
                if isinstance(e, ArrayRef):
                    raise _Refused(
                        "SPMD004", f"{what} reads array {e.name!r}"
                    )
                if not isinstance(e, Var) or e.name in ivs:
                    continue
                value = env.get(e.name)
                if e.name not in proc.scalars or not isinstance(
                    value, (int, np.integer)
                ):
                    raise _Refused(
                        "SPMD004",
                        f"{what} reads {e.name!r}, not an integer parameter",
                    )

    def visit(s: Stmt, ivs: tuple) -> None:
        if isinstance(s, Block):
            for child in s.stmts:
                visit(child, ivs)
        elif isinstance(s, Loop) and _dispatchable(s):
            control(f"DOALL {s.var!r}", s.lower, s.upper, ivs=ivs)
            found.append((s, ivs))
        elif isinstance(s, Loop) and _contains_dispatchable(s.body):
            if not isinstance(s.step, Const) or s.step.value < 1:
                raise _Refused(
                    "SPMD004", f"serial loop {s.var!r} has a computed step"
                )
            control(f"serial loop {s.var!r}", s.lower, s.upper, ivs=ivs)
            visit(s.body, ivs + (s.var,))
        elif isinstance(s, If) and _contains_dispatchable(s):
            control("an if around a DOALL", s.cond, ivs=ivs)
            visit(s.then, ivs)
            visit(s.orelse, ivs)
        else:
            raise _Refused(
                "SPMD004",
                f"serial work between DOALLs ({type(s).__name__.lower()})",
            )

    visit(proc.body, ())
    return found


@dataclass(frozen=True)
class _Template:
    """A plan's region: the job, less what each run fills in."""

    job: dict
    loops: list[Loop]
    policy_name: str


def _template(run) -> _Template | str:
    """The region for ``run.plan``, or the coded reason there is none.

    Everything decided once per loop shape — its kernel and claim rule —
    is decided here, before any worker enters; this is a plan slot, built
    by the plan's first run and kept."""
    try:
        return _build(run)
    except _Refused as refusal:
        return str(refusal)


def _build(run) -> _Template:
    plan, env, wpool = run.plan, run.env, run.pool
    proc = plan.proc
    loops = _skeleton(proc, env)
    doalls = [lp for lp, _ in loops]
    for loop in doalls:
        if id(loop) in plan.blocked:
            if plan.mode == "speculate":
                raise _Refused(
                    "SPMD003",
                    f"DOALL {loop.var!r} is decided at run time "
                    "(inspector / speculation)",
                )
            raise _Refused(
                "SPMD002", f"DOALL {loop.var!r} is blocked (runs serially)"
            )
        if id(loop) in plan.reductions:
            raise _Refused("SPMD001", f"DOALL {loop.var!r} is a reduction")
    shape = policy_plan(run.policy, 1, 1, run.chunk)
    if shape.rule is None:
        raise _Refused("SPMD005", f"policy {shape.name!r} is static")
    if not native_layout(run.views, proc.arrays):
        raise _Refused("SPMD006", "an array is not C-contiguous float64")

    kind = 1 if shape.rule[0] == "gss" else 0
    per_claim = shape.rule[1] if shape.rule[0] == "fixed" else 1
    asked = 0 if run.claim_batch == "auto" else run.claim_batch
    rules: list[int] = []
    kernels: list[dict] = []
    orders: list[list[str]] = []
    for loop, ivs in loops:
        # An instance's environment is the caller's scalars plus the
        # enclosing induction variables, whatever their values.
        denv = {**env, **dict.fromkeys(ivs, 0)}
        extra = tuple(
            sorted(k for k in denv if k not in proc.scalars and k != loop.var)
        )
        kernel = (
            plan.kernels.chunk_kernel(proc, loop, extra, denv)
            if plan.lang == "c"
            else None
        )
        if kernel is None:
            raise _Refused(
                "SPMD006", f"DOALL {loop.var!r} has no C kernel ({plan.lang})"
            )
        so_path, c_fname, _, scalar_types = kernel
        order = list(proc.scalars) + list(extra)
        kernels.append(
            {
                "c_so": so_path,
                "c_thunk": c_fname + runtime.THUNK_SUFFIX,
                "array_order": list(proc.arrays),
                "scalar_order": order,
                "c_scalar_types": scalar_types,
            }
        )
        orders.append(order)
        rules += [kind, max(1, per_claim), asked]
    claim_so = runtime.claim_loop_library(plan.store)
    if claim_so is None:
        raise _Refused("SPMD006", "the native claim loop is unavailable")
    fname = proc.name + REGION_SUFFIX
    try:
        source = generate_region_c(proc, doalls, orders, name=fname)
        region_so, _ = runtime.compile_chunk_library(
            source, fname, cache=plan.store
        )
    except Exception as exc:
        raise _Refused(
            "SPMD006", f"the region unit did not build ({type(exc).__name__})"
        ) from exc
    job = {
        "so": region_so,
        "fname": fname,
        "claim_so": claim_so,
        "loops": kernels,
        "rules": rules,
        "workers": wpool.workers,
    }
    return _Template(job, doalls, shape.name)


def _assemble(
    results: Mapping[int, tuple], loops, policy, plan_name, workers
) -> list[ParallelRunResult]:
    """One :class:`ParallelRunResult` per DOALL instance, in program order,
    from the workers' per-instance tables — the accounting (and its
    checks) of ``_finalize_result``, instance by instance."""
    wids = sorted(results)
    tables = [results[w][8]["region"] for w in wids]
    rec = np.stack(
        [np.frombuffer(t["rec"], dtype=np.int64).reshape(-1, 8) for t in tables]
    )
    tim = np.stack([np.frombuffer(t["tim"]).reshape(-1, 2) for t in tables])
    shared = rec[:, :, [0, 1, 2, 7]]  # loop, lo, hi, batch: SPMD-identical
    if (shared != shared[0]).any():
        raise ParallelError("workers disagree on the region's instances")
    size = np.maximum(0, rec[0, :, 2] - rec[0, :, 1] + 1)
    idle = np.arange(len(wids))[:, None] >= np.minimum(workers, size)
    bad = (rec[:, :, 3].sum(axis=0) != size) | (rec[:, :, 3] * idle).any(axis=0)
    if bad.any():
        ph = int(bad.argmax())
        raise ParallelError(
            f"claim accounting violated: {rec[:, ph, 3].tolist()} iterations "
            f"executed for a range of {int(size[ph])}"
        )
    logs = [results[w][6] for w in wids]
    log_end = rec[:, :, 6].cumsum(axis=1) * 40  # 40 bytes per log row
    ends = log_end.T.tolist()
    starts = (log_end - rec[:, :, 6] * 40).T.tolist()
    iters = rec[:, :, 3].T.tolist()
    claims = rec[:, :, 4].sum(axis=0).tolist()
    lock_ops = rec[:, :, 5].sum(axis=0).tolist()
    t_base = tim[:, :, 0].min(axis=0).tolist()
    wall = (tim[:, :, 1].max(axis=0) - tim[:, :, 0].min(axis=0)).tolist()
    out: list[ParallelRunResult] = []
    for ph, (li, lo, hi, batch) in enumerate(shared[0].tolist()):
        if hi < lo:
            out.append(_empty_result(loops[li], lo, hi, workers, policy))
            continue
        active = min(workers, hi - lo + 1)
        event_log = [
            (w, log[a:b])
            for w, log, a, b in zip(wids, logs, starts[ph], ends[ph])
            if b > a
        ]
        out.append(
            ParallelRunResult(
                loops[li].var, lo, hi, active, plan_name, wall[ph],
                iters[ph][:active], claims[ph], event_log, t_base[ph],
                lock_ops=lock_ops[ph], chunk_lang="c", claim_batch=batch,
                claim_loop="native",
            )
        )
    return out


def try_region(run) -> bool:
    """Run ``run.plan``'s procedure as one SPMD region if it qualifies.

    Returns True when the region ran — ``out.dispatches`` then holds one
    result per DOALL instance and ``out.region == "native"``.  Otherwise
    nothing has run, ``out.region`` says why (``"SPMD00x: reason"``) and
    the caller proceeds per dispatch.  Per call only the parameters, each
    kernel's scalars, the barrier's spin and the pool's specs are filled
    in.  Crashes and timeouts inside the region surface as the pool's own
    errors.
    """
    out, env, wpool = run.out, run.env, run.pool
    tpl = run.plan.once("region", lambda: _template(run))
    if isinstance(tpl, str):
        out.region = tpl
        return False
    # A parameter that is not an integer is one the skeleton never reads
    # (_skeleton checked); its slot is never looked at.  The same holds
    # for an induction variable's kernel slot: the driver writes it.
    params = [
        int(env[s]) if isinstance(env.get(s), (int, np.integer)) else 0
        for s in run.plan.proc.scalars
    ]
    loops = [
        {**lp, "scalars": {s: env.get(s, 0) for s in lp["scalar_order"]}}
        for lp in tpl.job["loops"]
    ]
    spin = BARRIER_SPIN if wpool.workers <= len(os.sched_getaffinity(0)) else 0
    job = {
        "region": {**tpl.job, "loops": loops, "params": params, "spin": spin},
        "specs": wpool.shared.specs(),
        "log_events": run.log_events,
    }
    _, results = wpool.dispatch(job, 0, -1, run.deadline)
    entered = [
        msg[8]["region"] is not None and msg[8]["region"]["status"] == 0
        for msg in results.values()
    ]
    if not all(entered):
        # A worker could not bind the unit and stopped the barrier before
        # any instance started: nothing has run, the pool is intact — and
        # the plan's artifacts are suspect.
        record_claim_fallback(entered.count(False))
        out.region = "SPMD006: a worker could not enter the region"
        run.stale = True
        return False
    out.dispatches.extend(
        _assemble(
            results, tpl.loops, run.policy, tpl.policy_name, wpool.workers,
        )
    )
    out.serial_stmts += results[0][8]["region"]["serial_stmts"]
    out.region = "native"
    return True
