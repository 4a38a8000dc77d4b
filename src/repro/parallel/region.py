"""The SPMD region: the one native claim protocol.

Every claim made with hardware atomics goes through a *region driver*,
entered once per worker per :meth:`~repro.parallel.pool.WorkerPool.dispatch`.
At each DOALL instance the workers meet at a native barrier whose last
arriver arms the shared counter, then drain the instance with the native
claim loop and the kernel's thunk.  One result message per worker comes
back with per-instance tables, and :func:`_assemble` — the one fold of
every job's results, native or not — checks them and appends them to the
run's :class:`~repro.parallel.runtime.RunTable`; no result object is
built until someone reads ``result.dispatches``.
A driver is one of two kinds:

* a program with a DOALL under a serial loop gets its own, generated
  (:func:`repro.codegen.cgen.generate_region_c`): every worker runs the
  serial skeleton redundantly (SPMD), so the whole run is one fork/join
  (``result.fork_joins == 1``) with the per-dispatch path's chunks and
  ``claims``/``lock_ops`` per instance;
* any other dynamic-policy dispatch with a C kernel is a region of one
  instance (:func:`instance_template`): the claim library's fixed entry,
  no compiler run of its own.

Whether a serial-outer run takes its region is a function of the
program, the safety verdict, the kernels that could be bound and the
policy — never of a setting.  :func:`try_region` either runs it
(``result.region == "native"``) or records why not, with a rule code,
and the caller falls through to the per-dispatch path:

``SPMD001`` a DOALL of the program is a recognized reduction;
``SPMD002`` a DOALL is blocked (unproven, and the inspector cannot
decide it: it runs serially);
``SPMD003`` a DOALL is decided at run time by the inspector;
``SPMD004`` the skeleton is not pure control over parameters and serial
induction variables;
``SPMD005`` the policy is static (no claim rule);
``SPMD006`` a DOALL has no C kernel under the native claim loop, or the
region unit could not be built or bound.

A worker that cannot bind a driver stops its peers before anything has
run (:func:`enter`).  Both templates are :class:`~repro.parallel.plan.Plan`
slots, decided by the plan's first run.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from operator import add, sub
from typing import Mapping

import numpy as np

from repro.analysis.safety import dispatchable
from repro.codegen.cgen import (
    ONE_INSTANCE,
    REGION_SUFFIX,
    _CEmitter,
    generate_region_c,
)
from repro.ir.expr import ArrayRef, Const, Var
from repro.ir.stmt import Block, If, Loop, Procedure, Stmt
from repro.ir.visitor import walk_exprs
from repro.parallel import runtime
from repro.parallel.errors import ParallelError
from repro.parallel.runtime import (
    REC,
    RunTable,
    _aggregate,
    _contains_dispatchable,
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
        elif isinstance(s, Loop) and dispatchable(s):
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
    """A region's job, less what each run fills in."""

    job: dict
    loops: list[Loop]
    policy_name: str


def _claim_rule(plan) -> tuple[str, list[int] | None]:
    """``(policy name, [kind, k])`` — the second item one loop's row of
    the driver's ``rules`` table, None under a static policy."""
    shape = plan.policy_shape
    if shape.rule is None:
        return shape.name, None
    per_claim = shape.rule[1] if shape.rule[0] == "fixed" else 1
    return shape.name, [int(shape.rule[0] == "gss"), max(1, per_claim)]


def instance_template(run, loop: Loop, kernel: dict) -> _Template | None:
    """A dispatch of ``loop`` as a region of one instance: the claim
    library's fixed entry driving ``kernel``.  None under a static policy
    or without the claim library (the dispatch is then lock-guarded)."""
    name, rule = _claim_rule(run.plan)
    lib = runtime.claim_loop_library(run.plan.store)
    if rule is None or lib is None:
        return None
    job = dict(
        so=lib, fname=ONE_INSTANCE, claim_so=lib, loops=[kernel], rules=rule,
        workers=run.pool.workers,
    )
    return _Template(job, [loop], name)


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
    plan, env = run.plan, run.env
    proc = plan.proc
    loops = _skeleton(proc, env)
    doalls = [lp for lp, _ in loops]
    for loop in doalls:
        if id(loop) in plan.blocked:
            if plan.strategies[id(loop)] == "inspect":
                raise _Refused(
                    "SPMD003",
                    f"DOALL {loop.var!r} is decided at run time (inspector)",
                )
            raise _Refused(
                "SPMD002", f"DOALL {loop.var!r} is blocked (runs serially)"
            )
        if id(loop) in plan.reductions:
            raise _Refused("SPMD001", f"DOALL {loop.var!r} is a reduction")
    name, rule = _claim_rule(plan)
    if rule is None:
        raise _Refused("SPMD005", f"policy {name!r} is static")
    if not native_layout(run.views, proc.arrays):
        raise _Refused("SPMD006", "an array is not C-contiguous float64")

    kernels: list[dict] = []
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
            why = "its build failed" if plan.lang == "c" else f"{plan.lang} chunks"
            raise _Refused(
                "SPMD006", f"DOALL {loop.var!r} has no C kernel ({why})"
            )
        kernels.append(kernel)
    claim_so = runtime.claim_loop_library(plan.store)
    if claim_so is None:
        raise _Refused("SPMD006", "the native claim loop is unavailable")
    fname = proc.name + REGION_SUFFIX
    try:
        source = generate_region_c(
            proc, doalls, [k["scalar_order"] for k in kernels], name=fname
        )
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
        "rules": rule * len(kernels),
        "workers": run.pool.workers,
    }
    return _Template(job, doalls, name)


def enter(run, tpl: _Template, params, env, log_events) -> dict | None:
    """Run ``tpl`` once on ``run.pool``, filling in only ``params``, the
    kernels' scalars, the barrier's spin and whether to log claims.
    Nothing about the arrays: the workers attached them at spawn.

    Returns the workers' result messages — or None when a worker could
    not bind: it stopped the barrier before anything ran, so the pool is
    intact.  The fallback is counted in the run's ``claim_fallbacks``
    and the run marked stale, which drops the plan after it and keeps
    the rest of the run lock-guarded.
    Crashes and timeouts surface as the pool's own errors.
    """
    wpool = run.pool
    loops = [
        {**lp, "scalars": {s: env.get(s, 0) for s in lp["scalar_order"]}}
        for lp in tpl.job["loops"]
    ]
    spin = BARRIER_SPIN if wpool.workers <= len(os.sched_getaffinity(0)) else 0
    job = {
        "region": {**tpl.job, "loops": loops, "params": params, "spin": spin},
        "log_events": log_events,
    }
    results = wpool.dispatch(job, 0, -1, run.deadline)
    if any(msg[3]["status"] for msg in results.values()):
        run.out.claim_fallbacks += 1
        run.stale = True
        return None
    return results


def _assemble(
    table: RunTable, results: Mapping[int, tuple], loops: list[Loop],
    name: str, policy, claim_loop: str = "native", fallback: bool = False,
) -> int:
    """Append one row per DOALL instance, in program order, to ``table``
    from the workers' reports (:func:`repro.parallel.worker._report`) —
    the one fold of every job's messages, native or lock-guarded — and
    return the first row.  No result object is built: the table keeps
    the reports' own ``rec``/``tim`` tables (:meth:`RunTable.results`
    builds objects when asked).

    Checked on every run, over every instance: the workers agree on the
    instances, and per instance the iterations sum to the range with idle
    workers reporting none.  An instance runs from its workers' earliest
    start (its ``t_base``) to their latest finish; its ``chunk_lang``
    aggregates what the workers ran; an empty one is what
    :meth:`RunTable.add_empty` appends.
    """
    wids = sorted(results)
    reports = [results[w][3] for w in wids]
    recs = [memoryview(r["rec"]).cast("q").tolist() for r in reports]
    tims = [memoryview(r["tim"]).cast("d").tolist() for r in reports]
    rec = recs[0]
    lis, los, his, batches = rec[0::REC], rec[1::REC], rec[2::REC], rec[7::REC]
    for other in recs[1:]:  # loop, lo, hi, batch: SPMD-identical
        if (other[0::REC], other[1::REC], other[2::REC], other[7::REC]) != (
            lis, los, his, batches
        ):
            raise ParallelError("workers disagree on the region's instances")
    workers = len(wids)
    iters = [rec[3::REC] for rec in recs]
    spans = list(map(sub, his, los))  # a range's size less one
    narrow = min(spans, default=0) + 1 < workers  # some worker idles
    if narrow or list(map(sub, _summed(iters), spans)).count(1) != len(spans):
        for lo, hi, done in zip(los, his, zip(*iters)):
            size = max(0, hi - lo + 1)
            if sum(done) != size or any(done[size:]):  # idle workers: none
                raise ParallelError(
                    f"claim accounting violated: {list(done)} iterations "
                    f"executed for a range of {size}"
                )
    var = [loop.var for loop in loops]
    logs = [
        (wid, rec[6::REC], r["log"])
        for wid, rec, r in zip(wids, recs, reports)
        if r["log"]
    ]
    first = table.add(
        list(map(var.__getitem__, lis)),
        [max(0, min(span + 1, workers)) or workers for span in spans]
        if narrow else [workers] * len(spans),
        recs, tims, _aggregate({r["lang"] for r in reports}), claim_loop,
        name, fallback, logs,
    )
    if narrow:
        for row, span in enumerate(spans, first):
            if span < 0:  # an empty range
                table.blank(row, policy)
    return first


def _summed(columns: list[list]) -> list:
    """Per instance, the sum across workers' columns."""
    total, *rest = columns
    for column in rest:
        total = list(map(add, total, column))
    return total


def try_region(run) -> bool:
    """Run ``run.plan``'s procedure as one SPMD region if it qualifies.

    Returns True when the region ran — ``out.table`` then holds one
    row per DOALL instance and ``out.region == "native"``.  Otherwise
    nothing has run, ``out.region`` says why (``"SPMD00x: reason"``) and
    the caller proceeds per dispatch.
    """
    out, env = run.out, run.env
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
    results = enter(run, tpl, params, env, run.log_events)
    if results is None:
        out.region = "SPMD006: a worker could not enter the region"
        return False
    _assemble(out.table, results, tpl.loops, tpl.policy_name, run.policy)
    out.region = "native"
    return True
