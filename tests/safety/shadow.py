"""Dynamic shadow-access recorder: ground truth for the static verifier.

The static verifier claims races at chunk granularity 1 — two *flat
iterations* of a dispatched loop conflicting on an array element or a
shared scalar.  This module measures the same property by running the
program: an instrumented interpreter executes each iteration of every
loop the runtime would dispatch and records exactly which elements it
reads and writes (plus upward-exposed scalar reads), then the recorded
sets are intersected across iterations.  Because the recording walks the
program the way :func:`repro.parallel.dispatch._exec` does —
serial segments driven in order, state flowing through — the shadow
verdict is the oracle the static verdict must agree with on every tested
workload.

Test-only: lives under ``tests/`` so the product package carries no
instrumentation code.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.safety import dispatchable
from repro.ir.expr import ArrayRef, Var
from repro.ir.stmt import Assign, Block, If, Loop, Procedure, Stmt
from repro.runtime.interp import Interpreter, eval_bound

#: An array element: (array name, concrete index tuple).
Element = tuple[str, tuple[int, ...]]


@dataclass
class IterationAccess:
    """Everything one iteration of a dispatched loop touched."""

    value: int  # the dispatched loop index
    reads: set[Element] = field(default_factory=set)
    writes: set[Element] = field(default_factory=set)
    #: Scalars read before any write inside this iteration (upward exposed).
    scalar_reads: set[str] = field(default_factory=set)
    scalar_writes: set[str] = field(default_factory=set)
    #: Names private to the iteration (loop vars bound inside it).
    _private: set[str] = field(default_factory=set)


class _Recorder(Interpreter):
    """An interpreter that logs element-level accesses of the active
    iteration (``self.cur``); outside an iteration it is a plain
    interpreter, so serial segments execute without recording."""

    def __init__(self) -> None:
        super().__init__()
        self.cur: IterationAccess | None = None

    def _eval(self, e, env, arrays):
        cur = self.cur
        if cur is not None:
            if isinstance(e, ArrayRef):
                cur.reads.add((e.name, self._index_tuple(e, env, arrays)))
            elif isinstance(e, Var) and e.name not in cur._private:
                if e.name not in cur.scalar_writes:
                    cur.scalar_reads.add(e.name)
        return super()._eval(e, env, arrays)

    def _exec(self, s, env, arrays):
        cur = self.cur
        if cur is not None and isinstance(s, Loop):
            # A nested loop variable is bound fresh each trip: private.
            added = s.var not in cur._private
            if added:
                cur._private.add(s.var)
            super()._exec(s, env, arrays)
            return
        super()._exec(s, env, arrays)
        if cur is not None and isinstance(s, Assign):
            if isinstance(s.target, Var):
                if s.target.name not in cur._private:
                    cur.scalar_writes.add(s.target.name)
                cur._private.add(s.target.name)
            else:
                cur.writes.add(
                    (s.target.name, self._index_tuple(s.target, env, arrays))
                )


def record_dispatch(rec, loop, env, arrays) -> list[IterationAccess]:
    """Execute one dispatched loop serially, one access log per iteration."""
    lo = eval_bound(loop.lower, env, arrays)
    hi = eval_bound(loop.upper, env, arrays)
    logs = []
    saved = env.get(loop.var)
    for value in range(lo, hi + 1):
        env[loop.var] = value
        rec.cur = IterationAccess(value, _private={loop.var})
        rec._exec(loop.body, env, arrays)
        logs.append(rec.cur)
        rec.cur = None
    if saved is None:
        env.pop(loop.var, None)
    else:
        env[loop.var] = saved
    return logs


def dynamic_verdict(logs: list[IterationAccess]) -> set[str]:
    """The observed cross-iteration conflicts, as static rule codes."""
    kinds: set[str] = set()
    writers: dict[Element, set[int]] = {}
    readers: dict[Element, set[int]] = {}
    for log in logs:
        for elem in log.writes:
            writers.setdefault(elem, set()).add(log.value)
        for elem in log.reads:
            readers.setdefault(elem, set()).add(log.value)
    for elem, ws in writers.items():
        if len(ws) > 1:
            kinds.add("RACE002")
        for r in readers.get(elem, ()):
            if any(w < r for w in ws if w != r):
                kinds.add("RACE001")  # write, then later iteration reads
            if any(w > r for w in ws if w != r):
                kinds.add("RACE003")  # read, then later iteration writes
    exposed = set().union(*(log.scalar_reads for log in logs), set())
    written = set().union(*(log.scalar_writes for log in logs), set())
    if len(logs) > 1 and exposed & written:
        kinds.add("PRIV002")
    return kinds


@dataclass
class DispatchShadow:
    """Shadow record of one dispatch occurrence of a loop."""

    loop_var: str
    logs: list[IterationAccess]

    @property
    def verdict(self) -> set[str]:
        return dynamic_verdict(self.logs)


def shadow_procedure(proc: Procedure, arrays, scalars) -> list[DispatchShadow]:
    """Run ``proc`` serially, shadow-recording every dispatchable loop.

    Mirrors ``dispatch._exec``'s traversal: one :class:`DispatchShadow` per
    dispatch *occurrence* (a loop under a serial pivot is recorded once
    per pivot iteration, exactly as often as the runtime dispatches it).
    Mutates ``arrays`` with the serial result as a side effect.
    """
    rec = _Recorder()
    env: dict[str, int | float] = dict(scalars or {})
    out: list[DispatchShadow] = []

    def walk(stmt: Stmt) -> None:
        if isinstance(stmt, Block):
            for s in stmt.stmts:
                walk(s)
            return
        if isinstance(stmt, Loop) and dispatchable(stmt):
            out.append(
                DispatchShadow(stmt.var, record_dispatch(rec, stmt, env, arrays))
            )
            return
        if isinstance(stmt, Loop):
            lo = eval_bound(stmt.lower, env, arrays)
            hi = eval_bound(stmt.upper, env, arrays)
            st = eval_bound(stmt.step, env, arrays)
            saved = env.get(stmt.var)
            for value in range(lo, hi + 1, st):
                env[stmt.var] = value
                walk(stmt.body)
            if saved is None:
                env.pop(stmt.var, None)
            else:
                env[stmt.var] = saved
            return
        if isinstance(stmt, If):
            cond = rec._eval(stmt.cond, env, arrays)
            walk(stmt.then if cond else stmt.orelse)
            return
        rec._exec(stmt, env, arrays)

    walk(proc.body)
    return out


def chunk_write_sets(
    shadow: DispatchShadow, events
) -> list[set[Element]]:
    """Replay a measured claim log: the write set of every claimed chunk.

    ``events`` are the :class:`repro.parallel.runtime.ClaimEvent` records
    of the corresponding real dispatch — each covers inclusive loop values
    ``[lo, hi]``.  Grouping the shadow's per-iteration write sets by claim
    gives exactly what each worker wrote in that chunk.
    """
    by_value = {log.value: log for log in shadow.logs}
    sets = []
    for e in events:
        chunk: set[Element] = set()
        for value in range(e.lo, e.hi + 1):
            chunk |= by_value[value].writes
        sets.append(chunk)
    return sets


def chunks_disjoint(sets: list[set[Element]]) -> bool:
    """Do the claimed blocks write pairwise-disjoint element sets?"""
    seen: set[Element] = set()
    for s in sets:
        if seen & s:
            return False
        seen |= s
    return True
