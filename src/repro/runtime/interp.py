"""Sequential reference interpreter for IR procedures.

The interpreter defines the *semantics* every transformation must preserve:
loops run in lexicographic order (DOALL loops included — a valid DOALL must
give the same result in any order, which the executors in
:mod:`repro.runtime.executor` exercise separately).

Arrays are numpy arrays supplied by the caller; programs written 1-based
(paper convention) simply allocate ``N+1``-sized arrays and ignore index 0.
Out-of-bounds and negative subscripts raise rather than wrap.

Operation counting: with ``count_ops=True`` the interpreter tallies every
binary/unary/intrinsic evaluation by operator.  E2 uses this to report the
per-iteration div/mod cost of index recovery exactly as the paper counts
instructions.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from repro.ir.expr import (
    INTRINSICS,
    ArrayRef,
    BinOp,
    Call,
    Const,
    Expr,
    Unary,
    Var,
    apply_binop,
)
from repro.ir.stmt import Assign, Block, If, Loop, Procedure, Stmt


class InterpreterError(RuntimeError):
    """Runtime failure while executing a procedure."""


@dataclass
class OpCounts:
    """Tally of evaluated operations, by operator name.

    ``ops['floordiv'] + ops['ceildiv'] + ops['mod']`` is the integer-division
    cost the paper worries about; ``loop_iterations`` counts executed loop
    bodies so per-iteration costs can be derived.
    """

    ops: Counter = field(default_factory=Counter)
    loop_iterations: int = 0
    assignments: int = 0

    @property
    def total(self) -> int:
        return sum(self.ops.values())

    @property
    def divmod_ops(self) -> int:
        return self.ops["floordiv"] + self.ops["ceildiv"] + self.ops["mod"]

    def per_iteration(self, op: str) -> float:
        if self.loop_iterations == 0:
            return 0.0
        return self.ops[op] / self.loop_iterations


class Interpreter:
    """Executes a :class:`~repro.ir.stmt.Procedure` against concrete data."""

    def __init__(self, count_ops: bool = False, check_bounds: bool = True) -> None:
        self.count_ops = count_ops
        self.check_bounds = check_bounds
        self.counts = OpCounts()

    # -- public -------------------------------------------------------------
    def run(
        self,
        proc: Procedure,
        arrays: Mapping[str, np.ndarray],
        scalars: Mapping[str, int | float] | None = None,
    ) -> OpCounts:
        """Execute ``proc`` in place on ``arrays``; returns the op tally."""
        scalars = dict(scalars or {})
        missing = set(proc.arrays) - set(arrays)
        if missing:
            raise InterpreterError(f"arrays not supplied: {sorted(missing)}")
        for name, rank in proc.arrays.items():
            if arrays[name].ndim != rank:
                raise InterpreterError(
                    f"array {name!r}: declared rank {rank}, got "
                    f"ndim {arrays[name].ndim}"
                )
        missing_s = set(proc.scalars) - set(scalars)
        if missing_s:
            raise InterpreterError(f"scalars not supplied: {sorted(missing_s)}")
        env: dict[str, int | float] = dict(scalars)
        self._exec(proc.body, env, arrays)
        return self.counts

    # -- statements -----------------------------------------------------------
    def _exec(
        self,
        s: Stmt,
        env: dict[str, int | float],
        arrays: Mapping[str, np.ndarray],
    ) -> None:
        if isinstance(s, Block):
            for stmt in s.stmts:
                self._exec(stmt, env, arrays)
            return
        if isinstance(s, Assign):
            value = self._eval(s.value, env, arrays)
            if self.count_ops:
                self.counts.assignments += 1
            if isinstance(s.target, Var):
                env[s.target.name] = value
            else:
                idx = self._index_tuple(s.target, env, arrays)
                arrays[s.target.name][idx] = value
            return
        if isinstance(s, If):
            cond = self._eval(s.cond, env, arrays)
            branch = s.then if cond else s.orelse
            self._exec(branch, env, arrays)
            return
        if isinstance(s, Loop):
            lo = self._eval_int(s.lower, env, arrays, "loop lower bound")
            hi = self._eval_int(s.upper, env, arrays, "loop upper bound")
            st = self._eval_int(s.step, env, arrays, "loop step")
            if st <= 0:
                raise InterpreterError(f"loop {s.var!r}: non-positive step {st}")
            saved = env.get(s.var, _MISSING)
            for value in range(lo, hi + 1, st):
                env[s.var] = value
                if self.count_ops:
                    self.counts.loop_iterations += 1
                self._exec(s.body, env, arrays)
            if saved is _MISSING:
                env.pop(s.var, None)
            else:
                env[s.var] = saved
            return
        raise InterpreterError(f"cannot execute {type(s).__name__}")

    # -- expressions ------------------------------------------------------------
    def _eval(
        self,
        e: Expr,
        env: Mapping[str, int | float],
        arrays: Mapping[str, np.ndarray],
    ) -> int | float:
        if isinstance(e, Const):
            return e.value
        if isinstance(e, Var):
            try:
                return env[e.name]
            except KeyError:
                raise InterpreterError(f"undefined scalar {e.name!r}") from None
        if isinstance(e, BinOp):
            left = self._eval(e.lhs, env, arrays)
            right = self._eval(e.rhs, env, arrays)
            if self.count_ops:
                self.counts.ops[e.op] += 1
            try:
                return apply_binop(e.op, left, right)
            except ZeroDivisionError:
                raise InterpreterError(
                    f"division by zero evaluating {e.op!r}"
                ) from None
        if isinstance(e, Unary):
            operand = self._eval(e.operand, env, arrays)
            if self.count_ops:
                self.counts.ops[f"unary{e.op}"] += 1
            return -operand if e.op == "-" else int(not operand)
        if isinstance(e, ArrayRef):
            idx = self._index_tuple(e, env, arrays)
            value = arrays[e.name][idx]
            # numpy scalars leak reference semantics; normalize to Python.
            return value.item() if isinstance(value, np.generic) else value
        if isinstance(e, Call):
            args = [self._eval(a, env, arrays) for a in e.args]
            if self.count_ops:
                self.counts.ops[e.func] += 1
            try:
                return INTRINSICS[e.func](*args)
            except (ValueError, OverflowError) as exc:  # int(nan), sqrt(-1)
                raise InterpreterError(f"{e.func}{tuple(args)}: {exc}") from None
        raise InterpreterError(f"cannot evaluate {type(e).__name__}")

    def _eval_int(
        self,
        e: Expr,
        env: Mapping[str, int | float],
        arrays: Mapping[str, np.ndarray],
        what: str,
    ) -> int:
        value = self._eval(e, env, arrays)
        if not isinstance(value, int):
            if isinstance(value, float) and value.is_integer():
                return int(value)
            raise InterpreterError(f"{what} evaluated to non-integer {value!r}")
        return value

    def _index_tuple(
        self,
        ref: ArrayRef,
        env: Mapping[str, int | float],
        arrays: Mapping[str, np.ndarray],
    ) -> tuple[int, ...]:
        try:
            arr = arrays[ref.name]
        except KeyError:
            raise InterpreterError(f"array {ref.name!r} not supplied") from None
        idx = tuple(
            self._eval_int(i, env, arrays, f"subscript of {ref.name!r}")
            for i in ref.indices
        )
        if self.check_bounds:
            for axis, (i, n) in enumerate(zip(idx, arr.shape)):
                if i < 0 or i >= n:
                    raise InterpreterError(
                        f"{ref.name!r} subscript {i} out of bounds for axis "
                        f"{axis} (size {n})"
                    )
        return idx


_MISSING = object()


def eval_bound(
    e: Expr,
    env: Mapping[str, int | float],
    arrays: Mapping[str, np.ndarray] | None = None,
    what: str = "loop bound",
) -> int:
    """Evaluate a loop-bound (or any integer) expression to a plain int.

    The public face of the interpreter's integer-expression evaluation:
    runtime drivers (:mod:`repro.runtime.executor`,
    :mod:`repro.parallel.runtime`) all need
    concrete loop bounds from IR expressions before they can partition an
    iteration space.  Raises :class:`InterpreterError` if the expression
    does not evaluate to an integer.
    """
    return Interpreter()._eval_int(e, env, arrays or {}, what)


def run(
    proc: Procedure,
    arrays: Mapping[str, np.ndarray],
    scalars: Mapping[str, int | float] | None = None,
    count_ops: bool = False,
    check_bounds: bool = True,
) -> OpCounts:
    """One-shot convenience wrapper around :class:`Interpreter`."""
    interp = Interpreter(count_ops=count_ops, check_bounds=check_bounds)
    return interp.run(proc, arrays, scalars)
