"""Runtime inspector: deciding an unproven dispatch by running its subscripts.

The static verifier (:mod:`repro.analysis.safety`) refuses any dispatch it
cannot prove — which bins every indirect-subscript or data-dependent-bound
loop into serial execution.  The inspector is the cheap dynamic half of the
inspector/executor paradigm: instead of executing the loop, it *addresses*
it — evaluating only the expressions that produce element addresses (the
recovery-prefix scalar assignments, guards, inner-loop bounds and write
subscripts) while skipping every stored value.  If the per-iteration write
sets are pairwise disjoint the dispatch is race-free under **any** chunking
and interleaving, and the normal executor runs with a runtime-proven
certificate.

Soundness requires that inspection sees the same addresses the execution
would: every value feeding an address must be unchanged by the loop itself.
That is exactly the name-level eligibility test
:func:`repro.analysis.safety.inspector_eligible` — no array both written
and read — plus scalar privacy (no upward-exposed written scalar).  When a
written array is also read (histogram's ``H(k) := H(k) + 1``), addresses
are still loop-invariant here, but *values* flow between iterations, so
disjointness of writes is no longer the whole story; the plan refuses
those loops (:class:`repro.parallel.plan.Plan`) and they run serially.

With C kernels a plan first runs the same pass natively, beside the
kernel, and takes only its proofs: refutations and errors are this
module's alone.  An :class:`InspectionResult` is the run's certificate
for that dispatch: a run keeps one per inspection in
``ParallelProcedureResult.certificates``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import ClassVar, Mapping

import numpy as np

from repro.analysis.dependence import exposed_written_scalars
from repro.analysis.safety import inspector_eligible
from repro.ir.expr import ArrayRef, BinOp, Call, Const, Unary, Var
from repro.ir.stmt import Assign, Block, Loop
from repro.runtime.interp import Interpreter, InterpreterError, eval_bound

__all__ = [
    "Element",
    "InspectionResult",
    "inspect_dispatch",
    "scalar_hazards",
]

#: An array element: (array name, concrete index tuple).
Element = tuple[str, tuple[int, ...]]


def scalar_hazards(loop: Loop) -> set[str]:
    """Scalars read-before-write *and* written in the dispatched body.

    The dynamic twin of the static PRIV002 scan: such a scalar carries a
    value across iterations, which inspection cannot recover (workers
    never ship scalar state back).
    """
    return exposed_written_scalars(loop.body, {loop.var})


@dataclass
class InspectionResult:
    """What the inspector concluded about one dispatch occurrence — the
    certificate a run records for it."""

    #: Always the inspector: no other pass certifies a dispatch at run time.
    mode: ClassVar[str] = "inspector"

    loop_var: str
    eligible: bool
    reason: str
    proven: bool = False
    iterations: int = 0
    elements: int = 0
    wall_s: float = 0.0
    #: Sample of observed write collisions: (element, iteration, iteration).
    conflicts: tuple[tuple[Element, int, int], ...] = ()
    error: str | None = None
    #: Which pass decided: ``"native"`` (C, beside the kernel), ``"numpy"``
    #: (vectorized) or ``"walk"`` (every refutation and error).
    inspector: str = "walk"

    def describe(self) -> str:
        if not self.eligible:
            return f"ineligible: {self.reason}"
        if self.error:
            return f"inspection failed: {self.error}"
        verdict = "proven disjoint" if self.proven else "refuted"
        return (
            f"{verdict}: {self.iterations} iterations, "
            f"{self.elements} distinct elements, "
            f"{len(self.conflicts)} conflict(s) sampled"
        )

    @property
    def status(self) -> str:
        return "proven-dynamic" if self.proven else "refuted"

    def to_dict(self) -> dict:
        return {
            "loop": self.loop_var,
            "mode": self.mode,
            "status": self.status,
            "iterations": self.iterations,
            "conflicts": len(self.conflicts),
            "wall_s": self.wall_s,
            "detail": self.describe(),
            "inspector": self.inspector,
        }

    def __str__(self) -> str:
        return (
            f"dynamic[{self.mode}/{self.inspector}] loop {self.loop_var}: "
            f"{self.status} ({self.iterations} iterations, "
            f"{len(self.conflicts)} conflict(s)): {self.describe()}"
        )


class _Unvectorizable(Exception):
    """Internal: expression or body shape outside the vectorized grammar."""


#: Binary operators the vectorized pass evaluates elementwise.  Each must
#: agree exactly with :func:`repro.ir.expr.apply_binop` on every input the
#: scalar interpreter would accept — the fast path is an optimization, not
#: a different semantics.
_VEC_BINOPS = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": lambda a, b: a / b,
    "floordiv": lambda a, b: a // b,
    "ceildiv": lambda a, b: -((-a) // b),
    "mod": lambda a, b: a % b,
    "min": np.minimum,
    "max": np.maximum,
}

_VEC_CALLS = {
    "sin": np.sin,
    "cos": np.cos,
    "sqrt": np.sqrt,
    "exp": np.exp,
    "log": np.log,
    "abs": np.abs,
}


def _vec_eval(e, env, arrays):
    """Evaluate ``e`` over the whole iteration vector at once.

    ``env`` maps the loop variable (and any vectorized recovery scalars)
    to int64 vectors and plain parameters to Python numbers.  Raises
    :class:`_Unvectorizable` for anything outside the supported grammar —
    including a subscript that lands out of bounds, where the scalar walk
    must run instead to report the exact failing iteration.
    """
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Var):
        try:
            return env[e.name]
        except KeyError:
            raise _Unvectorizable from None
    if isinstance(e, BinOp):
        fn = _VEC_BINOPS.get(e.op)
        if fn is None:
            raise _Unvectorizable
        return fn(_vec_eval(e.lhs, env, arrays), _vec_eval(e.rhs, env, arrays))
    if isinstance(e, Unary):
        if e.op != "-":
            raise _Unvectorizable
        return -_vec_eval(e.operand, env, arrays)
    if isinstance(e, Call):
        if len(e.args) != 1:
            raise _Unvectorizable
        v = _vec_eval(e.args[0], env, arrays)
        if e.func == "int":  # trunc-toward-zero, matching Python int()
            return (
                np.trunc(v).astype(np.int64)
                if isinstance(v, np.ndarray)
                else int(v)
            )
        if e.func == "float":
            return (
                v.astype(np.float64) if isinstance(v, np.ndarray) else float(v)
            )
        fn = _VEC_CALLS.get(e.func)
        if fn is None:  # isqrt: no exact numpy twin — scalar walk instead
            raise _Unvectorizable
        return fn(v)
    if isinstance(e, ArrayRef):
        arr = arrays.get(e.name)
        if arr is None or len(e.indices) != arr.ndim:
            raise _Unvectorizable
        idx = _vec_index_tuple(e.indices, arr.shape, env, arrays)
        return arr[idx]
    raise _Unvectorizable


def _vec_index_tuple(indices, shape, env, arrays):
    """Vectorized, bounds-checked index tuple for a load or store."""
    out = []
    for dim, ix in zip(shape, indices):
        v = _vec_eval(ix, env, arrays)
        if isinstance(v, np.ndarray):
            if v.dtype.kind == "f":
                v = np.trunc(v).astype(np.int64)
            if v.size and (int(v.min()) < 0 or int(v.max()) >= dim):
                raise _Unvectorizable  # exact OOB diagnosis: scalar walk
        else:
            v = int(v)
            if not 0 <= v < dim:
                raise _Unvectorizable
        out.append(v)
    return tuple(out)


def _vectorized_inspect(loop, env, arrays, lo, hi):
    """Whole-loop subscript pass as numpy vector operations.

    Handles the common dispatch shape: a flat body of scalar recovery
    assignments followed by array stores (no guards, no inner loops).
    Returns the number of distinct written elements when the write sets
    are proven pairwise disjoint, or ``None`` when the body is outside
    the grammar, a subscript leaves its array, or a cross-iteration
    collision exists — every ``None`` falls back to the exact
    per-iteration walk, so the fast path can only accelerate *proofs*,
    never change a verdict.
    """
    stmts = loop.body.stmts if isinstance(loop.body, Block) else (loop.body,)
    iv = np.arange(lo, hi + 1, dtype=np.int64)
    venv: dict = dict(env)
    venv[loop.var] = iv
    stores: dict[str, list[tuple]] = {}
    try:
        for s in stmts:
            if not isinstance(s, Assign):
                return None
            if isinstance(s.target, Var):
                # Recovery-prefix scalar: private per iteration (the
                # hazard scan already ran), so it vectorizes to a lane.
                venv[s.target.name] = _vec_eval(s.value, venv, arrays)
                continue
            arr = arrays.get(s.target.name)
            if arr is None or len(s.target.indices) != arr.ndim:
                return None
            idx = _vec_index_tuple(
                s.target.indices, arr.shape, venv, arrays
            )
            idx = tuple(
                np.broadcast_to(np.asarray(v, dtype=np.int64), iv.shape)
                for v in idx
            )
            stores.setdefault(s.target.name, []).append(idx)
    except _Unvectorizable:
        return None
    elements = 0
    for name, idx_tuples in stores.items():
        shape = arrays[name].shape
        addr = [np.ravel_multi_index(t, shape) for t in idx_tuples]
        # Sort + adjacency instead of np.unique: same verdict, and the
        # plain sort keeps the whole pass a small fraction of one serial
        # execution — the inspector's entire reason to exist.
        if len(addr) == 1:
            s = np.sort(addr[0])
            dupes = s[1:] == s[:-1]
            if dupes.any():
                return None  # collision: scalar walk samples it
            elements += int(s.size)
        else:
            # Multiple stores per iteration: same-iteration repeats are
            # ordered writes, only cross-iteration overlap conflicts.
            addrs = np.concatenate(addr)
            iters = np.tile(iv, len(addr))
            order = np.lexsort((iters, addrs))
            a, it = addrs[order], iters[order]
            same_addr = a[1:] == a[:-1]
            if (same_addr & (it[1:] != it[:-1])).any():
                return None
            elements += int(a.size - same_addr.sum()) if a.size else 0
    return elements


class _SubscriptInspector(Interpreter):
    """An interpreter that addresses array writes instead of executing them.

    Array-store statements record ``(name, index tuple)`` into
    ``self.writes`` and skip both the right-hand side evaluation and the
    store — under eligibility those values cannot feed any address.
    Scalar assignments, guards and loop bounds evaluate normally (they
    may feed subscripts), reading only arrays the loop never writes.
    """

    def __init__(self) -> None:
        super().__init__()
        self.writes: list[Element] = []

    def _exec(self, s, env, arrays):
        if isinstance(s, Assign) and isinstance(s.target, ArrayRef):
            idx = self._index_tuple(s.target, env, arrays)
            self.writes.append((s.target.name, idx))
            return
        super()._exec(s, env, arrays)


def inspect_dispatch(
    loop: Loop,
    env: Mapping[str, int | float],
    arrays: Mapping[str, np.ndarray],
    max_conflicts: int = 8,
) -> InspectionResult:
    """Address every iteration of ``loop``; prove or refute write disjointness.

    Read-only: neither ``env`` nor ``arrays`` is mutated.  The verdict is
    exact for the supplied data — ``proven`` certifies *this* dispatch,
    not the loop in general.
    """
    t0 = time.perf_counter()
    eligible, reason = inspector_eligible(loop)
    if not eligible:
        return InspectionResult(loop.var, False, reason)
    hazards = scalar_hazards(loop)
    if hazards:
        return InspectionResult(
            loop.var,
            False,
            "scalar(s) %s carry values across iterations"
            % ", ".join(sorted(hazards)),
        )
    insp = _SubscriptInspector()
    scratch: dict[str, int | float] = dict(env)
    first_writer: dict[Element, int] = {}
    conflicts: list[tuple[Element, int, int]] = []
    iterations = 0
    try:
        lo = eval_bound(loop.lower, scratch, arrays, "loop lower bound")
        hi = eval_bound(loop.upper, scratch, arrays, "loop upper bound")
        elements = _vectorized_inspect(loop, scratch, arrays, lo, hi)
        if elements is not None:
            return InspectionResult(
                loop.var,
                True,
                reason,
                proven=True,
                iterations=max(hi - lo + 1, 0),
                elements=elements,
                wall_s=time.perf_counter() - t0,
                inspector="numpy",
            )
        for value in range(lo, hi + 1):
            scratch[loop.var] = value
            insp.writes.clear()
            insp._exec(loop.body, scratch, arrays)
            iterations += 1
            for elem in insp.writes:
                prev = first_writer.setdefault(elem, value)
                if prev != value:
                    conflicts.append((elem, prev, value))
                    if len(conflicts) >= max_conflicts:
                        break
            if len(conflicts) >= max_conflicts:
                break  # the conflict sample is full
    except InterpreterError as exc:
        return InspectionResult(
            loop.var,
            True,
            reason,
            iterations=iterations,
            elements=len(first_writer),
            wall_s=time.perf_counter() - t0,
            error=str(exc),
        )
    return InspectionResult(
        loop.var,
        True,
        reason,
        proven=not conflicts,
        iterations=iterations,
        elements=len(first_writer),
        wall_s=time.perf_counter() - t0,
        conflicts=tuple(conflicts),
    )
