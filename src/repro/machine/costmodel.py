"""Static cost model: estimate execution cost directly from IR.

Bridges the compiler side and the machine side: given a loop body and
concrete scalar bindings, estimate its cost in the simulator's instruction
units by statically counting operations (weighted per class).  This is how
the benchmarks derive *per-iteration* cost vectors from real programs —
including non-uniform ones like triangular updates — instead of assuming a
body constant.

Conventions:

* costs are exact operation-weight sums for straight-line code;
* inner loops are costed by evaluating their bounds under the supplied
  bindings and summing per-iteration costs (with a constant-body shortcut
  so huge uniform loops do not require iteration);
* ``if`` statements cost the condition plus the *average* of the branches —
  the right model for data-dependent guards under random data; use
  :func:`stmt_cost` with ``branch="max"`` for worst-case analysis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.ir.expr import ArrayRef, BinOp, Call, Const, Expr, Unary, Var
from repro.ir.stmt import Assign, Block, If, Loop, Stmt
from repro.runtime.interp import Interpreter

_DIVMOD = ("floordiv", "ceildiv", "mod")


@dataclass(frozen=True)
class CostWeights:
    """Instruction-unit weights per operation class."""

    arith: float = 1.0  # + - * comparisons, and/or
    divmod: float = 4.0  # integer division family
    true_div: float = 4.0  # floating division
    memory: float = 2.0  # one array element load or store
    intrinsic: float = 8.0  # sin/cos/sqrt/…
    assign: float = 1.0  # scalar move


class CostModelError(ValueError):
    """Bounds could not be evaluated with the given bindings."""


def expr_cost(e: Expr, weights: CostWeights) -> float:
    """Cost of evaluating an expression once."""
    if isinstance(e, (Const, Var)):
        return 0.0
    if isinstance(e, ArrayRef):
        return weights.memory + sum(expr_cost(i, weights) for i in e.indices)
    if isinstance(e, Unary):
        return weights.arith + expr_cost(e.operand, weights)
    if isinstance(e, Call):
        return weights.intrinsic + sum(expr_cost(a, weights) for a in e.args)
    if isinstance(e, BinOp):
        if e.op in _DIVMOD:
            op_cost = weights.divmod
        elif e.op == "/":
            op_cost = weights.true_div
        else:
            op_cost = weights.arith
        return op_cost + expr_cost(e.lhs, weights) + expr_cost(e.rhs, weights)
    raise CostModelError(f"cannot cost {type(e).__name__}")


def _eval_bound(e: Expr, env: Mapping[str, int | float], what: str) -> int:
    interp = Interpreter()
    try:
        value = interp._eval(e, dict(env), {})
    except Exception as exc:
        raise CostModelError(
            f"cannot evaluate {what} under the given bindings: {exc}"
        ) from exc
    if isinstance(value, float):
        if not value.is_integer():
            raise CostModelError(f"{what} evaluated to non-integer {value}")
        value = int(value)
    return value


def stmt_cost(
    s: Stmt,
    env: Mapping[str, int | float],
    weights: CostWeights | None = None,
    branch: str = "avg",
) -> float:
    """Cost of executing a statement once, under scalar bindings ``env``.

    ``env`` must bind every free scalar the statement's loop bounds need
    (problem sizes, enclosing loop indices).  ``branch`` is ``"avg"`` or
    ``"max"`` for conditionals.
    """
    weights = weights or CostWeights()
    if branch not in ("avg", "max"):
        raise ValueError("branch must be 'avg' or 'max'")
    if isinstance(s, Block):
        # Walk sequentially, binding scalar assignments whose values are
        # computable from the current env (e.g. the head-of-block index a
        # strength-reduced loop derives) so later loop bounds can use them.
        running = dict(env)
        total = 0.0
        for x in s.stmts:
            total += stmt_cost(x, running, weights, branch)
            if isinstance(x, Assign) and isinstance(x.target, Var):
                interp = Interpreter()
                try:
                    running[x.target.name] = interp._eval(x.value, running, {})
                except Exception:
                    running.pop(x.target.name, None)
        return total
    if isinstance(s, Assign):
        target_cost = (
            expr_cost(s.target, weights)
            if isinstance(s.target, ArrayRef)
            else weights.assign
        )
        return target_cost + expr_cost(s.value, weights)
    if isinstance(s, If):
        cond = expr_cost(s.cond, weights)
        t = stmt_cost(s.then, env, weights, branch)
        o = stmt_cost(s.orelse, env, weights, branch)
        return cond + (max(t, o) if branch == "max" else (t + o) / 2.0)
    if isinstance(s, Loop):
        lo = _eval_bound(s.lower, env, f"lower bound of {s.var!r}")
        hi = _eval_bound(s.upper, env, f"upper bound of {s.var!r}")
        step = _eval_bound(s.step, env, f"step of {s.var!r}")
        values = range(lo, hi + 1, step)
        trips = len(values)
        if trips == 0:
            return 0.0
        inner_env = dict(env)
        inner_env[s.var] = lo
        first = stmt_cost(s.body, inner_env, weights, branch)
        inner_env[s.var] = values[-1]
        last = stmt_cost(s.body, inner_env, weights, branch)
        if first == last:
            # Body cost is index-independent (checked at both endpoints):
            # multiply instead of iterating.
            return trips * (first + weights.arith)  # + loop bookkeeping
        total = 0.0
        for value in values:
            inner_env[s.var] = value
            total += stmt_cost(s.body, inner_env, weights, branch) + weights.arith
        return total
    raise CostModelError(f"cannot cost statement {type(s).__name__}")


def doall_iteration_costs(
    loop: Loop,
    env: Mapping[str, int | float],
    weights: CostWeights | None = None,
    branch: str = "avg",
) -> list[float]:
    """Per-iteration costs of a loop's body, in iteration order.

    The cost vector the simulator consumes: element k is the cost of the
    loop body with the induction variable bound to its k-th value.  Applied
    to a coalesced flat loop this yields the true (possibly non-uniform)
    work profile, recovery arithmetic included.
    """
    weights = weights or CostWeights()
    lo = _eval_bound(loop.lower, env, "lower bound")
    hi = _eval_bound(loop.upper, env, "upper bound")
    step = _eval_bound(loop.step, env, "step")
    out = []
    inner_env = dict(env)
    for value in range(lo, hi + 1, step):
        inner_env[loop.var] = value
        out.append(stmt_cost(loop.body, inner_env, weights, branch))
    return out
