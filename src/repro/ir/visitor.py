"""Tree walkers and rewriters for the loop-nest IR.

Because all IR nodes are immutable, rewriting builds new trees; unchanged
subtrees are shared.  The helpers here are the basis of every transformation
pass in :mod:`repro.transforms`.
"""

from __future__ import annotations

from typing import Callable, Iterator

from repro.ir.expr import ArrayRef, BinOp, Call, Const, Expr, Unary, Var
from repro.ir.stmt import Assign, Block, If, Loop, Procedure, Stmt


def walk_exprs(node: Expr | Stmt) -> Iterator[Expr]:
    """Yield every expression node under ``node`` in pre-order.

    Accepts either an expression or a statement; array-reference assignment
    targets are included (their index expressions matter for dependence
    analysis).
    """
    if isinstance(node, Expr):
        yield node
        for child in node.children():
            yield from walk_exprs(child)
    elif isinstance(node, Assign):
        yield from walk_exprs(node.target)
        yield from walk_exprs(node.value)
    elif isinstance(node, Block):
        for s in node.stmts:
            yield from walk_exprs(s)
    elif isinstance(node, If):
        yield from walk_exprs(node.cond)
        yield from walk_exprs(node.then)
        yield from walk_exprs(node.orelse)
    elif isinstance(node, Loop):
        yield from walk_exprs(node.lower)
        yield from walk_exprs(node.upper)
        yield from walk_exprs(node.step)
        yield from walk_exprs(node.body)
    elif isinstance(node, Procedure):
        yield from walk_exprs(node.body)
    else:  # pragma: no cover - defensive
        raise TypeError(f"cannot walk {node!r}")


def walk_stmts(node: Stmt) -> Iterator[Stmt]:
    """Yield every statement under ``node`` (inclusive) in pre-order."""
    yield node
    if isinstance(node, Block):
        for s in node.stmts:
            yield from walk_stmts(s)
    elif isinstance(node, If):
        yield from walk_stmts(node.then)
        yield from walk_stmts(node.orelse)
    elif isinstance(node, Loop):
        yield from walk_stmts(node.body)
    elif isinstance(node, Procedure):
        yield from walk_stmts(node.body)


def collect_loops(node: Stmt) -> list[Loop]:
    """All loops under ``node`` in pre-order (outermost first)."""
    return [s for s in walk_stmts(node) if isinstance(s, Loop)]


def collect_array_refs(node: Expr | Stmt) -> list[ArrayRef]:
    """All array references (loads and store targets) under ``node``."""
    return [e for e in walk_exprs(node) if isinstance(e, ArrayRef)]


def stored_arrays(node: Stmt) -> tuple[str, ...]:
    """Sorted names of the arrays stored to anywhere under ``node``.

    Every store counts, including one under a guard that is false on a
    given run, so this over-approximates what a run writes: an array
    outside it is never written.  A run copies back, and a served run
    returns, only these.
    """
    return tuple(sorted({
        s.target.name for s in walk_stmts(node)
        if isinstance(s, Assign) and isinstance(s.target, ArrayRef)
    }))


def free_vars(node: Expr | Stmt) -> set[str]:
    """Names of scalar variables read anywhere under ``node``.

    Loop induction variables defined by loops *inside* ``node`` are excluded;
    names bound by an enclosing scope (parameters, outer loop indices) remain.
    """
    bound: set[str] = set()

    def stmt_bound(n: Stmt) -> None:
        for s in walk_stmts(n):
            if isinstance(s, Loop):
                bound.add(s.var)

    if isinstance(node, Stmt):
        stmt_bound(node)
    names = {e.name for e in walk_exprs(node) if isinstance(e, Var)}
    return names - bound


class ExprTransformer:
    """Bottom-up expression rewriter.

    Subclasses override :meth:`visit_leaf` hooks or the generic
    :meth:`visit`; the default reconstructs nodes only when a child changed.
    """

    def visit(self, e: Expr) -> Expr:
        method = getattr(self, f"visit_{type(e).__name__}", None)
        if method is not None:
            return method(e)
        return self.generic_visit(e)

    def generic_visit(self, e: Expr) -> Expr:
        if isinstance(e, (Const, Var)):
            return e
        if isinstance(e, BinOp):
            lhs, rhs = self.visit(e.lhs), self.visit(e.rhs)
            if lhs is e.lhs and rhs is e.rhs:
                return e
            return BinOp(e.op, lhs, rhs)
        if isinstance(e, Unary):
            operand = self.visit(e.operand)
            return e if operand is e.operand else Unary(e.op, operand)
        if isinstance(e, ArrayRef):
            indices = tuple(self.visit(i) for i in e.indices)
            if all(a is b for a, b in zip(indices, e.indices)):
                return e
            return ArrayRef(e.name, indices)
        if isinstance(e, Call):
            args = tuple(self.visit(a) for a in e.args)
            if all(a is b for a, b in zip(args, e.args)):
                return e
            return Call(e.func, args)
        raise TypeError(f"cannot transform {e!r}")  # pragma: no cover


def transform_exprs(node: Stmt, fn: Callable[[Expr], Expr]) -> Stmt:
    """Rewrite every expression in ``node`` with ``fn`` (applied bottom-up).

    ``fn`` receives each fully-rebuilt sub-expression and may return it
    unchanged or replace it.  Statement structure is preserved.
    """

    class _Fn(ExprTransformer):
        def visit(self, e: Expr) -> Expr:
            return fn(self.generic_visit(e))

    rewriter = _Fn()

    def rewrite_target(t: Var | ArrayRef) -> Var | ArrayRef:
        out = rewriter.visit(t)
        if not isinstance(out, (Var, ArrayRef)):
            raise TypeError("assignment target rewritten to non-lvalue")
        return out

    def go(s: Stmt) -> Stmt:
        if isinstance(s, Assign):
            target = rewrite_target(s.target)
            value = rewriter.visit(s.value)
            if target is s.target and value is s.value:
                return s
            return Assign(target, value)
        if isinstance(s, Block):
            stmts = tuple(go(x) for x in s.stmts)
            if all(a is b for a, b in zip(stmts, s.stmts)):
                return s
            return Block(stmts)
        if isinstance(s, If):
            cond = rewriter.visit(s.cond)
            then, orelse = go(s.then), go(s.orelse)
            if cond is s.cond and then is s.then and orelse is s.orelse:
                return s
            return If(cond, then, orelse)
        if isinstance(s, Loop):
            lower = rewriter.visit(s.lower)
            upper = rewriter.visit(s.upper)
            step = rewriter.visit(s.step)
            body = go(s.body)
            if (
                lower is s.lower
                and upper is s.upper
                and step is s.step
                and body is s.body
            ):
                return s
            return Loop(s.var, lower, upper, body, step, s.kind)
        if isinstance(s, Procedure):
            body = go(s.body)
            return s if body is s.body else s.with_body(body)
        raise TypeError(f"cannot transform statement {s!r}")  # pragma: no cover

    out = go(node)
    if isinstance(out, Block) and not isinstance(node, Block):  # pragma: no cover
        raise AssertionError("statement kind changed during rewrite")
    return out


def substitute(node: Stmt | Expr, bindings: dict[str, Expr]):
    """Replace free scalar variables by expressions.

    ``bindings`` maps variable names to replacement expressions.  Loop
    induction variables shadow bindings inside their own loop (rebinding an
    induction variable is almost certainly a bug, so it raises).
    """
    for name in bindings:
        if isinstance(node, Stmt):
            for s in walk_stmts(node):
                if isinstance(s, Loop) and s.var == name:
                    raise ValueError(
                        f"cannot substitute {name!r}: it is bound by a loop in scope"
                    )

    def fn(e: Expr) -> Expr:
        if isinstance(e, Var) and e.name in bindings:
            return bindings[e.name]
        return e

    if isinstance(node, Expr):
        class _Sub(ExprTransformer):
            def visit(self, e: Expr) -> Expr:
                return fn(self.generic_visit(e))

        return _Sub().visit(node)
    return transform_exprs(node, fn)
