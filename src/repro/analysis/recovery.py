"""Recognizing index-recovery prefixes: de-coalescing by reconstruction.

A coalesced loop's body starts with assignments that recover the original
nest indices from the flat index (:func:`repro.transforms.coalesce.coalesce`
with ``materialize="assign"``, and the triangular variants).  Two consumers
need to *prove* that such a prefix really is recovery — not arbitrary scalar
code that happens to look like it:

* the C chunk emitter (:mod:`repro.codegen.cgen`) strength-reduces a
  verified prefix into one block-entry recovery plus odometer increments;
* the chunk-safety verifier (:mod:`repro.analysis.safety`) *de-coalesces*
  a dispatched flat loop back into its virtual nest so dependence testing
  runs over affine subscripts of the original indices instead of the
  non-affine div/mod recovery forms.

The proof technique is reconstruction: extract the candidate wrap bounds,
regenerate what :func:`repro.transforms.coalesce.recovery_expressions`
(or the exact-triangular closed form) would emit for those bounds, and
demand structural equality with the actual assignments.  A match is exact
— the recovered indices provably enumerate the virtual nest in
lexicographic order, one tuple per flat iteration.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.dependence import written_scalars
from repro.ir.expr import ArrayRef, BinOp, Call, Const, Expr, Var, floor_div, mul, sub
from repro.ir.simplify import simplify
from repro.ir.stmt import Assign, Loop, Stmt
from repro.ir.visitor import free_vars, walk_exprs

__all__ = [
    "RecoveredNest",
    "candidate_wrap_bound",
    "recognize_recovered_nest",
    "recovery_prefix",
    "verified_rectangular_recovery",
    "verified_triangular_recovery",
]


def recovery_prefix(
    loop: Loop, params: set[str], chained: bool = False
) -> tuple[list[Assign], list[Stmt]]:
    """Split ``loop.body`` into (recovery assignments, remaining body).

    A statement belongs to the recovery prefix when it assigns a body-local
    scalar from an expression over nothing but the flat loop variable and
    parameter scalars (no array reads) — the shape
    :func:`repro.transforms.coalesce.coalesce` materializes.  With
    ``chained=True``, later prefix expressions may also reference earlier
    recovered indices (the exact-triangular j uses i).  Purely structural:
    callers must still *verify* the prefix before trusting it.
    """
    allowed = {loop.var} | params
    heads: list[Assign] = []
    stmts = list(loop.body.stmts)
    for s in stmts:
        if (
            isinstance(s, Assign)
            and isinstance(s.target, Var)
            and s.target.name not in allowed
            and not any(isinstance(e, ArrayRef) for e in walk_exprs(s.value))
            and free_vars(s.value) <= allowed
        ):
            heads.append(s)
            if chained:
                allowed = allowed | {s.target.name}
        else:
            break
    return heads, stmts[len(heads):]


def candidate_wrap_bound(expr: Expr) -> Expr | None:
    """The single plausible wrap bound N inside a recovery expression.

    Both recovery styles mention N exactly as ``x mod N`` (divmod) or as
    ``N * ((x) floordiv N)`` (ceiling).  Returns the unique candidate, or
    None when zero or several distinct candidates appear.
    """
    candidates: list[Expr] = []
    for sub_e in walk_exprs(expr):
        if isinstance(sub_e, BinOp) and sub_e.op == "mod":
            candidates.append(sub_e.rhs)
        elif isinstance(sub_e, BinOp) and sub_e.op == "*":
            for n, d in ((sub_e.lhs, sub_e.rhs), (sub_e.rhs, sub_e.lhs)):
                if isinstance(d, BinOp) and d.op == "floordiv" and d.rhs == n:
                    candidates.append(n)
    unique: list[Expr] = []
    for c in candidates:
        if not any(c == u for u in unique):
            unique.append(c)
    return unique[0] if len(unique) == 1 else None


def verified_rectangular_recovery(
    loop: Loop, heads: list[Assign], rest: list[Stmt]
) -> tuple[tuple[str, ...], tuple[Expr, ...]] | None:
    """Prove ``heads`` is rectangular coalesce recovery; return its shape.

    Extracts the wrap bound of every non-outermost index, reconstructs what
    :func:`repro.transforms.coalesce.recovery_expressions` would generate
    for both styles over those bounds, and demands structural equality with
    the actual assignments.  A match is a proof: the recovered indices then
    advance odometer-fashion over consecutive flat iterations, so computing
    them once per contiguous block and incrementing is exact.  Returns
    ``(index_vars, bounds)`` or None.  ``bounds[0]`` is a ``Const(1)``
    placeholder — the outermost bound never appears in recovery
    expressions and cannot be reconstructed from them.
    """
    from repro.transforms.coalesce import recovery_expressions

    m = len(heads)
    if m == 0:
        return None
    index_vars = tuple(
        s.target.name for s in heads if isinstance(s.target, Var)
    )
    if len(index_vars) != m or len(set(index_vars)) != m:
        return None
    # The loop tail must not write the flat index or any recovered index.
    if written_scalars(rest) & (set(index_vars) | {loop.var}):
        return None
    bounds: list[Expr] = [Const(1)]  # outermost bound never wraps: unused
    for s in heads[1:]:
        n = candidate_wrap_bound(s.value)
        if n is None:
            return None
        bounds.append(n)
    flat = Var(loop.var)
    for style in ("ceiling", "divmod"):
        try:
            expected = recovery_expressions(flat, bounds, style=style)
        except (ValueError, ZeroDivisionError):  # pragma: no cover
            continue
        if m > 1 and all(s.value == e for s, e in zip(heads, expected)):
            return index_vars, tuple(bounds)
    if m == 1 and heads[0].value == flat:
        # Depth-1 coalesce: the "recovery" is the identity.
        return index_vars, (Const(1),)
    return None


def verified_triangular_recovery(
    loop: Loop, heads: list[Assign], rest: list[Stmt]
) -> tuple[str, str] | None:
    """Prove ``heads`` is the exact-triangular recovery; return (i, j).

    Reconstructs the closed forms
    :func:`repro.transforms.triangular.coalesce_triangular_exact` emits ::

        i = (isqrt(8I - 7) + 1) div 2
        j = I - i(i - 1) div 2

    and demands structural equality.  The recovered pair then enumerates
    the lower triangle ``1 <= j <= i`` in lexicographic order.
    """
    if len(heads) != 2:
        return None
    i_head, j_head = heads
    if not (isinstance(i_head.target, Var) and isinstance(j_head.target, Var)):
        return None
    i_var, j_var = i_head.target.name, j_head.target.name
    if i_var == j_var:
        return None
    if written_scalars(rest) & {i_var, j_var, loop.var}:
        return None
    flat_v = Var(loop.var)
    i_expr = simplify(
        floor_div(
            Call("isqrt", (sub(mul(Const(8), flat_v), Const(7)),)) + Const(1),
            Const(2),
        )
    )
    i_v = Var(i_var)
    j_expr = simplify(
        sub(flat_v, floor_div(mul(i_v, sub(i_v, Const(1))), Const(2)))
    )
    if i_head.value == i_expr and j_head.value == j_expr:
        return i_var, j_var
    return None


@dataclass(frozen=True)
class RecoveredNest:
    """The virtual nest a dispatched flat loop enumerates.

    ``index_vars`` are the recovered induction variables, outermost first;
    ``bounds`` the reconstructed upper-bound expressions (entry 0 is a
    placeholder for rectangular shapes); ``body`` the statements after the
    recovery prefix; ``shape`` one of ``"rectangular"``,
    ``"triangular-exact"``, or ``"direct"`` (no recovery: the loop itself
    is the single virtual level).  For triangular shapes the second index
    ranges over a subset of ``1..i`` — consumers over-approximating it to
    a full rectangle stay sound (more dependences assumed, never fewer).
    """

    index_vars: tuple[str, ...]
    bounds: tuple[Expr | None, ...]
    body: tuple[Stmt, ...]
    shape: str


def recognize_recovered_nest(loop: Loop, params: set[str]) -> RecoveredNest:
    """De-coalesce ``loop`` into the virtual nest it enumerates.

    Falls back to ``shape="direct"`` (the loop's own index as the single
    virtual level, full body) when no verified recovery prefix is found —
    always sound, since the loop *is* a depth-1 nest over itself.
    """
    heads, rest = recovery_prefix(loop, params)
    rect = verified_rectangular_recovery(loop, heads, rest)
    if rect is not None:
        index_vars, bounds = rect
        out_bounds: list[Expr | None] = [None, *bounds[1:]]
        return RecoveredNest(index_vars, tuple(out_bounds), tuple(rest), "rectangular")
    # The exact-triangular j-expression references the recovered i, so its
    # prefix only assembles with chaining enabled.
    heads, rest = recovery_prefix(loop, params, chained=True)
    tri = verified_triangular_recovery(loop, heads[:2], heads[2:] + rest)
    if tri is not None:
        return RecoveredNest(
            tri, (None, None), tuple(heads[2:] + rest), "triangular-exact"
        )
    return RecoveredNest(
        (loop.var,), (loop.upper,), tuple(loop.body.stmts), "direct"
    )
