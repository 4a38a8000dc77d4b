"""Loop fusion (jamming): merge adjacent conformable loops.

The paper's efficiency analysis wants *large* loop bodies — overhead per
iteration is amortized over the body size.  Fusion is the transformation
that buys body size: two adjacent loops with identical headers become one
loop running both bodies per iteration.  In this library it is the natural
post-pass after ``distribute → coalesce``: distribution splits an imperfect
nest so each piece can coalesce, and fusion can then merge coalesced loops
whose flat spaces match (the matmul init + reduction loops, for instance),
restoring a single fork/join for the whole computation.

Legality (classic): in the unfused code every iteration of the first loop
precedes every iteration of the second, so all cross-loop dependences point
first → second.  After fusion, instance i of the first body precedes
instance i′ of the second iff i ≤ i′; a dependence needing i > i′ (a
feasible ``>`` direction between the aligned index variables) is
*fusion-preventing*.  Shared scalars with a write on either side are
rejected conservatively.
"""

from __future__ import annotations

from typing import Sequence

from repro.analysis.dependence import upward_exposed_scalars, written_scalars
from repro.analysis.pdg import dependences
from repro.ir.expr import Var
from repro.ir.stmt import Block, If, Loop, Procedure, Stmt
from repro.ir.visitor import free_vars
from repro.transforms.base import TransformError
from repro.transforms.normalize import substitute_induction


def _fused(first: Loop, second: Loop) -> Loop:
    """``first`` running both bodies, ``second``'s index renamed to its own."""
    aligned = substitute_induction(second.body, second.var, Var(first.var))
    return first.with_body(Block(first.body.stmts + aligned.stmts))


def fusion_preventing(first: Loop, second: Loop, outer: Sequence[Loop] = ()) -> bool:
    """True when some dependence forbids fusing ``first`` with ``second``.

    Assumes conformable headers; ``second``'s index is aligned to
    ``first``'s for the test.
    """
    # Scalars: a written scalar vetoes fusion only when some use of it is
    # *upward-exposed* (read before any same-iteration write) in either
    # loop — then its value flows between loop instances with no
    # per-iteration alignment.  Private temporaries (defined before use
    # in their own body, like the index-recovery scalars coalescing
    # emits) are harmless.
    e1, _ = upward_exposed_scalars(first.body)
    e2, _ = upward_exposed_scalars(second.body)
    written = written_scalars((first.body, second.body))
    if written & ((e1 | e2) - {first.var, second.var}):
        return True

    # Arrays: in the fused candidate, an edge whose earlier instance sits
    # in the second body and whose later one sits in the first is a
    # dependence the unfused order (all of first, then all of second)
    # ran the other way round.
    split = len(first.body.stmts)
    for dep in dependences(_fused(first, second), outer):
        before, after, _ = dep.oriented()
        if after < split <= before:
            return True
    return False


def fuse(first: Loop, second: Loop, outer: Sequence[Loop] = ()) -> Loop:
    """Fuse two adjacent conformable loops into one.

    The fused loop keeps ``first``'s induction variable; ``second``'s body
    is renamed accordingly and appended.
    """
    if (first.lower, first.upper, first.step, first.kind) != (
        second.lower, second.upper, second.step, second.kind
    ):
        raise TransformError(
            "cannot fuse: loop headers differ (bounds, step, or kind)"
        )
    if fusion_preventing(first, second, outer):
        raise TransformError(
            "cannot fuse: a dependence would be reversed (or scalars are "
            "shared across the loops)"
        )
    if second.var != first.var and first.var in (
        written_scalars([second.body]) | free_vars(second.body)
    ):
        raise TransformError(
            f"cannot fuse: renaming {second.var!r} to {first.var!r} would "
            f"capture an existing use of {first.var!r} in the second body"
        )
    return _fused(first, second)


def fuse_procedure(proc: Procedure, max_rounds: int = 4) -> Procedure:
    """Greedily fuse adjacent fusable loops everywhere, to a fixed point."""

    def fuse_block(stmts: tuple[Stmt, ...], outer: tuple[Loop, ...]) -> tuple[Stmt, ...]:
        out: list[Stmt] = []
        for s in stmts:
            s = descend(s, outer)
            if out and isinstance(out[-1], Loop) and isinstance(s, Loop):
                try:
                    out[-1] = fuse(out[-1], s, outer)
                    continue
                except TransformError:
                    pass  # not fusable: keep both
            out.append(s)
        return tuple(out)

    def descend(s: Stmt, outer: tuple[Loop, ...]) -> Stmt:
        if isinstance(s, Loop):
            body = Block(fuse_block(s.body.stmts, outer + (s,)))
            return s.with_body(body)
        if isinstance(s, If):
            return If(
                s.cond,
                Block(fuse_block(s.then.stmts, outer)),
                Block(fuse_block(s.orelse.stmts, outer)),
            )
        return s

    current = proc
    for _ in range(max_rounds):
        nxt = current.with_body(Block(fuse_block(current.body.stmts, ())))
        if nxt == current:
            return nxt
        current = nxt
    return current
