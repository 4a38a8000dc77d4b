"""DOALL classification: which loops may legally run in parallel?

A loop is DOALL when no dependence is *carried* by it — the edge set of
:func:`repro.analysis.pdg.dependences`, ranged over this loop with the
outer loops held at ``=``, is empty — and every scalar written in the
body is *private*: defined before any use on every path through one
iteration (:func:`repro.analysis.dependence.exposed_written_scalars`).

The verdict is exactly as precise as the chunk-safety verifier's, because
both read the same edges: equality/disequality guards and affine symbolic
bounds refute direction vectors here too (the pivot-guarded Gauss–Jordan
row update is tagged DOALL).  What stays conservative: non-affine
subscripts, symbolic coefficients, and scalar flow that cannot be proven
private all demote the loop to serial.  Reductions (``s := s + …``) are
likewise serial *here*; recognizing and re-tagging them for the
partial-accumulator dispatch mode is the job of
:mod:`repro.analysis.pdg` and the loop-splitting walk of
:mod:`repro.transforms.fission`.
"""

from __future__ import annotations

from typing import Sequence

from repro.analysis.dependence import (
    Dependence,
    exposed_written_scalars,
)
from repro.analysis.pdg import dependences
from repro.ir.stmt import Block, If, Loop, LoopKind, Procedure, Stmt


def loop_carried_dependences(
    loop: Loop, outer: Sequence[Loop] = ()
) -> list[Dependence]:
    """Dependences carried by ``loop`` (direction ``<``/``>`` at its level).

    ``outer`` is the chain of loops enclosing ``loop``; their indices are
    held equal on both sides of every tested pair.
    """
    return list(dependences(loop, outer))


def blocking_scalars(loop: Loop, outer: Sequence[Loop] = ()) -> set[str]:
    """Scalars written in ``loop``'s body that are not private per iteration."""
    bound = {loop.var} | {lp.var for lp in outer}
    return exposed_written_scalars(loop.body, bound)


def classify_loop(loop: Loop, outer: Sequence[Loop] = ()) -> bool:
    """True when ``loop`` is provably parallel (DOALL)."""
    return (
        not blocking_scalars(loop, outer)
        and next(dependences(loop, outer), None) is None
    )


def mark_doall(proc: Procedure) -> Procedure:
    """Re-tag every loop with the analyser's verdict.

    Loops proven independent become DOALL; everything else becomes SERIAL —
    including loops the input optimistically tagged DOALL that the analyser
    cannot prove (the safe direction).
    """

    def go(s: Stmt, outer: tuple[Loop, ...]) -> Stmt:
        if isinstance(s, Block):
            return Block(tuple(go(x, outer) for x in s.stmts))
        if isinstance(s, If):
            t = go(s.then, outer)
            o = go(s.orelse, outer)
            assert isinstance(t, Block) and isinstance(o, Block)
            return If(s.cond, t, o)
        if isinstance(s, Loop):
            kind = LoopKind.DOALL if classify_loop(s, outer) else LoopKind.SERIAL
            body = go(s.body, outer + (s,))
            assert isinstance(body, Block)
            return Loop(s.var, s.lower, s.upper, body, s.step, kind)
        return s

    body = go(proc.body, ())
    assert isinstance(body, Block)
    return proc.with_body(body)
