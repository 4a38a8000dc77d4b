"""Loop distribution (fission): split a loop over its body statements.

Coalescing needs *perfect* nests; real bodies often carry a prologue
statement next to an inner loop (`C(i,j) := 0` before the k-reduction, say).
Distribution rewrites::

    for i: { S1; S2 }   ⇒   for i: { S1 } ; for i: { S2 }

whenever the statement-level dependence structure allows, turning imperfect
nests into sequences of perfect ones that coalescing can then attack.

Legality (classic): statements in a dependence cycle (an SCC of the
statement-level PDG, :func:`repro.analysis.pdg.build_pdg`) must remain in
one loop; the condensation is emitted in topological order.  The PDG's
edges are conservative in the ways that matter here:

* array accesses use the full direction-vector tester
  (:mod:`repro.analysis.dependence`);
* any two statements sharing a scalar with at least one write are fused
  (scalars are one memory cell: cross-iteration flow is always possible);
* non-affine subscripts fall back to "assume dependence" inside the tester.

Every piece keeps the original loop's kind;
:mod:`repro.transforms.fission` is the variant that re-classifies them.
"""

from __future__ import annotations

from typing import Sequence

from repro.analysis.pdg import build_pdg
from repro.ir.stmt import Block, If, Loop, Procedure, Stmt


def distribute(loop: Loop, outer: Sequence[Loop] = ()) -> list[Loop]:
    """Split ``loop`` into a sequence of loops, one per dependence SCC.

    Returns the replacement loops in a legal execution order.  A body that
    cannot be split (single statement, or one big SCC) comes back as
    ``[loop]`` unchanged.
    """
    if len(loop.body.stmts) < 2:
        return [loop]
    pdg = build_pdg(loop, outer)
    components = pdg.sccs()
    if len(components) == 1:
        return [loop]
    return [
        loop.with_body(Block(tuple(pdg.stmts[k] for k in comp)))
        for comp in components
    ]


def distribute_procedure(proc: Procedure, max_rounds: int = 4) -> Procedure:
    """Apply distribution everywhere, repeatedly, until a fixed point.

    Distribution exposes perfect nests for :func:`repro.transforms.coalesce.
    coalesce_procedure`; run it first in a pipeline.  ``max_rounds`` bounds
    the (already-terminating) iteration as a safety net.
    """

    def go(s: Stmt, outer: tuple[Loop, ...]) -> list[Stmt]:
        if isinstance(s, Loop):
            pieces = distribute(s, outer)
            result: list[Stmt] = []
            for piece in pieces:
                inner_stmts: list[Stmt] = []
                for child in piece.body.stmts:
                    inner_stmts.extend(go(child, outer + (piece,)))
                result.append(piece.with_body(Block(tuple(inner_stmts))))
            return result
        if isinstance(s, If):
            then = Block(tuple(x for c in s.then.stmts for x in go(c, outer)))
            orelse = Block(
                tuple(x for c in s.orelse.stmts for x in go(c, outer))
            )
            return [If(s.cond, then, orelse)]
        return [s]

    current = proc
    for _ in range(max_rounds):
        new_body = Block(
            tuple(x for s in current.body.stmts for x in go(s, ()))
        )
        nxt = current.with_body(new_body)
        if nxt == current:
            return nxt
        current = nxt
    return current
