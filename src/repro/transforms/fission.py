"""The one loop-splitting walk: fission, reduction re-tagging, distribution.

Coalescing needs *perfect* nests, and the mp runtime dispatches only
DOALL loops.  Both are served by one operation — split a loop over its
top-level body statements along the SCC condensation of its statement
PDG (:mod:`repro.analysis.pdg`)::

    for i: { S1; S2 }   ⇒   for i: { S1 } ; for i: { S2 }

Legality (classic): statements in a dependence cycle must stay in one
loop, and the condensation is emitted in topological order, which
preserves every cross-component dependence.  The PDG's edges are
conservative in the ways that matter here: array accesses use the full
direction-vector tester, any two statements sharing a scalar with at
least one write are fused (scalars are one memory cell), and non-affine
subscripts fall back to "assume dependence".

:func:`fission_procedure` walks the tree once and, per loop:

1. **recovers parallelism top-down, outside DOALL bodies.**  With
   ``fission`` a multi-statement serial loop is split and each piece is
   tagged from the same graph: an acyclic component has no carried
   array edge and no unprivate scalar — exactly
   :func:`repro.analysis.doall.classify_loop`'s criterion, read off the
   edge set it shares with the PDG — so it becomes a dispatchable DOALL
   loop; cyclic residues stay serial.  With ``reduction`` each serial
   piece matching :func:`repro.analysis.pdg.recognize_reduction`
   (``s := s ⊕ expr``) is re-tagged DOALL: the mp runtime runs it as
   per-chunk partial accumulators with a deterministic ordered combine,
   and the verifier turns the otherwise-fatal ``PRIV002`` into an
   informational ``RED001``.  Loops inside a DOALL body execute inside
   chunk iterations and are left as they are.
2. **distributes bottom-up**, everywhere: a loop is split only after its
   children are done, every piece keeping its kind.  A piece is one SCC
   of its parent's PDG, so it never splits again and one walk reaches
   the fixed point.

The verifier remains the oracle: every split procedure re-enters the
normal coalesce→verify→dispatch pipeline and
:func:`repro.analysis.safety.verify_procedure` re-proves each piece
before anything is dispatched.  Recovery outcomes surface as lint
findings — ``FISS001`` (fission applied, pieces listed), ``FISS002``
(fission refused, the blocking SCC and one of its dependence edges
named) and ``RED001`` (reduction recognized).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.pdg import (
    PDG,
    PDGEdge,
    Reduction,
    build_pdg,
    recognize_reduction,
)
from repro.analysis.safety import SafetyFinding, reduction_finding
from repro.ir.stmt import Block, If, Loop, LoopKind, Procedure, Stmt

__all__ = [
    "FissionOutcome",
    "FissionPiece",
    "FissionResult",
    "ReductionOutcome",
    "fission_loop",
    "fission_procedure",
]


@dataclass(frozen=True)
class FissionPiece:
    """One emitted sub-loop: its statement indices and final kind."""

    statements: tuple[int, ...]
    kind: str  # "doall" | "serial"


@dataclass(frozen=True)
class FissionOutcome:
    """What happened to one multi-statement serial loop."""

    loop_var: str
    applied: bool
    pieces: tuple[FissionPiece, ...]
    blocking_statements: tuple[int, ...]
    blocking_edge: PDGEdge | None

    def finding(self) -> SafetyFinding:
        if self.applied:
            doall = [p for p in self.pieces if p.kind == "doall"]
            pieces = "; ".join(
                f"[{', '.join(f'S{k}' for k in p.statements)}] -> {p.kind}"
                for p in self.pieces
            )
            src_stmt = dst_stmt = None
            if doall:
                src_stmt = doall[0].statements[0]
                dst_stmt = doall[0].statements[-1]
            return SafetyFinding(
                rule="FISS001",
                severity="info",
                loop_var=self.loop_var,
                message=(
                    f"fission split loop {self.loop_var} into "
                    f"{len(self.pieces)} sub-loops ({len(doall)} DOALL): "
                    f"{pieces}"
                ),
                hint=(
                    "the DOALL pieces dispatch to the worker fleet; only "
                    "the cyclic residue runs serially"
                ),
                src_stmt=src_stmt,
                dst_stmt=dst_stmt,
            )
        edge = self.blocking_edge
        detail = f" ({edge.describe()})" if edge is not None else ""
        members = ", ".join(f"S{k}" for k in self.blocking_statements)
        return SafetyFinding(
            rule="FISS002",
            severity="info",
            loop_var=self.loop_var,
            message=(
                f"fission refused for loop {self.loop_var}: statements "
                f"{{{members}}} form one dependence cycle{detail}"
            ),
            hint=(
                "break the cycle (buffer the overwritten values or "
                "restructure the recurrence) so the clean statements can "
                "be split into their own DOALL loop"
            ),
            src_stmt=edge.src if edge is not None else None,
            dst_stmt=edge.dst if edge is not None else None,
            directions=edge.directions if edge is not None and edge.directions else None,
        )


@dataclass(frozen=True)
class ReductionOutcome:
    """One recognized accumulation loop."""

    loop_var: str
    reduction: Reduction

    def finding(self) -> SafetyFinding:
        return reduction_finding(self.loop_var, self.reduction)


@dataclass(frozen=True)
class FissionResult:
    """The split procedure plus what the recovery passes did.

    ``outcomes`` holds one record per loop fission attempted,
    ``reductions`` one per loop re-tagged; ``passes`` names the recovery
    passes that ran, one :meth:`sections` entry each.
    """

    procedure: Procedure
    outcomes: tuple[FissionOutcome, ...]
    reductions: tuple[ReductionOutcome, ...]
    passes: tuple[str, ...]

    @property
    def applied(self) -> int:
        return sum(1 for o in self.outcomes if o.applied)

    @property
    def refused(self) -> int:
        return sum(1 for o in self.outcomes if not o.applied)

    @property
    def recognized(self) -> int:
        return len(self.reductions)

    @property
    def findings(self) -> list[SafetyFinding]:
        return [o.finding() for o in self.outcomes] + [
            o.finding() for o in self.reductions
        ]

    def sections(self) -> list[tuple[str, list[SafetyFinding]]]:
        """One ``(summary line, findings)`` pair per pass that ran."""
        out: list[tuple[str, list[SafetyFinding]]] = []
        if "fission" in self.passes:
            out.append((
                f"fission: {self.applied} loop(s) split, {self.refused} refused",
                [o.finding() for o in self.outcomes],
            ))
        if "reduction" in self.passes:
            out.append((
                f"reduction: {self.recognized} loop(s) recognized",
                [o.finding() for o in self.reductions],
            ))
        return out


def _pick_blocking_edge(pdg: PDG, component: tuple[int, ...]) -> PDGEdge | None:
    """A representative edge of the cycle: prefer carried array edges."""
    return min(
        pdg.blocking_edges(component),
        key=lambda e: (not e.carried, e.kind == "scalar"),
        default=None,
    )


def fission_loop(
    loop: Loop, outer: tuple[Loop, ...] = (), retag: bool = True
) -> tuple[list[Loop], FissionOutcome]:
    """Split one loop along its PDG's SCC condensation.

    Returns the replacement loops (in legal topological order) and the
    outcome record.  A body that is one big SCC comes back unchanged
    with a refusal outcome naming the blocking component.  With
    ``retag`` each piece is tagged DOALL or serial from the graph;
    without it (distribution) every piece keeps ``loop``'s kind.
    """
    pdg = build_pdg(loop, outer)
    components = pdg.sccs()
    if len(components) == 1:
        comp = components[0]
        return [loop], FissionOutcome(
            loop_var=loop.var,
            applied=False,
            pieces=(FissionPiece(comp, "serial"),),
            blocking_statements=comp,
            blocking_edge=_pick_blocking_edge(pdg, comp),
        )
    stmts = list(loop.body.stmts)
    out: list[Loop] = []
    pieces: list[FissionPiece] = []
    for comp in components:
        piece = loop.with_body(Block(tuple(stmts[k] for k in comp)))
        doall = not pdg.cyclic(comp)
        if retag:
            piece = piece.with_kind(LoopKind.DOALL if doall else LoopKind.SERIAL)
        out.append(piece)
        pieces.append(FissionPiece(comp, "doall" if doall else "serial"))
    return out, FissionOutcome(
        loop_var=loop.var,
        applied=True,
        pieces=tuple(pieces),
        blocking_statements=(),
        blocking_edge=None,
    )


def fission_procedure(
    proc: Procedure,
    *,
    fission: bool = True,
    reduction: bool = False,
    distribute: bool = False,
) -> FissionResult:
    """Run the selected splitting passes over ``proc`` in one walk.

    ``fission`` and ``reduction`` recover parallelism top-down in serial
    loops outside DOALL bodies; ``distribute`` then splits every loop,
    bottom-up, to expose perfect nests for
    :func:`repro.transforms.coalesce.coalesce_procedure`.
    """
    fissions: list[FissionOutcome] = []
    reductions: list[ReductionOutcome] = []

    def walk(
        stmts: tuple[Stmt, ...], outer: tuple[Loop, ...], recover: bool
    ) -> Block:
        return Block(tuple(x for s in stmts for x in go(s, outer, recover)))

    def go(s: Stmt, outer: tuple[Loop, ...], recover: bool) -> list[Stmt]:
        if isinstance(s, If):
            return [If(
                s.cond,
                walk(s.then.stmts, outer, recover),
                walk(s.orelse.stmts, outer, recover),
            )]
        if not isinstance(s, Loop):
            return [s]
        recover = recover and not s.is_doall
        if not (recover or distribute):
            return [s]
        pieces = [s]
        tested = recover and fission and len(s.body) >= 2
        if tested:
            pieces, outcome = fission_loop(s, outer)
            fissions.append(outcome)
        out: list[Stmt] = []
        for piece in pieces:
            if recover and reduction and not piece.is_doall:
                red = recognize_reduction(piece)
                if red is not None:
                    reductions.append(ReductionOutcome(piece.var, red))
                    piece = piece.with_kind(LoopKind.DOALL)
            inner = recover and not piece.is_doall
            body = walk(piece.body.stmts, outer + (piece,), inner)
            # A piece fission just cut out is one SCC: unless its
            # children split, distribution would find the same graph.
            split = distribute and len(body) >= 2
            if split and not (tested and body == piece.body):
                out.extend(fission_loop(piece.with_body(body), outer, retag=False)[0])
            else:
                out.append(piece.with_body(body))
        return out

    body = walk(proc.body.stmts, (), True)
    passes = tuple(
        name for name, on in (("fission", fission), ("reduction", reduction)) if on
    )
    return FissionResult(
        proc.with_body(body), tuple(fissions), tuple(reductions), passes
    )
