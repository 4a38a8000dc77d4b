"""Chunk-safety verification: proving an mp dispatch race-free.

The mp runtime dispatches a DOALL loop by handing disjoint claimed blocks
of its (usually coalesced, flat) iteration range to worker processes that
share the array segments.  Self-scheduling may split the range anywhere,
so the sound model is chunk size 1: the dispatch is race-free exactly
when no two *distinct iterations* of the dispatched loop conflict.  The
verifier proves that at the level the runtime executes, then lifts
itself back to the level the paper reasons at:

1. **De-coalescing** (:mod:`repro.analysis.recovery`): a dispatched flat
   loop is recognized — by reconstructing its index-recovery prefix — as
   enumerating a virtual rectangular or triangular nest in lexicographic
   order.  Dependence testing then runs over the *virtual* indices,
   where subscripts are affine, instead of over the non-affine div/mod
   recovery forms.  Distinct flat iterations are exactly distinct
   virtual index tuples, so a dependence carried by any virtual level
   (enclosing serial levels held ``=``) is a cross-chunk race.
2. The **one edge set** (:func:`repro.analysis.pdg.dependences`) is
   ranged over those virtual levels: Banerjee/GCD, then the exact
   rational refutation under guards and bounds, both in
   :mod:`repro.analysis.dependence` — the same oracle that tags DOALL
   loops and builds the PDG, so ``mark_doall``, ``--analyze``, the
   loop-splitting walk (:mod:`repro.transforms.fission`) and this
   verifier cannot disagree about an edge.
3. Every **carried edge** over the virtual span is a cross-chunk race;
   its kind picks the rule code (``flow``/``output``/``anti`` →
   ``RACE001``/``RACE002``/``RACE003``) and the finding is that edge,
   rendered.
4. A **scalar capture check**: every scalar the chunk kernel receives
   must be read-only or provably private per iteration (defined before
   any use on every path).

Failures become structured findings with stable rule codes (rendered by
:mod:`repro.lint`, enforced by the mp runtime under ``safety=enforce``):

========  ============================================================
RACE001   carried flow dependence (write, then read, across chunks)
RACE002   cross-chunk write overlap (two iterations write one element)
RACE003   carried anti dependence (read, then overwrite, across chunks)
PRIV002   unproven-private scalar (live into an iteration that writes it)
SPEC001   dynamically provable (informational: the runtime inspector of
          ``safety=speculate`` can decide this dispatch exactly)
FISS001   fission applied (informational, emitted by the loop-splitting
          walk of :mod:`repro.transforms.fission`, like FISS002)
FISS002   fission refused: one dependence SCC spans the body
RED001    recognized reduction: the carried accumulator dispatches as
          per-chunk partials with a deterministic ordered combine
========  ============================================================

Everything here is conservative in the safe direction: recognition
failures fall back to testing the flat loop directly and non-affine
subscripts assume dependence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.analysis.dependence import (
    GuardedAccess,
    LoopInfo,
    array_access_sets,
    collect_guarded_accesses,
    edge_label,
    exposed_written_scalars,
    upward_exposed_scalars,
    written_scalars,
)
from repro.analysis.pdg import Reduction, dependences, recognize_reduction
from repro.analysis.recovery import RecoveredNest, recognize_recovered_nest
from repro.ir.expr import Const, Var
from repro.ir.printer import expr_to_source
from repro.ir.stmt import Block, If, Loop, Procedure, Stmt

__all__ = [
    "GuardedAccess",
    "LoopSafety",
    "RULES",
    "SafetyFinding",
    "SafetyReport",
    "array_access_sets",
    "collect_guarded_accesses",
    "dispatchable",
    "inspector_eligible",
    "reduction_finding",
    "verify_procedure",
]

#: Stable rule codes and their one-line titles.
RULES: dict[str, str] = {
    "RACE001": "carried flow dependence",
    "RACE002": "cross-chunk write overlap",
    "RACE003": "carried anti dependence",
    "PRIV002": "unproven-private scalar",
    "SPEC001": "dynamically provable",
    "FISS001": "fission applied",
    "FISS002": "fission refused",
    "RED001": "recognized reduction",
    "SPMD001": "region refused: reduction",
    "SPMD002": "region refused: blocked loop",
    "SPMD003": "region refused: run-time safety decision",
    "SPMD004": "region refused: skeleton is not pure control",
    "SPMD005": "region refused: static policy",
    "SPMD006": "region refused: no native kernel or region unit",
}

_HINTS: dict[str, str] = {
    "RACE001": (
        "a later iteration reads what an earlier one wrote; run the loop "
        "serially, or restructure so each iteration owns the elements it "
        "touches"
    ),
    "RACE002": (
        "two iterations can write the same element; make the subscript "
        "injective over the loop index or privatize the array"
    ),
    "RACE003": (
        "an iteration overwrites what an earlier one still reads; run the "
        "loop serially or buffer the read values"
    ),
    "PRIV002": (
        "the scalar is live into an iteration that also writes it; assign "
        "it from loop-local values before every use, or drop it to serial"
    ),
    "SPEC001": (
        "no array is both written and read and every scalar is provably "
        "private, so a subscript-only runtime inspector decides this "
        "dispatch exactly; run with safety=speculate"
    ),
    "RED001": (
        "the accumulator loop dispatches as per-chunk partials combined "
        "in a fixed ascending order — deterministic for a given trip "
        "count, bit-identical to serial when the operator is exact"
    ),
}


def dispatchable(loop: Loop) -> bool:
    """Would the mp runtime dispatch this loop to the worker fleet?

    Mirrors the runtime's criterion: a DOALL tag and a unit constant
    step (anything else is interpreted serially in the parent and needs
    no chunk-safety proof).
    """
    return (
        loop.is_doall
        and isinstance(loop.step, Const)
        and loop.step.value == 1
    )


# ---------------------------------------------------------------------------
# findings and reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SafetyFinding:
    """One structured diagnostic from the verifier."""

    rule: str
    severity: str  # "error" | "warning" | "info"
    loop_var: str  # the dispatched loop's index variable
    message: str
    hint: str
    array: str | None = None
    scalar: str | None = None
    directions: tuple[str, ...] | None = None
    exact: bool = True  # False when assumed conservatively (non-affine)
    src_stmt: int | None = None  # PDG statement index of the source
    dst_stmt: int | None = None  # PDG statement index of the sink

    @property
    def title(self) -> str:
        return RULES.get(self.rule, self.rule)

    def edge(self) -> str | None:
        """The dependence edge behind this finding, human-readable."""
        if self.src_stmt is None or self.dst_stmt is None:
            return None
        return edge_label(self.src_stmt, self.dst_stmt, self.directions)

    def to_dict(self) -> dict:
        return {
            "rule": self.rule,
            "title": self.title,
            "severity": self.severity,
            "loop": self.loop_var,
            "array": self.array,
            "scalar": self.scalar,
            "directions": list(self.directions) if self.directions else None,
            "exact": self.exact,
            "src_stmt": self.src_stmt,
            "dst_stmt": self.dst_stmt,
            "message": self.message,
            "hint": self.hint,
        }

    def format(self) -> str:
        return f"{self.severity}[{self.rule}] loop {self.loop_var}: {self.message}"


def reduction_finding(loop_var: str, red: Reduction) -> SafetyFinding:
    """The one ``RED001`` finding, for the reduction ``red`` recognized
    in the loop over ``loop_var``.  The verifier and the reduction pass
    (:mod:`repro.transforms.fission`) both report it from here."""
    return SafetyFinding(
        rule="RED001",
        severity="info",
        loop_var=loop_var,
        message=(
            f"recognized reduction: '{red.scalar}' accumulates with "
            f"'{red.op}'; the runtime dispatches per-chunk partials and "
            "combines them in a fixed order"
        ),
        hint=_HINTS["RED001"],
        scalar=red.scalar,
        src_stmt=0,
        dst_stmt=0,
    )


@dataclass(frozen=True)
class LoopSafety:
    """The verdict for one dispatchable loop."""

    loop_var: str
    shape: str  # recovered nest shape: rectangular/triangular-exact/direct
    index_vars: tuple[str, ...]
    proven: bool
    findings: tuple[SafetyFinding, ...]
    reduction: str | None = None  # recognized accumulator scalar, if any

    def to_dict(self) -> dict:
        return {
            "loop": self.loop_var,
            "shape": self.shape,
            "index_vars": list(self.index_vars),
            "proven": self.proven,
            "reduction": self.reduction,
            "findings": [f.to_dict() for f in self.findings],
        }


@dataclass
class SafetyReport:
    """Per-dispatch verdicts for one procedure.

    ``by_id`` maps ``id(loop)`` of each dispatchable loop *in the exact
    procedure object verified* to its verdict, so the runtime can gate a
    dispatch without re-walking the tree.  ``dynamic`` collects the
    runtime certificates (:class:`repro.parallel.speculate.SpecCertificate`)
    a ``safety=speculate`` run appends after inspecting or speculating a
    statically-unproven dispatch.
    """

    procedure: str
    loops: tuple[LoopSafety, ...]
    by_id: dict[int, LoopSafety] = field(default_factory=dict, repr=False)
    dynamic: list[object] = field(default_factory=list, repr=False)

    @property
    def ok(self) -> bool:
        return all(v.proven for v in self.loops)

    @property
    def findings(self) -> list[SafetyFinding]:
        return [f for v in self.loops for f in v.findings]

    def to_dict(self) -> dict:
        return {
            "procedure": self.procedure,
            "ok": self.ok,
            "loops": [v.to_dict() for v in self.loops],
        }

    def format(self) -> str:
        lines = [f"safety report for {self.procedure}:"]
        if not self.loops:
            lines.append("  (no dispatchable DOALL loops)")
        for v in self.loops:
            nest = ", ".join(v.index_vars)
            status = "proven race-free" if v.proven else "UNPROVEN"
            lines.append(
                f"  loop {v.loop_var} [{v.shape}: {nest}] - {status}"
            )
            for f in v.findings:
                lines.append(f"    {f.format()}")
                lines.append(f"      hint: {f.hint}")
        for cert in self.dynamic:
            lines.append(f"  {cert}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# the virtual nest: levels the dependence test ranges over
# ---------------------------------------------------------------------------


def _virtual_levels(loop: Loop, nest: RecoveredNest) -> list[LoopInfo]:
    """The levels a dispatched loop's flat index enumerates."""
    if nest.shape == "rectangular":
        bounds = list(nest.bounds)
        # The outermost wrap bound never appears in recovery expressions;
        # reconstruct it from the flat trip count when everything is
        # constant and divisible (else leave it unbounded - sound).
        if bounds[0] is None and isinstance(loop.upper, Const):
            inner = [b.value for b in bounds[1:] if isinstance(b, Const)]
            if len(inner) == len(bounds) - 1 and all(
                isinstance(v, int) and v > 0 for v in inner
            ):
                prod = 1
                for v in inner:
                    prod *= v
                total = loop.upper.value
                if isinstance(total, int) and total % prod == 0:
                    bounds[0] = Const(total // prod)
        return [
            LoopInfo(var, Const(1), bound)
            for var, bound in zip(nest.index_vars, bounds)
        ]
    if nest.shape == "triangular-exact":
        i_var, j_var = nest.index_vars
        return [
            LoopInfo(i_var, Const(1), None),
            # The triangle itself: 1 <= j <= i, exact by construction.
            LoopInfo(j_var, Const(1), Var(i_var)),
        ]
    # direct: the loop is its own single virtual level
    return [LoopInfo.of(loop)]


# ---------------------------------------------------------------------------
# the scans
# ---------------------------------------------------------------------------


def inspector_eligible(loop: Loop) -> tuple[bool, str]:
    """Can the runtime inspector decide this dispatch exactly?

    ``(True, reason)`` when subscript-only inspection is sound: no array
    is both written and read in the dispatched body (so every consumed
    array value is unchanged by the loop) — write disjointness is then
    the whole safety question.  ``(False, reason)`` names the first
    obstruction.  Scalar privacy (PRIV002) is judged by the static
    verifier and checked by callers separately.
    """
    written, read = array_access_sets([loop.body])
    overlap = sorted(written & read)
    if overlap:
        return False, (
            "array(s) %s are both written and read: values flow between "
            "iterations, subscript-only inspection cannot decide this"
            % ", ".join(overlap)
        )
    return True, "no array is both written and read"


#: A carried edge over the dispatched span is a race; its kind is the rule.
_RACE_RULE = {"flow": "RACE001", "output": "RACE002", "anti": "RACE003"}


def _scan_races(
    loop: Loop,
    outer: Sequence[Loop],
    nest: RecoveredNest,
    levels: Sequence[LoopInfo],
) -> list[SafetyFinding]:
    """Cross-chunk races: the carried edges among the virtual body."""
    findings: list[SafetyFinding] = []
    # dict.fromkeys: one finding per distinct edge, in scan order
    for dep in dict.fromkeys(dependences(loop, outer, levels, nest.body)):
        rule = _RACE_RULE[dep.kind]
        sink_what = "write" if dep.kind == "output" else "read"
        qualifier = "" if dep.exact else " (assumed: non-affine subscript)"
        message = (
            f"{RULES[rule]} on {dep.array}: write "
            f"{expr_to_source(dep.src_ref)} vs {sink_what} "
            f"{expr_to_source(dep.dst_ref)} at directions "
            f"({', '.join(dep.directions)}){qualifier}"
        )
        findings.append(
            SafetyFinding(
                rule=rule,
                severity="error",
                loop_var=loop.var,
                message=message,
                hint=_HINTS[rule],
                array=dep.array,
                directions=dep.directions,
                exact=dep.exact,
                src_stmt=dep.src_stmt,
                dst_stmt=dep.dst_stmt,
            )
        )
    return findings


def _scan_scalars(
    loop: Loop,
    outer: Sequence[Loop],
    nest: RecoveredNest,
) -> list[SafetyFinding]:
    """Scalars the chunk kernel receives that are not provably private."""
    bound = set(nest.index_vars) | {loop.var} | {lp.var for lp in outer}
    findings: list[SafetyFinding] = []
    for name in sorted(exposed_written_scalars(Block(nest.body), bound)):
        src_stmt = next(
            (
                si
                for si, s in enumerate(nest.body)
                if name in written_scalars([s])
            ),
            None,
        )
        dst_stmt = next(
            (
                si
                for si, s in enumerate(nest.body)
                if name in upward_exposed_scalars(Block((s,)))[0]
            ),
            None,
        )
        findings.append(
            SafetyFinding(
                rule="PRIV002",
                severity="error",
                loop_var=loop.var,
                message=(
                    f"scalar '{name}' is read before it is written in an "
                    "iteration that also writes it: not provably private "
                    "per chunk iteration"
                ),
                hint=_HINTS["PRIV002"],
                scalar=name,
                src_stmt=src_stmt,
                dst_stmt=dst_stmt,
            )
        )
    return findings


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _verify_dispatch(
    loop: Loop, outer: tuple[Loop, ...], proc: Procedure
) -> LoopSafety:
    params = set(proc.scalars) | {lp.var for lp in outer}
    nest = recognize_recovered_nest(loop, params)
    levels = _virtual_levels(loop, nest)
    findings = _scan_races(loop, outer, nest, levels)
    findings += _scan_scalars(loop, outer, nest)
    # Recognized reductions: the accumulator is genuinely carried
    # (PRIV002 is *correct*), but the runtime executes the loop as
    # per-chunk partials with an ordered combine, so the dispatch is
    # sound.  Convert exactly that finding — and nothing else — into an
    # informational RED001 verdict.
    reduction_scalar: str | None = None
    red = recognize_reduction(loop)
    if red is not None:
        errors = [f for f in findings if f.severity == "error"]
        if errors and all(
            f.rule == "PRIV002" and f.scalar == red.scalar for f in errors
        ):
            findings = [f for f in findings if f not in errors]
            findings.append(reduction_finding(loop.var, red))
            reduction_scalar = red.scalar
    if any(f.severity == "error" for f in findings) and not any(
        f.rule == "PRIV002" for f in findings
    ):
        eligible, reason = inspector_eligible(loop)
        if eligible:
            findings.append(
                SafetyFinding(
                    rule="SPEC001",
                    severity="info",
                    loop_var=loop.var,
                    message=(
                        "statically unproven, but dynamically provable: "
                        f"{reason}, so safety=speculate can certify this "
                        "dispatch at runtime"
                    ),
                    hint=_HINTS["SPEC001"],
                )
            )
    return LoopSafety(
        loop_var=loop.var,
        shape=nest.shape,
        index_vars=nest.index_vars,
        proven=not any(f.severity == "error" for f in findings),
        findings=tuple(findings),
        reduction=reduction_scalar,
    )


def verify_procedure(proc: Procedure) -> SafetyReport:
    """Verify every loop the mp runtime would dispatch from ``proc``.

    Walks the body the way the hybrid executor does: a dispatchable
    DOALL is dispatched whole (its body runs serially inside chunk
    iterations), anything else is executed in the parent with its inner
    dispatchable loops verified in context.
    """
    verdicts: list[LoopSafety] = []
    by_id: dict[int, LoopSafety] = {}

    def go(s: Stmt, outer: tuple[Loop, ...]) -> None:
        if isinstance(s, Block):
            for x in s.stmts:
                go(x, outer)
        elif isinstance(s, If):
            go(s.then, outer)
            go(s.orelse, outer)
        elif isinstance(s, Loop):
            if dispatchable(s):
                verdict = _verify_dispatch(s, outer, proc)
                verdicts.append(verdict)
                by_id[id(s)] = verdict
            else:
                go(s.body, outer + (s,))

    go(proc.body, ())
    return SafetyReport(proc.name, tuple(verdicts), by_id)
