"""Human-readable analysis reports: the compiler's ``-v`` output.

:func:`analyze_procedure` runs the dependence analyser over every loop and
dry-runs the coalescing planner, producing a structured summary (and a
formatted text report) of

* each loop's verdict (DOALL / serial) and *why* it is serial — the carried
  dependences or the offending scalars,
* which maximal nests the coalescer would transform, at what depth and
  with what flat trip count.

The CLI exposes this as ``python -m repro file.loop --analyze``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.doall import (
    blocking_scalars,
    loop_carried_dependences,
    mark_doall,
)
from repro.ir.printer import to_source
from repro.ir.stmt import Block, If, Loop, Procedure, Stmt
from repro.transforms.base import TransformError, used_names
from repro.transforms.coalesce import coalesce


@dataclass(frozen=True)
class LoopVerdict:
    """Analysis outcome for one loop."""

    var: str
    level: int  # nesting depth, 0 = outermost
    source_kind: str  # how the loop was tagged in the input
    parallel: bool  # the analyser's verdict
    carried_arrays: tuple[str, ...]  # arrays with carried dependences
    blocking_scalars: tuple[str, ...]  # exposed written scalars


@dataclass(frozen=True)
class NestPlan:
    """What the coalescer would do with one maximal DOALL nest."""

    index_vars: tuple[str, ...]
    depth: int
    total: str  # flat trip count, printed


@dataclass
class ProcedureSummary:
    name: str
    verdicts: list[LoopVerdict] = field(default_factory=list)
    plans: list[NestPlan] = field(default_factory=list)

    def format(self) -> str:
        lines = [f"analysis of procedure {self.name!r}", ""]
        lines.append("loops:")
        for verdict in self.verdicts:
            indent = "  " * (verdict.level + 1)
            tag = "DOALL" if verdict.parallel else "serial"
            note = ""
            if not verdict.parallel:
                reasons = []
                if verdict.carried_arrays:
                    reasons.append(
                        "carried dependence on "
                        + ", ".join(verdict.carried_arrays)
                    )
                if verdict.blocking_scalars:
                    reasons.append(
                        "scalar flow through "
                        + ", ".join(verdict.blocking_scalars)
                    )
                if reasons:
                    note = f"  ({'; '.join(reasons)})"
                else:
                    note = "  (conservative)"
            src = f" [tagged {verdict.source_kind}]"
            lines.append(f"{indent}{verdict.var}: {tag}{src}{note}")
        lines.append("")
        if self.plans:
            lines.append("coalescing plan:")
            for plan in self.plans:
                lines.append(
                    f"  ({', '.join(plan.index_vars)}) depth={plan.depth} "
                    f"-> one loop of {plan.total} iterations"
                )
        else:
            lines.append("coalescing plan: nothing to coalesce (no DOALL "
                         "nest of depth >= 2)")
        return "\n".join(lines)


def _verdict_for(loop: Loop, outer: tuple[Loop, ...]) -> LoopVerdict:
    deps = loop_carried_dependences(loop, outer)
    scalars = blocking_scalars(loop, outer)
    return LoopVerdict(
        var=loop.var,
        level=len(outer),
        source_kind=str(loop.kind),
        parallel=not deps and not scalars,
        carried_arrays=tuple(sorted({d.array for d in deps})),
        blocking_scalars=tuple(sorted(scalars)),
    )


def analyze_procedure(proc: Procedure) -> ProcedureSummary:
    """Analyse every loop and plan coalescing (without transforming)."""
    summary = ProcedureSummary(proc.name)

    def walk(s: Stmt, outer: tuple[Loop, ...]) -> None:
        if isinstance(s, Block):
            for child in s.stmts:
                walk(child, outer)
        elif isinstance(s, If):
            walk(s.then, outer)
            walk(s.orelse, outer)
        elif isinstance(s, Loop):
            summary.verdicts.append(_verdict_for(s, outer))
            walk(s.body, outer + (s,))

    walk(proc.body, ())

    # Plan on the analysed (re-tagged) procedure, mirroring the pipeline.
    tagged = mark_doall(proc)
    pool = used_names(tagged)

    def plan(s: Stmt) -> None:
        if isinstance(s, Block):
            for child in s.stmts:
                plan(child)
        elif isinstance(s, If):
            plan(s.then)
            plan(s.orelse)
        elif isinstance(s, Loop):
            planned = False
            if s.is_doall:
                try:
                    result = coalesce(s, auto_normalize=True, used=set(pool))
                except TransformError:
                    result = None
                if result is not None and result.depth >= 2:
                    summary.plans.append(
                        NestPlan(
                            index_vars=result.index_vars,
                            depth=result.depth,
                            total=to_source(result.loop.upper),
                        )
                    )
                    planned = True
            if not planned:
                plan(s.body)

    plan(tagged.body)
    return summary
