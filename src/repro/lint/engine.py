"""The lint engine: pipeline + verifier + structured report.

Lint answers one question about a program: *if the mp backend ran this,
would every dispatch be race-free?*  To answer it faithfully the engine
compiles exactly the way the backend does — normalize, the
loop-splitting walk of :mod:`repro.transforms.fission` (distribution,
plus fission/reduction when asked), coalesce — but with dependence
re-analysis **off**, so the claimed DOALL tags reach the verifier
unlaundered (a ``mark_doall`` pass would demote the very loops whose
claims lint exists to audit).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.safety import SafetyFinding, SafetyReport, verify_procedure
from repro.ir.printer import to_source
from repro.ir.stmt import Procedure

#: JSON schema tag on every serialized report.
LINT_SCHEMA = "repro.lint/v1"


@dataclass
class LintReport:
    """Verdicts and findings for one linted procedure."""

    procedure: str
    safety: SafetyReport
    transformed_source: str
    #: Informational findings from the opt-in transform passes
    #: (FISS001/FISS002/RED001), reported alongside the verifier's.
    transform_findings: list[SafetyFinding] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.safety.ok

    @property
    def findings(self) -> list[SafetyFinding]:
        return list(self.transform_findings) + self.safety.findings

    @property
    def errors(self) -> list[SafetyFinding]:
        return [f for f in self.findings if f.severity == "error"]

    def to_dict(self) -> dict:
        return {
            "schema": LINT_SCHEMA,
            "procedure": self.procedure,
            "ok": self.ok,
            "findings": [f.to_dict() for f in self.findings],
            "loops": [v.to_dict() for v in self.safety.loops],
        }

    @staticmethod
    def _finding_lines(f: SafetyFinding) -> list[str]:
        lines = [f"  {f.format()}"]
        edge = f.edge()
        if edge is not None:
            lines.append(f"    edge: {edge}")
        lines.append(f"    hint: {f.hint}")
        return lines

    def format(self) -> str:
        loops = self.safety.loops
        if self.ok:
            n = len(loops)
            what = (
                f"{n} dispatchable loop{'s' if n != 1 else ''} proven "
                "race-free"
                if n
                else "no dispatchable DOALL loops"
            )
            lines = [f"{self.procedure}: OK ({what})"]
            for f in self.findings:
                if f.severity != "error":
                    lines.extend(self._finding_lines(f))
            return "\n".join(lines)
        lines = [
            f"{self.procedure}: {len(self.errors)} problem(s) in "
            f"{sum(1 for v in loops if not v.proven)} of {len(loops)} "
            "dispatchable loop(s)"
        ]
        for f in self.transform_findings:
            lines.extend(self._finding_lines(f))
        for verdict in loops:
            for f in verdict.findings:
                lines.extend(self._finding_lines(f))
        return "\n".join(lines)


def lint_procedure(proc: Procedure) -> LintReport:
    """Lint an already-compiled procedure (as the backend would run it)."""
    report = verify_procedure(proc)
    return LintReport(proc.name, report, to_source(proc))


def lint_source(
    source: str,
    frontend: str = "dsl",
    style: str = "ceiling",
    depth: int | None = None,
    distribute: bool = True,
    triangular: bool = False,
    transforms: object = None,
    cache: object = "default",
) -> LintReport:
    """Compile ``source`` the way the mp backend would, then verify it.

    ``transforms`` opts into the fission/reduction recovery passes
    (exactly as ``--transforms`` does at run time); their informational
    findings (FISS001/FISS002/RED001) join the verifier's in the report.

    Raises the pipeline's own errors (``ParseError``,
    ``ValidationError``, ``ValueError``) on malformed input — callers
    render those as usage errors, not findings.
    """
    from repro.api import lower_and_coalesce
    from repro.transforms.fission import FissionResult

    _, proc, results, _ = lower_and_coalesce(
        source,
        frontend=frontend,
        style=style,
        depth=depth,
        distribute=distribute,
        analyze=False,  # lint the *claimed* tags, exactly as dispatched
        triangular=triangular,
        transforms=transforms,
        cache=cache,
    )
    report = lint_procedure(proc)
    # The verifier independently re-derives RED001 on re-tagged loops;
    # keep one copy per (rule, loop, scalar).
    seen = {(f.rule, f.loop_var, f.scalar) for f in report.findings}
    for r in results:
        if isinstance(r, FissionResult):
            for f in r.findings:
                if (f.rule, f.loop_var, f.scalar) not in seen:
                    seen.add((f.rule, f.loop_var, f.scalar))
                    report.transform_findings.append(f)
    return report
