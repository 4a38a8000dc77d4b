"""``safety=speculate``: decide an unproven dispatch with the inspector.

Under ``safety=speculate`` a statically-unproven DOALL candidate gets one
dynamic chance beyond ``enforce``: when
:func:`repro.analysis.safety.inspector_eligible` holds (no array both
written and read) and no scalar carries a value across iterations, a
subscript-only pass over the flat index space (native beside a C kernel,
else and for every refutation :func:`repro.runtime.inspector.
inspect_dispatch`) decides the dispatch exactly before any worker runs.
Proven → the normal executor with a :class:`SpecCertificate`; refuted →
serial in the parent.

Every other unproven loop is refused at plan time, exactly as under
``enforce``: values flowing through a written array (histogram's ``H(k)
:= H(k) + 1``) make inspection inconclusive by construction, and a
scalar hazard (PRIV002) carries state no worker ships back.  No
speculative tier follows the inspector: executing such loops into
shadow arrays under a recording interpreter ran 34–55× slower than the
serial build the refusal falls back to (DESIGN.md §4f).

This module is the pure logic — planning and certificates; the dispatch
orchestration lives in :mod:`repro.parallel.dispatch`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.safety import LoopSafety, inspector_eligible
from repro.ir.stmt import Loop

__all__ = ["SpecCertificate", "SpecPlan", "speculation_plan"]


@dataclass(frozen=True)
class SpecPlan:
    """How ``safety=speculate`` handles one statically-unproven dispatch."""

    #: "inspect" | "refuse"
    action: str
    reason: str


def speculation_plan(loop: Loop, verdict: LoopSafety | None) -> SpecPlan:
    """Classify an unproven dispatch into inspect / refuse.

    ``verdict`` is the static :class:`LoopSafety` for the loop (used for
    its PRIV002 findings); scalar hazards and name-level write/read
    overlap refuse, everything else goes to the inspector.
    """
    if verdict is not None:
        hazards = sorted(
            {f.scalar for f in verdict.findings if f.rule == "PRIV002" and f.scalar}
        )
        if hazards:
            return SpecPlan(
                "refuse",
                "scalar(s) %s carry values across iterations; the inspector "
                "cannot recover them" % ", ".join(hazards),
            )
    eligible, reason = inspector_eligible(loop)
    return SpecPlan("inspect" if eligible else "refuse", reason)


@dataclass(frozen=True)
class SpecCertificate:
    """The runtime evidence recorded for one inspected dispatch."""

    loop_var: str
    mode: str  # "inspector"
    status: str  # "proven-dynamic" | "refuted"
    iterations: int = 0
    conflicts: int = 0
    wall_s: float = 0.0
    detail: str = ""
    #: ``"native"``, ``"numpy"`` or ``"walk"``.
    inspector: str | None = None

    def to_dict(self) -> dict:
        return {
            "loop": self.loop_var,
            "mode": self.mode,
            "status": self.status,
            "iterations": self.iterations,
            "conflicts": self.conflicts,
            "wall_s": self.wall_s,
            "detail": self.detail,
            "inspector": self.inspector,
        }

    def __str__(self) -> str:
        extra = f": {self.detail}" if self.detail else ""
        by = f"/{self.inspector}" if self.inspector else ""
        return (
            f"dynamic[{self.mode}{by}] loop {self.loop_var}: {self.status} "
            f"({self.iterations} iterations, "
            f"{self.conflicts} conflict(s)){extra}"
        )
