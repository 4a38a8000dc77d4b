"""Dependence analysis: the substrate that justifies DOALL tags.

The paper assumes a restructuring compiler (Parafrase) has already classified
loops as parallel.  This package supplies that classification for this
library, as one pipeline every client reads::

    accesses → feasibility → edge set → {DOALL tags, PDG/SCC fission,
    RACE/PRIV findings, --analyze}

:mod:`~repro.analysis.dependence` walks the accesses (with loop chains and
guards) and decides feasibility (ZIV/GCD/Banerjee, then exact rational
refutation under guards and bounds); :mod:`~repro.analysis.pdg` turns that
into the one edge set and the statement PDG; :mod:`~repro.analysis.doall`,
:mod:`~repro.analysis.safety` and :mod:`~repro.analysis.summary` are filters
over those edges plus one scalar-privacy test.
"""

from repro.analysis.subscripts import AffineForm, affine_of
from repro.analysis.space import IterationSpace
from repro.analysis.dependence import (
    Dependence,
    DependenceTester,
    GuardedAccess,
)
from repro.analysis.doall import (
    classify_loop,
    loop_carried_dependences,
    mark_doall,
)
from repro.analysis.pdg import (
    PDG,
    PDGEdge,
    Reduction,
    build_pdg,
    dependences,
    recognize_reduction,
)
from repro.analysis.recovery import RecoveredNest, recognize_recovered_nest
from repro.analysis.safety import (
    LoopSafety,
    SafetyFinding,
    SafetyReport,
    verify_procedure,
)
from repro.analysis.summary import (
    LoopVerdict,
    NestPlan,
    ProcedureSummary,
    analyze_procedure,
)

__all__ = [
    "AffineForm",
    "Dependence",
    "DependenceTester",
    "GuardedAccess",
    "IterationSpace",
    "LoopSafety",
    "LoopVerdict",
    "NestPlan",
    "PDG",
    "PDGEdge",
    "ProcedureSummary",
    "RecoveredNest",
    "Reduction",
    "SafetyFinding",
    "SafetyReport",
    "affine_of",
    "analyze_procedure",
    "build_pdg",
    "classify_loop",
    "dependences",
    "loop_carried_dependences",
    "mark_doall",
    "recognize_recovered_nest",
    "recognize_reduction",
    "verify_procedure",
]
