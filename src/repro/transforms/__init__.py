"""Compiler transformations on the loop-nest IR.

The headline pass is :func:`repro.transforms.coalesce.coalesce` — the loop
coalescing transformation of the paper.  :func:`repro.api.lower_and_coalesce`
is the one pipeline that runs them: normalization, then the one
loop-splitting walk of :mod:`repro.transforms.fission` (the opt-in
fission and reduction recovery passes and distribution, which makes
imperfect nests perfect), then coalescing, rectangular or triangular.  Beside it
lives index-recovery strength reduction for block execution.
"""

from repro.transforms.base import TransformError, fresh_name, used_names
from repro.transforms.normalize import normalize_loop, normalize_procedure
from repro.transforms.coalesce import (
    CoalesceResult,
    coalesce,
    coalesce_procedure,
    extract_perfect_nest,
    recovery_expressions,
)
from repro.transforms.fission import (
    FissionOutcome,
    FissionPiece,
    FissionResult,
    ReductionOutcome,
    fission_loop,
    fission_procedure,
)
from repro.transforms.triangular import (
    TriangularResult,
    coalesce_triangular,
    coalesce_triangular_exact,
    coalesce_triangular_guarded,
    guarded_waste,
)
from repro.transforms.strength import block_recovered_loop

__all__ = [
    "CoalesceResult",
    "FissionOutcome",
    "FissionPiece",
    "FissionResult",
    "ReductionOutcome",
    "TransformError",
    "TriangularResult",
    "block_recovered_loop",
    "coalesce",
    "coalesce_procedure",
    "coalesce_triangular",
    "coalesce_triangular_exact",
    "coalesce_triangular_guarded",
    "guarded_waste",
    "extract_perfect_nest",
    "fission_loop",
    "fission_procedure",
    "fresh_name",
    "normalize_loop",
    "normalize_procedure",
    "recovery_expressions",
    "used_names",
]
