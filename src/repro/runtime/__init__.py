"""Execution of IR procedures on real data.

* :mod:`repro.runtime.interp` — sequential reference interpreter over numpy
  arrays, with optional operation counting (used by the recovery-cost
  experiment E2).
* :mod:`repro.runtime.equivalence` — the random array environments that
  equivalence checks run the original and the transformed program from.
* :mod:`repro.runtime.inspector` — the dynamic half of ``safety=speculate``:
  subscript-only inspection proving statically-unproven dispatches disjoint
  at runtime, plus the chunk-recording executor speculation uses.
"""

from repro.runtime.inspector import (
    InspectionResult,
    inspect_dispatch,
    record_chunk,
)
from repro.runtime.interp import (
    Interpreter,
    InterpreterError,
    OpCounts,
    eval_bound,
    run,
)
from repro.runtime.equivalence import random_env

__all__ = [
    "InspectionResult",
    "Interpreter",
    "InterpreterError",
    "OpCounts",
    "eval_bound",
    "inspect_dispatch",
    "random_env",
    "record_chunk",
    "run",
]
