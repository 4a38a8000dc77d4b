"""True process-parallel execution of coalesced DOALLs.

This is the hardware end of the reproduction: where :mod:`repro.machine`
*simulates* the paper's shared-memory multiprocessor, this package
*executes* coalesced loops on one — worker **processes** (no GIL) claiming
flat iterations from a shared fetch&add counter over numpy arrays backed by
``multiprocessing.shared_memory`` (zero-copy views in every worker).

* :mod:`repro.parallel.shm` — shared-memory array pool with guaranteed
  unlink (no leaked ``/dev/shm`` segments, even on crashes).
* :mod:`repro.parallel.counter` — the shared claim counter (a lock-guarded
  ``multiprocessing.Array``: the real fetch&add of the paper's protocol,
  resettable between dispatches, with batched claiming) plus the bridge
  that reuses :mod:`repro.scheduling.policies` chunk rules.
* :mod:`repro.parallel.worker` — the per-process claim/execute loop of a
  pool worker.
* :mod:`repro.parallel.pool` — the persistent :class:`WorkerPool`, the one
  dispatch engine: spawn once, dispatch many times; amortizes fork,
  compile, and claim overhead across every DOALL of a run.
* :mod:`repro.parallel.runtime` — :func:`run_parallel_procedure`, the one
  driver: serial segments run in the parent, DOALLs — top-level or nested
  under serial control — are dispatched, and a coalesced single loop is
  just a run with one dispatch.  A call is plan → dispatch → combine:
  :mod:`repro.parallel.plan` holds what a procedure and run shape decide
  once (verdict, strategies, kernels, the region), built by the
  first call and reused; :mod:`repro.parallel.dispatch` runs it.
* :mod:`repro.parallel.observe` — measured claim logs rendered as
  :class:`repro.machine.trace.SimResult` / Gantt charts, so real schedules
  can be plotted against simulator predictions.
* :mod:`repro.parallel.backend` — the ``backend="mp"`` adapter used by
  :func:`repro.api.coalesce_jit`, with graceful serial fallback.
* :mod:`repro.parallel.speculate` — the ``safety="speculate"`` logic:
  inspector/executor planning, shadow-array chunk-log validation, and the
  runtime certificates recorded for dynamically-decided dispatches.
"""

from repro.parallel.counter import SharedClaimCounter, policy_plan
from repro.parallel.backend import MPCompiledProcedure, compile_mp_procedure
from repro.parallel.errors import (
    ParallelDispatchError,
    ParallelError,
    ParallelTimeoutError,
    SafetyVerificationError,
    WorkerCrashError,
)
from repro.parallel.observe import to_sim_result
from repro.parallel.pool import WorkerPool
from repro.parallel.runtime import (
    ClaimEvent,
    ParallelProcedureResult,
    ParallelRunResult,
    resolve_safety,
    run_parallel_procedure,
)
from repro.parallel.shm import SharedArrayPool
from repro.parallel.speculate import (
    SpecCertificate,
    SpecPlan,
    SpecValidation,
    speculation_plan,
    validate_chunk_logs,
)

__all__ = [
    "ClaimEvent",
    "MPCompiledProcedure",
    "ParallelDispatchError",
    "ParallelError",
    "ParallelProcedureResult",
    "ParallelRunResult",
    "ParallelTimeoutError",
    "SafetyVerificationError",
    "SharedArrayPool",
    "SharedClaimCounter",
    "SpecCertificate",
    "SpecPlan",
    "SpecValidation",
    "WorkerCrashError",
    "WorkerPool",
    "compile_mp_procedure",
    "policy_plan",
    "resolve_safety",
    "run_parallel_procedure",
    "speculation_plan",
    "to_sim_result",
    "validate_chunk_logs",
]
