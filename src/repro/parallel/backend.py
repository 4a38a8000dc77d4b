"""The ``backend="mp"`` execution adapter for :mod:`repro.api`.

Wraps :func:`repro.parallel.runtime.run_parallel_procedure` behind the
same ``(arrays, scalars)`` calling convention as
:class:`repro.codegen.pygen.CompiledProcedure`, so
``coalesce_jit(backend="mp")`` is a drop-in swap for the serial backend.

Degradation policy — always on, observable via
:attr:`MPCompiledProcedure.last` and ``fallback_reason``:

* nothing dispatchable (no unit-step DOALL) → serial pygen, recorded;
* under the default safety mode, every dispatch refused (no loop proven
  race-free, and the inspector cannot decide the rest: an array both
  written and read, or a scalar hazard) →
  :class:`repro.parallel.errors.SafetyVerificationError` (a
  ``ParallelDispatchError``) → serial pygen rerun, refusal reason (with
  rule codes) recorded in ``fallback_reason``; an inspector-refuted
  dispatch is not a fallback — the runtime already ran that loop
  serially and the result is exact;
* timeout → workers killed, shared memory unlinked, serial pygen rerun on
  the untouched caller arrays — the graceful-fallback path;
* worker crash → :class:`repro.parallel.runtime.WorkerCrashError` is
  re-raised: a crash means the program itself is broken, and silently
  rerunning it serially would just reproduce the bug slower.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from repro.codegen.pygen import (
    CompiledProcedure,
    compile_procedure,
    generate_chunk_source,
)
from repro.ir.stmt import Procedure
from repro.parallel.runtime import (
    ParallelDispatchError,
    ParallelProcedureResult,
    ParallelTimeoutError,
    _claim_batch_is_derived,
    _dispatchable_loops,
    resolve_safety,
    run_parallel_procedure,
)


@dataclass
class MPCompiledProcedure:
    """A procedure bound to the process-parallel runtime.

    ``run`` mirrors the serial backends; ``source`` shows what workers
    execute (the chunk function per dispatchable DOALL).  ``last`` holds
    the most recent run's measured result, or the fallback reason when the
    serial path was taken.  Each run's dispatches are all served by one
    persistent worker fleet.  The claim batch is derived, not an option:
    unit and fixed policies take ``min(64, chunks // (8·active))`` chunks
    per claim, at least 1, and GSS always claims singly.
    How workers execute claimed blocks is derived by the run's plan (C
    kernel, whole-slice numpy or Python chunk);
    ``last.chunk_lang`` reports what actually ran.  ``safety`` is
    ``"inspect"`` (``None``, the default) or ``"off"``: by default an
    unproven dispatch runs only where the runtime inspector proves it,
    else serially, and a fully-refused run falls back to the serial
    backend with the rule codes recorded in ``fallback_reason``
    (``last.certificates`` holds each inspection's result;
    ``last.inspected`` / ``proven_dynamic`` count them); ``"off"``
    dispatches every loop as tagged, unverified.  ``safety_report`` is
    the verdict either way.
    """

    proc: Procedure
    workers: int = 4
    policy: str | object = "gss"
    chunk: int | None = None
    timeout: float | None = None
    log_events: bool = True
    safety: str | None = None
    _serial: CompiledProcedure = field(init=False, repr=False)
    last: ParallelProcedureResult | None = field(init=False, default=None)
    fallback_reason: str | None = field(init=False, default=None)

    def __post_init__(self) -> None:
        resolve_safety(self.safety)  # an unknown mode raises here
        self._serial = compile_procedure(self.proc)

    @property
    def safety_report(self):
        """Static chunk-safety verdicts for this procedure — the verdict
        its runs' plans are built on, verified once."""
        from repro.parallel.plan import verdict

        return verdict(self.proc)

    @property
    def source(self) -> str:
        """Chunk-function source for every dispatchable DOALL."""
        loops = _dispatchable_loops(self.proc.body)
        chunks = [
            generate_chunk_source(
                self.proc,
                loop=s,
                name=f"{self.proc.name}__chunk_{i}" if len(loops) > 1 else None,
            )
            for i, s in enumerate(loops)
        ]
        if not chunks:
            return self._serial.source
        return "\n".join(chunks)

    def run(
        self,
        arrays: Mapping[str, np.ndarray],
        scalars: Mapping[str, int | float] | None = None,
    ) -> None:
        self.last = None
        self.fallback_reason = None
        try:
            self.last = run_parallel_procedure(
                self.proc,
                arrays,
                scalars,
                workers=self.workers,
                policy=self.policy,
                chunk=self.chunk,
                timeout=self.timeout,
                log_events=self.log_events,
                safety=self.safety,
            )
        except (ParallelDispatchError, ParallelTimeoutError) as exc:
            # Caller arrays are untouched on these paths (workers only ever
            # mutate the shared copies), so the serial rerun is clean.
            from repro.parallel.observe import record_fallback

            record_fallback()
            self.fallback_reason = f"{type(exc).__name__}: {exc}"
            self._serial.run(arrays, scalars)


def compile_mp_procedure(
    proc: Procedure, claim_batch: str = "auto", **options
) -> MPCompiledProcedure:
    """Factory matching the other backends' ``compile_*_procedure`` shape.

    ``claim_batch`` accepts only ``"auto"``, as
    :func:`~repro.parallel.runtime.run_parallel_procedure` does: any other
    value raises :class:`ValueError` here, before any run.
    """
    _claim_batch_is_derived(claim_batch)
    return MPCompiledProcedure(proc, **options)
