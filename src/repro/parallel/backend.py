"""The ``backend="mp"`` execution adapter for :mod:`repro.api`.

Wraps :func:`repro.parallel.runtime.run_parallel_procedure` behind the
same ``(arrays, scalars)`` calling convention as
:class:`repro.codegen.pygen.CompiledProcedure`, so
``coalesce_jit(backend="mp")`` is a drop-in swap for the serial backend.

Degradation policy — always on, observable via
:attr:`MPCompiledProcedure.last` and ``fallback_reason``:

* nothing dispatchable (no unit-step DOALL) → serial pygen, recorded;
* ``safety="enforce"`` and no dispatchable loop proven race-free →
  :class:`repro.parallel.errors.SafetyVerificationError` (a
  ``ParallelDispatchError``) → serial pygen rerun, refusal reason (with
  rule codes) recorded in ``fallback_reason``;
* ``safety="speculate"`` and every dispatch refused (scalar hazards) →
  same graceful serial rerun; an inspector-refuted or *rolled-back*
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
    _dispatchable_loops,
    run_parallel_procedure,
)


@dataclass
class MPCompiledProcedure:
    """A procedure bound to the process-parallel runtime.

    ``run`` mirrors the serial backends; ``source`` shows what workers
    execute (the chunk function per dispatchable DOALL).  ``last`` holds
    the most recent run's measured result, or the fallback reason when the
    serial path was taken.  Each run's dispatches are all served by one
    persistent worker fleet.  ``claim_batch`` hands workers that many
    chunks per counter critical section (unit and fixed policies — GSS
    always claims singly), or — the default ``"auto"`` — takes
    ``min(64, chunks // (8·active))`` chunks per claim,
    at least 1.
    ``chunk_lang`` selects how workers execute claimed blocks — ``"c"``
    (native ctypes kernel), ``"numpy"`` (whole-slice vectorized), ``"py"``,
    or ``None``/``"auto"`` (C when a compiler is available, numpy
    otherwise); faster paths degrade automatically and
    ``last.chunk_lang`` reports what actually ran.  ``safety`` selects
    the chunk-safety mode (``None`` → ``"warn"``): ``"enforce"`` refuses
    unproven dispatches — they run serially, and a fully-refused run
    falls back to the serial backend with the rule codes recorded in
    ``fallback_reason``; ``"speculate"`` gives unproven dispatches a
    dynamic chance (inspection / shadow-buffered speculation) and only
    falls back when every dispatch is beyond dynamic help
    (``last.inspected`` / ``speculated`` / ``committed`` /
    ``rolled_back`` account for what happened).
    """

    proc: Procedure
    workers: int = 4
    policy: str | object = "gss"
    chunk: int | None = None
    timeout: float | None = None
    log_events: bool = True
    claim_batch: int | str = "auto"
    chunk_lang: str | None = None
    safety: str | None = None
    _serial: CompiledProcedure = field(init=False, repr=False)
    last: ParallelProcedureResult | None = field(init=False, default=None)
    fallback_reason: str | None = field(init=False, default=None)

    def __post_init__(self) -> None:
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
                claim_batch=self.claim_batch,
                chunk_lang=self.chunk_lang,
                safety=self.safety,
            )
        except (ParallelDispatchError, ParallelTimeoutError) as exc:
            # Caller arrays are untouched on these paths (workers only ever
            # mutate the shared copies), so the serial rerun is clean.
            from repro.parallel.observe import record_fallback

            record_fallback()
            self.fallback_reason = f"{type(exc).__name__}: {exc}"
            self._serial.run(arrays, scalars)


def compile_mp_procedure(proc: Procedure, **options) -> MPCompiledProcedure:
    """Factory matching the other backends' ``compile_*_procedure`` shape."""
    return MPCompiledProcedure(proc, **options)
