"""High-level one-call API: analyse, transform, and compile Python loops.

The adoption surface for users who do not want to touch the IR::

    from repro.api import coalesce_jit

    @coalesce_jit
    def sweep(A, B, n, m):
        for i in range(1, n + 1):
            for j in range(1, m + 1):
                B[i, j] = 2.0 * A[i, j]

    sweep(A, B, n, m)        # runs the coalesced program
    print(sweep.loop_source) # inspect the transformed loop nest
    sweep.report()           # what was proven parallel / coalesced

The decorator lowers the function through the ``ast`` frontend, proves
parallelism with the dependence analyser (``range`` loops may be upgraded to
DOALL; ``prange`` is taken as an assertion and *demoted* if disproven),
distributes imperfect nests, coalesces, and compiles back to Python — or to
C/OpenMP with ``backend="c"`` when a compiler is available, or to the
process-parallel runtime with ``backend="mp"`` (worker processes
self-scheduling the coalesced loop from a shared fetch&add counter over
shared-memory arrays — real wall-clock speedup, see :mod:`repro.parallel`)::

    @coalesce_jit(backend="mp", workers=4, policy="gss")
    def sweep(A, B, n, m): ...
"""

from __future__ import annotations

import functools
import inspect
import pickle
import textwrap
from dataclasses import dataclass
from typing import Callable

from repro.analysis.doall import mark_doall
from repro.cache import artifact_key, resolve_cache
from repro.codegen.pygen import CompiledProcedure, compile_procedure
from repro.frontend.dsl import parse
from repro.frontend.pyfront import from_python
from repro.ir.printer import to_source
from repro.ir.stmt import Procedure
from repro.ir.validate import validate
from repro.transforms.coalesce import CoalesceResult, coalesce_procedure
from repro.transforms.fission import FissionResult, fission_procedure
from repro.transforms.normalize import normalize_procedure

__all__ = [
    "CompiledProcedure",
    "TransformedFunction",
    "coalesce_jit",
    "lower_and_coalesce",
    "normalize_transforms",
    "transform_function",
]

#: Optional parallelism-recovery passes, in the order they run.
TRANSFORM_NAMES = ("fission", "reduction")


def normalize_transforms(transforms: object) -> tuple[str, ...]:
    """Canonicalize a ``transforms`` option: None, a comma string, or
    a sequence of pass names → a validated tuple in canonical order."""
    if transforms is None or transforms == "":
        return ()
    if isinstance(transforms, str):
        names = [t.strip() for t in transforms.split(",") if t.strip()]
    else:
        names = [str(t) for t in transforms]
    unknown = sorted(set(names) - set(TRANSFORM_NAMES))
    if unknown:
        raise ValueError(
            f"unknown transforms {unknown} "
            f"(available: {', '.join(TRANSFORM_NAMES)})"
        )
    return tuple(t for t in TRANSFORM_NAMES if t in names)


@dataclass
class TransformedFunction:
    """A Python function lowered, transformed, and recompiled.

    Callable with the original positional signature (arrays first, then
    scalars, exactly as declared).
    """

    original: Procedure
    transformed: Procedure
    results: list[CoalesceResult]
    _backend: object
    name: str
    #: True when the lower→analyse→transform half was served from the
    #: artifact cache instead of recomputed.
    from_cache: bool = False

    def __call__(self, *args, **kwargs):
        names = list(self.transformed.arrays) + list(self.transformed.scalars)
        if len(args) > len(names):
            raise TypeError(
                f"{self.name}() takes {len(names)} arguments, got {len(args)}"
            )
        bound = dict(zip(names, args))
        for key, value in kwargs.items():
            if key not in names:
                raise TypeError(f"{self.name}() got unexpected argument {key!r}")
            if key in bound:
                raise TypeError(f"{self.name}() got duplicate argument {key!r}")
            bound[key] = value
        missing = [n for n in names if n not in bound]
        if missing:
            raise TypeError(f"{self.name}() missing arguments: {missing}")
        arrays = {n: bound[n] for n in self.transformed.arrays}
        scalars = {n: bound[n] for n in self.transformed.scalars}
        self._backend.run(arrays, scalars)

    @property
    def loop_source(self) -> str:
        """The transformed program in the mini-language."""
        return to_source(self.transformed)

    @property
    def generated_source(self) -> str:
        """The backend's generated source (Python, C, or mp chunk function)."""
        return self._backend.source

    @property
    def last_parallel(self):
        """Measured result of the last ``backend="mp"`` run (or None).

        A :class:`repro.parallel.runtime.ParallelProcedureResult` with
        per-worker claim logs; ``None`` for serial backends, after a
        fallback run, or before the first call.
        """
        return getattr(self._backend, "last", None)

    @property
    def safety_report(self):
        """Static chunk-safety verdicts for the transformed program.

        A :class:`repro.analysis.safety.SafetyReport` over every loop the
        mp runtime would dispatch — the same verdicts each run under the
        default safety mode gates dispatch on (``safety="off"`` skips it).
        Verified once per procedure, and the same verdict the mp runtime's
        plans are built on.
        """
        from repro.parallel.plan import verdict

        return verdict(self.transformed)

    def report(self) -> str:
        """Human-readable summary of what the pipeline did."""
        coalesced = [r for r in self.results if not isinstance(r, FissionResult)]
        lines = [f"{self.name}: {len(coalesced)} nest(s) coalesced"]
        for r in coalesced:
            bounds = " x ".join(to_source(b) for b in r.bounds)
            lines.append(
                f"  ({', '.join(r.index_vars)}) depth={r.depth} "
                f"bounds=[{bounds}] -> flat index {r.flat_var}"
            )
        for r in self.results:
            if isinstance(r, FissionResult):
                for summary, findings in r.sections():
                    lines.append(f"  {summary}")
                    lines.extend(f"    {f.format()}" for f in findings)
        safety = self.safety_report
        if not safety.loops:
            lines.append("  safety: no dispatchable DOALL loops")
        for verdict in safety.loops:
            status = (
                "proven race-free"
                if verdict.proven
                else ", ".join(sorted({f.rule for f in verdict.findings}))
                or "unproven"
            )
            lines.append(
                f"  safety: loop {verdict.loop_var} [{verdict.shape}] {status}"
            )
        return "\n".join(lines)


def _record_transform_metrics(results: list) -> None:
    """Fold transform outcomes into the process dispatch counters."""
    for r in results:
        if isinstance(r, FissionResult) and (r.outcomes or r.reductions):
            from repro.parallel.observe import record_transforms

            record_transforms(
                fission_applied=r.applied,
                fission_refused=r.refused,
                reductions=r.recognized,
            )


def lower_and_coalesce(
    source: str,
    frontend: str = "python",
    style: str = "ceiling",
    depth: int | None = None,
    distribute: bool = True,
    analyze: bool = True,
    triangular: bool = False,
    transforms: object = None,
    cache: object = "default",
) -> tuple[Procedure, Procedure, list, bool]:
    """The compile-time half of the pipeline, cached by content.

    Lowers ``source`` (restricted Python with ``frontend="python"``, the
    mini-language with ``frontend="dsl"``), proves DOALLs, distributes,
    and coalesces.  The result — ``(original, transformed, results)`` — is
    stored in the artifact cache under a canonical hash of the source text
    and every option, so the second identical compile anywhere on the
    machine (other process, the server, the CLI) is a disk read, not a
    recompute.  Returns ``(original, transformed, results, from_cache)``.

    ``transforms`` opts into the parallelism-recovery passes that run
    between classification and distribution: ``"fission"`` (split mixed
    serial bodies along their PDG's SCC condensation so clean statements
    become their own DOALL loops) and ``"reduction"`` (re-tag
    ``s := s ⊕ expr`` accumulator loops for the partial-accumulator
    dispatch mode).  Pass a comma string or a sequence of names; one
    :class:`~repro.transforms.fission.FissionResult` holding their
    outcomes rides in the returned ``results`` list after the coalesce
    entries.  Both passes and distribution are one walk,
    :func:`~repro.transforms.fission.fission_procedure`.

    ``cache`` is ``"default"`` (the process default store), an explicit
    :class:`repro.cache.ArtifactCache`, a directory path, or None/False to
    bypass caching entirely.
    """
    passes = normalize_transforms(transforms)
    store = resolve_cache(cache)
    key = None
    if store is not None:
        key = artifact_key(
            "pipeline",
            source=source,
            frontend=frontend,
            style=style,
            depth=depth,
            distribute=distribute,
            analyze=analyze,
            triangular=triangular,
            transforms=passes,
        )
        blob = store.get_bytes(key, "pipeline.pkl")
        if blob is not None:
            try:
                original, proc, results = pickle.loads(blob)
                validate(proc)
                _record_transform_metrics(results)
                return original, proc, results, True
            except Exception:
                # Unreadable pickle (version skew, corruption the manifest
                # couldn't see): drop the entry and recompute.
                store.stats.errors += 1
                store.invalidate(key)
    if frontend == "python":
        original = from_python(source)
    elif frontend == "dsl":
        original = parse(source)
    else:
        raise ValueError(f"unknown frontend {frontend!r}")
    validate(original)
    proc = normalize_procedure(original)
    if analyze:
        proc = mark_doall(proc)
    split = None
    if passes or distribute:
        split = fission_procedure(
            proc,
            fission="fission" in passes,
            reduction="reduction" in passes,
            distribute=distribute,
        )
        proc = split.procedure
    proc, results = coalesce_procedure(
        proc, depth=depth, style=style, triangular=triangular
    )
    results = list(results) + ([split] if passes else [])
    validate(proc)
    _record_transform_metrics(results)
    if store is not None:
        store.put(
            key,
            {
                "pipeline.pkl": pickle.dumps((original, proc, results)),
                "transformed.loop": to_source(proc),
            },
            meta={"kind": "pipeline", "name": proc.name},
        )
    return original, proc, results, False


def transform_function(
    fn: Callable | str,
    style: str = "ceiling",
    depth: int | None = None,
    distribute: bool = True,
    analyze: bool = True,
    backend: str = "python",
    transforms: object = None,
    cache: object = "default",
    **backend_options,
) -> TransformedFunction:
    """Run the full pipeline on a restricted Python function.

    Args:
        fn: the function (or its source text).
        style: index-recovery style.
        depth: cap on coalesce depth per nest.
        distribute: run loop distribution before coalescing.
        analyze: re-derive DOALL tags with the dependence analyser
            (disproven ``prange`` claims are demoted — the safe default).
        backend: ``"python"`` (generated Python), ``"c"`` (gcc + OpenMP),
            or ``"mp"`` (worker processes + shared memory + fetch&add
            self-scheduling — see :mod:`repro.parallel`).
        transforms: opt-in parallelism-recovery passes
            (``"fission,reduction"`` — see :func:`lower_and_coalesce`).
        cache: artifact cache for the compile-time half (and, for the C
            backend, the compiled ``.so``): ``"default"``, an
            :class:`repro.cache.ArtifactCache`, a directory path, or
            None/False to bypass.
        **backend_options: forwarded to the ``"mp"`` backend — ``workers``,
            ``policy`` (``"unit"``/``"fixed"``/``"gss"``/``"static"`` or a
            :class:`repro.scheduling.policies.SchedulingPolicy`), ``chunk``,
            ``timeout`` (the claim batch is derived: unit/fixed policies
            take ``min(64, chunks // (8·active))`` chunks per fetch&add,
            at least 1, GSS always claims singly, and ``claim_batch``
            accepts only ``"auto"``),
            ``safety`` (``"inspect"``, the default, or ``"off"``: by
            default every run is verified by the chunk-safety analyser,
            the report is attached to ``.last.safety``, and an unproven
            loop dispatches only where the runtime inspector proves it,
            else runs serially, keeping each inspection's certificate in
            ``.last.certificates``; ``"off"`` dispatches every loop as
            tagged, for loops parallel by an argument the verifier
            cannot make — see :mod:`repro.analysis.safety` and
            :mod:`repro.runtime.inspector`).
    """
    source = fn if isinstance(fn, str) else textwrap.dedent(inspect.getsource(fn))
    original, proc, results, from_cache = lower_and_coalesce(
        source,
        frontend="python",
        style=style,
        depth=depth,
        distribute=distribute,
        analyze=analyze,
        transforms=transforms,
        cache=cache,
    )
    if backend != "mp" and backend_options:
        raise TypeError(
            f"backend {backend!r} takes no options, got "
            f"{sorted(backend_options)}"
        )
    if backend == "python":
        compiled: object = compile_procedure(proc)
    elif backend == "c":
        from repro.codegen.cload import compile_c_procedure

        compiled = compile_c_procedure(proc, cache=cache)
    elif backend == "mp":
        from repro.parallel.backend import compile_mp_procedure

        compiled = compile_mp_procedure(proc, **backend_options)
    else:
        raise ValueError(f"unknown backend {backend!r}")
    return TransformedFunction(
        original=original,
        transformed=proc,
        results=results,
        _backend=compiled,
        name=original.name,
        from_cache=from_cache,
    )


def coalesce_jit(fn: Callable | None = None, **options):
    """Decorator form of :func:`transform_function`.

    Use bare (``@coalesce_jit``) or with options
    (``@coalesce_jit(style="divmod", backend="c")``), or call it on a
    function with the same options (``coalesce_jit(f, backend="mp")``).
    """

    def wrap(f: Callable) -> TransformedFunction:
        return functools.wraps(f)(transform_function(f, **options))

    return wrap if fn is None else wrap(fn)
