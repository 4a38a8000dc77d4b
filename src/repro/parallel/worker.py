"""The worker-process entry point: attach, claim, execute, report.

:func:`pool_worker_main` is the persistent-pool worker: it attaches the
shared arrays once, then serves lightweight job descriptors from its
private job queue until told to stop, running each through the
claim/execute core (:func:`run_plan`).  Chunk functions are compiled from
source text (strings cross process boundaries under both fork and spawn)
and cached by source, so a loop shape dispatched many times — one
dispatch per pivot row in a hybrid program — is compiled once.

Chunk bodies execute in one of three *languages* (``job["chunk_lang"]``):

* ``"py"`` — the generated Python chunk function
  (:func:`repro.codegen.pygen.compile_chunk_source`), always present in
  the job as the safety net;
* ``"c"`` — a native kernel: the job carries a content-addressed ``.so``
  path, symbol name, and argument signature; the worker dlopens it once
  per shape (:func:`repro.codegen.cload.load_chunk_kernel` is memoized on
  ``(so_path, fname, sig)``) and calls it directly on its shared-memory
  array views (``ndarray.ctypes`` pointers — zero copies), so a claimed
  block runs entirely in native code between two fetch&adds.  Any failure
  to load or bind the kernel degrades this worker to the Python chunk for
  the dispatch; the language actually used is reported back to the parent;
* ``"numpy"`` — the whole-slice vectorized chunk
  (:func:`repro.codegen.npgen.compile_numpy_chunk`): the claimed flat
  range executes as one ``np.arange`` evaluation — the compiler-less
  fast path.  Same degradation contract as the C kernel.

Every language runs the paper's protocol: fetch&add a chunk (or a *batch*
of chunks, amortizing the lock round-trip) from the shared counter,
execute the claimed flat iterations, repeat until the counter is drained.
Static plans skip the counter and walk a precomputed chunk list.

Every claim is logged as ``(lo, hi, t_claim, t_work, t_end)`` on the shared
monotonic clock so the parent can reconstruct the measured schedule
(:mod:`repro.parallel.observe`).  Failures are reported over the result
queue *and* via a nonzero exit code, so the parent detects crashes even if
the message is lost.
"""

from __future__ import annotations

import ctypes
import time
import traceback
from typing import Any, Callable

import numpy as np

from repro.codegen.pygen import compile_chunk_source
from repro.parallel.shm import attach_array


def _make_invoker(
    job: dict[str, Any], arrays: dict
) -> tuple[Callable[[int, int], None], str, dict[str, Any]]:
    """Build the ``invoke(lo, hi)`` callable for one job.

    Returns ``(invoke, lang, extra)`` where ``lang`` is the chunk
    language actually bound — ``"c"`` only when the native kernel loaded
    and every array qualifies for the zero-copy call convention;
    otherwise the Python chunk (the job always carries its source) —
    and ``extra`` is the per-job payload shipped back to the parent
    alongside the claim accounting (empty for normal dispatches).

    A *speculative* job (``job["speculate"]``) binds neither chunk
    flavor: the worker executes the dispatched loop with the recording
    interpreter, written arrays remapped to their shadow segments, and
    every claimed chunk appends ``(lo, hi, writes, reads)`` to
    ``extra["spec_log"]`` for the parent's conflict validation.
    """
    spec = job.get("speculate")
    if spec is not None:
        from repro.runtime.inspector import record_chunk

        aliases = spec["aliases"]
        watch = frozenset(spec["written"])
        exec_arrays = {
            name: arrays[aliases.get(name, name)]
            for name in job["array_order"]
        }
        env = {
            name: job["scalars"][name] for name in job["scalar_order"]
        }
        loop = spec["loop"]
        log: list = []

        def invoke_spec(lo: int, hi: int) -> None:
            reads, writes = record_chunk(
                loop, env, exec_arrays, lo, hi, watch
            )
            log.append((lo, hi, tuple(writes), tuple(reads)))

        return invoke_spec, "py", {"spec_log": log}
    if job.get("chunk_lang") == "c":
        try:
            from repro.codegen.cload import load_chunk_kernel

            fn = load_chunk_kernel(
                job["c_so"], job["c_fname"], tuple(job["c_sig"])
            )
            args: list = []
            for name in job["array_order"]:
                view = arrays[name]
                if view.dtype != np.float64 or not view.flags["C_CONTIGUOUS"]:
                    raise TypeError(
                        f"array {name!r} not C-contiguous float64"
                    )
                args.append(
                    view.ctypes.data_as(ctypes.POINTER(ctypes.c_double))
                )
                args.extend(int(d) for d in view.shape)
            for name, ty in zip(job["scalar_order"], job["c_scalar_types"]):
                value = job["scalars"][name]
                args.append(float(value) if ty == "double" else int(value))

            def invoke(lo: int, hi: int, _fn=fn, _args=tuple(args)) -> None:
                _fn(lo, hi, *_args)

            return invoke, "c", {}
        except Exception:
            pass  # degrade to the Python chunk; the parent sees lang="py"
    if job.get("chunk_lang") == "numpy":
        try:
            from repro.codegen.npgen import compile_numpy_chunk

            np_fn = compile_numpy_chunk(job["np_source"], job["np_fname"])
            np_args = [arrays[n] for n in job["array_order"]]
            np_args += [job["scalars"][n] for n in job["scalar_order"]]

            def invoke_np(
                lo: int, hi: int, _fn=np_fn, _args=tuple(np_args)
            ) -> None:
                _fn(lo, hi, *_args)

            return invoke_np, "numpy", {}
        except Exception:
            pass  # degrade to the Python chunk; the parent sees lang="py"
    func = compile_chunk_source(job["source"], job["fname"])
    call_args = [arrays[n] for n in job["array_order"]]
    call_args += [job["scalars"][n] for n in job["scalar_order"]]

    def invoke(lo: int, hi: int, _fn=func, _args=tuple(call_args)) -> None:
        _fn(lo, hi, *_args)

    return invoke, "py", {}


def run_plan(
    wid: int, job: dict[str, Any], counter, arrays: dict
) -> tuple[int, int, int, list, str, dict[str, Any]]:
    """Execute one worker's share of a dispatch.

    Returns ``(iterations, claims, lock_ops, events, lang, extra)`` where
    ``claims`` counts executed chunks, ``lock_ops`` counts counter critical
    sections (``claims == lock_ops`` unless claims were batched), ``lang``
    is the chunk language actually executed (``"c"``/``"py"``), and
    ``extra`` carries any per-job payload (the recorded ``spec_log`` of a
    speculative dispatch; empty otherwise).

    ``job`` keys: ``source``/``fname`` (Python chunk function),
    ``chunk_lang`` plus ``c_so``/``c_fname``/``c_sig``/``c_scalar_types``
    (native kernel, optional), ``speculate`` (speculative dispatch
    descriptor, optional), ``array_order``/``scalar_order``/``scalars``
    (call convention), ``plan``
    (:class:`repro.parallel.counter.PolicyPlan`), ``lo`` (loop lower
    bound, for static chunk lists), ``batch`` (chunks per claim),
    ``log_events``.
    """
    func, lang, extra = _make_invoker(job, arrays)
    plan = job["plan"]
    log_events = job["log_events"]
    events: list[tuple[int, int, float, float, float]] = []
    iterations = 0
    claims = 0
    lock_ops = 0

    if wid >= plan.workers:
        # Pool larger than the iteration space: this worker sits the
        # dispatch out (the plan was built for plan.workers processes).
        return 0, 0, 0, events, lang, extra

    if plan.static is not None:
        lo0 = job["lo"]
        t0 = time.monotonic()
        for start, size in plan.static[wid]:
            lo, hi = lo0 + start, lo0 + start + size - 1
            t1 = time.monotonic()
            func(lo, hi)
            t2 = time.monotonic()
            if log_events:
                events.append((lo, hi, t0, t1, t2))
            iterations += size
            claims += 1
            t0 = t2
    else:
        rule = plan.rule
        batch = job.get("batch", 1)
        while True:
            t0 = time.monotonic()
            claimed = counter.claim_batch(rule, batch)
            t1 = time.monotonic()
            if not claimed:
                break
            lock_ops += 1
            for lo, hi in claimed:
                func(lo, hi)
                t2 = time.monotonic()
                if log_events:
                    events.append((lo, hi, t0, t1, t2))
                iterations += hi - lo + 1
                claims += 1
                t0 = t1 = t2
    if plan.static is not None:
        lock_ops = 0  # static plans never touch the shared counter
    return iterations, claims, lock_ops, events, lang, extra


def pool_worker_main(wid: int, specs: list, counter, jobs, results) -> None:
    """Persistent worker: serve job descriptors until a stop message.

    ``jobs`` is this worker's private queue of ``("job", seq, job)`` /
    ``("stop",)`` messages; ``results`` is the shared result queue, fed
    one ``("ok", wid, seq, iterations, claims, lock_ops, events, lang,
    extra)`` or ``("err", wid, seq, traceback)`` message per job.

    The shared arrays are attached once, up front — each dispatch is then
    a message plus the claim loop, no fork, no re-attach.  Any specs a job
    carries beyond the initial set are attached on demand and cached by
    name *and* backing segment — a name reused over a fresh segment (each
    speculative dispatch ships newly-created shadow segments) is
    re-attached, never served stale.  Native chunk kernels are likewise
    cached for the worker's lifetime (dlopened once per shape).  A failed
    job poisons the pool: the worker reports the traceback and exits
    nonzero, and the parent tears the fleet down.
    """
    segments = []
    failed = False
    seq = None
    try:
        arrays: dict = {}
        attached: dict[str, str] = {}  # spec name -> backing segment

        def attach(spec_list) -> None:
            for spec in spec_list:
                if attached.get(spec.name) == spec.segment:
                    continue
                view, shm = attach_array(spec)
                arrays[spec.name] = view
                attached[spec.name] = spec.segment
                segments.append(shm)

        attach(specs)
        while True:
            msg = jobs.get()
            if msg[0] == "stop":
                break
            _, seq, job = msg
            attach(job.get("specs", ()))
            iterations, claims, lock_ops, events, lang, extra = run_plan(
                wid, job, counter, arrays
            )
            results.put(
                (
                    "ok", wid, seq, iterations, claims, lock_ops, events,
                    lang, extra,
                )
            )
    except BaseException:
        failed = True
        try:
            results.put(("err", wid, seq, traceback.format_exc()))
        except Exception:  # pragma: no cover - queue already broken
            pass
    finally:
        del arrays
        for shm in segments:
            try:
                shm.close()
            except Exception:  # pragma: no cover - defensive
                pass
    if failed:
        raise SystemExit(1)
