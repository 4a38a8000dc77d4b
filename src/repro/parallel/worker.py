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
  per shape and runs it directly on its shared-memory array views
  (``ndarray.ctypes`` pointers — zero copies);
* ``"numpy"`` — the whole-slice vectorized chunk
  (:func:`repro.codegen.npgen.compile_numpy_chunk`): the claimed flat
  range executes as one ``np.arange`` evaluation — the compiler-less
  fast path.

Every language runs the paper's protocol — fetch&add a chunk (or a
*batch* of chunks) from the shared counter, execute the claimed flat
iterations, repeat until the counter is drained — through one of two
**claim loops**, chosen by the parent per dispatch and never mixed within
one (:mod:`repro.parallel.counter` says why):

* **native** (``job["claim_so"]`` present; dynamic plans with C chunks):
  the whole loop is :data:`repro.codegen.cgen.CLAIM_LOOP_C`.  The worker
  crosses into C once per dispatch; claims are hardware atomics on the
  counter words, chunks run through the kernel's uniform-entry thunk, and
  the claim log is written natively into a reusable per-worker ring.  A
  worker that cannot bind the library or the thunk *sits the dispatch
  out* (reports ``lang="py"`` and zero work) — it must not take the lock
  on a counter its peers are fetch&adding;
* **Python** (everything else: ``py``/``numpy`` chunks, the speculative
  recorder, compiler-less hosts): a ``while`` loop around the lock-guarded
  :meth:`~repro.parallel.counter.SharedClaimCounter.claim_batch`.  Here a
  failure to load the C or numpy chunk degrades this worker to the Python
  chunk for the dispatch, reported back as ``lang="py"``.

Static plans skip the counter and walk a precomputed chunk list.

One kind of job is not a dispatch but a whole run (``job["region"]``, from
:mod:`repro.parallel.region`): the worker enters the program's native
*region driver* once (:func:`_run_region`), runs the serial loops itself,
meets its peers at a barrier before each DOALL instance and drains it with
the same native claim loop — coming back to Python only when the run is
over, or when the claim-log ring is full.

Every claim is logged as ``(lo, hi, t_claim, t_work, t_end)`` on the shared
monotonic clock so the parent can reconstruct the measured schedule
(:mod:`repro.parallel.observe`); the native loop ships its rows as one
raw float64 array per worker.  Failures are reported over the result queue
*and* via a nonzero exit code, so the parent detects crashes even if the
message is lost.
"""

from __future__ import annotations

import ctypes
import struct
import time
import traceback
from typing import Any, Callable

import numpy as np

from repro.codegen.pygen import compile_chunk_source
from repro.parallel.shm import attach_array


def _c_arguments(job: dict[str, Any], arrays: dict):
    """A native kernel's arguments after the two bounds, in order.

    Yields ``(kind, value)`` with the kinds of the job's ``c_sig``:
    ``("ptr", view)`` for an array — raising unless it qualifies for the
    zero-copy convention — then ``("long", extent)`` per dimension, then
    each scalar as ``("long", int)`` or ``("double", float)``.
    """
    for name in job["array_order"]:
        view = arrays[name]
        if view.dtype != np.float64 or not view.flags["C_CONTIGUOUS"]:
            raise TypeError(f"array {name!r} not C-contiguous float64")
        yield "ptr", view
        for d in view.shape:
            yield "long", int(d)
    for name, ty in zip(job["scalar_order"], job["c_scalar_types"]):
        value = job["scalars"][name]
        yield ty, float(value) if ty == "double" else int(value)


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
            pointer = ctypes.POINTER(ctypes.c_double)
            args = [
                value.ctypes.data_as(pointer) if kind == "ptr" else value
                for kind, value in _c_arguments(job, arrays)
            ]

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


#: Rows of the per-worker claim-log ring the native loop writes (5 float64
#: each, 640 KiB).  A dispatch that logs more rows than fit is not an
#: error: the loop returns "full", the rows are copied out, it re-enters.
RING_ROWS = 1 << 14

_ring: np.ndarray | None = None


def _claim_ring(rows: int) -> np.ndarray:
    """This worker's reusable ring, at least ``rows`` rows long."""
    global _ring
    if _ring is None or len(_ring) < rows:
        _ring = np.empty((rows, 5), dtype=np.float64)
    return _ring


def _argv_slots(job: dict[str, Any], arrays: dict):
    """A kernel's arguments packed into the thunk's 8-byte ``argv`` slots
    (:func:`repro.codegen.cgen.generate_chunk_c` documents the layout)."""
    slots: list[int] = []
    for kind, value in _c_arguments(job, arrays):
        if kind == "ptr":
            value = value.ctypes.data
        elif kind == "double":  # same bits, read as the slot's integer
            (value,) = struct.unpack("=q", struct.pack("=d", value))
        slots.append(value)
    return (ctypes.c_int64 * len(slots))(*slots)


def _run_native(
    wid: int, job: dict[str, Any], counter, arrays: dict
) -> tuple[int, int, int, Any, str, dict[str, Any]]:
    """One worker's share of a dispatch on the native claim protocol.

    Binds the claim-loop library and the kernel's thunk, packs the
    kernel's arguments into 8-byte ``argv`` slots (:func:`_argv_slots`) and
    calls ``repro_claim_loop`` until it reports the counter drained.  Any
    failure *before* the first claim — dlopen, a missing symbol, an array
    the zero-copy convention cannot take — makes this worker sit the
    dispatch out: zero work, ``lang="py"``.  It may not fall back to
    lock-guarded claims, because its peers are claiming with atomics that
    do not honor the lock; they drain the range without it.
    """
    try:
        from repro.codegen.cload import load_chunk_thunk, load_claim_loop

        claim_loop = load_claim_loop(job["claim_so"])
        _, thunk = load_chunk_thunk(job["c_so"], job["c_thunk"])
        argv = _argv_slots(job, arrays)
        ctr = counter.address
    except Exception:
        return 0, 0, 0, b"", "py", {}
    plan = job["plan"]
    if wid >= plan.workers:
        return 0, 0, 0, b"", "c", {}

    n = counter.stop - job["lo"] + 1
    if plan.rule[0] == "gss":
        kind, k, batch = 1, plan.rule[1], 1
    else:
        # Clamped to the range so k * batch cannot overflow the counter
        # word; the chunks handed out are the same (a chunk never extends
        # past stop, a claim never holds more chunks than exist).
        kind = 0
        k = min(1 if plan.rule[0] == "unit" else plan.rule[1], n)
        batch = max(1, min(job.get("batch", 1), -(-n // k)))
    out = (ctypes.c_int64 * 4)()
    ring, ring_at, cap = None, None, 0  # log_events off: NULL ring
    if job["log_events"]:
        ring = _claim_ring(max(RING_ROWS, batch))
        ring_at, cap = ring.ctypes.data, len(ring)
    logged: list[bytes] = []
    while True:
        full = claim_loop(
            ctr, kind, k, batch, out, ring_at, cap, thunk, argv
        )
        if out[3]:
            logged.append(ring[: out[3]].tobytes())
        if not full:
            break
    return out[0], out[1], out[2], b"".join(logged), "c", {}


def _run_region(
    wid: int, job: dict[str, Any], counter, arrays: dict
) -> tuple[int, int, int, Any, str, dict[str, Any]]:
    """One worker's share of a whole run inside the native SPMD region.

    ``job["region"]`` names the program's region unit and, per DOALL, the
    kernel to bind (:mod:`repro.parallel.region` builds it).  The worker
    binds everything, asks the driver how many DOALL instances the run
    has, and enters it once; it comes back when the last instance is
    done.  ``extra["region"]`` carries the driver's status and the raw
    per-instance ``rec``/``tim`` tables; the claim log of the whole run is
    one byte string in instance order.

    A worker that cannot bind sets the barrier's stop word instead of
    entering — its peers give up at their first barrier, before any
    iteration has run — and reports ``extra["region"] = None``.
    """
    reg = job["region"]
    try:
        from repro.codegen.cload import (
            REGION_DRAIN,
            load_chunk_thunk,
            load_claim_loop,
            load_region_driver,
        )

        driver = load_region_driver(reg["so"], reg["fname"])
        claim = ctypes.cast(load_claim_loop(reg["claim_so"]), ctypes.c_void_p)
        argvs = [_argv_slots(lp, arrays) for lp in reg["loops"]]
        thunks = [
            load_chunk_thunk(lp["c_so"], lp["c_thunk"])[1]
            for lp in reg["loops"]
        ]
    except Exception:
        counter.stop_barrier()
        return 0, 0, 0, b"", "py", {"region": None}
    count = len(argvs)
    fns = (ctypes.c_void_p * count)(*thunks)
    argv_table = (ctypes.c_void_p * count)(
        *[ctypes.addressof(a) for a in argvs]
    )
    rules = (ctypes.c_int64 * (4 * count))(*reg["rules"])
    params = (ctypes.c_int64 * max(1, len(reg["params"])))(*reg["params"])
    info = (ctypes.c_int64 * 4)()
    logged: list[bytes] = []
    ring: np.ndarray | None = None

    def enter(run: int, rec=None, tim=None, cap: int = 0):
        return driver(
            counter.address, counter.barrier_address, wid, reg["workers"],
            reg["spin"], run, claim, fns, argv_table, rules, rec, tim,
            ring.ctypes.data if ring is not None else None, cap,
            REGION_DRAIN(lambda rows: logged.append(ring[:rows].tobytes())),
            params, info,
        )

    enter(0)  # count the instances; nothing runs, nobody waits
    rec = np.zeros((info[0], 8), dtype=np.int64)
    tim = np.zeros((info[0], 2), dtype=np.float64)
    if job["log_events"]:
        ring = _claim_ring(max(RING_ROWS, info[1]))
    status = enter(
        1, rec.ctypes.data, tim.ctypes.data, 0 if ring is None else len(ring)
    )
    if info[2]:
        logged.append(ring[: info[2]].tobytes())
    done = rec[:, 3:6].sum(axis=0).tolist()
    table = {
        "status": status,
        "serial_stmts": info[3],
        "rec": rec.tobytes(),
        "tim": tim.tobytes(),
    }
    return *done, b"".join(logged), "c", {"region": table}


def run_plan(
    wid: int, job: dict[str, Any], counter, arrays: dict
) -> tuple[int, int, int, Any, str, dict[str, Any]]:
    """Execute one worker's share of a dispatch.

    Returns ``(iterations, claims, lock_ops, events, lang, extra)`` where
    ``claims`` counts executed chunks, ``lock_ops`` counts counter critical
    sections — or, on the native protocol, atomic claims — that granted
    work (``claims == lock_ops`` unless claims were batched), ``events``
    is this worker's claim log (a list of 5-tuples, or from the native
    loop the bytes of one ``(rows, 5)`` float64 array — they pickle in
    a fraction of an ndarray's time), ``lang`` is the chunk language
    actually executed (``"c"``/``"numpy"``/``"py"``), and ``extra`` carries
    any per-job payload (the recorded ``spec_log`` of a speculative
    dispatch; empty otherwise).

    The claim loop is picked by what the parent attached, not by a
    setting: a job carrying ``claim_so`` runs the native loop
    (:func:`_run_native`) and nothing else; every other job runs the
    Python loop below — the portable floor.

    ``job`` keys: ``source``/``fname`` (Python chunk function),
    ``chunk_lang`` plus ``c_so``/``c_fname``/``c_sig``/``c_scalar_types``
    (native kernel, optional), ``claim_so``/``c_thunk`` (native claim
    loop: library path and the kernel's thunk symbol, optional),
    ``speculate`` (speculative dispatch descriptor, optional),
    ``array_order``/``scalar_order``/``scalars`` (call convention),
    ``plan`` (:class:`repro.parallel.counter.PolicyPlan`), ``lo`` (loop
    lower bound), ``batch`` (chunks per claim), ``log_events``.
    """
    if "region" in job:
        return _run_region(wid, job, counter, arrays)
    if "claim_so" in job:
        return _run_native(wid, job, counter, arrays)
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
