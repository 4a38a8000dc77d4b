"""The worker-process entry point: attach, claim, execute, report.

:func:`pool_worker_main` is the persistent-pool worker: it attaches the
shared arrays once, then serves lightweight job descriptors from its
private job queue until told to stop, running each through the
claim/execute core (:func:`run_plan`).  Chunk functions are compiled from
source text (strings cross process boundaries under both fork and spawn)
and cached by source, so a loop shape dispatched many times — one
dispatch per pivot row in a hybrid program — is compiled once.

Chunk bodies execute in one of three *languages* (``job["chunk_lang"]``,
derived by the parent's plan, never chosen by a caller):

* ``"c"`` — a native kernel: the job carries a content-addressed ``.so``
  path and the kernel's thunk name; the worker dlopens it once per shape
  and runs it directly on its shared-memory array views
  (``ndarray.ctypes`` pointers — zero copies);
* ``"numpy"`` — the whole-slice vectorized chunk
  (:func:`repro.codegen.npgen.generate_chunk_numpy`): the claimed flat
  range executes as one ``np.arange`` evaluation;
* ``"py"`` — the scalar Python chunk
  (:func:`repro.codegen.pygen.generate_chunk_source`).

Every job carries exactly one Python chunk, ``source``/``fname`` — the
numpy one on a numpy job, the scalar one otherwise (on a C job, the net
for a worker that cannot bind the kernel) — and one chunk compiler,
:func:`repro.codegen.pygen.compile_chunk_source`, handles both kinds.

Every language runs the paper's protocol — fetch&add a chunk (or a
*batch* of chunks) from the shared counter, execute the claimed flat
iterations, repeat until the counter is drained — through one of two
**claim protocols**, chosen by the parent per job and never mixed on one
counter (:mod:`repro.parallel.counter` says why):

* **native** (``job["region"]``; dynamic plans with C chunks): the worker
  enters a *region driver* once (:func:`_run_region`) — the program's
  own, which runs its serial loops, or the claim library's one-instance
  entry for a single dispatch — meets its peers at a barrier before each
  DOALL instance and drains it with
  :data:`repro.codegen.cgen.CLAIM_LOOP_C`: hardware atomics on the
  counter words, chunks through the kernel's uniform-entry thunk, the
  claim log written natively into the worker's slice of a ring block the
  pool shares with every worker.  It comes back to Python only when the
  job is over, or when the ring is full.  A worker that cannot bind
  stops the barrier instead of entering, before anything has run;
* **Python** (everything else: ``py``/``numpy`` chunks, static plans,
  compiler-less hosts, and a job the native protocol sent back): a
  ``while`` loop around the lock-guarded
  :meth:`~repro.parallel.counter.SharedClaimCounter.claim_batch`.  Here a
  failure to bind the C kernel degrades this worker to the job's Python
  chunk for the dispatch, reported back as ``lang="py"``.  Static plans
  skip the counter and walk a precomputed chunk list.

Both protocols call a C chunk one way: the kernel's ``__v`` thunk with
the job's arguments packed into 8-byte ``argv`` slots (:func:`_argv_slots`).
Both report one way too (:func:`_report`): one ``rec`` row per DOALL
instance (``loop, lo, hi, iterations, claims, lock_ops, log rows,
batch``) and one ``tim`` row (the worker's start and finish on the
shared monotonic clock), plus the claim log as packed float64 rows
``(lo, hi, t_claim, t_work, t_end)``, left in the worker's ring slice
(only the row count crosses the pipe) — so the parent folds every job's
messages in one place (:func:`repro.parallel.region._assemble`) and can
reconstruct the measured schedule (:mod:`repro.parallel.observe`).
Failures are reported over the result queue *and* via a nonzero exit
code, so the parent detects crashes even if the message is lost.
"""

from __future__ import annotations

import ctypes
import struct
import time
import traceback
from array import array
from typing import Any, Callable

import numpy as np

from repro.codegen import cload
from repro.codegen.pygen import compile_chunk_source
from repro.parallel.counter import PARTIALS_KEY
from repro.parallel.shm import attach_array


def _argv_slots(job: dict[str, Any], arrays: dict):
    """A kernel's arguments after the two bounds, packed into its thunk's
    8-byte ``argv`` slots (:func:`repro.codegen.cgen.generate_chunk_c`
    documents the layout): per array its address — raising unless it
    qualifies for the zero-copy convention — and extents, then each
    scalar, a ``double`` as its bits."""
    slots: list[int] = []
    for name in job["array_order"]:
        view = arrays[name]
        if view.dtype != np.float64 or not view.flags["C_CONTIGUOUS"]:
            raise TypeError(f"array {name!r} not C-contiguous float64")
        slots += [view.ctypes.data, *view.shape]
    for name, ty in zip(job["scalar_order"], job["c_scalar_types"]):
        value = job["scalars"][name]
        if ty == "double":  # same bits, read as the slot's integer
            (value,) = struct.unpack("=q", struct.pack("=d", value))
        slots.append(int(value))
    return (ctypes.c_int64 * len(slots))(*slots)


#: ``void <kernel>__v(long lo, long hi, void **argv)``: a kernel's thunk.
_THUNK = ctypes.CFUNCTYPE(None, ctypes.c_long, ctypes.c_long, ctypes.c_void_p)


def _make_invoker(
    job: dict[str, Any], arrays: dict
) -> tuple[Callable[[int, int], None], str]:
    """Build the ``invoke(lo, hi)`` callable for one job.

    Returns ``(invoke, lang)`` where ``lang`` is the chunk language
    actually bound — ``"c"`` only when the kernel's thunk loaded and
    every array qualifies for the zero-copy call convention; otherwise
    the job's Python chunk, reported as the job's language — ``"py"``
    for a C job a worker could not bind.
    """
    lang = job["chunk_lang"]
    if lang == "c":
        try:
            _, address = cload.load_chunk_thunk(job["c_so"], job["c_thunk"])
            fn, args = _THUNK(address), (_argv_slots(job, arrays),)
        except Exception:
            lang = "py"  # degrade to the Python chunk; the parent sees it
    if lang != "c":
        fn = compile_chunk_source(job["source"], job["fname"])
        args = (
            *[arrays[n] for n in job["array_order"]],
            *[job["scalars"][n] for n in job["scalar_order"]],
        )

    def invoke(lo: int, hi: int, _fn=fn, _args=args) -> None:
        _fn(lo, hi, *_args)

    return invoke, lang


def _report(
    rec: bytes,
    tim: bytes,
    log: bytes,
    lang: str,
    status: int = 0,
    rows: int = 0,
) -> dict[str, Any]:
    """A worker's report on one job — the same on both protocols.

    ``rec`` holds one int64 row per DOALL instance (``loop, lo, hi,
    iterations, claims, lock_ops, log rows, batch``) and ``tim`` one
    float64 row per instance (start, finish).  The claim log, five
    float64 per row, instances in order, is ``log`` (the rows spilled
    while the ring was full) followed by the first ``rows`` rows of this
    worker's ring, which the parent appends to ``log``.  ``status`` is
    nonzero when a region driver could not run (this worker could not
    bind it, or a peer stopped the barrier).
    """
    return dict(status=status, rec=rec, tim=tim, log=log, lang=lang, rows=rows)


#: Rows of each worker's claim-log ring (5 float64 each, 1.25 MiB): one
#: shared block the pool creates at spawn, worker ``w``'s slice bound in
#: its arrays under :data:`RING_KEY`.  Sized to hold a whole
#: ``nest_claims`` dispatch (22 500 unit chunks) for one worker, which
#: may claim them all.  A log longer than the ring is not an error: the
#: rows that do not fit spill through the result pipe.
RING_ROWS = 1 << 15

#: The ring's key in a worker's arrays: no IR name can take it.
RING_KEY = "#ring"


def _run_region(
    wid: int, job: dict[str, Any], counter, arrays: dict
) -> dict[str, Any]:
    """One worker's share of a native job: a region of one DOALL instance,
    or a whole serial-outer run.

    ``job["region"]`` names the driver — a program's region unit, or the
    claim library's one-instance entry — and, per DOALL, the kernel to
    bind (:mod:`repro.parallel.region` builds it).  The worker binds
    everything, asks the driver how many DOALL instances the job has, and
    enters it once; it comes back when the last instance is done, with
    the driver's status and its per-instance ``rec``/``tim`` tables.  The
    driver writes the claim log of the whole job, in instance order, into
    this worker's slice of the pool's ring (:data:`RING_KEY`) and reports
    the rows it left there; only when the ring fills does it hand the
    rows back (``drain``), to be spilled through the result pipe, and
    start over at the ring's head.

    A worker that cannot bind sets the barrier's stop word instead of
    entering — its peers give up at their first barrier, before any
    iteration has run — and reports status -1.
    """
    reg = job["region"]
    try:
        driver = cload.load_region_driver(reg["so"], reg["fname"])
        claim = cload.load_claim_loop(reg["claim_so"])[1]
        argvs = [_argv_slots(lp, arrays) for lp in reg["loops"]]
        thunks = [
            cload.load_chunk_thunk(lp["c_so"], lp["c_thunk"])[1]
            for lp in reg["loops"]
        ]
    except Exception:
        counter.stop_barrier()
        return _report(b"", b"", b"", "c", status=-1)
    count = len(argvs)
    fns = (ctypes.c_void_p * count)(*thunks)
    argv_table = (ctypes.c_void_p * count)(
        *[ctypes.addressof(a) for a in argvs]
    )
    rules = (ctypes.c_int64 * len(reg["rules"]))(*reg["rules"])
    params = (ctypes.c_int64 * max(1, len(reg["params"])))(*reg["params"])
    info = (ctypes.c_int64 * 2)()
    spilled: list[bytes] = []
    ring = arrays[RING_KEY] if job["log_events"] else None
    drain = cload.REGION_DRAIN(
        lambda rows: spilled.append(ring[:rows].tobytes())
    )

    def enter(run: int, rec=None, tim=None, log=None):
        return driver(
            counter.address, counter.barrier_address, wid, reg["workers"],
            reg["spin"], run, claim, fns, argv_table, rules, rec, tim,
            None if log is None else log.ctypes.data,
            0 if log is None else len(log), drain, params, info,
        )

    enter(0)  # count the instances; nothing runs, nobody waits
    rec = (ctypes.c_int64 * (8 * info[0]))()
    tim = (ctypes.c_double * (2 * info[0]))()
    status = enter(1, rec, tim, ring)
    return _report(bytes(rec), bytes(tim), b"".join(spilled), "c", status, info[1])


def run_plan(
    wid: int, job: dict[str, Any], counter, arrays: dict
) -> dict[str, Any]:
    """Execute one worker's share of a job; returns its :func:`_report`.

    ``claims`` counts executed chunks and ``lock_ops`` counter critical
    sections — or, on the native protocol, atomic claims — that granted
    work (``claims == lock_ops`` unless claims were batched; 0 for a
    static plan, which never touches the counter).  ``lang`` is the chunk
    language actually executed (``"c"``/``"numpy"``/``"py"``).

    The protocol is picked by what the parent sent, not by a setting: a
    ``region`` job runs the native protocol (:func:`_run_region`) and
    nothing else; every other job runs the Python loop below — the
    portable floor — and reports one instance of loop 0.

    ``job`` keys: ``chunk_lang``, ``source``/``fname`` (the Python chunk
    function, scalar or whole-slice), ``c_so``/``c_thunk``/
    ``c_scalar_types`` (native kernel, C jobs only),
    ``array_order``/``scalar_order``/``scalars`` (call convention),
    ``plan`` (:class:`repro.parallel.counter.PolicyPlan`), ``lo``/``hi``
    (loop bounds), ``batch`` (chunks per claim), ``log_events``.
    """
    if "region" in job:
        return _run_region(wid, job, counter, arrays)
    func, lang = _make_invoker(job, arrays)
    plan, lo0, batch = job["plan"], job["lo"], job["batch"]
    if wid >= plan.workers:
        # Pool larger than the iteration space: the plan was built for
        # plan.workers processes, so this one idles.
        grants = ()
    elif plan.static is not None:  # a precomputed chunk list, no counter
        grants = [[(lo0 + at, lo0 + at + n - 1)] for at, n in plan.static[wid]]
    else:
        grants = iter(lambda: counter.claim_batch(plan.rule, batch), [])
    locked, keep_log, log = plan.static is None, job["log_events"], array("d")
    iterations = claims = lock_ops = 0
    t0 = t_start = time.monotonic()
    for claimed in grants:
        t1 = time.monotonic()
        lock_ops += locked
        for lo, hi in claimed:
            func(lo, hi)
            t2 = time.monotonic()
            if keep_log:
                log.extend((lo, hi, t0, t1, t2))
            iterations += hi - lo + 1
            claims += 1
            t0 = t1 = t2
    rec = struct.pack(
        "=8q", 0, lo0, job["hi"], iterations, claims, lock_ops,
        len(log) // 5, batch,
    )
    tim = struct.pack("=2d", t_start, time.monotonic())
    ring = arrays[RING_KEY].reshape(-1)
    keep = min(len(log), len(ring))  # floats; the head of a longer log spills
    ring[:keep] = memoryview(log)[len(log) - keep :]
    spill = log[: len(log) - keep].tobytes()
    return _report(rec, tim, spill, lang, rows=keep // 5)


def pool_worker_main(wid: int, specs: list, counter, jobs, results) -> None:
    """Persistent worker: serve job descriptors until a stop message.

    ``jobs`` is this worker's private queue of ``("job", seq, job)`` /
    ``("stop",)`` messages; ``results`` is the shared result queue, fed
    one ``("ok", wid, seq, report)`` (:func:`_report`) or ``("err", wid,
    seq, traceback)`` message per job.

    The shared arrays are attached once, up front, from the ``specs`` the
    worker is spawned with — the only segments it ever maps.  The last is
    the pool's claim-log ring block, of which this worker binds its own
    slice under :data:`RING_KEY`.  A reduction's partial slots are the
    counter block's
    (:attr:`~repro.parallel.counter.SharedClaimCounter.partials`), bound
    under :data:`~repro.parallel.counter.PARTIALS_KEY`.  Each dispatch is
    then a message plus the claim loop: no fork, no attach.  Native chunk
    kernels are likewise cached for the worker's lifetime (dlopened once
    per shape).  A failed job poisons the pool: the worker reports the
    traceback and exits nonzero, and the parent tears the fleet down.
    """
    segments = []
    failed = False
    seq = None
    try:
        arrays: dict = {PARTIALS_KEY: counter.partials}
        for spec in specs:
            arrays[spec.name], shm = attach_array(spec)
            segments.append(shm)
        arrays[RING_KEY] = arrays[RING_KEY][wid]
        while True:
            msg = jobs.get()
            if msg[0] == "stop":
                break
            _, seq, job = msg
            results.put(("ok", wid, seq, run_plan(wid, job, counter, arrays)))
    except BaseException:
        failed = True
        try:
            results.put(("err", wid, seq, traceback.format_exc()))
        except Exception:  # pragma: no cover - queue already broken
            pass
    finally:
        arrays = None
        for shm in segments:
            try:
                shm.close()
            except Exception:  # pragma: no cover - defensive
                pass
    if failed:
        raise SystemExit(1)
