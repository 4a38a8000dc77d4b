"""The compile-and-run HTTP server (stdlib ``ThreadingHTTPServer``).

One resident process serves many clients: compiles are content-addressed
through :mod:`repro.cache`, compiled programs stay registered in memory,
and mp-backend runs dispatch through warm per-(workers, shape) worker
pools guarded by per-pool locks (concurrent requests with the same shape
serialize on the pool; different shapes run in parallel).

Start it with ``python -m repro serve`` and talk JSON::

    curl -s localhost:8923/healthz
    curl -s -X POST localhost:8923/compile -d '{"source": "..."}'
    curl -s -X POST localhost:8923/run -d '{"key": "...", "arrays": {...}}'
    curl -s -X POST localhost:8923/lint -d '{"source": "..."}'
    curl -s localhost:8923/metrics

``POST /lint`` compiles the source exactly the way the mp backend would
and returns the chunk-safety verifier's structured findings
(:mod:`repro.lint`, schema ``repro.lint/v1``); an options block with
``"transforms": "fission,reduction"`` runs the parallelism-recovery
passes first and adds their FISS001/FISS002/RED001 findings.
``POST /compile`` accepts the same ``transforms`` option, and mp runs
of such programs report a ``reductions`` dispatch count.  ``POST /run`` accepts a
``safety`` option (``"off"``/``"warn"``/``"enforce"``/``"speculate"``);
an enforce or speculate run whose every dispatch is refused degrades to
the serial build with the refusal reason in the response — decided
before any worker pool is leased, so it forks no fleet — and a
speculate run reports its inspector outcomes (inspected /
proven_dynamic / certificates, each certificate an
:class:`~repro.runtime.inspector.InspectionResult` as a dict) in a
``speculate`` block.

``POST /compile`` with ``backend="mp"`` also *pre-warms* the native chunk
kernels for every dispatchable loop of the program — gcc runs at compile
time, content-addressed into the artifact cache, so the first ``/run``
resolves each kernel as a cache hit instead of paying compile latency.

``POST /run`` speaks two transports, negotiated per request (JSON stays
the compatibility default):

- **json** — each array is a typed buffer
  (``{"dtype": "<f8", "shape": [...], "base64": "..."}``, the raw bytes;
  :func:`repro.wire.array_from_buffer` checks it as a wire frame's header
  is checked, and anything else is a 400) or a nested list with
  ``array_dtypes`` tags (the caller's dtype survives the round trip) and
  RFC-safe non-finite encoding (NaN/Inf travel as sentinel strings,
  never as bare tokens).  One request uses one form — mixing them is a
  400 — and the reply's arrays come back in that form.
  ``ServiceClient`` sends buffers; lists are for hand-written bodies.
- **wire** — ``Content-Type: application/x-repro-wire`` request bodies
  carry a :mod:`repro.wire` binary frame.  Nothing buffers the frame:
  the header is read first, each payload is ``readinto`` the leased warm
  pool's shm segment directly from the socket, and the response frame
  (when the client accepts one) is written from those segments
  with one ``sendall`` per payload.

Either way a ``/run`` reply carries only the arrays the compiled
procedure stores to — every array that is the target of a store
anywhere in it, guarded or not, fixed at ``/compile`` — with their
``array_dtypes`` (a JSON reply has them in either form); an array it
only reads is not sent back.  A client
that wants every name back fills the others in from its own request
(``ServiceClient.run`` does).  The cluster router relays the reply as
it is, synchronous or through ``/result``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import math
import signal
import sys
import threading
import time
from collections import OrderedDict
from dataclasses import asdict, dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Mapping

import numpy as np

from repro import wire
from repro.api import lower_and_coalesce
from repro.cache import artifact_key, resolve_cache
from repro.codegen.pygen import CompiledProcedure, compile_procedure
from repro.ir.printer import to_source
from repro.ir.visitor import stored_arrays
from repro.parallel.counter import resolve_policy
from repro.parallel.errors import ParallelDispatchError, ParallelError
from repro.parallel.observe import (
    TransportCounters,
    metrics_snapshot,
    record_fallback,
)
from repro.parallel.plan import prepare, prewarm
from repro.parallel.pool import WorkerPool, resolve_workers
from repro.parallel.runtime import (
    _claim_batch_is_derived,
    resolve_safety,
    resolve_timeout,
    run_parallel_procedure,
)
from repro.runtime.interp import InterpreterError
from repro.scheduling.policies import ChunkSelfScheduled
from repro.transforms.fission import FissionResult

DEFAULT_PORT = 8923

#: The engines a /compile or /run may name.
BACKENDS = ("python", "mp", "c")

#: The most workers one /run may ask for: a warm pool forks that many
#: processes, and the count comes from outside.
MAX_RUN_WORKERS = 64

#: /compile options forwarded to the pipeline, with their defaults.
PIPELINE_OPTIONS = {
    "style": "ceiling",
    "depth": None,
    "distribute": True,
    "analyze": True,
    "triangular": False,
    "transforms": None,
}

#: /lint options forwarded to :func:`repro.lint.engine.lint_source`.
LINT_OPTIONS = {
    "style": "ceiling",
    "depth": None,
    "triangular": False,
    "transforms": None,
}


class RequestError(Exception):
    """A client error: maps to an HTTP 4xx with a JSON body.

    ``headers`` carries extra response headers — the cluster router uses
    it for ``Retry-After`` on 429 admission rejections.
    """

    def __init__(
        self,
        status: int,
        message: str,
        headers: dict[str, str] | None = None,
    ) -> None:
        super().__init__(message)
        self.status = status
        self.headers = dict(headers or {})


@dataclass
class CompiledProgram:
    """One compiled entry in the server's in-memory program registry."""

    key: str
    proc: object
    results: list
    backend: str
    from_cache: bool
    compile_s: float
    serial: CompiledProcedure
    #: The arrays the procedure stores to (:func:`stored_arrays`), all a
    #: /run reply carries.
    written: tuple[str, ...]
    cbackend: object | None = None  # CProcedure when backend == "c"
    #: Native chunk kernels compiled (or cache-hit) at /compile time for
    #: the mp backend, so the first /run never pays gcc latency.
    warm_kernels: int = 0

    def describe(self) -> dict:
        transforms = [r for r in self.results if isinstance(r, FissionResult)]
        out = {
            "key": self.key,
            "name": self.proc.name,
            "backend": self.backend,
            "cached": self.from_cache,
            "compile_s": round(self.compile_s, 6),
            "coalesced_nests": len(self.results) - len(transforms),
            "loop_source": to_source(self.proc),
            "arrays": dict(self.proc.arrays),
            "scalars": list(self.proc.scalars),
            "warm_kernels": self.warm_kernels,
        }
        if transforms:
            out["transforms"] = {
                "summary": [
                    line for r in transforms for line, _ in r.sections()
                ],
                "findings": [
                    f.to_dict() for r in transforms for f in r.findings
                ],
            }
        return out


class _WarmPool:
    """A resident worker fleet plus the lock that serializes runs on it."""

    def __init__(self, pool: WorkerPool) -> None:
        self.pool = pool
        self.lock = threading.Lock()


class PoolRegistry:
    """Warm :class:`WorkerPool` per (workers, array-shape signature).

    ``lease`` hands out a pool with its per-pool lock held, creating (and
    LRU-evicting idle) pools as needed.  A pool that breaks during a run
    is closed and dropped, so the next request with that shape gets a
    fresh fleet.
    """

    def __init__(self, max_pools: int = 4) -> None:
        self.max_pools = max_pools
        self._pools: OrderedDict[tuple, _WarmPool] = OrderedDict()
        self._lock = threading.Lock()

    @staticmethod
    def signature(workers: int, arrays: Mapping[str, np.ndarray]) -> tuple:
        return (
            workers,
            tuple(
                sorted(
                    (name, tuple(a.shape), str(a.dtype))
                    for name, a in arrays.items()
                )
            ),
        )

    def _evict_idle(self) -> None:
        """Drop oldest idle pools until under budget (soft cap: busy pools
        are never evicted, so a burst of distinct shapes may exceed it)."""
        for sig in list(self._pools):
            if len(self._pools) < self.max_pools:
                break
            wp = self._pools[sig]
            if wp.lock.acquire(blocking=False):
                try:
                    del self._pools[sig]
                    wp.pool.close()
                finally:
                    wp.lock.release()

    @contextlib.contextmanager
    def lease(self, workers: int, arrays: Mapping[str, np.ndarray]):
        sig = self.signature(workers, arrays)
        with self._lock:
            wp = self._pools.get(sig)
            if wp is None:
                self._evict_idle()
                wp = _WarmPool(WorkerPool(arrays, workers=workers))
                self._pools[sig] = wp
            else:
                self._pools.move_to_end(sig)
        with wp.lock:
            try:
                yield wp.pool
            finally:
                if wp.pool.broken:
                    with self._lock:
                        if self._pools.get(sig) is wp:
                            del self._pools[sig]
                    wp.pool.close()

    def __len__(self) -> int:
        with self._lock:
            return len(self._pools)

    def close_all(self, force: bool = False) -> None:
        """Close every pool.  ``force=True`` (the shutdown-deadline path)
        waits only briefly for a busy pool's run to finish before closing
        it anyway — the run fails, but the shm segments get unlinked."""
        with self._lock:
            pools, self._pools = list(self._pools.values()), OrderedDict()
        for wp in pools:
            locked = wp.lock.acquire(timeout=2.0 if force else -1)
            try:
                wp.pool.close()
            finally:
                if locked:
                    wp.lock.release()


class AccountingHTTPServer(ThreadingHTTPServer):
    """The server side of :class:`JsonRequestHandler`'s contract.

    The handler counts requests, errors and bytes, and brackets every
    request with ``begin_request``/``end_request``; this base owns those
    counters and the in-flight tally (what :meth:`drain` waits on during
    graceful shutdown) for both HTTP front doors — :class:`ReproServer`
    and :class:`repro.cluster.router.ClusterRouter`.
    """

    daemon_threads = True

    def __init__(
        self,
        address: tuple[str, int],
        handler: type[BaseHTTPRequestHandler],
        counters: tuple[str, ...],
        verbose: bool = False,
    ) -> None:
        super().__init__(address, handler)
        self.verbose = verbose
        self.counters = dict.fromkeys(counters, 0)
        #: Run requests by transport (json / wire).
        self.transport = TransportCounters()
        self._state_lock = threading.Lock()
        self._started = time.monotonic()
        self._inflight = 0

    @property
    def port(self) -> int:
        return self.server_address[1]

    def bump(self, name: str, by: int = 1) -> None:
        with self._state_lock:
            self.counters[name] += by

    def bump_transport(self, transport: str) -> None:
        with self._state_lock:
            self.transport.bump(transport)

    @property
    def inflight(self) -> int:
        with self._state_lock:
            return self._inflight

    def begin_request(self) -> None:
        with self._state_lock:
            self._inflight += 1

    def end_request(self) -> None:
        with self._state_lock:
            self._inflight -= 1

    def drain(self, deadline_s: float = 5.0) -> bool:
        """Wait for in-flight requests to finish (post-``shutdown()``).

        The listener is already closed, so no new work arrives; this
        blocks until every handler thread has written its response or the
        deadline passes.  Returns True when fully drained.
        """
        t0 = time.monotonic()
        while self.inflight > 0 and time.monotonic() - t0 < deadline_s:
            time.sleep(0.02)
        return self.inflight == 0


class ReproServer(AccountingHTTPServer):
    """The resident compile-and-run service."""

    def __init__(
        self,
        address: tuple[str, int] = ("127.0.0.1", 0),
        cache: object = "default",
        max_pools: int = 4,
        verbose: bool = False,
    ) -> None:
        super().__init__(
            address,
            _Handler,
            (
                "requests", "compiles", "compile_cache_hits", "runs",
                "lints", "errors", "bytes_in", "bytes_out",
            ),
            verbose,
        )
        self.cache = resolve_cache(cache)
        self.programs: dict[str, CompiledProgram] = {}
        self.pools = PoolRegistry(max_pools)

    def server_metrics(self) -> dict:
        with self._state_lock:
            counters = dict(self.counters)
            transport = asdict(self.transport)
            inflight = self._inflight
        return {
            "uptime_s": round(time.monotonic() - self._started, 3),
            "programs": len(self.programs),
            "warm_pools": len(self.pools),
            "inflight": inflight,
            "transport": transport,
            **counters,
        }

    def close(self, force: bool = False) -> None:
        self.pools.close_all(force=force)
        self.server_close()

    # -- request logic (handler methods delegate here) --------------------
    def handle_compile(self, body: dict) -> dict:
        source, frontend, options = _source_request(body, PIPELINE_OPTIONS)
        backend = body.get("backend", "python")
        if backend not in BACKENDS:
            raise RequestError(400, f"unknown backend {backend!r}")

        t0 = time.perf_counter()
        try:
            _, proc, results, from_cache = lower_and_coalesce(
                source, frontend=frontend, cache=self.cache, **options
            )
        except RequestError:
            raise
        except Exception as exc:
            raise RequestError(400, f"compile failed: {exc}") from exc
        key = artifact_key(
            "program",
            source=source,
            frontend=frontend,
            backend=backend,
            **options,
        )
        cbackend = None
        if backend == "c":
            from repro.codegen.cload import (
                CCompileError,
                compile_c_procedure,
                have_compiler,
            )

            if not have_compiler():
                raise RequestError(400, "backend 'c' needs a gcc on PATH")
            try:
                cbackend = compile_c_procedure(proc, cache=self.cache)
            except CCompileError as exc:
                raise RequestError(400, f"C compile failed: {exc}") from exc
            from_cache = from_cache and cbackend.from_cache
        warm_kernels = 0
        if backend == "mp":
            # Every build the first /run's plan can pick, through the plan
            # builder's kernel path: that run finds them in the store.
            warm_kernels = prewarm(proc, self.cache)
        program = CompiledProgram(
            key=key,
            proc=proc,
            results=results,
            backend=backend,
            from_cache=from_cache,
            compile_s=time.perf_counter() - t0,
            serial=compile_procedure(proc),
            written=stored_arrays(proc),
            cbackend=cbackend,
            warm_kernels=warm_kernels,
        )
        with self._state_lock:
            self.programs[key] = program
        self.bump("compiles")
        if from_cache:
            self.bump("compile_cache_hits")
        return program.describe()

    def handle_lint(self, body: dict) -> dict:
        source, frontend, options = _source_request(body, LINT_OPTIONS)
        from repro.lint.engine import lint_source

        try:
            report = lint_source(
                source, frontend=frontend, cache=self.cache, **options
            )
        except RequestError:
            raise
        except Exception as exc:
            raise RequestError(400, f"lint failed: {exc}") from exc
        self.bump("lints")
        return report.to_dict()

    @contextlib.contextmanager
    def serve_run(self, body: dict, frame: wire.FrameReader | None = None):
        """Serve one run over either transport.

        Yields ``(stats, arrays, buffered)``: the response body without
        its arrays, the arrays the program writes (``program.written``),
        and whether a JSON request sent typed buffers, for the caller to
        encode in the transport and form the client used.
        ``frame`` is a wire request whose header has been read and whose
        payloads are still on the socket: on the mp backend they are read
        straight into the leased pool's shm segments, the run executes
        there, and the yield happens with the lease still held, so the
        response is written from those same segments — no request or
        response frame ever exists as one buffer.  A run its plan refuses
        leases no pool: it runs the serial build.
        """
        key = body.get("key")
        program = self.programs.get(key) if isinstance(key, str) else None
        if program is None:
            raise RequestError(
                404, f"unknown program key {key!r} (POST /compile first)"
            )
        proc = program.proc
        with contextlib.ExitStack() as stack:
            if frame is not None:
                transport, buffered = "wire", False
                # Shapes and dtypes only: the payload bytes are unread.
                arrays = _check_wire_arrays(frame.placeholders(), proc)
            elif body.get("transport") in (None, "json"):
                transport = "json"
                arrays, buffered = _decode_arrays(
                    body.get("arrays"), proc, body.get("array_dtypes")
                )
            else:
                raise RequestError(
                    400,
                    f"unknown 'transport' {body.get('transport')!r}: json "
                    "is the only JSON-body transport; binary uses "
                    f"Content-Type: {wire.CONTENT_TYPE}",
                )
            scalars = _decode_scalars(body.get("scalars"), proc)
            backend, workers, run_kwargs = _run_options(body, program)
            pool = None
            try:
                leases = backend == "mp" and not _refused(
                    proc, arrays, scalars, run_kwargs
                )
                if leases and frame is not None:
                    pool = stack.enter_context(
                        self.pools.lease(workers, arrays)
                    )
                    frame.read_into(pool.views)
                    arrays = pool.views
                elif frame is not None:
                    arrays = frame.read_arrays()
                t0 = time.perf_counter()
                if pool is not None:
                    engine, stats = self._exec_mp(
                        program, arrays, scalars, run_kwargs, pool,
                        preloaded=True,
                    )
                elif leases:
                    with self.pools.lease(workers, arrays) as pool:
                        engine, stats = self._exec_mp(
                            program, arrays, scalars, run_kwargs, pool,
                            preloaded=False,
                        )
                elif backend == "mp":
                    # Refused: the driver raises before it makes a pool.
                    engine, stats = self._exec_mp(
                        program, arrays, scalars, run_kwargs, None,
                        preloaded=False,
                    )
                else:
                    if backend == "c" and program.cbackend is not None:
                        try:
                            program.cbackend.run(arrays, scalars)
                        except TypeError as exc:
                            # The C engine's typed arguments: the message
                            # names the array or scalar it cannot take.
                            raise RequestError(
                                400, f"run failed: {exc}"
                            ) from exc
                        engine = "c"
                    else:
                        program.serial.run(arrays, scalars)
                        engine = "serial"
                    stats = {}
            except RequestError:
                raise
            except wire.WireFormatError as exc:
                raise RequestError(400, f"bad wire frame: {exc}") from exc
            except (ParallelError, ValueError, IndexError, InterpreterError) as exc:
                # IndexError: the serial engine's subscript past an extent;
                # InterpreterError: an mp run's serial loop on the data.
                raise RequestError(400, f"run failed: {exc}") from exc
            self.bump("runs")
            self.bump_transport(transport)
            stats = {
                "key": key,
                "engine": engine,
                "transport": transport,
                "wall_s": round(time.perf_counter() - t0, 6),
                **stats,
            }
            written = {name: arrays[name] for name in program.written}
            yield stats, written, buffered

    def _exec_mp(
        self, program, arrays, scalars, run_kwargs, pool, preloaded
    ) -> tuple[str, dict]:
        """One mp-backend run on a leased pool (None: a run its plan
        refuses), with the serial fallback."""
        try:
            result = run_parallel_procedure(
                program.proc,
                arrays,
                scalars,
                pool=pool,
                preloaded=preloaded,
                **run_kwargs,
            )
        except ParallelDispatchError as exc:
            # Nothing dispatchable (or safety=enforce refused every
            # dispatch): degrade exactly like backend="mp" in-process —
            # run the serial build, say why.
            record_fallback()
            program.serial.run(arrays, scalars)
            return (
                "serial-fallback",
                {"fallback_reason": f"{type(exc).__name__}: {exc}"},
            )
        return "mp-pool", result.to_dict()


def _source_request(body, defaults) -> tuple[str, str, dict]:
    """``(source, frontend, options)`` of a /compile or /lint body, the
    options being ``defaults`` overridden by the body's ``options``."""
    source = body.get("source")
    if not isinstance(source, str) or not source.strip():
        raise RequestError(400, "body must carry a non-empty 'source'")
    frontend = body.get("frontend", "auto")
    if frontend == "auto":
        frontend = (
            "dsl" if source.lstrip().startswith("procedure") else "python"
        )
    if frontend not in ("python", "dsl"):
        raise RequestError(400, f"unknown frontend {frontend!r}")
    options = dict(defaults)
    for name, value in (body.get("options") or {}).items():
        if name not in options:
            raise RequestError(400, f"unknown option {name!r}")
        options[name] = value
    return source, frontend, options


def _refused(proc, arrays, scalars, run_kwargs) -> bool:
    """Whether the plan of this mp run refuses it: nothing dispatchable,
    or a safety mode that blocks every loop.  The plan keys on dtypes
    and ranks, so a wire frame's placeholders answer before any payload
    is read or any pool leased; the run itself then meets the same plan."""
    kw = run_kwargs
    try:
        plan = prepare(
            proc, arrays, scalars, kw["safety"], kw["policy"], kw["chunk"],
            kw["workers"],
        )
    except ParallelDispatchError:
        return True
    return plan.refusal is not None


def _run_options(body, program) -> tuple[str, int, dict]:
    """``(backend, workers, run_parallel_procedure keywords)`` of a run."""
    backend = body.get("backend", program.backend)
    if backend not in BACKENDS:
        raise RequestError(400, f"unknown backend {backend!r}")
    try:
        # Checked before any pool is leased: a pool is keyed (and a
        # fleet of that size forked) by this value.
        workers = resolve_workers(body.get("workers", 4))
    except ValueError as exc:
        raise RequestError(400, str(exc)) from None
    if workers > MAX_RUN_WORKERS:
        raise RequestError(
            400, f"workers must be <= {MAX_RUN_WORKERS} (got {workers})"
        )
    for retired in (
        "variants", "calibrate", "shm_arrays", "chunk_lang", "log_events",
    ):
        if retired in body:
            raise RequestError(400, f"{retired!r} is not a /run option")
    policy, chunk = body.get("policy", "gss"), body.get("chunk")
    try:  # each message names its field
        if chunk is not None:
            ChunkSelfScheduled(chunk=chunk)
        resolve_policy(policy if isinstance(policy, str) else repr(policy))
    except ValueError as exc:
        raise RequestError(400, str(exc)) from exc
    try:
        timeout = resolve_timeout(body.get("timeout"))
        _claim_batch_is_derived(body.get("claim_batch", "auto"))
        safety = resolve_safety(body.get("safety"))
    except ValueError as exc:
        raise RequestError(400, str(exc)) from exc
    return backend, workers, dict(
        workers=workers,
        policy=policy,
        chunk=chunk,
        timeout=timeout,
        log_events=False,  # no /run reply carries claim events
        safety=safety,
    )


def _decode_arrays(
    raw, proc, dtypes=None
) -> tuple[dict[str, np.ndarray], bool]:
    """JSON array payload → ``(ndarrays matching the procedure, buffered)``.

    Every array of one request takes one form, and ``buffered`` says
    which; a request that mixes them is a 400.  A typed buffer
    (:func:`repro.wire.array_from_buffer`) carries its own dtype, so
    ``array_dtypes`` with buffers is a 400 too.  For float lists,
    ``dtypes`` is the optional ``array_dtypes`` tag block
    (``{name: numpy dtype string}``) that lets a caller's dtype survive
    the JSON round trip; untagged arrays keep the historical float64
    default.  Sentinel-encoded non-finite entries (``"NaN"`` etc., see
    :func:`repro.wire.array_from_json`) decode back to floats.
    """
    raw = raw or {}
    if not isinstance(raw, dict):
        raise RequestError(400, "'arrays' must be an object of name -> data")
    forms = {isinstance(value, dict) for value in raw.values()}
    if len(forms) > 1:
        raise RequestError(
            400, "'arrays' mixes typed buffers and lists: use one form"
        )
    buffered = forms == {True}
    if buffered and dtypes is not None:
        raise RequestError(
            400,
            "'array_dtypes' tags float lists only: a typed buffer carries "
            "its own dtype",
        )
    if dtypes is None:
        dtypes = {}
    if not isinstance(dtypes, dict):
        raise RequestError(
            400, "'array_dtypes' must be an object of name -> dtype string"
        )
    out: dict[str, np.ndarray] = {}
    for name, rank in proc.arrays.items():
        if name not in raw:
            raise RequestError(400, f"missing array {name!r}")
        if buffered:
            try:
                arr = wire.array_from_buffer(name, raw[name])
            except wire.WireFormatError as exc:
                raise RequestError(400, f"bad typed buffer: {exc}") from exc
        else:
            arr = _list_array(name, raw[name], dtypes.get(name, "<f8"))
        if arr.ndim != rank:
            raise RequestError(
                400, f"array {name!r}: rank {rank} expected, got {arr.ndim}"
            )
        out[name] = arr
    extra = set(raw) - set(out)
    if extra:
        raise RequestError(400, f"unknown arrays: {sorted(extra)}")
    return out, buffered


def _list_array(name: str, data, tag) -> np.ndarray:
    """One float-list array, in the dtype its ``array_dtypes`` tag names."""
    try:
        dtype = np.dtype(tag)
    except (TypeError, ValueError) as exc:
        raise RequestError(
            400, f"array {name!r}: bad dtype tag {tag!r}"
        ) from exc
    if dtype.hasobject:
        raise RequestError(
            400, f"array {name!r}: object dtypes are not servable"
        )
    try:
        arr = wire.array_from_json(data, dtype)
    except (TypeError, ValueError) as exc:
        raise RequestError(400, f"array {name!r}: {exc}") from exc
    return np.ascontiguousarray(arr)


def _check_wire_arrays(views, proc) -> dict[str, np.ndarray]:
    """Validate a wire frame's decoded views against the procedure."""
    missing = set(proc.arrays) - set(views)
    if missing:
        raise RequestError(400, f"missing arrays: {sorted(missing)}")
    extra = set(views) - set(proc.arrays)
    if extra:
        raise RequestError(400, f"unknown arrays: {sorted(extra)}")
    for name, rank in proc.arrays.items():
        if views[name].ndim != rank:
            raise RequestError(
                400,
                f"array {name!r}: rank {rank} expected, "
                f"got {views[name].ndim}",
            )
    return dict(views)


def _decode_scalars(raw, proc) -> dict[str, int | float]:
    raw = raw or {}
    if not isinstance(raw, dict):
        raise RequestError(400, "'scalars' must be an object of name -> value")
    out: dict[str, int | float] = {}
    for name in proc.scalars:
        if name not in raw:
            raise RequestError(400, f"missing scalar {name!r}")
        given = value = raw[name]
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise RequestError(
                400, f"scalar {name!r} must be a number (got {given!r})"
            )
        if isinstance(value, float):
            if not math.isfinite(value):
                raise RequestError(
                    400, f"scalar {name!r} must be finite (got {given!r})"
                )
            if value.is_integer():
                value = int(value)
        if isinstance(value, int) and not -(2**63) <= value < 2**63:
            # Kernels take integer scalars as int64.
            raise RequestError(
                400,
                f"scalar {name!r} is outside the int64 range (got {given!r})",
            )
        out[name] = value
    return out


class _RequestBody:
    """A request body as a bounded stream over the connection.

    Reads stop at ``Content-Length``, every byte read is counted into the
    server's ``bytes_in`` as it arrives (so a ``/metrics`` read right
    after the response already sees it), and whatever a route leaves
    unread is drained afterwards in bounded chunks — keep-alive hygiene:
    left in the socket, those bytes would prefix the connection's next
    request.  A read that stalls past the handler's socket timeout is a
    408.
    """

    def __init__(self, rfile, length: int, count) -> None:
        self._rfile = rfile
        self._count = count
        self.left = length

    def readinto(self, buf) -> int:
        view = memoryview(buf).cast("B")[: self.left]
        try:
            n = self._rfile.readinto(view) if view else 0
        except TimeoutError as exc:
            raise _stalled(self.left) from exc
        self.left -= n
        self._count(n)
        return n

    def read(self) -> bytes:
        try:
            raw = self._rfile.read(self.left) if self.left else b""
        except TimeoutError as exc:
            raise _stalled(self.left) from exc
        self.left -= len(raw)
        self._count(len(raw))
        return raw

    def drain(self) -> bool:
        """Discard the rest; False when the peer hung up first."""
        buf = bytearray(min(self.left, 1 << 16))
        while self.left:
            if not self.readinto(buf):
                return False
        return True


def _stalled(left: int) -> RequestError:
    return RequestError(
        408, f"request body stalled with {left} bytes still to come"
    )


class JsonRequestHandler(BaseHTTPRequestHandler):
    """JSON-in/JSON-out handler plumbing shared by server and router.

    Subclasses implement ``_route(method)``; this base provides response
    encoding, body decoding, error mapping (:class:`RequestError` → 4xx
    JSON, anything else → 500 with a traceback), quiet logging, and
    in-flight request accounting against the owning server (what
    :meth:`ReproServer.drain` waits on during graceful shutdown).
    """

    server_version = "repro-serve"
    protocol_version = "HTTP/1.1"
    #: TCP_NODELAY on accepted sockets: responses are written as a few
    #: small segments (status line, headers, body); Nagle would park the
    #: last one behind the client's delayed ACK (~40ms per exchange).
    disable_nagle_algorithm = True
    #: Seconds one socket read or write may stall before the connection
    #: is dropped.  A wire ``/run`` reads its payloads into, and writes
    #: its result from, a leased pool's segments, so a client that stops
    #: sending or reading mid-frame must not hold that pool for good.
    timeout = 60.0

    def log_message(self, fmt, *args):  # noqa: N802 - stdlib name
        if getattr(self.server, "verbose", False):
            super().log_message(fmt, *args)

    def _send_parts(
        self,
        status: int,
        parts: list,
        content_type: str,
        headers: dict[str, str] | None = None,
    ) -> None:
        """One response whose body is ``parts`` (bytes-like), each
        written as it is — a wire frame's payloads straight from the
        arrays they live in."""
        self._responded = True
        total = sum(len(part) for part in parts)
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(total))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        # Counted before the write: a client that reads ``/metrics`` (or a
        # test that reads the counters) right after this response must
        # already see it.
        self.server.bump("bytes_out", total)
        for part in parts:
            self.wfile.write(part)

    def _send(
        self,
        status: int,
        payload: dict,
        headers: dict[str, str] | None = None,
    ) -> None:
        # allow_nan=False: a non-finite float reaching this point is a
        # server bug (array payloads sentinel-encode NaN/Inf) — fail
        # loudly instead of emitting non-RFC JSON.
        data = json.dumps(payload, allow_nan=False).encode("utf-8")
        self._send_parts(status, [data], "application/json", headers)

    def _read_body(self) -> bytes:
        return self._request_body.read()

    def _body(self) -> dict:
        return self._parse_body(self._read_body())

    def _parse_body(self, raw: bytes) -> dict:
        if not raw:
            raise RequestError(400, "empty request body (JSON expected)")
        try:
            body = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise RequestError(400, f"invalid JSON body: {exc}") from exc
        if not isinstance(body, dict):
            raise RequestError(400, "JSON body must be an object")
        return body

    # -- transport negotiation --------------------------------------------
    def _content_type(self) -> str:
        raw = self.headers.get("Content-Type") or ""
        return raw.split(";", 1)[0].strip().lower()

    def _wire_request(self) -> bool:
        return self._content_type() == wire.CONTENT_TYPE

    def _wants_wire(self, default: bool) -> bool:
        """Response-encoding negotiation from the ``Accept`` header.

        An explicit wire Accept wins; an explicit JSON-only Accept turns
        a wire request into a JSON response; otherwise requests answer in
        the content type they arrived in (``default``).
        """
        accept = (self.headers.get("Accept") or "").lower()
        if wire.CONTENT_TYPE in accept:
            return True
        if "application/json" in accept:
            return False
        return default

    def _frame(self) -> wire.FrameReader:
        """A binary request's frame, header read, payloads still unread."""
        body = self._request_body
        if not body.left:
            raise RequestError(400, "empty request body (wire frame expected)")
        try:
            return wire.FrameReader(body, body.left)
        except wire.WireFormatError as exc:
            raise RequestError(400, f"bad wire frame: {exc}") from exc

    def _route(self, method: str) -> None:
        raise NotImplementedError

    def _dispatch(self, method: str) -> None:
        server = self.server
        server.bump("requests")
        server.begin_request()
        try:
            length = max(0, int(self.headers.get("Content-Length") or 0))
        except ValueError:
            length = 0
            self.close_connection = True  # the body's extent is unknown
        self._request_body = _RequestBody(
            self.rfile, length, lambda n: server.bump("bytes_in", n)
        )
        self._responded = False
        try:
            self._route(method)
        except Exception as exc:
            server.bump("errors")
            if self._responded:
                # Failed mid-response (the client went away, say): the
                # stream is past repair, so end the connection.
                self.close_connection = True
            elif isinstance(exc, RequestError):
                self._send(
                    exc.status, {"error": str(exc)}, headers=exc.headers
                )
            else:
                import traceback

                self._send(
                    500,
                    {"error": "internal error", "detail": traceback.format_exc()},
                )
        finally:
            try:
                if not self._request_body.drain():
                    self.close_connection = True
            except (OSError, RequestError):  # the client went away or stalled
                self.close_connection = True
            server.end_request()

    def do_GET(self):  # noqa: N802 - stdlib name
        self._dispatch("GET")

    def do_POST(self):  # noqa: N802 - stdlib name
        self._dispatch("POST")


class _Handler(JsonRequestHandler):
    """Routes requests to the server's handle_* methods."""

    def _route(self, method: str) -> None:
        server: ReproServer = self.server  # type: ignore[assignment]
        if method == "GET" and self.path == "/healthz":
            self._send(200, {"status": "ok", **server.server_metrics()})
        elif method == "GET" and self.path == "/metrics":
            self._send(
                200,
                metrics_snapshot(
                    cache=server.cache, server=server.server_metrics()
                ),
            )
        elif method == "POST" and self.path == "/compile":
            self._send(200, server.handle_compile(self._body()))
        elif method == "POST" and self.path == "/run":
            if self._wire_request():
                frame = self._frame()
                run = server.serve_run(frame.body, frame)
                want_wire = self._wants_wire(default=True)
            else:
                run = server.serve_run(self._body())
                want_wire = self._wants_wire(default=False)
            with run as (stats, arrays, buffered):
                self._send_run(stats, arrays, want_wire, buffered)
        elif method == "POST" and self.path == "/lint":
            self._send(200, server.handle_lint(self._body()))
        else:
            raise RequestError(404, f"no route {method} {self.path}")

    def _send_run(
        self, stats: dict, arrays: dict, want_wire: bool, buffered: bool
    ) -> None:
        """Encode a run result for the transport the client negotiated,
        and a JSON one in the array form its request used."""
        if want_wire:
            self._send_parts(
                200, wire.frame_parts(stats, arrays), wire.CONTENT_TYPE
            )
        else:
            encode = wire.jsonable_buffer if buffered else wire.jsonable_array
            stats["arrays"] = {name: encode(a) for name, a in arrays.items()}
            stats["array_dtypes"] = wire.dtype_tags(arrays)
            self._send(200, stats)


def serve_background(
    host: str = "127.0.0.1",
    port: int = 0,
    cache: object = "default",
    max_pools: int = 4,
) -> tuple[ReproServer, threading.Thread]:
    """Start a server on a daemon thread (tests, selfcheck, notebooks).

    Returns ``(server, thread)``; ``server.port`` carries the bound port.
    Stop with ``server.shutdown(); server.close()``.
    """
    server = ReproServer((host, port), cache=cache, max_pools=max_pools)
    thread = threading.Thread(
        target=server.serve_forever, name="repro-serve", daemon=True
    )
    thread.start()
    return server, thread


def install_shutdown_handlers(server: ReproServer) -> threading.Event:
    """SIGTERM/SIGINT → stop accepting work (must run on the main thread).

    The handler fires ``server.shutdown()`` from a helper thread (calling
    it inline would deadlock: the signal interrupts the main thread, which
    is the one running ``serve_forever``).  The caller then drains
    in-flight requests with a deadline and closes the server — pool
    close unlinks every shm segment, so a SIGTERM mid-run leaks nothing.
    Returns the event the handler sets, for "was I signalled" checks.
    """
    stopping = threading.Event()

    def _handler(signum: int, frame: object) -> None:
        if stopping.is_set():  # second signal: give up on draining
            raise SystemExit(128 + signum)
        stopping.set()
        threading.Thread(
            target=server.shutdown, name="repro-shutdown", daemon=True
        ).start()

    signal.signal(signal.SIGTERM, _handler)
    signal.signal(signal.SIGINT, _handler)
    return stopping


def pin_malloc_thresholds() -> None:
    """Fix glibc's ``mmap``/trim thresholds for the cluster router process.

    The router holds whole frames: a wire ``/run``'s request body (kept
    so a job whose replica crashed can be re-sent) and the replica's
    reply blob — 16 MiB each for two 1Mi-element float64 arrays.  glibc
    adjusts ``M_MMAP_THRESHOLD`` and the trim threshold *dynamically*
    from the sizes it sees freed, so depending on where start-up
    allocations landed a process either recycles those buffers from its
    heap or ``mmap``s and ``munmap``s them on every request (≈12 000
    faults, ≈30 ms of system time).  Setting either threshold switches
    the adjustment off; 32 MiB is the largest ``M_MMAP_THRESHOLD`` glibc
    accepts, and a 1 GiB trim threshold keeps the recycled pages mapped.

    Called first thing in ``repro cluster``'s main only: ``repro serve``
    and the replicas stream wire payloads and hold no such buffer, and an
    in-process ``serve_background`` leaves allocator policy to its host
    application.  Silently a no-op where ``mallopt`` does not exist.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
    mallopt(-1, 1 << 30)  # M_TRIM_THRESHOLD


def serve_main(argv: list[str] | None = None) -> int:
    """``python -m repro serve`` entry point."""
    parser = argparse.ArgumentParser(
        prog="repro serve",
        description="Start the repro compile-and-run HTTP server",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=DEFAULT_PORT)
    parser.add_argument(
        "--cache-dir",
        metavar="DIR",
        default=None,
        help="root of the artifact cache "
        "(default: $REPRO_CACHE_DIR or ~/.cache/repro)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="serve without the on-disk artifact cache",
    )
    parser.add_argument(
        "--max-pools",
        type=int,
        default=4,
        help="warm worker pools kept resident (per workers x shape)",
    )
    parser.add_argument(
        "--drain-s",
        type=float,
        default=5.0,
        help="graceful-shutdown deadline: seconds to wait for in-flight "
        "requests after SIGTERM/SIGINT before force-closing pools",
    )
    parser.add_argument("--verbose", action="store_true")
    args = parser.parse_args(argv)
    if args.no_cache:
        cache: object = None
    elif args.cache_dir:
        from repro.cache import ArtifactCache

        cache = ArtifactCache(args.cache_dir)
    else:
        cache = "default"
    server = ReproServer(
        (args.host, args.port),
        cache=cache,
        max_pools=args.max_pools,
        verbose=args.verbose,
    )
    cache_line = (
        server.cache.root if server.cache is not None else "disabled"
    )
    print(
        f"repro serve: listening on http://{args.host}:{server.port} "
        f"(cache: {cache_line})",
        file=sys.stderr,
    )
    install_shutdown_handlers(server)
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - handler normally wins
        pass
    drained = server.drain(args.drain_s)
    server.close(force=not drained)
    print(
        f"repro serve: shut down "
        f"({'drained' if drained else 'drain deadline hit, force-closed'})",
        file=sys.stderr,
    )
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(serve_main())
