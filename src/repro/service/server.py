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
an enforce run whose every dispatch is refused degrades to the serial
build with the refusal reason in the response, and a speculate run
reports its per-dispatch dynamic outcomes (inspected / proven_dynamic /
speculated / committed / rolled_back) in a ``speculate`` block.

``POST /compile`` with ``backend="mp"`` also *pre-warms* the native chunk
kernels for every dispatchable loop of the program — gcc runs at compile
time, content-addressed into the artifact cache, so the first ``/run``
resolves each kernel as a cache hit instead of paying compile latency.

``POST /run`` speaks three transports, negotiated per request (JSON stays
the compatibility default):

- **json** — arrays as nested lists, now with ``array_dtypes`` tags (the
  caller's dtype survives the round trip) and RFC-safe non-finite
  encoding (NaN/Inf travel as sentinel strings, never as bare tokens).
- **wire** — ``Content-Type: application/x-repro-wire`` request bodies
  carry a :mod:`repro.wire` binary frame; arrays decode as zero-copy
  ``np.frombuffer`` views loaded straight into the warm pool's shm
  segments, and the response is a wire frame when the client ``Accept``s
  one.
- **shm** — a JSON body with ``"transport": "shm"`` names the *client's*
  shared-memory segments; the server attaches them, runs in place, and
  responds with segment names only — zero array bytes on the socket in
  either direction.  Same-host only (the client gates on the
  ``host_token`` published by ``/healthz``; a failed attach is a 400).
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import signal
import sys
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Mapping

import numpy as np

from repro import wire
from repro.api import lower_and_coalesce
from repro.cache import artifact_key, resolve_cache
from repro.codegen.pygen import CompiledProcedure, compile_procedure
from repro.ir.printer import to_source
from repro.parallel.errors import ParallelDispatchError, ParallelError
from repro.parallel.observe import (
    TransportCounters,
    metrics_snapshot,
    record_fallback,
)
from repro.parallel.pool import WorkerPool
from repro.parallel.runtime import run_parallel_procedure
from repro.parallel.shm import SEGMENT_PREFIX, ArraySpec, attach_array

DEFAULT_PORT = 8923

#: /compile options forwarded to the pipeline, with their defaults.
PIPELINE_OPTIONS = {
    "style": "ceiling",
    "depth": None,
    "distribute": True,
    "analyze": True,
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
    cbackend: object | None = None  # CProcedure when backend == "c"
    #: Native chunk kernels compiled (or cache-hit) at /compile time for
    #: the mp backend, so the first /run never pays gcc latency.
    warm_kernels: int = 0

    def describe(self) -> dict:
        transforms = [r for r in self.results if hasattr(r, "outcomes")]
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
                "summary": [r.summary() for r in transforms],
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
        #: Run requests by transport (json / wire / shm).
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
            transport = self.transport.as_dict()
            inflight = self._inflight
        return {
            "uptime_s": round(time.monotonic() - self._started, 3),
            "programs": len(self.programs),
            "warm_pools": len(self.pools),
            "inflight": inflight,
            "host_token": wire.host_token(),
            "transport": transport,
            **counters,
        }

    def close(self, force: bool = False) -> None:
        self.pools.close_all(force=force)
        self.server_close()

    # -- request logic (handler methods delegate here) --------------------
    def handle_compile(self, body: dict) -> dict:
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
        backend = body.get("backend", "python")
        if backend not in ("python", "mp", "c"):
            raise RequestError(400, f"unknown backend {backend!r}")
        options = dict(PIPELINE_OPTIONS)
        for name, value in (body.get("options") or {}).items():
            if name not in options:
                raise RequestError(400, f"unknown option {name!r}")
            options[name] = value

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
            warm_kernels = _prewarm_chunk_kernels(proc, self.cache)
        program = CompiledProgram(
            key=key,
            proc=proc,
            results=results,
            backend=backend,
            from_cache=from_cache,
            compile_s=time.perf_counter() - t0,
            serial=compile_procedure(proc),
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
        options = {
            "style": "ceiling",
            "depth": None,
            "triangular": False,
            "transforms": None,
        }
        for name, value in (body.get("options") or {}).items():
            if name not in options:
                raise RequestError(400, f"unknown option {name!r}")
            options[name] = value
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

    def handle_run(
        self,
        body: dict,
        wire_views: Mapping[str, np.ndarray] | None = None,
        want_wire: bool = False,
    ) -> dict | bytes:
        """Serve one run over any of the three transports.

        ``wire_views`` carries the zero-copy ``np.frombuffer`` views of a
        binary request (read-only: they are loaded into the warm pool's
        shm segments, never mutated); ``want_wire`` asks for a binary
        response frame (the return value is then ``bytes``).  A JSON body
        with ``"transport": "shm"`` instead names client-owned segments
        to attach and run in place.
        """
        key = body.get("key")
        program = self.programs.get(key) if isinstance(key, str) else None
        if program is None:
            raise RequestError(
                404, f"unknown program key {key!r} (POST /compile first)"
            )
        proc = program.proc
        shm_handles: list = []
        if wire_views is not None:
            transport = "wire"
            arrays = _check_wire_arrays(wire_views, proc)
        elif body.get("transport") == "shm":
            transport = "shm"
            arrays, shm_handles = _attach_shm_arrays(
                body.get("shm_arrays"), proc
            )
        elif body.get("transport") in (None, "json"):
            transport = "json"
            arrays = _decode_arrays(
                body.get("arrays"), proc, body.get("array_dtypes")
            )
        else:
            raise RequestError(
                400,
                f"unknown transport {body.get('transport')!r} "
                "(json and shm are the JSON-body transports; binary uses "
                f"Content-Type: {wire.CONTENT_TYPE})",
            )
        scalars = _decode_scalars(body.get("scalars"), proc)
        backend = body.get("backend", program.backend)
        workers = int(body.get("workers", 4))
        policy = body.get("policy", "gss")
        chunk = body.get("chunk")
        claim_batch = body.get("claim_batch", "auto")
        if claim_batch != "auto":
            try:
                claim_batch = int(claim_batch)
            except (TypeError, ValueError) as exc:
                raise RequestError(
                    400,
                    f"claim_batch must be an int or 'auto' "
                    f"(got {claim_batch!r})",
                ) from exc
        chunk_lang = body.get("chunk_lang", "auto")
        if chunk_lang not in ("auto", "py", "c", "numpy"):
            raise RequestError(
                400,
                "chunk_lang must be 'auto', 'py', 'c', or 'numpy' "
                f"(got {chunk_lang!r})",
            )
        variants = body.get("variants")
        calibrate = body.get("calibrate")
        if calibrate is not None and not isinstance(calibrate, bool):
            raise RequestError(
                400, f"calibrate must be a boolean (got {calibrate!r})"
            )
        timeout = body.get("timeout")
        safety = body.get("safety")
        if safety is not None and safety not in (
            "off", "warn", "enforce", "speculate",
        ):
            raise RequestError(
                400,
                "safety must be 'off', 'warn', 'enforce', or 'speculate' "
                f"(got {safety!r})",
            )

        if chunk_lang in ("auto", "c", "numpy") and any(
            a.dtype != np.float64 for a in arrays.values()
        ):
            # The compiled chunk variants (C kernels, numpy slice chunks)
            # are built for float64; any other served dtype takes the
            # interpreted chunk floor, which is dtype-generic.
            chunk_lang = "py"

        run_kwargs = dict(
            workers=workers,
            policy=policy,
            chunk=chunk,
            claim_batch=claim_batch,
            chunk_lang=chunk_lang,
            timeout=timeout,
            log_events=bool(body.get("log_events", False)),
            safety=safety,
            variants=variants,
            calibrate=calibrate,
        )
        t0 = time.perf_counter()
        response: dict | bytes
        try:
            if backend == "mp" and transport == "wire":
                # Zero-copy ingest: the frombuffer views load straight
                # into the pool's shm segments; the run executes on
                # ``pool.views`` (the request views are read-only) and
                # the response is encoded from the views while the lease
                # is still held.
                with self.pools.lease(workers, arrays) as pool:
                    pool.load(arrays)
                    engine, stats = self._exec_mp(
                        program, pool.views, scalars, run_kwargs,
                        pool, preloaded=True,
                    )
                    response = self._run_response(
                        key, engine, stats, t0, pool.views,
                        transport, want_wire,
                    )
            elif backend == "mp":
                with self.pools.lease(workers, arrays) as pool:
                    engine, stats = self._exec_mp(
                        program, arrays, scalars, run_kwargs,
                        pool, preloaded=False,
                    )
                response = self._run_response(
                    key, engine, stats, t0, arrays, transport, want_wire
                )
            else:
                if transport == "wire":
                    # Serial backends mutate in place; the request views
                    # are read-only, so materialize writable copies.
                    arrays = {n: np.array(v) for n, v in arrays.items()}
                if backend == "c" and program.cbackend is not None:
                    program.cbackend.run(arrays, scalars)
                    engine = "c"
                else:
                    program.serial.run(arrays, scalars)
                    engine = "serial"
                response = self._run_response(
                    key, engine, {}, t0, arrays, transport, want_wire
                )
        except RequestError:
            raise
        except (ParallelError, ValueError) as exc:
            raise RequestError(400, f"run failed: {exc}") from exc
        finally:
            if shm_handles:
                arrays = {}
                for handle in shm_handles:
                    try:
                        handle.close()
                    except BufferError:  # pragma: no cover - defensive
                        pass
        self.bump("runs")
        self.bump_transport(transport)
        return response

    def _exec_mp(
        self, program, arrays, scalars, run_kwargs, pool, preloaded
    ) -> tuple[str, dict]:
        """One mp-backend run on a leased pool, with the serial fallback."""
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
        stats = {
            "dispatches": len(result.dispatches),
            "fork_joins": result.fork_joins,
            "region": result.region,
            "claims": result.claims,
            "lock_ops": result.lock_ops,
            "iterations": result.total_iterations,
            "chunk_lang": result.chunk_lang,
            "claim_loop": result.claim_loop,
            "variants": result.variants,
            "calibrations": result.calibrations,
            "pinned_decisions": result.pinned_decisions,
            "safety": result.safety_mode,
            "blocked_dispatches": result.blocked_dispatches,
            "reductions": result.reductions,
        }
        if result.safety_mode == "speculate":
            stats["speculate"] = {
                "inspected": result.inspected,
                "proven_dynamic": result.proven_dynamic,
                "speculated": result.speculated,
                "committed": result.committed,
                "rolled_back": result.rolled_back,
                "certificates": [c.to_dict() for c in result.certificates],
            }
        return "mp-pool", stats

    def _run_response(
        self, key, engine, stats, t0, arrays, transport, want_wire
    ) -> dict | bytes:
        """Encode a run result for the transport the client negotiated."""
        base = {
            "key": key,
            "engine": engine,
            "transport": transport,
            "wall_s": round(time.perf_counter() - t0, 6),
            **stats,
        }
        if transport == "shm":
            # Results already live in the client's segments; ship names
            # only — zero array bytes on the socket.
            base["shm"] = {"arrays": sorted(arrays)}
            return base
        if want_wire:
            return wire.encode_frame(base, arrays)
        base["arrays"] = {
            name: wire.jsonable_array(a) for name, a in arrays.items()
        }
        base["array_dtypes"] = wire.dtype_tags(arrays)
        return base


def _prewarm_chunk_kernels(proc, cache) -> int:
    """Build the variant farm for every dispatchable loop at /compile time.

    Compiles every available C variant (and generates the numpy chunk)
    with the integer-scalar type signature (what JSON-decoded scalar
    payloads resolve to), content-addressed into the artifact cache — so
    the first /run's kernel resolution is a cache hit, never a compile,
    whichever variant calibration later picks (the claim-loop library,
    which has no per-program content, is resolved alongside the first
    kernel).  Returns the number of builds warmed; failures (no compiler, ineligible shape) warm nothing
    and cost one attempt each.
    """
    from repro.analysis.pdg import recognize_reduction
    from repro.parallel.runtime import (
        _dispatchable_loops,
        _DispatchCaches,
        derive_reduction_dispatch,
    )
    from repro.tuning.variants import available_variants

    caches = _DispatchCaches()
    caches.store = cache
    warmed = 0
    for lp in _dispatchable_loops(proc.body):
        # A recognized reduction dispatches the *derived* strip-mined
        # procedure (partial accumulators), so warm that kernel instead.
        kproc, kloop = proc, lp
        red = recognize_reduction(lp)
        if red is not None and red.scalar not in proc.arrays:
            try:
                plan = derive_reduction_dispatch(proc, lp, red)
            except Exception:
                plan = None
            if plan is not None:
                kproc, kloop = plan.proc, plan.loop
        env = {name: 1 for name in kproc.scalars}
        for variant in available_variants("auto"):
            if variant.lang == "c":
                built = caches.chunk_kernel(
                    kproc, kloop, (), env, variant=variant
                )
            elif variant.lang == "numpy":
                built = caches.numpy_chunk(kproc, kloop, ())
            else:
                continue  # the py chunk needs no warming
            if built is not None:
                warmed += 1
    return warmed


def _decode_arrays(raw, proc, dtypes=None) -> dict[str, np.ndarray]:
    """JSON array payload → ndarrays matching the procedure.

    ``dtypes`` is the optional ``array_dtypes`` tag block
    (``{name: numpy dtype string}``) that lets a caller's dtype survive
    the JSON round trip; untagged arrays keep the historical float64
    default.  Sentinel-encoded non-finite entries (``"NaN"`` etc., see
    :func:`repro.wire.array_from_json`) decode back to floats.
    """
    raw = raw or {}
    if not isinstance(raw, dict):
        raise RequestError(400, "'arrays' must be an object of name -> data")
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
        tag = dtypes.get(name, "<f8")
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
            arr = wire.array_from_json(raw[name], dtype)
        except (TypeError, ValueError) as exc:
            raise RequestError(400, f"array {name!r}: {exc}") from exc
        if arr.ndim != rank:
            raise RequestError(
                400, f"array {name!r}: rank {rank} expected, got {arr.ndim}"
            )
        out[name] = np.ascontiguousarray(arr)
    extra = set(raw) - set(out)
    if extra:
        raise RequestError(400, f"unknown arrays: {sorted(extra)}")
    return out


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


def _attach_shm_arrays(raw, proc) -> tuple[dict[str, np.ndarray], list]:
    """Attach the client's shared-memory segments (shm fast path).

    Returns ``(writable views, segment handles to close after the run)``.
    Every failure is a 400 — a bad handoff must never crash a replica —
    and any segments attached before the failure are released.
    """
    if not isinstance(raw, list) or not raw:
        raise RequestError(
            400, "'shm_arrays' must be a non-empty list of segment specs"
        )
    arrays: dict[str, np.ndarray] = {}
    handles: list = []
    try:
        for item in raw:
            if not isinstance(item, dict):
                raise RequestError(400, "each shm_arrays entry must be an object")
            name = item.get("name")
            if not isinstance(name, str) or name not in proc.arrays:
                raise RequestError(400, f"unknown shm array {name!r}")
            if name in arrays:
                raise RequestError(400, f"duplicate shm array {name!r}")
            segment = item.get("segment")
            if not isinstance(segment, str) or not segment.startswith(
                SEGMENT_PREFIX
            ):
                raise RequestError(
                    400,
                    f"array {name!r}: segment must carry the "
                    f"{SEGMENT_PREFIX!r} prefix",
                )
            shape = item.get("shape")
            if not isinstance(shape, list) or not all(
                isinstance(d, int) and d >= 0 for d in shape
            ):
                raise RequestError(400, f"array {name!r}: bad shape {shape!r}")
            try:
                spec = ArraySpec(
                    name, segment, tuple(shape), str(item.get("dtype"))
                )
                view, handle = attach_array(spec)
            except RequestError:
                raise
            except Exception as exc:
                raise RequestError(
                    400,
                    f"cannot attach segment {segment!r} for array {name!r}: "
                    f"{exc} (the shm transport requires client and server "
                    "on the same host)",
                ) from exc
            handles.append(handle)
            if view.ndim != proc.arrays[name]:
                raise RequestError(
                    400,
                    f"array {name!r}: rank {proc.arrays[name]} expected, "
                    f"got {view.ndim}",
                )
            arrays[name] = view
        missing = set(proc.arrays) - set(arrays)
        if missing:
            raise RequestError(400, f"missing arrays: {sorted(missing)}")
    except BaseException:
        arrays.clear()
        for handle in handles:
            try:
                handle.close()
            except BufferError:  # pragma: no cover - defensive
                pass
        raise
    return arrays, handles


def _decode_scalars(raw, proc) -> dict[str, int | float]:
    raw = raw or {}
    if not isinstance(raw, dict):
        raise RequestError(400, "'scalars' must be an object of name -> value")
    out: dict[str, int | float] = {}
    for name in proc.scalars:
        if name not in raw:
            raise RequestError(400, f"missing scalar {name!r}")
        value = raw[name]
        if isinstance(value, float) and value.is_integer():
            value = int(value)
        if not isinstance(value, (int, float)):
            raise RequestError(400, f"scalar {name!r} must be a number")
        out[name] = value
    return out


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

    def log_message(self, fmt, *args):  # noqa: N802 - stdlib name
        if getattr(self.server, "verbose", False):
            super().log_message(fmt, *args)

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
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        # Counted before the write: a client that reads ``/metrics`` (or a
        # test that reads the counters) right after this response must
        # already see it.
        self.server.bump("bytes_out", len(data))
        self.wfile.write(data)

    def _send_bytes(self, status: int, data: bytes, content_type: str) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.server.bump("bytes_out", len(data))  # before the write, as above
        self.wfile.write(data)

    def _send_payload(self, payload: dict | bytes) -> None:
        """Send a handler result: wire frames as bytes, dicts as JSON."""
        if isinstance(payload, (bytes, bytearray)):
            self._send_bytes(200, bytes(payload), wire.CONTENT_TYPE)
        else:
            self._send(200, payload)

    def _read_body(self) -> bytes:
        self._body_read = True
        length = int(self.headers.get("Content-Length") or 0)
        raw = self.rfile.read(length) if length else b""
        self.server.bump("bytes_in", len(raw))
        return raw

    def _drain_request_body(self) -> None:
        """Keep-alive hygiene: a route that never read its request body
        (e.g. ``POST /cancel/<id>``) must not leave the bytes in the
        socket, where they would prefix the connection's next request."""
        if getattr(self, "_body_read", False):
            return
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except (TypeError, ValueError):
            length = 0
        if length > 0:
            try:
                self.rfile.read(length)
            except OSError:  # pragma: no cover - client went away
                pass

    def _body(self) -> dict:
        raw = self._read_body()
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

    def _wire_body(self) -> tuple[dict, dict]:
        """Decode a binary request body: ``(body, zero-copy views)``."""
        raw = self._read_body()
        if not raw:
            raise RequestError(400, "empty request body (wire frame expected)")
        try:
            return wire.decode_frame(raw)
        except wire.WireFormatError as exc:
            raise RequestError(400, f"bad wire frame: {exc}") from exc

    def _route(self, method: str) -> None:
        raise NotImplementedError

    def _dispatch(self, method: str) -> None:
        server = self.server
        server.bump("requests")
        server.begin_request()
        self._body_read = False
        try:
            self._route(method)
        except RequestError as exc:
            server.bump("errors")
            self._send(
                exc.status, {"error": str(exc)}, headers=exc.headers
            )
        except Exception:
            server.bump("errors")
            import traceback

            self._send(
                500,
                {"error": "internal error", "detail": traceback.format_exc()},
            )
        finally:
            self._drain_request_body()
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
                body, views = self._wire_body()
                out = server.handle_run(
                    body,
                    wire_views=views,
                    want_wire=self._wants_wire(default=True),
                )
            else:
                out = server.handle_run(
                    self._body(), want_wire=self._wants_wire(default=False)
                )
            self._send_payload(out)
        elif method == "POST" and self.path == "/lint":
            self._send(200, server.handle_lint(self._body()))
        else:
            raise RequestError(404, f"no route {method} {self.path}")


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
    """Fix glibc's ``mmap``/trim thresholds for a serving process.

    Every bulk ``/run`` allocates a few transient whole-frame buffers
    (request body, decoded arrays, response frame — 16 MiB each for two
    1Mi-element float64 arrays).  glibc adjusts ``M_MMAP_THRESHOLD`` and
    the trim threshold *dynamically* from the sizes it happens to see
    freed, so depending on where start-up allocations landed a server
    either recycles those buffers from its heap (a couple of minor page
    faults per request) or ``mmap``s and ``munmap``s them on every
    request (≈12 000 faults, ≈30 ms of system time) — an allocator
    lottery decided by unrelated code, worth 2× on bulk request latency.
    Setting either threshold switches the dynamic adjustment off; 32 MiB
    is the largest ``M_MMAP_THRESHOLD`` glibc accepts, and a 1 GiB trim
    threshold keeps the recycled pages mapped.

    Called first thing in the three serving-process mains only — never on
    import, never for an in-process ``serve_background`` server, whose
    host application owns its allocator policy.  Silently a no-op where
    ``mallopt`` does not exist (non-glibc libc, non-POSIX).

    This pins the symptom.  The real fix is not to allocate transient
    whole-frame buffers at all (decode wire payloads straight into the
    pool's segments, stream the response) — ROADMAP, serving-path item.
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
    pin_malloc_thresholds()
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
