"""A small stdlib client for the compile-and-run server and the cluster.

Used by the tests, the CI smoke step, the load-test harness, and anything
that wants to talk to ``python -m repro serve`` / ``python -m repro
cluster`` without hand-rolling HTTP::

    from repro.service.client import ServiceClient

    client = ServiceClient(port=8923)
    program = client.compile(SOURCE, backend="mp")
    out = client.run(program["key"], {"A": A, "B": B}, {"n": 64, "m": 64})
    out["arrays"]["B"]          # numpy array, computed by the server
    out["arrays"]["A"] is A     # True: the server returns only what it wrote

Every client keeps one pooled keep-alive ``http.client`` connection per
calling thread (HTTP/1.1 persistent connections — no per-request TCP
handshake); a stale pooled socket (server restarted between requests) is
re-opened transparently.

Two array transports are supported, selected per client
(``ServiceClient(..., transport="wire")``) or per call
(``client.run(..., transport="json")``):

- ``"json"`` (default) — nested lists with ``array_dtypes`` tags, so the
  caller's dtype survives the round trip; NaN/Inf are sentinel-encoded.
- ``"wire"`` — the :mod:`repro.wire` binary frame
  (``application/x-repro-wire``): no text encode/parse, bit-exact arrays.
  The request is sent straight from the caller's arrays (no frame is
  assembled in memory); result arrays come back as zero-copy read-only
  views over the response buffer — copy before mutating.

Against a cluster front door the same client also speaks the async job
protocol::

    job = client.submit("run", key=program["key"], arrays=..., scalars=...)
    state = client.poll(job["job_id"])
    out = client.result(job["job_id"])       # once state is "done"
    out = client.wait(job["job_id"])         # one request that blocks

Transient connection failures (replica restarting, listener backlog full,
connection reset mid-crash) are retried with exponential backoff + full
jitter when the client is built with ``retries > 0``; HTTP error
*responses* (4xx/5xx) are never retried here — the cluster router owns
job-level retry semantics.
"""

from __future__ import annotations

import http.client
import json
import random
import socket
import threading
import time
import urllib.error
from typing import Callable, Mapping

import numpy as np

from repro import wire

#: Exception types treated as transient transport failures (safe to retry:
#: the request never produced a response).  ``OSError`` covers connection
#: refused/reset/timeout at the socket layer; ``HTTPException`` covers a
#: torn response on a reused keep-alive connection (``BadStatusLine``,
#: ``RemoteDisconnected``, ``IncompleteRead``, ``CannotSendRequest``).
TRANSIENT_ERRORS = (
    urllib.error.URLError,
    ConnectionError,
    TimeoutError,
    OSError,
    http.client.HTTPException,
)


class _NoDelayConnection(http.client.HTTPConnection):
    """Keep-alive connection with Nagle's algorithm disabled.

    Request/response exchanges here are latency-bound RPCs; letting the
    kernel hold the final small segment of a request behind the peer's
    delayed ACK adds a flat ~40ms to every call."""

    def connect(self) -> None:
        super().connect()
        try:
            self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:  # pragma: no cover - non-TCP socket family
            pass


def _frame_headers(parts: list, **extra: str) -> dict[str, str]:
    """Headers of a request whose body is a wire frame's parts: an
    explicit length, so ``http.client`` writes each part as it is
    instead of chunk-encoding the list."""
    return {
        "Content-Type": wire.CONTENT_TYPE,
        "Content-Length": str(sum(len(p) for p in parts)),
        **extra,
    }


class ServiceError(RuntimeError):
    """A non-2xx response; carries the HTTP status and decoded body.

    ``retry_after`` is the parsed ``Retry-After`` header in seconds when
    the server sent one (the cluster's 429 admission rejections do).
    """

    def __init__(
        self,
        status: int,
        payload: dict,
        retry_after: float | None = None,
    ) -> None:
        super().__init__(
            f"HTTP {status}: {payload.get('error', payload)}"
        )
        self.status = status
        self.payload = payload
        self.retry_after = retry_after


def _coerce_arrays(
    arrays: Mapping[str, np.ndarray],
) -> dict[str, np.ndarray]:
    """C-contiguous ndarrays, preserving real ndarray dtypes.

    Plain Python nested lists keep their historical float64 coercion (the
    service's numeric default); an actual ndarray travels in the caller's
    dtype on every transport.
    """
    out: dict[str, np.ndarray] = {}
    for name, a in arrays.items():
        if isinstance(a, np.ndarray):
            out[name] = np.ascontiguousarray(a)
        else:
            out[name] = np.ascontiguousarray(np.asarray(a, dtype=np.float64))
    return out


class ServiceClient:
    """Blocking client bound to one server address.

    Thread-safe: the connection pool is per-thread (``threading.local``),
    so one client can be shared by concurrent request threads (the
    concurrency tests and the load harness do).

    ``retries``/``backoff_s``/``backoff_max_s``/``retry_deadline_s``
    configure transient-connection retry: attempt ``n`` sleeps
    ``min(backoff_max_s, backoff_s * 2**n)`` scaled by full jitter, and
    the whole retry loop gives up once ``retry_deadline_s`` has elapsed
    (or the attempts run out, whichever is first).

    ``transport`` sets the default array transport for :meth:`run` /
    :meth:`submit_run` (``"json"``/``"wire"``); every call can
    override it.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8923,
        timeout: float = 60.0,
        retries: int = 0,
        backoff_s: float = 0.05,
        backoff_max_s: float = 2.0,
        retry_deadline_s: float | None = None,
        transport: str = "json",
    ) -> None:
        if transport not in ("json", "wire"):
            raise ValueError(f"unknown transport {transport!r}")
        self.host = host
        self.port = port
        self.base = f"http://{host}:{port}"
        self.timeout = timeout
        self.retries = max(0, int(retries))
        self.backoff_s = backoff_s
        self.backoff_max_s = backoff_max_s
        self.retry_deadline_s = retry_deadline_s
        self.transport = transport
        self._local = threading.local()

    # -- pooled transport --------------------------------------------------
    def _conn(self) -> http.client.HTTPConnection:
        conn = getattr(self._local, "conn", None)
        if conn is None:
            conn = _NoDelayConnection(
                self.host, self.port, timeout=self.timeout
            )
            self._local.conn = conn
        return conn

    def _drop_conn(self) -> None:
        conn = getattr(self._local, "conn", None)
        if conn is not None:
            self._local.conn = None
            try:
                conn.close()
            except Exception:  # pragma: no cover - defensive
                pass

    def close(self) -> None:
        """Close this thread's pooled connection (idempotent)."""
        self._drop_conn()

    def _raw_once(
        self,
        method: str,
        path: str,
        data: bytes | list | None,
        headers: dict[str, str],
    ) -> tuple[int, object, bytes]:
        """One HTTP exchange on the pooled keep-alive connection.

        ``data`` is bytes or a list of bytes-like parts, each sent as it
        is (the caller sets ``Content-Length``; a list re-iterates for
        the retry).  A failure on a *reused* socket gets one immediate
        retry on a fresh connection — the server may simply have closed
        an idle keep-alive between our requests, which is not an error
        worth a backoff cycle.  A failure on a fresh connection
        propagates to the caller's retry policy.
        """
        conn = self._conn()
        reused = conn.sock is not None
        try:
            conn.request(method, path, body=data, headers=headers)
            resp = conn.getresponse()
            raw = resp.read()
        except TRANSIENT_ERRORS:
            self._drop_conn()
            if not reused:
                raise
            conn = self._conn()
            try:
                conn.request(method, path, body=data, headers=headers)
                resp = conn.getresponse()
                raw = resp.read()
            except TRANSIENT_ERRORS:
                self._drop_conn()
                raise
        if resp.will_close:
            self._drop_conn()
        return resp.status, resp.headers, raw

    def request_bytes(
        self,
        method: str,
        path: str,
        data: bytes | list | None = None,
        headers: dict[str, str] | None = None,
    ) -> tuple[object, bytes]:
        """One request/response, raw bytes in and out.

        Returns ``(response headers, body bytes)``; a 4xx/5xx raises
        :class:`ServiceError` with the decoded JSON error body.  This is
        the opaque-forwarding primitive the cluster router uses to pass
        run requests through (JSON or wire) without re-encoding them.
        ``data`` may be a list of parts (:func:`repro.wire.frame_parts`),
        sent one by one.
        """
        status, rheaders, raw = self._raw_once(
            method, path, data, dict(headers or {})
        )
        if status >= 400:
            ctype = (rheaders.get("Content-Type") or "").split(";")[0].strip()
            body: dict
            if ctype == "application/json":
                try:
                    decoded = json.loads(raw)
                    body = (
                        decoded
                        if isinstance(decoded, dict)
                        else {"error": decoded}
                    )
                except ValueError:
                    body = {"error": raw.decode("utf-8", "replace")[:500]}
            else:
                body = {"error": raw.decode("utf-8", "replace")[:500]}
            try:
                retry_after = float(rheaders.get("Retry-After"))
            except (TypeError, ValueError):
                retry_after = None
            raise ServiceError(status, body, retry_after)
        return rheaders, raw

    def _request_once(
        self, method: str, path: str, payload: dict | None
    ) -> dict:
        data = (
            None
            if payload is None
            else json.dumps(payload, allow_nan=False).encode("utf-8")
        )
        _, raw = self.request_bytes(
            method, path, data, {"Content-Type": "application/json"}
        )
        return json.loads(raw)

    def _with_retry(self, attempt_fn: Callable):
        t0 = time.monotonic()
        attempt = 0
        while True:
            try:
                return attempt_fn()
            except ServiceError:
                raise  # the server answered; job-level retry is not ours
            except TRANSIENT_ERRORS:
                elapsed = time.monotonic() - t0
                out_of_time = (
                    self.retry_deadline_s is not None
                    and elapsed >= self.retry_deadline_s
                )
                if attempt >= self.retries or out_of_time:
                    raise
                sleep = min(
                    self.backoff_max_s, self.backoff_s * (2**attempt)
                ) * random.uniform(0.5, 1.0)
                if self.retry_deadline_s is not None:
                    sleep = min(
                        sleep,
                        max(0.0, self.retry_deadline_s - elapsed),
                    )
                time.sleep(sleep)
                attempt += 1

    def _request(
        self, method: str, path: str, payload: dict | None = None
    ) -> dict:
        return self._with_retry(
            lambda: self._request_once(method, path, payload)
        )

    def _request_raw(
        self,
        method: str,
        path: str,
        data: bytes | list | None = None,
        headers: dict[str, str] | None = None,
    ) -> tuple[object, bytes]:
        return self._with_retry(
            lambda: self.request_bytes(method, path, data, headers)
        )

    # -- endpoints --------------------------------------------------------
    def healthz(self) -> dict:
        return self._request("GET", "/healthz")

    def metrics(self) -> dict:
        return self._request("GET", "/metrics")

    def compile(
        self,
        source: str,
        backend: str = "python",
        frontend: str = "auto",
        tenant: str | None = None,
        **options,
    ) -> dict:
        """POST /compile; returns the program description (with ``key``).

        ``tenant`` only matters against a cluster front door (quota
        accounting); a lone server ignores it.
        """
        body = {
            "source": source,
            "backend": backend,
            "frontend": frontend,
            "options": options,
        }
        if tenant is not None:
            body["tenant"] = tenant
        return self._request("POST", "/compile", body)

    def lint(
        self,
        source: str,
        frontend: str = "auto",
        tenant: str | None = None,
        **options,
    ) -> dict:
        """POST /lint; returns the structured chunk-safety report."""
        body = {"source": source, "frontend": frontend, "options": options}
        if tenant is not None:
            body["tenant"] = tenant
        return self._request("POST", "/lint", body)

    def run(
        self,
        key: str,
        arrays: Mapping[str, np.ndarray],
        scalars: Mapping[str, int | float] | None = None,
        transport: str | None = None,
        **options,
    ) -> dict:
        """POST /run over the selected transport.

        The reply carries only the arrays the program stores to, as
        ndarrays in the dtype the server computed (wire-transport results
        are zero-copy read-only views; copy before mutating).  Every
        other name of ``arrays`` is filled in with the caller's own
        object — not a copy, not a view — so the returned ``arrays`` has
        the caller's names.
        """
        transport = self.transport if transport is None else transport
        if transport == "wire":
            out = self._run_wire(key, arrays, scalars, **options)
        elif transport == "json":
            body = self.run_body(key, arrays, scalars, **options)
            out = decode_run_result(self._request("POST", "/run", body))
        else:
            raise ValueError(f"unknown transport {transport!r}")
        out["arrays"] = {**arrays, **out["arrays"]}
        return out

    def _run_wire(
        self,
        key: str,
        arrays: Mapping[str, np.ndarray],
        scalars: Mapping[str, int | float] | None = None,
        **options,
    ) -> dict:
        body = {"key": key, "scalars": dict(scalars or {}), **options}
        parts = wire.frame_parts(body, _coerce_arrays(arrays))
        rheaders, raw = self._request_raw(
            "POST",
            "/run",
            parts,
            _frame_headers(parts, Accept=wire.CONTENT_TYPE),
        )
        ctype = (rheaders.get("Content-Type") or "").split(";")[0].strip()
        if ctype == wire.CONTENT_TYPE:
            rbody, views = wire.decode_frame(raw)
            out = dict(rbody)
            out["arrays"] = dict(views)
            return out
        return decode_run_result(json.loads(raw))

    # -- async job protocol (cluster front door) ---------------------------
    @staticmethod
    def run_body(
        key: str,
        arrays: Mapping[str, np.ndarray],
        scalars: Mapping[str, int | float] | None = None,
        **options,
    ) -> dict:
        """The JSON body of a run request (shared by /run and /submit).

        Arrays carry ``array_dtypes`` tags so the caller's dtype survives
        the round trip, and non-finite floats are sentinel-encoded (the
        payload is strictly RFC JSON).
        """
        arrs = _coerce_arrays(arrays)
        return {
            "key": key,
            "arrays": {
                name: wire.jsonable_array(a) for name, a in arrs.items()
            },
            "array_dtypes": wire.dtype_tags(arrs),
            "scalars": dict(scalars or {}),
            **options,
        }

    def submit(
        self, kind: str, tenant: str | None = None, **body
    ) -> dict:
        """POST /submit → ``{"job_id": ..., "state": "queued", ...}``.

        ``kind`` is ``"compile"``/``"run"``/``"lint"``; ``body`` is the
        same payload the synchronous endpoint takes (for runs, build it
        with :meth:`run_body`, or use :meth:`submit_run`).  Raises
        :class:`ServiceError` with status 429 (and ``retry_after`` set)
        when admission control rejects.
        """
        payload = {"kind": kind, "body": body}
        if tenant is not None:
            payload["tenant"] = tenant
        return self._request("POST", "/submit", payload)

    def submit_run(
        self,
        key: str,
        arrays: Mapping[str, np.ndarray],
        scalars: Mapping[str, int | float] | None = None,
        tenant: str | None = None,
        transport: str | None = None,
        **options,
    ) -> dict:
        """Submit an async run job over json or wire transport.

        Wire submissions ship one binary frame whose header carries the
        job envelope (kind/tenant) — the router peeks the header and
        forwards the payload bytes opaquely.
        """
        transport = self.transport if transport is None else transport
        if transport == "wire":
            envelope = {
                "kind": "run",
                "body": {"key": key, "scalars": dict(scalars or {}), **options},
            }
            if tenant is not None:
                envelope["tenant"] = tenant
            parts = wire.frame_parts(envelope, _coerce_arrays(arrays))
            _, raw = self._request_raw(
                "POST", "/submit", parts, _frame_headers(parts)
            )
            return json.loads(raw)
        if transport != "json":
            raise ValueError(f"unknown transport {transport!r}")
        return self.submit(
            "run", tenant=tenant, **self.run_body(key, arrays, scalars, **options)
        )

    def poll(self, job_id: str) -> dict:
        """GET /poll/<id> — job state + timings, without the result body."""
        return self._request("GET", f"/poll/{job_id}")

    def result(self, job_id: str, wait: float = 0.0) -> dict:
        """GET /result/<id> — the completed job's full result.

        409 while the job is still queued/running, after blocking up to
        ``wait`` seconds (the router caps it) for the job to settle.
        Run-job results get their ``arrays`` decoded to ndarrays like
        :meth:`run`, but only the arrays the program wrote: nothing is
        filled in.  A job that ran over the wire transport streams back
        as a binary frame (this client always ``Accept``s one).
        """
        query = f"?wait={wait:g}" if wait else ""
        rheaders, raw = self._request_raw(
            "GET",
            f"/result/{job_id}{query}",
            None,
            {"Accept": f"{wire.CONTENT_TYPE}, application/json"},
        )
        ctype = (rheaders.get("Content-Type") or "").split(";")[0].strip()
        if ctype == wire.CONTENT_TYPE:
            body, views = wire.decode_frame(raw)
            out = dict(body)
            result = dict(out.get("result") or {})
            result["arrays"] = dict(views)
            out["result"] = result
            return out
        out = json.loads(raw)
        if isinstance(out.get("result"), dict):
            out["result"] = decode_run_result(out["result"])
        return out

    def cancel(self, job_id: str) -> dict:
        """POST /cancel/<id> — cancel a queued (or best-effort running) job."""
        return self._request("POST", f"/cancel/{job_id}", {})

    def wait(self, job_id: str, timeout: float = 60.0) -> dict:
        """The result document (:meth:`result`) once the job reaches a
        terminal state: one ``/result`` request that blocks until it
        settles (more only past the router's cap on one wait, or half
        this client's socket timeout).  Raises TimeoutError past
        ``timeout``."""
        deadline = time.monotonic() + timeout
        while True:
            left = deadline - time.monotonic()
            try:
                return self.result(
                    job_id, wait=max(0.0, min(left, self.timeout / 2))
                )
            except ServiceError as exc:
                if exc.status != 409:
                    raise
                if time.monotonic() >= deadline:
                    raise TimeoutError(
                        f"job {job_id} not settled after {timeout}s: "
                        f"{exc.payload.get('error')}"
                    ) from None


def decode_run_result(out: dict) -> dict:
    """Decode served JSON ``arrays`` back into ndarrays.

    ``array_dtypes`` tags (when the server sent them) restore the
    computed dtype; untagged responses keep the historical float64.
    """
    if isinstance(out.get("arrays"), dict):
        tags = out.get("array_dtypes") or {}
        out["arrays"] = {
            name: wire.array_from_json(data, tags.get(name, "<f8"))
            for name, data in out["arrays"].items()
        }
    return out
