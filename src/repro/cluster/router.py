"""The cluster front door: load-balancing router + async job dispatch.

One :class:`ClusterRouter` accepts client traffic and feeds everything —
synchronous ``/compile``/``/run``/``/lint`` *and* async ``/submit`` jobs —
through one :class:`~repro.cluster.jobs.JobQueue`, so admission control
(bounded depth, per-tenant quotas → 429 + ``Retry-After``) and the
crash-retry budget apply uniformly.  Synchronous endpoints are just
"submit and wait": the response is the job's result, with a ``cluster``
block reporting which replica served it and whether it had to be retried.

Dispatcher threads claim jobs and forward them over pooled keep-alive
connections.  Runs route *sticky*: the replica that last compiled or ran
a program key gets that key's next run (warm kernel registrations, warm
plans and pools), falling back to the least-loaded alive
replica when the sticky target is dead or unknown.  Replica crashes and
timeouts surface as transient transport errors; the dispatcher re-queues
the job (``jobs.retried``) until its retry budget runs out, nudges the
supervisor to restart the dead process, and stamps the final result with
``fallback_reason`` so clients can see the degradation.  Replica 4xx
responses are *client* errors: they fail the job immediately and relay
the replica's status code.

Every run request, JSON or binary (``repro.wire/v1``), passes through
*opaquely*: the router parses a JSON body once (or peeks a frame header)
for the program key and tenant, then forwards the original bytes
verbatim — it never re-encodes a request or materializes an ndarray.
The request is held whole (a crashed replica's job is re-sent to
another).  The replica's reply is kept as it came (``Job.result_raw``)
and sent back out with the ``cluster`` block spliced into its JSON, or
into a new wire header followed by a view of the frame's payload.

Every replica registers compiled programs in its own memory, so a ``run``
landing on a replica that never saw the ``/compile`` (or was restarted
since) would 404.  The router remembers each key's compile request and
repairs on miss: re-issue the compile on that replica — a shared-cache
hit, so cheap — then retry the run.

Routes::

    POST /compile | /run | /lint      synchronous (queued + balanced)
    POST /submit                      {kind, body, tenant?} -> job_id
    GET  /poll/<job_id>               state + timings
    GET  /result/<job_id>[?wait=<s>]  full result (409 until terminal;
                                      ``wait`` blocks up to <s> seconds,
                                      capped, for the job to settle)
    POST /cancel/<job_id>             cancel queued / best-effort running
    GET  /healthz                     router + fleet health
    GET  /metrics                     repro.metrics/v1 + jobs.* + cluster.*
"""

from __future__ import annotations

import json
import math
import threading
import time
import urllib.parse
from collections import OrderedDict
from dataclasses import asdict

from repro import wire
from repro.cluster.jobs import TERMINAL_STATES, AdmissionError, Job, JobQueue
from repro.cluster.quotas import TenantQuotas
from repro.cluster.replica import ReplicaHandle, ReplicaSupervisor
from repro.parallel.observe import metrics_snapshot
from repro.service.client import TRANSIENT_ERRORS, ServiceError
from repro.service.server import (
    AccountingHTTPServer,
    JsonRequestHandler,
    RequestError,
)

#: Seconds a synchronous endpoint waits for its job before giving up (504).
DEFAULT_SYNC_TIMEOUT_S = 300.0

#: Job kinds the router accepts.
JOB_KINDS = ("compile", "run", "lint")

#: Bound on the sticky program-key -> replica map (LRU beyond this).
STICKY_CAPACITY = 1024

#: Longest ``GET /result/<id>?wait=<s>`` blocks for the job to settle;
#: a longer ``wait`` is cut to this.
RESULT_WAIT_CAP_S = 30.0

#: Seconds a dispatcher waits, after a transport failure, for that
#: replica's process to finish exiting before it reports the failure.
DYING_GRACE_S = 2.0


class ClusterRouter(AccountingHTTPServer):
    """HTTP front door over a :class:`ReplicaSupervisor` fleet."""

    def __init__(
        self,
        supervisor: ReplicaSupervisor,
        address: tuple[str, int] = ("127.0.0.1", 0),
        queue: JobQueue | None = None,
        dispatchers: int | None = None,
        sync_timeout_s: float = DEFAULT_SYNC_TIMEOUT_S,
        verbose: bool = False,
    ) -> None:
        super().__init__(
            address,
            _RouterHandler,
            (
                "requests", "errors", "routed_compile", "routed_run",
                "routed_lint", "repairs", "sticky_hits", "bytes_in",
                "bytes_out",
            ),
            verbose,
        )
        self.supervisor = supervisor
        self.queue = queue or JobQueue()
        self.sync_timeout_s = sync_timeout_s
        #: key -> the /compile body that produced it (404-repair replays).
        self._compiles: dict[str, dict] = {}
        #: key -> replica index that last served it (sticky routing, LRU).
        self._sticky: OrderedDict[str, int] = OrderedDict()
        self._stopping = threading.Event()
        #: Set by :meth:`shutdown`: a waiting ``/result`` answers at once,
        #: so it does not hold up the drain.
        self._shutting_down = threading.Event()
        self._paused = threading.Event()
        n_dispatchers = (
            dispatchers
            if dispatchers is not None
            else max(4, 2 * len(supervisor.handles))
        )
        self._dispatchers = [
            threading.Thread(
                target=self._dispatch_loop,
                name=f"repro-dispatch-{i}",
                daemon=True,
            )
            for i in range(n_dispatchers)
        ]
        for t in self._dispatchers:
            t.start()

    # -- maintenance hooks -------------------------------------------------
    def pause(self) -> None:
        """Stop claiming jobs (they queue); for maintenance and tests."""
        self._paused.set()

    def resume(self) -> None:
        self._paused.clear()

    def shutdown(self) -> None:
        """Stop serving (the dispatchers run on until :meth:`close`)."""
        self._shutting_down.set()
        super().shutdown()

    def await_settle(self, job: Job, wait: float) -> None:
        """Block until ``job`` settles, ``wait`` seconds pass or the router
        shuts down.  Every settle (done, failed, cancelled: a queued job's
        cancel settles it at once) sets the job's event; the reaper evicts
        only settled jobs, and the caller holds its own reference."""
        deadline = time.monotonic() + wait
        while not self._shutting_down.is_set():
            left = deadline - time.monotonic()
            # Sliced only so that a shutdown is seen within a tick.
            if left <= 0 or job.wait(min(left, 0.1)):
                return

    def close(self) -> None:
        """Stop dispatchers and the listener (the supervisor is stopped by
        its owner — typically :func:`start_cluster`'s caller)."""
        self._stopping.set()
        with self.queue._cond:  # wake blocked dispatchers
            self.queue._cond.notify_all()
        for t in self._dispatchers:
            t.join(timeout=5.0)
        self.server_close()

    # -- dispatch ----------------------------------------------------------
    def pick_replica(self, key: str | None = None) -> ReplicaHandle | None:
        """Routing policy: sticky by program key, else least-loaded.

        A key that was compiled or last run on a still-alive replica goes
        back there — its kernel registrations, prepared plans and pools
        are warm, so the run builds nothing.  Unknown keys
        (and dead sticky targets) fall back to the least-loaded alive
        replica; the 404-repair path covers any stale registration.
        """
        alive = self.supervisor.alive_handles()
        if not alive:
            return None
        if key is not None:
            with self._state_lock:
                sticky_index = self._sticky.get(key)
                if sticky_index is not None:
                    self._sticky.move_to_end(key)
            if sticky_index is not None:
                for handle in alive:
                    if handle.index == sticky_index:
                        self.bump("sticky_hits")
                        return handle
        return min(alive, key=lambda h: (h.inflight, h.index))

    def _record_sticky(self, key: object, index: int) -> None:
        if not isinstance(key, str) or not key:
            return
        with self._state_lock:
            self._sticky[key] = index
            self._sticky.move_to_end(key)
            while len(self._sticky) > STICKY_CAPACITY:
                self._sticky.popitem(last=False)

    def _dispatch_loop(self) -> None:
        while not self._stopping.is_set():
            if self._paused.is_set():
                time.sleep(0.02)
                continue
            job = self.queue.next_job(timeout=0.2)
            if job is None:
                continue
            if self._paused.is_set():
                # Pause landed while we were blocked in next_job: put the
                # claim back untouched and wait it out.
                self.queue.unclaim(job)
                time.sleep(0.02)
                continue
            self._execute(job)

    def _execute(self, job: Job) -> None:
        sticky_key = job.body.get("key") if job.kind == "run" else None
        handle = self.pick_replica(sticky_key)
        waited = 0.0
        while handle is None and waited < 10.0 and not self._stopping.is_set():
            time.sleep(0.1)  # fleet mid-restart: give the supervisor a beat
            waited += 0.1
            handle = self.pick_replica(sticky_key)
        if handle is None:
            self.queue.requeue(job, "no replica alive")
            return
        generation, proc = handle.generation, handle.proc
        job.replica = handle.index
        handle.begin()
        try:
            if job.kind == "run":
                outcome = self._relay_run(handle, job)
            else:
                outcome = (self._forward(handle, job), None)
        except ServiceError as exc:
            if exc.status >= 500:
                # The replica answered but is unwell — treat as transient.
                self.supervisor.report_failure(handle, generation)
                self.queue.requeue(
                    job, f"replica {handle.index} HTTP {exc.status}: {exc}"
                )
            else:
                self.queue.fail(job, str(exc), status=exc.status)
        except TRANSIENT_ERRORS as exc:
            # Crash, connection reset, or timeout: nudge a restart and
            # re-queue within the retry budget.  A killed replica refuses
            # connections before its process is reaped, and a retry is
            # ready at once: without the wait the budget burns out in
            # microseconds on a process that is still "alive", before
            # any restart.
            proc.join(DYING_GRACE_S)
            self.supervisor.report_failure(handle, generation)
            self.queue.requeue(
                job,
                f"replica {handle.index} unreachable "
                f"({type(exc).__name__}: {exc})",
            )
        except Exception as exc:  # pragma: no cover - router bug guard
            self.queue.fail(job, f"router error: {exc}")
        else:
            self.queue.finish(job, *outcome)
        finally:
            handle.end()

    def _forward(self, handle: ReplicaHandle, job: Job) -> dict:
        """A compile or lint job's decoded reply, with the cluster block."""
        client = handle.client
        body = job.body
        if job.kind == "compile":
            result = client._request("POST", "/compile", body)
            key = result.get("key")
            if isinstance(key, str):
                with self._state_lock:
                    self._compiles[key] = body
                # The compiling replica has the program registered and its
                # kernels warm: send this key's runs there.
                self._record_sticky(key, handle.index)
            self.bump("routed_compile")
        elif job.kind == "lint":
            result = client._request("POST", "/lint", body)
            self.bump("routed_lint")
        else:  # unreachable: submit validates kinds
            raise RequestError(400, f"unknown job kind {job.kind!r}")
        result["cluster"] = _cluster_block(job)
        return result

    def _relay_run(self, handle: ReplicaHandle, job: Job) -> tuple[bytes, str]:
        """Forward a run's request bytes (JSON or wire) verbatim; return
        the replica's reply bytes, unparsed, and their content type.
        404-repair replays the remembered compile, then the same bytes."""
        client = handle.client
        data = job.raw_body
        ctype = (
            wire.CONTENT_TYPE
            if data.startswith(wire.MAGIC)  # never the start of a JSON body
            else wire.JSON_CONTENT_TYPE
        )
        headers = {"Content-Type": ctype, "Accept": ctype}
        key = job.body.get("key")
        rheaders, raw = self._with_repair(
            client,
            key,
            lambda: client._request_raw("POST", "/run", data, headers),
        )
        self._record_sticky(key, handle.index)
        self.bump("routed_run")
        return raw, (rheaders.get("Content-Type") or "").split(";")[0].strip()

    def _with_repair(self, client, key, send):
        """Return ``send()``.  On a 404 the replica lost the program
        registration (fresh process after a restart, or a run diverted
        from the compiling replica): replay the remembered compile — a
        shared-cache hit — and send once more."""
        try:
            return send()
        except ServiceError as exc:
            if exc.status != 404:
                raise
            with self._state_lock:
                compile_body = self._compiles.get(key)
            if compile_body is None:
                raise
            client._request("POST", "/compile", compile_body)
            self.bump("repairs")
            return send()

    # -- request handling --------------------------------------------------
    def submit_job(
        self, payload: dict, raw_body: bytes | None = None
    ) -> Job:
        kind = payload.get("kind")
        if kind not in JOB_KINDS:
            raise RequestError(
                400, f"kind must be one of {list(JOB_KINDS)} (got {kind!r})"
            )
        body = payload.get("body")
        if not isinstance(body, dict):
            raise RequestError(400, "body must be an object")
        tenant = payload.get("tenant", "anon")
        if not isinstance(tenant, str) or not tenant:
            raise RequestError(400, "tenant must be a non-empty string")
        if kind == "run":
            if raw_body is None:  # an async JSON run: encoded once, here
                raw_body = json.dumps(body).encode("utf-8")
            body.pop("arrays", None)  # only the replica reads them
        try:
            return self.queue.submit(
                kind, body, tenant=tenant, raw_body=raw_body
            )
        except AdmissionError as exc:
            raise RequestError(
                429,
                f"rejected: {exc.reason}",
                headers={"Retry-After": str(int(round(exc.retry_after_s)))},
            ) from exc

    def run_sync_job(
        self,
        kind: str,
        body: dict,
        tenant: str = "anon",
        raw_body: bytes | None = None,
    ) -> Job:
        """Submit + wait, returning the settled job (``result`` for
        compile and lint, ``result_raw`` for a run's reply to relay).
        A settled job leaves the table: no client holds its id.  One that
        outlives the wait stays, pollable under the id the 504 names."""
        job = self.submit_job(
            {"kind": kind, "body": body, "tenant": tenant}, raw_body=raw_body
        )
        if not job.wait(self.sync_timeout_s):
            self.queue.cancel(job.id)
            raise RequestError(
                504,
                f"job {job.id} still {job.state} after "
                f"{self.sync_timeout_s}s",
            )
        self.queue.forget(job)
        if job.state == "done":
            return job
        if job.state == "cancelled":
            raise RequestError(409, f"job {job.id} was cancelled")
        status = job.error_status if job.error_status else 503
        message = job.error or "job failed"
        if job.fallback_reason:
            message += f" (fallback_reason: {job.fallback_reason})"
        raise RequestError(status, message)

    def run_sync(self, kind: str, body: dict, tenant: str = "anon") -> dict:
        """Submit + wait: the synchronous JSON endpoints' implementation."""
        return self.run_sync_job(kind, body, tenant=tenant).result

    def health(self) -> dict:
        fleet = self.supervisor.describe()
        with self._state_lock:
            counters = dict(self.counters)
            inflight = self._inflight
        return {
            "status": "ok" if fleet["alive"] > 0 else "degraded",
            "role": "router",
            "uptime_s": round(time.monotonic() - self._started, 3),
            "inflight": inflight,
            "queue_depth": self.queue.depth(),
            **counters,
            "fleet": {k: fleet[k] for k in ("replicas", "alive", "restarts")},
        }

    def cluster_stats(self) -> dict:
        fleet = self.supervisor.describe()
        fleet["dispatchers"] = len(self._dispatchers)
        fleet["paused"] = self._paused.is_set()
        fleet["tenants"] = self.queue.quotas.snapshot()
        with self._state_lock:
            fleet["transport"] = asdict(self.transport)
            fleet["sticky_keys"] = len(self._sticky)
        return fleet

    def metrics(self) -> dict:
        cache = self.supervisor.cache_dir  # occupancy of the shared store
        return metrics_snapshot(
            cache=cache if cache else None,
            server=self.health(),
            jobs=self.queue.stats(),
            cluster=self.cluster_stats(),
        )


class _RouterHandler(JsonRequestHandler):
    """Routes front-door requests to the :class:`ClusterRouter`."""

    server_version = "repro-cluster"

    def _route(self, method: str) -> None:
        router: ClusterRouter = self.server  # type: ignore[assignment]
        path, _, query = self.path.partition("?")
        path = path.rstrip("/") or "/"
        if method == "GET" and path == "/healthz":
            self._send(200, router.health())
            return
        if method == "GET" and path == "/metrics":
            self._send(200, router.metrics())
            return
        if method == "POST" and path == "/run":
            self._sync_run(router)
            return
        if method == "POST" and path in ("/compile", "/lint"):
            body = self._body()
            tenant = body.pop("tenant", "anon")
            self._send(200, router.run_sync(path[1:], body, tenant=tenant))
            return
        if method == "POST" and path == "/submit":
            if self._wire_request():
                self._submit_wire(router)
                return
            payload = self._body()
            job = router.submit_job(payload)
            if job.kind == "run":
                router.bump_transport("json")
            self._send(202, job.describe())
            return
        parts = path.lstrip("/").split("/")
        if len(parts) == 2 and parts[0] in ("poll", "result", "cancel"):
            verb, job_id = parts
            router.queue.reap()
            job = router.queue.get(job_id)
            if verb == "cancel" and method == "POST":
                job = router.queue.cancel(job_id)
                if job is None:
                    raise RequestError(404, f"unknown job {job_id!r}")
                self._send(200, job.describe())
                return
            if job is None:
                raise RequestError(
                    404, f"unknown job {job_id!r} (expired or never existed)"
                )
            if verb == "poll" and method == "GET":
                self._send(200, job.describe())
                return
            if verb == "result" and method == "GET":
                router.await_settle(job, _result_wait(query))
                if job.state not in TERMINAL_STATES:
                    raise RequestError(
                        409, f"job {job_id} is still {job.state}"
                    )
                if job.result_raw is not None:
                    self._send_reply(job, job.describe())
                    return
                self._send(200, job.describe(with_result=True))
                return
        raise RequestError(404, f"no route {method} {self.path}")

    # -- wire-transport routes ---------------------------------------------
    def _peek_frame(self, raw: bytes) -> dict:
        try:
            body, _, _ = wire.peek_header(raw)
        except wire.WireFormatError as exc:
            raise RequestError(400, f"bad wire frame: {exc}") from exc
        return body

    def _sync_run(self, router: ClusterRouter) -> None:
        """Synchronous run over either transport: parse a JSON body once
        (or peek a frame's header) for the routing metadata, forward the
        bytes verbatim, send the replica's reply back."""
        raw = self._read_body()
        if self._wire_request():
            if not raw:
                raise RequestError(
                    400, "empty request body (wire frame expected)"
                )
            body, transport = self._peek_frame(raw), "wire"
        else:
            body, transport = self._parse_body(raw), "json"
        tenant = body.pop("tenant", "anon")
        router.bump_transport(transport)
        self._send_reply(
            router.run_sync_job("run", body, tenant=tenant, raw_body=raw)
        )

    def _submit_wire(self, router: ClusterRouter) -> None:
        """Async binary submit.  The frame body is the submit envelope
        ``{kind: "run", tenant?, body: {...run body...}}``; the frame is
        rewrapped around the inner body and queued for opaque forwarding.
        """
        raw = self._read_body()
        if not raw:
            raise RequestError(400, "empty request body (wire frame expected)")
        envelope = self._peek_frame(raw)
        kind = envelope.get("kind")
        if kind != "run":
            raise RequestError(
                400,
                "wire submissions carry array payloads: only kind='run' "
                f"is accepted (got {kind!r}); submit {kind!r} jobs as JSON",
            )
        inner = envelope.get("body")
        if not isinstance(inner, dict):
            raise RequestError(400, "body must be an object")
        try:
            forward = wire.rewrap_frame(raw, inner)
        except wire.WireFormatError as exc:  # pragma: no cover - peeked ok
            raise RequestError(400, f"bad wire frame: {exc}") from exc
        router.bump_transport("wire")
        job = router.submit_job(
            {"kind": "run", "body": inner,
             "tenant": envelope.get("tenant", "anon")},
            raw_body=forward,
        )
        self._send(202, job.describe())

    def _send_reply(self, job: Job, doc: dict | None = None) -> None:
        """Send a run's reply as the replica wrote it plus the ``cluster``
        block (in a JSON reply before its closing brace, in a wire reply's
        new header), nested as ``doc["result"]`` when a job ``doc`` is
        given.  The reply's bytes go out as a view, never copied."""
        reply = job.result_raw
        if job.result_content_type != wire.CONTENT_TYPE:
            parts = _splice(reply, "cluster", [_json(_cluster_block(job))])
            if doc is not None:
                parts = _splice(_json(doc), "result", parts)
            self._send_parts(200, parts, wire.JSON_CONTENT_TYPE)
            return
        if doc is not None and not self._wants_wire(default=True):
            raise RequestError(
                406,
                f"job {job.id} result is wire-encoded; request it with "
                f"'Accept: {wire.CONTENT_TYPE}'",
            )
        try:
            stats, _, _ = wire.peek_header(reply)
        except wire.WireFormatError:  # pragma: no cover - replica-built
            stats = {}
        stats["cluster"] = _cluster_block(job)
        if doc is not None:
            doc["result"] = stats
            stats = doc
        self._send_parts(
            200, wire.rewrap_parts(reply, stats), wire.CONTENT_TYPE
        )


def _result_wait(query: str) -> float:
    """Seconds a ``GET /result`` may block: its ``wait`` parameter (a
    finite number >= 0, cut to :data:`RESULT_WAIT_CAP_S`), else 0."""
    params = urllib.parse.parse_qs(query, keep_blank_values=True)
    unknown = sorted(set(params) - {"wait"})
    if unknown:
        raise RequestError(400, f"unknown /result parameters: {unknown}")
    raw = params.get("wait", ["0"])
    try:
        (wait,) = map(float, raw)
    except ValueError:
        raise RequestError(
            400, f"wait must be one number of seconds (got {raw!r})"
        ) from None
    if not 0.0 <= wait < math.inf:
        raise RequestError(
            400, f"wait must be a finite number >= 0 (got {wait!r})"
        )
    return min(wait, RESULT_WAIT_CAP_S)


def _json(doc: object) -> bytes:
    return json.dumps(doc, allow_nan=False).encode("utf-8")


def _splice(obj: bytes, name: str, value: list) -> list:
    """Parts that send the JSON object ``obj`` with a last member ``name``
    whose encoding is the parts ``value``.  For ``obj`` as ``json.dumps``
    writes it, they join to what ``json.dumps`` writes for the whole."""
    end = obj.rindex(b"}")
    sep = b"" if obj[end - 1 : end] == b"{" else b", "
    member = b"%s%s: " % (sep, _json(name))
    return [memoryview(obj)[:end], member, *value, b"}"]


def _cluster_block(job: Job) -> dict:
    """Which replica served a job, after how many tries, and why."""
    block = {
        "replica": job.replica,
        "attempts": job.attempts,
        "retries": job.retries,
    }
    if job.fallback_reason is not None:
        block["fallback_reason"] = job.fallback_reason
    return block


def start_cluster(
    replicas: int = 2,
    cache_dir: str | None = None,
    host: str = "127.0.0.1",
    port: int = 0,
    max_pools: int = 4,
    drain_s: float = 5.0,
    queue: JobQueue | None = None,
    max_depth: int | None = None,
    max_retries: int | None = None,
    tenant_limit: int | None = None,
    dispatchers: int | None = None,
    sync_timeout_s: float = DEFAULT_SYNC_TIMEOUT_S,
    request_timeout_s: float = 60.0,
    verbose: bool = False,
) -> tuple[ClusterRouter, ReplicaSupervisor, threading.Thread]:
    """Spawn the fleet, start the router on a daemon thread.

    Returns ``(router, supervisor, thread)``; ``router.port`` carries the
    bound front-door port.  Stop with::

        router.shutdown(); router.close(); supervisor.stop()
    """
    supervisor = ReplicaSupervisor(
        replicas=replicas,
        cache_dir=cache_dir,
        host=host,
        max_pools=max_pools,
        drain_s=drain_s,
        request_timeout_s=request_timeout_s,
    ).start()
    try:
        if queue is None:
            kwargs: dict = {}
            if max_depth is not None:
                kwargs["max_depth"] = max_depth
            if max_retries is not None:
                kwargs["max_retries"] = max_retries
            if tenant_limit is not None:
                kwargs["quotas"] = TenantQuotas(default_limit=tenant_limit)
            queue = JobQueue(**kwargs)
        router = ClusterRouter(
            supervisor,
            address=(host, port),
            queue=queue,
            dispatchers=dispatchers,
            sync_timeout_s=sync_timeout_s,
            verbose=verbose,
        )
    except BaseException:
        supervisor.stop()
        raise
    thread = threading.Thread(
        target=router.serve_forever, name="repro-cluster-router", daemon=True
    )
    thread.start()
    return router, supervisor, thread


def cluster_main(argv: list[str] | None = None) -> int:
    """``python -m repro cluster`` entry point."""
    import argparse
    import os
    import pathlib
    import sys

    from repro.service.server import (
        install_shutdown_handlers,
        pin_malloc_thresholds,
    )

    pin_malloc_thresholds()
    parser = argparse.ArgumentParser(
        prog="repro cluster",
        description="Start the N-replica repro cluster (router + fleet)",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8923)
    parser.add_argument("--replicas", type=int, default=2)
    parser.add_argument(
        "--cache-dir",
        metavar="DIR",
        default=None,
        help="shared artifact-cache directory every replica opens "
        "(default: $REPRO_CACHE_DIR or ~/.cache/repro)",
    )
    parser.add_argument("--max-pools", type=int, default=4)
    parser.add_argument(
        "--max-depth",
        type=int,
        default=None,
        help="admission control: queued jobs beyond this get 429",
    )
    parser.add_argument(
        "--max-retries",
        type=int,
        default=None,
        help="re-dispatch budget per job after replica crashes/timeouts",
    )
    parser.add_argument(
        "--tenant-limit",
        type=int,
        default=None,
        help="per-tenant in-flight job quota (429 beyond it)",
    )
    parser.add_argument("--dispatchers", type=int, default=None)
    parser.add_argument("--drain-s", type=float, default=5.0)
    parser.add_argument("--verbose", action="store_true")
    args = parser.parse_args(argv)

    cache_dir = args.cache_dir
    if cache_dir is None:
        cache_dir = os.environ.get(
            "REPRO_CACHE_DIR", os.path.join("~", ".cache", "repro")
        )
    cache_dir = str(pathlib.Path(cache_dir).expanduser())

    try:
        # On a failed bind this has already stopped the replicas it
        # started: nothing is left for interpreter exit to wait on.
        router, supervisor, thread = start_cluster(
            replicas=args.replicas,
            cache_dir=cache_dir,
            host=args.host,
            port=args.port,
            max_pools=args.max_pools,
            drain_s=args.drain_s,
            max_depth=args.max_depth,
            max_retries=args.max_retries,
            tenant_limit=args.tenant_limit,
            dispatchers=args.dispatchers,
            verbose=args.verbose,
        )
    except OSError as exc:
        print(
            f"error: repro cluster: cannot listen on "
            f"{args.host}:{args.port}: {exc}",
            file=sys.stderr,
        )
        return 1
    ports = [h.port for h in supervisor.handles]
    print(
        f"repro cluster: router on http://{args.host}:{router.port}, "
        f"{args.replicas} replicas on ports {ports} "
        f"(shared cache: {cache_dir})",
        file=sys.stderr,
    )
    install_shutdown_handlers(router)  # type: ignore[arg-type]
    thread.join()  # until a signal handler shuts the router down
    drained = router.drain(args.drain_s)
    router.close()
    supervisor.stop()
    print(
        f"repro cluster: shut down "
        f"({'drained' if drained else 'drain deadline hit'})",
        file=sys.stderr,
    )
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(cluster_main())
