"""Measured schedules in the simulator's vocabulary — and live counters.

The simulator (:mod:`repro.machine`) produces :class:`SimResult` objects;
the real runtime produces :class:`~repro.parallel.runtime.ParallelRunResult`
claim logs.  This module converts the latter into the former so one set of
renderers and metrics (``render_gantt``, ``speedup``, ``imbalance``) serves
both — measured schedules can be eyeballed and plotted directly against
simulator predictions, which is how the true-parallel benchmark closes the
loop on the paper's claims.

Times are seconds (optionally rescaled); chunk first-iterations are
converted to the simulator's 0-based flat convention.

This module also owns the *observability schema*: every parallel run
records into the process-wide :data:`DISPATCH` counters, and
:func:`metrics_snapshot` folds those together with the artifact cache's
counters (and, when serving, the server's request counters) into one JSON
document.  The server's ``GET /metrics`` endpoint returns exactly this
structure, so in-process runs and served runs are observed through one
schema.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from repro.machine.trace import ChunkEvent, ProcessorTrace, SimResult

#: Version tag of the metrics document layout.
METRICS_SCHEMA = "repro.metrics/v1"


@dataclass
class DispatchCounters:
    """Monotonic process-wide counters over every parallel run."""

    runs: int = 0
    dispatches: int = 0
    #: Times a fleet was forked and joined: ``dispatches`` counts DOALL
    #: instances, and a run inside the native SPMD region
    #: (:mod:`repro.parallel.region`) serves all of its instances with one.
    fork_joins: int = 0
    #: Runs with a DOALL under a serial loop, by how they ran: ``"native"``
    #: (the region) or the rule code that kept them on the per-dispatch path.
    regions: dict[str, int] | None = None
    claims: int = 0
    lock_ops: int = 0
    iterations: int = 0
    wall_s: float = 0.0
    fallbacks: int = 0
    #: Per-chunk-language dispatch counts: "c" (native kernel), "numpy"
    #: (whole-slice vectorized chunk), "py" (interpreted chunk), "mixed"
    #: (workers of one dispatch disagreed — some dlopened the kernel,
    #: some degraded).
    chunk_c: int = 0
    chunk_numpy: int = 0
    chunk_py: int = 0
    chunk_mixed: int = 0
    #: Dispatches that *wanted* the C chunk language but degraded to
    #: Python (no compiler, codegen failure, compile failure, or a
    #: worker-side dlopen failure).
    chunk_fallbacks: int = 0
    #: Per-claim-protocol dispatch counts: "native" (the C fetch&add
    #: loop), "py" (the Python loop over the lock-guarded counter),
    #: "static" (no counter) — and how often the native protocol was
    #: chosen but not followed: once per dispatch or region run that a
    #: worker could not bind, and that went out again on the Python
    #: protocol.
    claim_native: int = 0
    claim_py: int = 0
    claim_static: int = 0
    claim_fallbacks: int = 0
    #: Chunk-safety verifier activity: procedures checked, per-loop
    #: verdicts, dispatches refused under ``safety="enforce"`` (executed
    #: serially instead), and finding counts keyed by stable rule code.
    safety_checked: int = 0
    safety_proven: int = 0
    safety_unproven: int = 0
    safety_blocked: int = 0
    safety_findings: dict[str, int] | None = None
    #: ``safety="speculate"`` activity: dispatches routed through the
    #: runtime inspector, dispatches the inspector proved disjoint (then
    #: executed normally), dispatches executed speculatively against
    #: shadow arrays, and how those speculations resolved (committed vs
    #: rolled back to serial).
    spec_inspected: int = 0
    spec_proven_dynamic: int = 0
    spec_speculated: int = 0
    spec_committed: int = 0
    spec_rolled_back: int = 0
    #: Transform activity: pipeline fission outcomes (loops split /
    #: refused with every statement in one dependence cycle), reductions
    #: recognized by the verifier or the transform pass, and dispatches
    #: executed through the runtime's partial-accumulator reduction
    #: engine.
    fission_applied: int = 0
    fission_refused: int = 0
    reductions_recognized: int = 0
    reduction_dispatches: int = 0

    def as_dict(self) -> dict:
        return {
            "runs": self.runs,
            "dispatches": self.dispatches,
            "fork_joins": self.fork_joins,
            "regions": dict(self.regions or {}),
            "claims": self.claims,
            "lock_ops": self.lock_ops,
            "iterations": self.iterations,
            "wall_s": round(self.wall_s, 6),
            "fallbacks": self.fallbacks,
            "chunk_lang": {
                "c": self.chunk_c,
                "numpy": self.chunk_numpy,
                "py": self.chunk_py,
                "mixed": self.chunk_mixed,
                "fallbacks": self.chunk_fallbacks,
            },
            "claim_loop": {
                "native": self.claim_native,
                "py": self.claim_py,
                "static": self.claim_static,
                "fallbacks": self.claim_fallbacks,
            },
            "safety": {
                "checked": self.safety_checked,
                "proven": self.safety_proven,
                "unproven": self.safety_unproven,
                "blocked": self.safety_blocked,
                "findings": dict(self.safety_findings or {}),
            },
            "speculate": {
                "inspected": self.spec_inspected,
                "proven_dynamic": self.spec_proven_dynamic,
                "speculated": self.spec_speculated,
                "committed": self.spec_committed,
                "rolled_back": self.spec_rolled_back,
            },
            "transforms": {
                "fission_applied": self.fission_applied,
                "fission_refused": self.fission_refused,
                "reductions_recognized": self.reductions_recognized,
                "reduction_dispatches": self.reduction_dispatches,
            },
        }


@dataclass
class JobCounters:
    """Monotonic job-lifecycle counters (the ``jobs`` metrics block).

    Owned by a :class:`repro.cluster.jobs.JobQueue` (each queue carries its
    own instance, so two clusters in one process do not cross-count); the
    router folds them into ``GET /metrics`` under ``"jobs"``.
    """

    submitted: int = 0
    completed: int = 0
    failed: int = 0
    retried: int = 0
    rejected: int = 0
    cancelled: int = 0
    expired: int = 0

    def as_dict(self) -> dict:
        return {
            "submitted": self.submitted,
            "completed": self.completed,
            "failed": self.failed,
            "retried": self.retried,
            "rejected": self.rejected,
            "cancelled": self.cancelled,
            "expired": self.expired,
        }


@dataclass
class TransportCounters:
    """Per-transport request counts (the ``transport`` metrics block).

    Counted wherever a ``/run`` body is accepted: the lone server counts
    under ``server.transport``, the cluster front door under
    ``cluster.transport`` — the router's counts are how the pass-through
    claim is asserted (wire runs increment ``wire`` without the router
    ever materializing an ndarray).  Callers guard with their own lock.
    """

    json: int = 0
    wire: int = 0

    def bump(self, transport: str) -> None:
        if transport not in ("json", "wire"):
            raise ValueError(f"unknown transport {transport!r}")
        setattr(self, transport, getattr(self, transport) + 1)

    def as_dict(self) -> dict:
        return {"json": self.json, "wire": self.wire}


#: The counters :func:`record_run` / :func:`record_fallback` feed.
DISPATCH = DispatchCounters()
_DISPATCH_LOCK = threading.Lock()


def record_run(result) -> None:
    """Fold one :class:`~repro.parallel.runtime.ParallelProcedureResult`
    into :data:`DISPATCH`."""
    with _DISPATCH_LOCK:
        DISPATCH.runs += 1
        DISPATCH.dispatches += len(result.dispatches)
        DISPATCH.fork_joins += result.fork_joins
        if result.region is not None:
            if DISPATCH.regions is None:
                DISPATCH.regions = {}
            code = result.region.partition(":")[0]
            DISPATCH.regions[code] = DISPATCH.regions.get(code, 0) + 1
        DISPATCH.claims += result.claims
        DISPATCH.lock_ops += result.lock_ops
        DISPATCH.iterations += result.total_iterations
        DISPATCH.wall_s += result.wall_time
        for d in result.dispatches:
            if d.chunk_lang == "c":
                DISPATCH.chunk_c += 1
            elif d.chunk_lang == "numpy":
                DISPATCH.chunk_numpy += 1
            elif d.chunk_lang == "mixed":
                DISPATCH.chunk_mixed += 1
            else:
                DISPATCH.chunk_py += 1
            if d.claim_loop == "native":
                DISPATCH.claim_native += 1
            elif d.claim_loop == "static":
                DISPATCH.claim_static += 1
            else:
                DISPATCH.claim_py += 1


def record_fallback() -> None:
    """Count one graceful serial fallback (``backend="mp"`` degradation)."""
    with _DISPATCH_LOCK:
        DISPATCH.fallbacks += 1


def record_chunk_fallback(count: int = 1) -> None:
    """Count dispatches that wanted C chunks but degraded to Python."""
    with _DISPATCH_LOCK:
        DISPATCH.chunk_fallbacks += count


def record_claim_fallback(count: int = 1) -> None:
    """Count native jobs a worker could not bind, each then re-sent on the
    lock-guarded protocol."""
    with _DISPATCH_LOCK:
        DISPATCH.claim_fallbacks += count


def record_safety(report) -> None:
    """Fold one :class:`~repro.analysis.safety.SafetyReport` into counters."""
    with _DISPATCH_LOCK:
        DISPATCH.safety_checked += 1
        for verdict in report.loops:
            if verdict.proven:
                DISPATCH.safety_proven += 1
            else:
                DISPATCH.safety_unproven += 1
        if report.findings:
            if DISPATCH.safety_findings is None:
                DISPATCH.safety_findings = {}
            for f in report.findings:
                DISPATCH.safety_findings[f.rule] = (
                    DISPATCH.safety_findings.get(f.rule, 0) + 1
                )


def record_safety_block(count: int = 1) -> None:
    """Count dispatches refused under ``safety="enforce"`` (ran serially)."""
    with _DISPATCH_LOCK:
        DISPATCH.safety_blocked += count


def record_reduction_dispatch(count: int = 1) -> None:
    """Count dispatches run through the partial-accumulator engine."""
    with _DISPATCH_LOCK:
        DISPATCH.reduction_dispatches += count


def record_transforms(
    fission_applied: int = 0,
    fission_refused: int = 0,
    reductions: int = 0,
) -> None:
    """Fold one pipeline's transform outcomes into :data:`DISPATCH`."""
    with _DISPATCH_LOCK:
        DISPATCH.fission_applied += fission_applied
        DISPATCH.fission_refused += fission_refused
        DISPATCH.reductions_recognized += reductions


def record_speculate(
    inspected: int = 0,
    proven_dynamic: int = 0,
    speculated: int = 0,
    committed: int = 0,
    rolled_back: int = 0,
) -> None:
    """Fold one ``safety="speculate"`` event into :data:`DISPATCH`."""
    with _DISPATCH_LOCK:
        DISPATCH.spec_inspected += inspected
        DISPATCH.spec_proven_dynamic += proven_dynamic
        DISPATCH.spec_speculated += speculated
        DISPATCH.spec_committed += committed
        DISPATCH.spec_rolled_back += rolled_back


def metrics_snapshot(
    cache: object = "default",
    server: dict | None = None,
    jobs: dict | None = None,
    cluster: dict | None = None,
) -> dict:
    """The unified metrics document (what ``GET /metrics`` serves).

    ``cache`` is resolved like every other cache argument (``"default"``,
    an :class:`repro.cache.ArtifactCache`, a path, or None); ``server``
    is the server's own request-counter block, absent for in-process use.
    A cluster front door additionally passes ``jobs`` (the queue's
    :class:`JobCounters` plus live state gauges) and ``cluster`` (replica
    fleet health: alive/restarts, per-replica in-flight gauges, tenants),
    so one schema observes a lone server and an N-replica deployment.
    """
    from repro.cache import resolve_cache

    store = resolve_cache(cache)
    doc = {
        "schema": METRICS_SCHEMA,
        "dispatch": DISPATCH.as_dict(),
        "cache": store.stats_dict() if store is not None else None,
    }
    if server is not None:
        doc["server"] = server
    if jobs is not None:
        doc["jobs"] = jobs
    if cluster is not None:
        doc["cluster"] = cluster
    return doc


def to_sim_result(run, time_scale: float = 1.0) -> SimResult:
    """Convert a measured parallel run into a :class:`SimResult`.

    Claim latency (issue → grant) counts as overhead, body execution as
    busy time — the same split the simulator draws between dispatch cost
    and body cost.  Batched claims stay honest under this accounting: only
    the first chunk of a batch carries the counter round-trip, the rest
    are logged with zero claim latency, so the overhead column reflects
    actual lock traffic (``run.lock_ops``), not chunk count.
    ``time_scale`` multiplies every timestamp (e.g. pass ``1e6`` to read
    the Gantt in microseconds).
    """
    traces = [ProcessorTrace() for _ in range(run.workers)]
    events: list[ChunkEvent] = []
    for e in run.events:
        t = traces[e.worker]
        start = e.t_claim * time_scale
        work_start = e.t_work * time_scale
        end = e.t_end * time_scale
        t.overhead += work_start - start
        t.busy += end - work_start
        t.dispatches += 1
        t.iterations += e.size
        t.finish = max(t.finish, end)
        events.append(
            ChunkEvent(e.worker, start, work_start, end, e.lo - run.lo, e.size)
        )
    if run.events:
        finish = max(t.finish for t in traces)
    else:  # event logging disabled: fall back to aggregate accounting
        finish = run.wall_time * time_scale
        for wid, iters in enumerate(run.iterations_per_worker):
            traces[wid].iterations = iters
            traces[wid].finish = finish
    return SimResult(
        finish_time=finish,
        processors=traces,
        barriers=1,
        total_dispatches=run.claims,
        events=sorted(events, key=lambda e: (e.start, e.processor)),
    )
