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

This module also owns the *observability schema*.  The process-wide
:data:`DISPATCH` counters are the ``/metrics`` ``dispatch`` block itself,
one name per count; every per-run count in it is folded by
:func:`record_run` from the run's
:class:`~repro.parallel.runtime.ParallelProcedureResult`, once, when the
run is over — the dispatch path bumps no counter.  Only a serial fallback
(:func:`record_fallback`, which has no run result) and a transform
pipeline (:func:`record_transforms`) count anything else.
:func:`metrics_snapshot` folds the counters together with the artifact
cache's (and, when serving, the server's request counters) into one JSON
document.  The server's ``GET /metrics`` endpoint returns exactly this
structure, so in-process runs and served runs are observed through one
schema.
"""

from __future__ import annotations

import copy
import threading
from collections import Counter
from dataclasses import dataclass

from repro.machine.trace import ChunkEvent, ProcessorTrace, SimResult

#: Version tag of the metrics document layout.
METRICS_SCHEMA = "repro.metrics/v1"


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


#: Monotonic process-wide counters over every parallel run, in the shape
#: ``/metrics`` serves them (``wall_s`` is rounded on the way out):
#:
#: * ``dispatches`` counts DOALL instances, ``fork_joins`` the times a
#:   fleet was forked and joined — a run inside the native SPMD region
#:   (:mod:`repro.parallel.region`) serves all its instances with one;
#: * ``regions``: runs with a DOALL under a serial loop, by how they ran —
#:   ``native`` (the region) or the rule code that kept them per dispatch;
#: * ``fallbacks``: graceful serial fallbacks of ``backend="mp"``;
#: * ``chunk_lang``: dispatches per chunk language actually run (``mixed``:
#:   the workers of one dispatch disagreed), and ``fallbacks`` — those
#:   whose plan wanted the C kernel but ran a lower rung because the
#:   kernel did not build or a worker could not bind it (a rung derived
#:   from the host or the dtypes is not a fallback);
#: * ``claim_loop``: dispatches per claim protocol, and ``fallbacks`` —
#:   native jobs a worker could not enter, each re-sent on the
#:   lock-guarded protocol;
#: * ``safety``: verdicts (procedures checked, loops proven or not,
#:   findings by rule code) and dispatches ``blocked`` (run serially);
#: * ``inspect``: dispatches the runtime inspector addressed, and those
#:   it proved (they then dispatched normally);
#: * ``transforms``: pipeline outcomes (:func:`record_transforms`) and
#:   dispatches run through the partial-accumulator reduction engine.
DISPATCH: dict = {
    "runs": 0,
    "dispatches": 0,
    "fork_joins": 0,
    "regions": Counter(),
    "claims": 0,
    "lock_ops": 0,
    "iterations": 0,
    "wall_s": 0.0,
    "fallbacks": 0,
    "chunk_lang": {"c": 0, "numpy": 0, "py": 0, "mixed": 0, "fallbacks": 0},
    "claim_loop": {"native": 0, "py": 0, "static": 0, "fallbacks": 0},
    "safety": {
        "checked": 0, "proven": 0, "unproven": 0, "blocked": 0,
        "findings": Counter(),
    },
    "inspect": {"inspected": 0, "proven_dynamic": 0},
    "transforms": {
        "fission_applied": 0,
        "fission_refused": 0,
        "reductions_recognized": 0,
        "reduction_dispatches": 0,
    },
}
_DISPATCH_LOCK = threading.Lock()


def record_run(result, ran: bool = True) -> None:
    """Fold one :class:`~repro.parallel.runtime.ParallelProcedureResult`
    into :data:`DISPATCH`: the only writer of its per-run counts.

    Every count comes from the sums its
    :class:`~repro.parallel.runtime.RunTable` keeps, so the fold costs
    the same at 1 DOALL instance as at 257 and builds no result object.

    ``ran=False`` is a run its plan refused before any dispatch: only
    its verdict and its blocked loops count.
    """
    d, table = DISPATCH, result.table
    langs, protocols, safety = d["chunk_lang"], d["claim_loop"], d["safety"]
    with _DISPATCH_LOCK:
        d["runs"] += ran
        d["dispatches"] += len(table)
        d["fork_joins"] += result.fork_joins
        if result.region is not None:
            d["regions"][result.region.partition(":")[0]] += 1
        d["claims"] += result.claims
        d["lock_ops"] += result.lock_ops
        d["iterations"] += result.total_iterations
        d["wall_s"] += result.wall_time
        for lang, n in table.langs.items():
            langs[lang] += n
        langs["fallbacks"] += table.n_fallbacks
        for protocol, n in table.protocols.items():
            protocols[protocol] += n
        protocols["fallbacks"] += result.claim_fallbacks
        if result.safety is not None:
            safety["checked"] += 1
            for verdict in result.safety.loops:
                safety["proven" if verdict.proven else "unproven"] += 1
            for finding in result.safety.findings:
                safety["findings"][finding.rule] += 1
        safety["blocked"] += result.blocked_dispatches
        d["inspect"]["inspected"] += result.inspected
        d["inspect"]["proven_dynamic"] += result.proven_dynamic
        d["transforms"]["reduction_dispatches"] += result.reductions


def record_fallback() -> None:
    """Count one graceful serial fallback (``backend="mp"`` degradation)."""
    with _DISPATCH_LOCK:
        DISPATCH["fallbacks"] += 1


def record_transforms(
    fission_applied: int = 0,
    fission_refused: int = 0,
    reductions: int = 0,
) -> None:
    """Fold one pipeline's transform outcomes into :data:`DISPATCH`."""
    counts = DISPATCH["transforms"]
    with _DISPATCH_LOCK:
        counts["fission_applied"] += fission_applied
        counts["fission_refused"] += fission_refused
        counts["reductions_recognized"] += reductions


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
    with _DISPATCH_LOCK:
        dispatch = copy.deepcopy(DISPATCH)
    dispatch["wall_s"] = round(dispatch["wall_s"], 6)
    doc = {
        "schema": METRICS_SCHEMA,
        "dispatch": dispatch,
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
