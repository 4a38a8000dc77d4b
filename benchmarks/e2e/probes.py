"""Per-layer numbers: each layer's public functions, timed from outside.

Runs inside the traced pass, after both timed windows, against the
workload's own procedure and arrays — so ``wire.encode_ms`` on
``serve_bulk`` is the cost of *its* 16 MiB and on ``serve_small`` of *its*
18 KiB.  A time is the median of repeated calls; a count is exact.

The parallel-runtime numbers come from an in-process run of the workload's
transformed procedure on a probe ``WorkerPool`` (for the ``nest_*``
workloads that is the op itself; for the served ones it is what the server
does behind HTTP).  The service and cluster numbers come from a 1-replica
probe cluster in its own process: the replica's own port is a lone
``ReproServer`` (``service.*``), the router in front of it gives
``cluster.*``.
"""

from __future__ import annotations

import ctypes
import multiprocessing
import os
import pickle
import statistics
import time

from repro.analysis.doall import mark_doall
from repro.analysis.safety import dispatchable, verify_procedure
from repro.api import lower_and_coalesce
from repro.cache import ArtifactCache, artifact_key, configure
from repro.codegen.cgen import generate_chunk_c
from repro.codegen.cload import (
    compile_c_procedure,
    compile_chunk_library,
    load_chunk_kernel,
)
from repro.frontend.dsl import parse
from repro.frontend.pyfront import from_python
from repro.ir.builder import assign, doall, proc as make_proc, v
from repro.ir.stmt import Loop
from repro.ir.visitor import walk_exprs, walk_stmts
from repro.parallel import (
    SharedClaimCounter,
    WorkerPool,
    compile_mp_procedure,
    run_parallel_procedure,
)
from repro.runtime.inspector import inspect_dispatch
from repro.runtime.interp import eval_bound
from repro.service import ServiceClient
from repro.transforms import coalesce_procedure
from repro.tuning import measure_counter_cost
from repro import wire

from benchmarks.e2e.workloads import (
    OP_TIMEOUT_S,
    WORKERS,
    CheckError,
    copy_arrays,
    mismatch,
    result_stats,
    start_small_cluster,
    stop_service,
)

REFERENCE_SAMPLES = 30  # serial C / OpenMP reference rows
TWIN_RUNS = 5
SERVED_RUNS = 9


def samples_ms(fn, min_n=5, max_n=40, budget_s=0.2) -> list[float]:
    """Wall times of repeated ``fn()`` calls: at least ``min_n``, then more
    while the budget lasts."""
    out: list[float] = []
    stop = time.perf_counter() + budget_s
    while len(out) < min_n or (
        len(out) < max_n and time.perf_counter() < stop
    ):
        t0 = time.perf_counter()
        fn()
        out.append((time.perf_counter() - t0) * 1e3)
    return out


def med_ms(fn, **kw) -> float:
    return statistics.median(samples_ms(fn, **kw))


def first_dispatchable(proc) -> Loop:
    for s in proc.body.stmts:
        if isinstance(s, Loop) and dispatchable(s):
            return s
    raise CheckError(f"{proc.name}: no top-level dispatchable loop")


def compile_layers(bench, workdir) -> dict:
    """frontend, analysis, transforms, codegen and the reference rows."""
    m = {}
    parser = parse if bench.frontend == "dsl" else from_python
    m["frontend.parse_ms"] = med_ms(lambda: parser(bench.source))
    m["analysis.mark_doall_ms"] = med_ms(lambda: mark_doall(bench.original))
    m["analysis.verify_ms"] = med_ms(lambda: verify_procedure(bench.proc))
    marked = bench.coalesce_input()
    m["transforms.coalesce_ms"] = med_ms(lambda: coalesce_procedure(marked))
    m["transforms.ir_nodes_after"] = sum(
        1 + sum(1 for _ in walk_exprs(s)) for s in walk_stmts(bench.proc.body)
    )

    proc, loop = bench.proc, first_dispatchable(bench.proc)
    fname = f"{proc.name}__chunk"
    types = {s: "long" for s in proc.scalars}

    def generate():
        return generate_chunk_c(proc, loop=loop, name=fname, scalar_types=types)

    m["codegen.generate_chunk_c_ms"] = med_ms(generate)
    source = generate()
    cc_ms = []
    for k in range(3):  # a fresh store each time, so gcc really runs
        store = ArtifactCache(workdir / f"probe-cc-{k}")
        t0 = time.perf_counter()
        so_path, hit = compile_chunk_library(source, fname, cache=store)
        cc_ms.append((time.perf_counter() - t0) * 1e3)
        if hit:
            raise CheckError("codegen.cc_ms probe was served from a cache")
    m["codegen.cc_ms"] = statistics.median(cc_ms)
    m["codegen.chunk_so_bytes"] = os.path.getsize(so_path)

    sig: list[str] = []
    for rank in proc.arrays.values():
        sig += ["ptr"] + ["long"] * rank
    sig += ["long"] * len(proc.scalars)
    kernel = load_chunk_kernel(so_path, fname, tuple(sig))
    lo = eval_bound(loop.lower, bench.scalars, bench.arrays)
    hi = eval_bound(loop.upper, bench.scalars, bench.arrays)
    scratch = copy_arrays(bench.arrays)
    args: list = [lo, hi]
    for name in proc.arrays:
        a = scratch[name]
        args.append(a.ctypes.data_as(ctypes.POINTER(ctypes.c_double)))
        args.extend(a.shape)
    args.extend(int(bench.scalars[s]) for s in proc.scalars)
    whole_ms = med_ms(lambda: kernel(*args), min_n=3)
    m["codegen.chunk_ns_per_iter"] = whole_ms * 1e6 / max(1, hi - lo + 1)

    for key, omp in (("codegen.serial_c_ms", False), ("codegen.omp_c_ms", True)):
        compiled = compile_c_procedure(bench.original, omp=omp)
        times = []
        for _ in range(REFERENCE_SAMPLES):
            scratch = copy_arrays(bench.arrays)
            t0 = time.perf_counter()
            compiled.run(scratch, bench.scalars)
            times.append((time.perf_counter() - t0) * 1e3)
        m[key] = statistics.median(times)

    m["runtime.inspector_ms"] = med_ms(
        lambda: inspect_dispatch(loop, bench.scalars, bench.arrays), min_n=3
    )
    return m


def cache_layers(bench, workdir) -> dict:
    """Store a pipeline blob, read it back, miss on an unknown key; then
    the warm path of the one-call API on a store that already holds it."""
    m = {}
    store = ArtifactCache(workdir / "probe-cache")
    blob = pickle.dumps((bench.original, bench.proc, []))
    keys = iter(
        artifact_key("pipeline", source=bench.source, probe=i)
        for i in range(1 << 20)
    )
    key = next(keys)
    m["cache.put_ms"] = med_ms(
        lambda: store.put(next(keys), {"pipeline.pkl": blob})
    )
    store.put(key, {"pipeline.pkl": blob})
    m["cache.get_hit_ms"] = med_ms(lambda: store.get_bytes(key, "pipeline.pkl"))
    missing = artifact_key("pipeline", source=bench.source, probe="missing")
    m["cache.get_miss_ms"] = med_ms(
        lambda: store.get_bytes(missing, "pipeline.pkl")
    )

    warm = configure(dir=workdir / "probe-warm")

    def transform_and_call():
        _, proc, _, _ = lower_and_coalesce(
            bench.source, frontend=bench.frontend, analyze=bench.analyze,
            cache=warm,
        )
        compiled = compile_mp_procedure(
            proc, workers=WORKERS, timeout=OP_TIMEOUT_S, **bench.run_kwargs
        )
        arrays = copy_arrays(bench.arrays)
        compiled.run(arrays, bench.scalars)
        if compiled.fallback_reason or mismatch(arrays, bench.expected):
            raise CheckError(f"warm transform: {compiled.fallback_reason}")

    try:
        transform_and_call()  # fills the store
        m["api.warm_transform_ms"] = med_ms(
            transform_and_call, min_n=3, budget_s=0.5
        )
    finally:
        configure()  # back to the pass's own REPRO_CACHE_DIR
    return m


def parallel_layers(bench) -> dict:
    m = {}
    counter_us = []
    for _ in range(5):
        measure_counter_cost.cache_clear()
        counter_us.append(measure_counter_cost() * 1e6)
    m["tuning.counter_cost_us"] = statistics.median(counter_us)

    n_claims = 20_000
    counter = SharedClaimCounter(1, n_claims, multiprocessing.get_context())
    t0 = time.perf_counter()
    while counter.claim_batch(("unit",), 1):
        pass
    m["parallel.counter_claim_us"] = (time.perf_counter() - t0) * 1e6 / n_claims

    def spawn_and_close():
        WorkerPool(bench.arrays, workers=WORKERS).close()

    m["parallel.pool_spawn_ms"] = med_ms(spawn_and_close, min_n=3, budget_s=0.3)

    empty = make_proc(
        "empty_dispatch",
        doall("i", 1, WORKERS)(assign(v("t"), v("i"))),
        arrays=dict(bench.proc.arrays),
    )
    with WorkerPool(bench.arrays, workers=WORKERS) as pool:
        m["parallel.pool_load_ms"] = med_ms(lambda: pool.load(bench.arrays))
        scratch = copy_arrays(bench.arrays)
        m["parallel.pool_copy_back_ms"] = med_ms(lambda: pool.copy_back(scratch))

        def empty_dispatch():
            run_parallel_procedure(
                empty, pool.views, {}, workers=WORKERS, pool=pool,
                preloaded=True, safety="off", timeout=OP_TIMEOUT_S,
            )

        empty_dispatch()
        m["parallel.empty_dispatch_us"] = med_ms(empty_dispatch) * 1e3

        twins = []
        for _ in range(TWIN_RUNS):
            arrays = copy_arrays(bench.arrays)
            result = run_parallel_procedure(
                bench.proc, arrays, bench.scalars, workers=WORKERS, pool=pool,
                timeout=OP_TIMEOUT_S, **bench.run_kwargs,
            )
            if result.chunk_lang != "c" or mismatch(arrays, bench.expected):
                raise CheckError("in-process twin run is wrong")
            twins.append(result_stats(result))
    first = twins[0]
    for key in ("dispatches", "claims", "lock_ops", "claim_batch"):
        if any(t[key] != first[key] for t in twins):
            raise CheckError(f"{key} does not repeat: {[t[key] for t in twins]}")
    uncovered_us = statistics.median(t["uncovered_s"] for t in twins) * 1e6
    m["parallel.dispatches_per_op"] = first["dispatches"]
    m["parallel.claims_per_op"] = first["claims"]
    m["parallel.lock_ops_per_op"] = first["lock_ops"]
    m["tuning.claim_batch"] = first["claim_batch"]
    m["parallel.imbalance"] = statistics.median(t["imbalance"] for t in twins)
    m["parallel.dispatch_overhead_us"] = uncovered_us / first["dispatches"]
    m["parallel.claim_overhead_us"] = uncovered_us / first["claims"]
    return m


def wire_layers(bench) -> dict:
    m = {}
    body = {"key": "0" * 64, "scalars": bench.scalars}
    m["wire.encode_ms"] = med_ms(lambda: wire.encode_frame(body, bench.arrays))
    frame = wire.encode_frame(body, bench.arrays)
    m["wire.decode_ms"] = med_ms(lambda: wire.decode_frame(frame))

    def json_encode():
        return {k: wire.jsonable_array(a) for k, a in bench.arrays.items()}

    m["wire.json_encode_ms"] = med_ms(json_encode, min_n=3)
    lists = json_encode()
    tags = wire.dtype_tags(bench.arrays)
    m["wire.json_decode_ms"] = med_ms(
        lambda: {k: wire.array_from_json(x, tags[k]) for k, x in lists.items()},
        min_n=3,
    )
    return m


def service_layers(bench, workdir) -> tuple[dict, tuple[int, int]]:
    """``service.*`` / ``cluster.*`` numbers, and the probe replica's
    cache (hits, misses) over the session."""
    m = {}
    service, router_port, replica_port = start_small_cluster(workdir, "probe")
    direct = ServiceClient(
        port=replica_port, timeout=OP_TIMEOUT_S, transport=bench.transport
    )
    routed = ServiceClient(
        port=router_port, timeout=OP_TIMEOUT_S, transport=bench.transport
    )
    try:
        m["service.healthz_ms"] = med_ms(direct.healthz)

        def compile_():
            return direct.compile(
                bench.source, backend="mp", frontend=bench.frontend,
                analyze=bench.analyze,
            )

        t0 = time.perf_counter()
        key = compile_()["key"]
        m["service.compile_cold_ms"] = (time.perf_counter() - t0) * 1e3
        m["service.compile_warm_ms"] = med_ms(compile_, min_n=3)
        m["service.lint_ms"] = med_ms(
            lambda: direct.lint(bench.source, frontend=bench.frontend), min_n=3
        )

        server_ms: list[float] = []

        def run(client):
            out = client.run(
                key, bench.arrays, bench.scalars, workers=WORKERS,
                timeout=OP_TIMEOUT_S, **bench.run_kwargs,
            )
            if out.get("engine") != "mp-pool" or mismatch(
                out["arrays"], bench.expected
            ):
                raise CheckError(f"served probe run is wrong: {out.get('engine')}")
            server_ms.append(out["wall_s"] * 1e3)

        def traffic():
            s = direct.metrics()["server"]
            return s["bytes_in"] + s["bytes_out"]

        run(direct)  # pool lease, first-use calibration
        run(routed)
        server_ms.clear()
        # Two back-to-back reads price the /metrics request itself.
        b0, b1 = traffic(), traffic()
        direct_ms = samples_ms(
            lambda: run(direct), min_n=SERVED_RUNS, max_n=SERVED_RUNS
        )
        b2 = traffic()
        m["wire.bytes_per_op"] = ((b2 - b1) - (b1 - b0)) / SERVED_RUNS
        m["service.run_server_wall_ms"] = statistics.median(server_ms)
        m["service.client_overhead_ms"] = (
            statistics.median(direct_ms) - m["service.run_server_wall_ms"]
        )
        routed_ms = samples_ms(
            lambda: run(routed), min_n=SERVED_RUNS, max_n=SERVED_RUNS
        )
        m["cluster.router_hop_ms"] = statistics.median(
            routed_ms
        ) - statistics.median(direct_ms)

        def submit_poll():
            # Async jobs travel as json or wire; shm is synchronous-only.
            job = routed.submit_run(
                key, bench.arrays, bench.scalars, workers=WORKERS,
                timeout=OP_TIMEOUT_S, **bench.run_kwargs,
            )
            doc = routed.wait(job["job_id"], timeout=OP_TIMEOUT_S)
            if doc["state"] != "done":
                raise CheckError(f"submitted job ended {doc['state']}")

        m["cluster.submit_poll_ms"] = med_ms(submit_poll, min_n=3)
        m["cluster.rejected"] = routed.metrics()["jobs"]["rejected"]
        cache = direct.metrics()["cache"]
    finally:
        direct.close()
        routed.close()
        stop_service(service)
    return m, (cache["hits"], cache["misses"])


def layer_metrics(bench, window, traced, hits0, workdir) -> dict:
    """Every per-layer metric of ``BENCHMARK.json`` for this workload."""
    p50 = statistics.median(window["op_ms"])
    counts = bench.cache_counts()
    m = {}
    m.update(compile_layers(bench, workdir))
    m.update(cache_layers(bench, workdir))
    m.update(parallel_layers(bench))
    m.update(wire_layers(bench))
    served_layers, served = service_layers(bench, workdir)
    m.update(served_layers)
    # Library workloads: the driver's own store over both timed windows.
    # Served workloads never touch a store in the driver, so theirs is the
    # probe replica's store over the service probe session.
    hits, misses = (
        served if counts is None
        else (counts[0] - hits0[0], counts[1] - hits0[1])
    )
    m["cache.hit_ratio"] = hits / max(1, hits + misses)
    m["codegen.vs_serial_c_x"] = m["codegen.serial_c_ms"] / p50
    m["driver.trace_overhead_x"] = statistics.median(traced["op_ms"]) / p50
    attempted = window["attempted"] + traced["attempted"]
    m["driver.fail_ratio"] = (window["failed"] + traced["failed"]) / attempted
    return m
