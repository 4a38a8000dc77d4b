"""The load-test harness: thousands of concurrent mixed requests.

``python -m repro loadtest`` drives a running front door (``--url``) or
self-hosts a throwaway cluster (``--replicas N``) and hammers it with a
weighted mix of operations:

* ``run`` — synchronous ``POST /run`` of a precompiled kernel, the
  response verified **bit-identical** against a locally computed serial
  result on every single request;
* ``submit_poll`` — the async protocol end to end (``/submit`` → poll →
  ``/result``), verified the same way;
* ``compile`` — ``POST /compile`` cycling a small set of distinct-key
  kernel variants (first encounters cold, the rest shared-cache warm);
* ``lint`` — ``POST /lint`` of a clean kernel.

Two arrival disciplines: **closed-loop** (``--concurrency C`` workers,
each issuing its next request the moment the last returns — measures
saturation throughput) and **open-loop** (``--rate R`` arrivals/s for
``--duration S``, independent of response times — measures latency under
a fixed offered load; arrivals beyond the outstanding cap are counted as
``shed``, not silently dropped).

429 admission rejections are counted per-op (``rejected``) and excluded
from latency percentiles — they are the cluster *working as designed*
under saturation, not failures.  Results print as a table or, with
``--json``, as a ``repro.loadtest/v1`` document (what
``bench_p07_cluster.py`` consumes).
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from repro.service.client import ServiceClient, ServiceError

#: The run kernel (python frontend). O(n*m) interpreted body per request.
RUN_KERNEL = """
def ltwork(A, B, n, m):
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            B[i, j] = 2.0 * A[i, j] + 0.5 * B[i, j] + 1.0
"""

#: Distinct-key compile variants (the constant changes the content hash).
COMPILE_KERNEL = """
def ltcomp{i}(A, B, n, m):
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            B[i, j] = {i}.0 * A[i, j] + B[i, j]
"""

LINT_KERNEL = """
procedure ltlint(X[1], Y[1]; n)
  doall i = 1, n
    Y(i) := Y(i) + 2.0 * X(i)
  end
end
"""

DEFAULT_MIX = {"run": 60, "submit_poll": 20, "compile": 10, "lint": 10}


@dataclass
class LoadResult:
    """One request's outcome."""

    op: str
    ok: bool
    latency_s: float
    status: int = 200
    rejected: bool = False


@dataclass
class _Shared:
    """State shared by every worker thread."""

    results: list[LoadResult] = field(default_factory=list)
    verify_failures: int = 0
    shed: int = 0
    lock: threading.Lock = field(default_factory=threading.Lock)
    stop: threading.Event = field(default_factory=threading.Event)
    issued: int = 0

    def record(self, result: LoadResult) -> None:
        with self.lock:
            self.results.append(result)

    def take_ticket(self, limit: int | None) -> bool:
        """Closed-loop budget: claim one of ``limit`` total requests."""
        with self.lock:
            if limit is not None and self.issued >= limit:
                return False
            self.issued += 1
            return True


def _percentile(sorted_vals: list[float], q: float) -> float:
    if not sorted_vals:
        return 0.0
    idx = min(len(sorted_vals) - 1, int(round(q * (len(sorted_vals) - 1))))
    return sorted_vals[idx]


class LoadTest:
    """One configured load-test run against one front door."""

    def __init__(
        self,
        host: str,
        port: int,
        mix: dict[str, int] | None = None,
        run_n: int = 32,
        compile_variants: int = 8,
        tenant: str = "loadtest",
        timeout_s: float = 120.0,
        seed: int = 7,
        transport: str = "json",
    ) -> None:
        if transport not in ("json", "wire"):
            raise ValueError(f"unknown transport {transport!r} (json|wire)")
        self.transport = transport
        self.client = ServiceClient(
            host=host,
            port=port,
            timeout=timeout_s,
            retries=3,
            retry_deadline_s=timeout_s,
        )
        mix = dict(mix or DEFAULT_MIX)
        self.ops = [op for op, w in mix.items() if w > 0]
        self.weights = [mix[op] for op in self.ops]
        self.run_n = run_n
        self.compile_variants = compile_variants
        self.tenant = tenant
        self.seed = seed
        self.run_key: str | None = None
        self.expected_B: np.ndarray | None = None
        self.A: np.ndarray | None = None
        self.B0: np.ndarray | None = None

    # -- setup -------------------------------------------------------------
    def prepare(self) -> None:
        """Compile the run kernel through the front door and compute the
        serial ground truth locally (the bit-identity oracle)."""
        from repro.api import transform_function

        program = self.client.compile(RUN_KERNEL, backend="python")
        self.run_key = program["key"]
        rng = np.random.default_rng(self.seed)
        n = self.run_n
        self.A = rng.random((n + 1, n + 1))
        self.B0 = rng.random((n + 1, n + 1))
        self.expected_B = self.B0.copy()
        local = transform_function(RUN_KERNEL, cache=None)
        local(self.A, self.expected_B, n, n)

    # -- one request of each kind -----------------------------------------
    def _verify(self, arrays: dict) -> bool:
        return bool(np.array_equal(arrays["B"], self.expected_B))

    def _op_run(self) -> LoadResult:
        t0 = time.perf_counter()
        out = self.client.run(
            self.run_key,
            {"A": self.A, "B": self.B0},
            {"n": self.run_n, "m": self.run_n},
            transport=self.transport,
            tenant=self.tenant,
        )
        latency = time.perf_counter() - t0
        ok = self._verify(out["arrays"])
        return LoadResult("run", ok, latency)

    def _op_submit_poll(self) -> LoadResult:
        t0 = time.perf_counter()
        job = self.client.submit_run(
            self.run_key,
            {"A": self.A, "B": self.B0},
            {"n": self.run_n, "m": self.run_n},
            tenant=self.tenant,
            transport=self.transport,
        )
        doc = self.client.wait(job["job_id"], timeout=self.client.timeout)
        latency = time.perf_counter() - t0
        ok = doc["state"] == "done" and self._verify(doc["result"]["arrays"])
        return LoadResult("submit_poll", ok, latency)

    def _op_compile(self, rng: random.Random) -> LoadResult:
        src = COMPILE_KERNEL.format(i=rng.randrange(self.compile_variants))
        t0 = time.perf_counter()
        out = self.client.compile(src, backend="python", tenant=self.tenant)
        return LoadResult("compile", "key" in out, time.perf_counter() - t0)

    def _op_lint(self) -> LoadResult:
        t0 = time.perf_counter()
        out = self.client.lint(LINT_KERNEL, tenant=self.tenant)
        return LoadResult("lint", bool(out.get("ok")), time.perf_counter() - t0)

    def _one(self, rng: random.Random, shared: _Shared) -> None:
        op = rng.choices(self.ops, weights=self.weights, k=1)[0]
        try:
            if op == "run":
                result = self._op_run()
            elif op == "submit_poll":
                result = self._op_submit_poll()
            elif op == "compile":
                result = self._op_compile(rng)
            else:
                result = self._op_lint()
        except ServiceError as exc:
            result = LoadResult(
                op,
                ok=False,
                latency_s=0.0,
                status=exc.status,
                rejected=exc.status == 429,
            )
            if exc.status == 429 and exc.retry_after is not None:
                # Honor the admission hint (capped: keep the loop hot).
                shared.stop.wait(min(0.2, exc.retry_after))
        except Exception:
            result = LoadResult(op, ok=False, latency_s=0.0, status=0)
        if result.op in ("run", "submit_poll") and not result.ok and (
            result.status == 200
        ):
            with shared.lock:
                shared.verify_failures += 1
        shared.record(result)

    # -- arrival disciplines ----------------------------------------------
    def run_closed(
        self,
        concurrency: int,
        requests: int | None = None,
        duration_s: float | None = None,
    ) -> dict:
        """Closed loop: C workers, back-to-back requests."""
        shared = _Shared()
        deadline = (
            None if duration_s is None else time.monotonic() + duration_s
        )

        def worker(wid: int) -> None:
            rng = random.Random(self.seed * 1000 + wid)
            while not shared.stop.is_set():
                if deadline is not None and time.monotonic() >= deadline:
                    break
                if not shared.take_ticket(requests):
                    break
                self._one(rng, shared)

        t0 = time.perf_counter()
        threads = [
            threading.Thread(target=worker, args=(i,), daemon=True)
            for i in range(concurrency)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        wall = time.perf_counter() - t0
        return self._summarize(
            shared, wall, mode="closed", concurrency=concurrency
        )

    def run_open(
        self,
        rate_rps: float,
        duration_s: float,
        max_outstanding: int = 256,
    ) -> dict:
        """Open loop: Poisson-ish fixed-rate arrivals, latency under load."""
        shared = _Shared()
        outstanding = threading.Semaphore(max_outstanding)
        threads: list[threading.Thread] = []
        rng_seq = random.Random(self.seed)

        def fire(wid: int) -> None:
            rng = random.Random(self.seed * 1000 + wid)
            try:
                self._one(rng, shared)
            finally:
                outstanding.release()

        t0 = time.perf_counter()
        deadline = t0 + duration_s
        wid = 0
        interval = 1.0 / rate_rps
        next_at = t0
        while time.perf_counter() < deadline:
            now = time.perf_counter()
            if now < next_at:
                time.sleep(min(interval, next_at - now))
                continue
            next_at += interval * rng_seq.uniform(0.5, 1.5)
            if not outstanding.acquire(blocking=False):
                with shared.lock:
                    shared.shed += 1
                continue
            t = threading.Thread(target=fire, args=(wid,), daemon=True)
            threads.append(t)
            t.start()
            wid += 1
        for t in threads:
            t.join(timeout=self.client.timeout)
        wall = time.perf_counter() - t0
        return self._summarize(
            shared, wall, mode="open", rate_rps=rate_rps
        )

    # -- reporting ---------------------------------------------------------
    def _summarize(self, shared: _Shared, wall_s: float, **config) -> dict:
        config.setdefault("transport", self.transport)
        per_op: dict[str, dict] = {}
        for op in self.ops:
            rows = [r for r in shared.results if r.op == op]
            lat = sorted(
                r.latency_s for r in rows if r.ok and not r.rejected
            )
            per_op[op] = {
                "requests": len(rows),
                "ok": sum(1 for r in rows if r.ok),
                "errors": sum(
                    1 for r in rows if not r.ok and not r.rejected
                ),
                "rejected": sum(1 for r in rows if r.rejected),
                "p50_ms": round(_percentile(lat, 0.50) * 1e3, 3),
                "p90_ms": round(_percentile(lat, 0.90) * 1e3, 3),
                "p99_ms": round(_percentile(lat, 0.99) * 1e3, 3),
                "mean_ms": round(
                    (sum(lat) / len(lat) * 1e3) if lat else 0.0, 3
                ),
            }
        completed = sum(1 for r in shared.results if r.ok)
        all_lat = sorted(
            r.latency_s for r in shared.results if r.ok and not r.rejected
        )
        return {
            "schema": "repro.loadtest/v1",
            "config": {
                **config,
                "mix": dict(zip(self.ops, self.weights)),
                "run_n": self.run_n,
                "tenant": self.tenant,
            },
            "wall_s": round(wall_s, 4),
            "requests": len(shared.results),
            "completed": completed,
            "errors": sum(
                1 for r in shared.results if not r.ok and not r.rejected
            ),
            "rejected": sum(1 for r in shared.results if r.rejected),
            "shed": shared.shed,
            "verify_failures": shared.verify_failures,
            "throughput_rps": round(completed / wall_s, 3) if wall_s else 0.0,
            "p50_ms": round(_percentile(all_lat, 0.50) * 1e3, 3),
            "p99_ms": round(_percentile(all_lat, 0.99) * 1e3, 3),
            "per_op": per_op,
        }


def format_report(doc: dict) -> str:
    """Human-readable table of a ``repro.loadtest/v1`` document."""
    lines = [
        f"loadtest [{doc['config'].get('mode', '?')}]: "
        f"{doc['requests']} requests in {doc['wall_s']}s -> "
        f"{doc['throughput_rps']} req/s, "
        f"p50={doc['p50_ms']}ms p99={doc['p99_ms']}ms, "
        f"errors={doc['errors']} rejected={doc['rejected']} "
        f"shed={doc['shed']} verify_failures={doc['verify_failures']}",
        f"{'op':<12} {'reqs':>6} {'ok':>6} {'err':>5} {'429':>5} "
        f"{'p50ms':>9} {'p90ms':>9} {'p99ms':>9} {'meanms':>9}",
    ]
    for op, row in doc["per_op"].items():
        lines.append(
            f"{op:<12} {row['requests']:>6} {row['ok']:>6} "
            f"{row['errors']:>5} {row['rejected']:>5} "
            f"{row['p50_ms']:>9} {row['p90_ms']:>9} {row['p99_ms']:>9} "
            f"{row['mean_ms']:>9}"
        )
    return "\n".join(lines)


def run_loadtest(
    host: str = "127.0.0.1",
    port: int = 8923,
    mode: str = "closed",
    concurrency: int = 16,
    requests: int | None = 500,
    duration_s: float | None = None,
    rate_rps: float = 50.0,
    mix: dict[str, int] | None = None,
    run_n: int = 32,
    tenant: str = "loadtest",
    seed: int = 7,
    transport: str = "json",
) -> dict:
    """Programmatic entry point (what the bench and tests call)."""
    test = LoadTest(
        host=host, port=port, mix=mix, run_n=run_n, tenant=tenant,
        seed=seed, transport=transport,
    )
    test.prepare()
    if mode == "closed":
        return test.run_closed(
            concurrency=concurrency,
            requests=requests,
            duration_s=duration_s,
        )
    if mode == "open":
        return test.run_open(
            rate_rps=rate_rps, duration_s=duration_s or 5.0
        )
    raise ValueError(f"unknown mode {mode!r} (closed|open)")


def loadtest_main(argv: list[str] | None = None) -> int:
    """``python -m repro loadtest`` entry point."""
    parser = argparse.ArgumentParser(
        prog="repro loadtest",
        description="Hammer a repro cluster (or lone server) with a mixed "
        "compile/run/lint/submit-poll workload",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8923)
    parser.add_argument(
        "--replicas",
        type=int,
        default=None,
        metavar="N",
        help="self-host: start a throwaway N-replica cluster (with a "
        "temporary shared cache) instead of targeting --host/--port",
    )
    parser.add_argument(
        "--mode", choices=("closed", "open"), default="closed"
    )
    parser.add_argument("--concurrency", type=int, default=16)
    parser.add_argument(
        "--requests",
        type=int,
        default=500,
        help="closed-loop total request budget",
    )
    parser.add_argument(
        "--duration",
        type=float,
        default=None,
        help="stop after this many seconds (required for --mode open)",
    )
    parser.add_argument(
        "--rate", type=float, default=50.0, help="open-loop arrivals/s"
    )
    parser.add_argument(
        "--mix",
        default=None,
        metavar="SPEC",
        help="op weights, e.g. run:60,submit_poll:20,compile:10,lint:10",
    )
    parser.add_argument("--run-n", type=int, default=32)
    parser.add_argument(
        "--transport",
        choices=("json", "wire"),
        default="json",
        help="array transport for run ops: json (typed base64 buffers) "
        "or repro.wire/v1 binary frames",
    )
    parser.add_argument("--tenant", default="loadtest")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--json",
        action="store_true",
        help="print the repro.loadtest/v1 document instead of the table",
    )
    args = parser.parse_args(argv)

    mix = None
    if args.mix:
        mix = {}
        for part in args.mix.split(","):
            op, _, weight = part.partition(":")
            mix[op.strip()] = int(weight or 1)
        unknown = set(mix) - set(DEFAULT_MIX)
        if unknown:
            print(f"error: unknown ops {sorted(unknown)}", file=sys.stderr)
            return 2

    cleanup = None
    host, port = args.host, args.port
    if args.replicas is not None:
        from repro.cluster.router import start_cluster

        tmp = tempfile.TemporaryDirectory(prefix="repro_loadtest_cache_")
        router, supervisor, _ = start_cluster(
            replicas=args.replicas, cache_dir=tmp.name
        )
        host, port = "127.0.0.1", router.port
        print(
            f"loadtest: self-hosted {args.replicas}-replica cluster "
            f"on port {port}",
            file=sys.stderr,
        )

        def cleanup() -> None:
            router.shutdown()
            router.close()
            supervisor.stop()
            tmp.cleanup()

    try:
        doc = run_loadtest(
            host=host,
            port=port,
            mode=args.mode,
            concurrency=args.concurrency,
            requests=args.requests,
            duration_s=args.duration,
            rate_rps=args.rate,
            mix=mix,
            run_n=args.run_n,
            tenant=args.tenant,
            seed=args.seed,
            transport=args.transport,
        )
    finally:
        if cleanup is not None:
            cleanup()
    if args.json:
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        print(format_report(doc))
    return 0 if doc["errors"] == 0 and doc["verify_failures"] == 0 else 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(loadtest_main())
