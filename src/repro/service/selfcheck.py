"""End-to-end service smoke check (the CI gate).

``python -m repro.service.selfcheck`` starts a server on an ephemeral port
with a throwaway cache, then drives it through the client exactly like a
real deployment: health check, compile a kernel twice (the second must be
served from the artifact cache and, with a compiler on PATH, must report
pre-warmed native chunk kernels), run it on the mp backend — asserting,
when a compiler is available, that the plan derived the native kernel
and claim loop — verify every served result
bit-for-bit against a local serial run, round-trip ``POST /lint``
on a clean kernel and a seeded-race program (asserting the RACE001
verdict comes back), and round-trip a default-safety run on a
histogram (the inspector cannot decide it, so the run must fall back to
the serial build, leasing no pool, and the served arrays match the
serial semantics exactly).  A raw JSON ``/run`` must carry only the
array the kernel writes, while the client's return still holds the
caller's read-only input; a float-list body gets lists back, and a
typed-buffer body gets buffers back, bit-exact for a NaN payload and
-0.0.

It then stands up a two-replica *cluster* over one shared artifact
store and drives the front door: a synchronous routed run (verified
bit-for-bit), the async job protocol (submit → poll → result, plus a
cancel while the dispatchers are paused), and the shared-store warm
path — a program compiled and run directly on replica A must be a cache
hit on replica B, whose run is served from the shared store — and sticky
routing: a key's second run lands on the replica that served its first.
Exits nonzero on any failure, so CI can gate on it directly.
"""

from __future__ import annotations

import json
import sys
import tempfile

import numpy as np

KERNEL = """
def scale2d(A, B, n, m):
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            B[i, j] = 2.0 * A[i, j] + 1.0
"""

RACY = """
procedure chase(A[1]; n)
  doall i = 2, n
    A(i) := A(i - 1) + 1.0
  end
end
"""

HISTOGRAM = """
procedure histogram(H[1], K[1]; n)
  doall i = 1, n
    H(int(K(i))) := H(int(K(i))) + 1.0
  end
end
"""

N = M = 24


def main() -> int:
    from repro.api import transform_function
    from repro.cache import ArtifactCache
    from repro.service.client import ServiceClient, decode_run_result
    from repro.service.server import serve_background

    with tempfile.TemporaryDirectory(prefix="repro_selfcheck_") as tmp:
        server, thread = serve_background(cache=ArtifactCache(tmp))
        try:
            client = ServiceClient(port=server.port)

            health = client.healthz()
            assert health["status"] == "ok", health

            from repro.codegen.cload import have_compiler

            first = client.compile(KERNEL, backend="mp")
            assert not first["cached"], first
            if have_compiler():
                # /compile pre-warms the native chunk kernel, so the
                # first /run resolves it from the artifact cache.
                assert first["warm_kernels"] >= 1, first
            second = client.compile(KERNEL, backend="mp")
            assert second["cached"], second
            assert second["key"] == first["key"]

            rng = np.random.default_rng(7)
            A = rng.random((N + 1, M + 1))
            B = np.zeros_like(A)
            out = client.run(
                first["key"], {"A": A, "B": B},
                {"n": N, "m": M}, workers=2, backend="mp",
            )
            assert out["engine"] == "mp-pool", out["engine"]
            # The reply carries only the array the run writes; the client
            # fills the read-only A back in with the caller's own object.
            assert out["arrays"]["A"] is A, "client fill-in lost A"
            # A hand-written body: float lists, answered with lists.
            body = {
                "key": first["key"],
                "arrays": {"A": A.tolist(), "B": np.zeros_like(A).tolist()},
                "array_dtypes": {"A": "<f8", "B": "<f8"},
                "scalars": {"n": N, "m": M}, "workers": 2, "backend": "mp",
            }
            reply = _post_run(client, body)
            assert reply["engine"] == "mp-pool", reply["engine"]
            assert set(reply["arrays"]) == {"B"}, sorted(reply["arrays"])
            assert set(reply["array_dtypes"]) == {"B"}, reply["array_dtypes"]
            assert isinstance(reply["arrays"]["B"], list), "list form lost"

            expected_B = np.zeros_like(A)
            local = transform_function(KERNEL, cache=None)
            local(A, expected_B, N, M)
            assert np.array_equal(out["arrays"]["B"], expected_B), (
                "served mp result diverged from local serial"
            )

            # The client's own form, typed buffers, answered with buffers:
            # a NaN with a payload and a -0.0 in B's untouched border
            # come back bit for bit.
            B = np.zeros_like(A)
            B[0, :2] = np.array(
                [0x7FF8_0000_DEAD_BEEF, 1 << 63], dtype=np.uint64
            ).view(np.float64)
            body = ServiceClient.run_body(
                first["key"], {"A": A, "B": B},
                {"n": N, "m": M}, workers=2, backend="mp",
            )
            reply = _post_run(client, body)
            assert isinstance(reply["arrays"]["B"], dict), "buffer form lost"
            got = decode_run_result(reply)["arrays"]["B"]
            want = expected_B.copy()
            want[0, :2] = B[0, :2]
            assert got.tobytes() == want.tobytes(), (
                "buffer-form round trip is not bit-exact"
            )

            lang = out["chunk_lang"]
            if have_compiler():
                # float64 arrays on a host with gcc: the native rung.
                assert lang == "c", out
                assert out["claim_loop"] == "native", out

            # Default-safety round trip: H is both written and read, so
            # the inspector cannot decide the loop, the plan refuses it,
            # and the served result is the serial build's, exactly.
            hist = client.compile(HISTOGRAM, backend="mp", analyze=False)
            pools = server.server_metrics()["warm_pools"]
            hn = 48
            H = np.zeros(9)
            K = np.zeros(hn + 1)
            K[1:] = rng.integers(1, 9, size=hn).astype(float)
            spec = client.run(
                hist["key"], {"H": H, "K": K}, {"n": hn},
                workers=2, backend="mp", policy="static",
            )
            assert spec["engine"] == "serial-fallback", spec["engine"]
            assert "refused every dispatch" in spec["fallback_reason"], spec
            # Refused before any pool was leased: no fleet for its shape.
            assert server.server_metrics()["warm_pools"] == pools, pools
            expected_H = H.copy()
            for i in range(1, hn + 1):
                expected_H[int(K[i])] += 1.0
            assert np.array_equal(spec["arrays"]["H"], expected_H), (
                "served refused result diverged from serial semantics"
            )

            # Wire transport round trip: binary frames both directions,
            # decoded zero-copy, bit-identical to the JSON-served result.
            wired = client.run(
                first["key"], {"A": A, "B": np.zeros_like(A)},
                {"n": N, "m": M}, workers=2, backend="mp",
                transport="wire",
            )
            assert wired["transport"] == "wire", wired
            assert np.array_equal(wired["arrays"]["B"], expected_B), (
                "served wire result diverged from local serial"
            )

            clean = client.lint(KERNEL)
            assert clean["schema"] == "repro.lint/v1", clean
            assert clean["ok"] and not clean["findings"], clean
            dirty = client.lint(RACY)
            assert not dirty["ok"], dirty
            codes = {f["rule"] for f in dirty["findings"]}
            assert "RACE001" in codes, dirty["findings"]

            metrics = client.metrics()
            assert metrics["schema"] == "repro.metrics/v1", metrics
            assert metrics["server"]["lints"] >= 2, metrics["server"]
            assert metrics["cache"]["hits"] >= 1, metrics["cache"]
            assert metrics["server"]["runs"] >= 1, metrics["server"]
            assert "chunk_lang" in metrics["dispatch"], metrics["dispatch"]
            if have_compiler():
                assert metrics["dispatch"]["chunk_lang"]["c"] >= 1, (
                    metrics["dispatch"]
                )
                assert metrics["dispatch"]["claim_loop"]["native"] >= 1, (
                    metrics["dispatch"]
                )
            srv = metrics["server"]
            assert srv["bytes_in"] > 0 and srv["bytes_out"] > 0, srv
            tcounts = srv["transport"]
            assert tcounts["json"] >= 1, tcounts
            assert tcounts["wire"] >= 1, tcounts
            print(
                "service selfcheck OK: "
                f"compile_s={first['compile_s']:.4f} -> "
                f"{second['compile_s']:.4f} (cached), "
                f"warm_kernels={first['warm_kernels']}, "
                f"run engine={out['engine']} wall_s={out['wall_s']:.4f}, "
                f"chunk_lang={lang}, "
                f"refused engine={spec['engine']}, "
                f"lint verdicts ok={clean['ok']}/dirty={not dirty['ok']}, "
                f"transports json={tcounts['json']} wire={tcounts['wire']}, "
                f"cache hits={metrics['cache']['hits']}"
            )
        finally:
            server.shutdown()
            server.close()

    return _cluster_check()


def _post_run(client, body: dict) -> dict:
    """A raw JSON ``/run``: the reply as the server wrote it."""
    _, raw = client.request_bytes(
        "POST", "/run", json.dumps(body).encode(),
        {"Content-Type": "application/json"},
    )
    return json.loads(raw)


def _cluster_check() -> int:
    """Two replicas, one shared store, the async job protocol."""
    from repro.api import transform_function
    from repro.cluster import start_cluster
    from repro.service.client import ServiceClient

    with tempfile.TemporaryDirectory(prefix="repro_selfcheck_cluster_") as tmp:
        router, supervisor, thread = start_cluster(
            replicas=2, cache_dir=tmp, drain_s=2.0, sync_timeout_s=120.0
        )
        try:
            front = ServiceClient(
                port=router.port, retries=2, backoff_s=0.02
            )
            health = front.healthz()
            assert health["status"] == "ok", health
            assert health["fleet"]["alive"] == 2, health

            # Shared-store warm path: compile + run on replica A, then
            # replica B must hit the store cold-process-warm-cache.
            replica_a, replica_b = supervisor.handles
            first = replica_a.client.compile(KERNEL, backend="mp")
            assert not first["cached"], first
            rng = np.random.default_rng(13)
            A = rng.random((N + 1, M + 1))
            expected_B = np.zeros_like(A)
            transform_function(KERNEL, cache=None)(A, expected_B, N, M)
            ran = replica_a.client.run(
                first["key"], {"A": A, "B": np.zeros_like(A)},
                {"n": N, "m": M}, workers=2, backend="mp", policy="unit",
            )
            assert ran["engine"] == "mp-pool", ran["engine"]
            assert np.array_equal(ran["arrays"]["B"], expected_B)
            second = replica_b.client.compile(KERNEL, backend="mp")
            assert second["cached"], second
            assert second["key"] == first["key"]
            warm = replica_b.client.run(
                first["key"], {"A": A, "B": np.zeros_like(A)},
                {"n": N, "m": M}, workers=2, backend="mp", policy="unit",
            )
            assert np.array_equal(warm["arrays"]["B"], expected_B), (
                "replica B's warm run diverged"
            )
            b_hits = replica_b.client.metrics()["cache"]["hits"]
            assert b_hits >= 1, b_hits

            # Synchronous routed run through the front door.
            routed = front.run(
                first["key"], {"A": A, "B": np.zeros_like(A)},
                {"n": N, "m": M},
            )
            assert np.array_equal(routed["arrays"]["B"], expected_B), (
                "routed result diverged from local serial"
            )
            assert routed["cluster"]["replica"] in (0, 1), routed

            # Wire pass-through: a binary run through the front door (the
            # router forwards the frame opaquely) — then the same key
            # again, which must stick to the warm replica.
            wired = front.run(
                first["key"], {"A": A, "B": np.zeros_like(A)},
                {"n": N, "m": M}, workers=2, backend="mp", policy="unit",
                transport="wire",
            )
            assert np.array_equal(wired["arrays"]["B"], expected_B), (
                "routed wire result diverged from local serial"
            )
            sticky = front.run(
                first["key"], {"A": A, "B": np.zeros_like(A)},
                {"n": N, "m": M}, workers=2, backend="mp", policy="unit",
                transport="wire",
            )
            assert (
                sticky["cluster"]["replica"] == wired["cluster"]["replica"]
            ), (wired["cluster"], sticky["cluster"])
            assert router.counters["sticky_hits"] >= 1, router.counters

            # Async job protocol: submit → poll → result.
            job = front.submit(
                "run",
                **ServiceClient.run_body(
                    first["key"], {"A": A, "B": np.zeros_like(A)},
                    {"n": N, "m": M},
                ),
            )
            assert job["state"] in ("queued", "running"), job
            out = front.wait(job["job_id"], timeout=60)
            assert out["state"] == "done", out
            assert np.array_equal(
                out["result"]["arrays"]["B"], expected_B
            ), "async job result diverged from local serial"

            # Cancel: pause dispatch so the job stays queued.
            router.pause()
            parked = front.submit("lint", source=KERNEL)
            cancelled = front.cancel(parked["job_id"])
            assert cancelled["state"] == "cancelled", cancelled
            router.resume()

            metrics = front.metrics()
            jobs = metrics["jobs"]
            assert jobs["submitted"] >= 3, jobs
            assert jobs["completed"] >= 2, jobs
            assert jobs["cancelled"] >= 1, jobs
            assert len(metrics["cluster"]["per_replica"]) == 2, metrics
            assert metrics["cache"]["entries"] >= 1, metrics["cache"]
            transports = metrics["cluster"]["transport"]
            assert transports["wire"] >= 2, transports
            assert transports["json"] >= 1, transports
            assert metrics["server"]["bytes_in"] > 0, metrics["server"]
            assert metrics["server"]["bytes_out"] > 0, metrics["server"]
            print(
                "cluster selfcheck OK: 2 replicas on one store, "
                f"routed run via replica {routed['cluster']['replica']}, "
                f"wire pass-through via replica "
                f"{wired['cluster']['replica']} "
                f"(sticky_hits={router.counters['sticky_hits']}), "
                f"replica B cache hits={b_hits}, "
                f"jobs submitted={jobs['submitted']} "
                f"completed={jobs['completed']} "
                f"cancelled={jobs['cancelled']}"
            )
        finally:
            router.shutdown()
            router.close()
            supervisor.stop()
            thread.join(timeout=10)
    return 0


if __name__ == "__main__":
    sys.exit(main())
