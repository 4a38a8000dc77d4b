"""The cluster end to end: router, replicas, crash retry, shared store.

One module-scoped two-replica cluster serves most tests (replica spawn is
the expensive part); the crash-injection and shutdown tests build their
own single-replica fleets so the chaos stays contained.
"""

import os
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.api import transform_function
from repro.cluster import start_cluster
from repro.cluster.replica import ReplicaSupervisor
from repro.service.client import ServiceClient, ServiceError

PY_KERNEL = """
def scale2d(A, B, n, m):
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            B[i, j] = 2.0 * A[i, j] + 1.0
"""

# Same shape, different constant: a distinct cache key/program per
# transport, so the 404-repair test controls exactly which replica saw
# the compile.
REPAIR_KERNELS = {
    "json": PY_KERNEL.replace("2.0 *", "3.0 *"),
    "wire": PY_KERNEL.replace("2.0 *", "5.0 *"),
}

# A distinct program again for the cross-replica warm-hit test.
WARM_KERNEL = PY_KERNEL.replace("1.0", "4.0")

DSL_KERNEL = """
procedure saxpy(X[1], Y[1]; n)
  doall i = 1, n
    Y(i) := Y(i) + 2.0 * X(i)
  end
end
"""

N = M = 12


@pytest.fixture(scope="module")
def cluster(tmp_path_factory):
    cache_dir = tmp_path_factory.mktemp("cluster-cache")
    router, supervisor, thread = start_cluster(
        replicas=2,
        cache_dir=str(cache_dir),
        max_depth=8,
        drain_s=2.0,
        sync_timeout_s=120.0,
    )
    client = ServiceClient(port=router.port, retries=2, backoff_s=0.02)
    try:
        yield client, router, supervisor
    finally:
        router.shutdown()
        router.close()
        supervisor.stop()
        thread.join(timeout=10)


def env(seed=11):
    rng = np.random.default_rng(seed)
    A = rng.random((N + 1, M + 1))
    return A, np.zeros_like(A)


def expected_from(A, kernel=PY_KERNEL):
    B = np.zeros_like(A)
    transform_function(kernel, cache=None)(A, B, N, M)
    return B


class TestFrontDoor:
    def test_healthz_reports_fleet(self, cluster):
        client, _, _ = cluster
        health = client.healthz()
        assert health["status"] == "ok"
        assert health["role"] == "router"
        assert health["fleet"]["replicas"] == 2
        assert health["fleet"]["alive"] == 2

    def test_sync_run_matches_serial(self, cluster):
        client, _, _ = cluster
        key = client.compile(PY_KERNEL)["key"]
        A, B = env()
        out = client.run(key, {"A": A, "B": B}, {"n": N, "m": M})
        assert np.array_equal(out["arrays"]["B"], expected_from(A))
        assert out["cluster"]["replica"] in (0, 1)
        assert out["cluster"]["retries"] == 0

    def test_run_stats_pass_through_the_router(self, cluster):
        """What a replica says about how the run went — which path ran,
        how many fork/joins — reaches the client unchanged."""
        client, _, _ = cluster
        key = client.compile(PY_KERNEL, backend="mp")["key"]
        A, B = env()
        out = client.run(
            key, {"A": A, "B": B}, {"n": N, "m": M}, backend="mp", workers=2
        )
        assert np.array_equal(out["arrays"]["B"], expected_from(A))
        assert out["engine"] == "mp-pool"
        assert out["fork_joins"] == out["dispatches"] == 1
        assert out["region"] is None  # no DOALL under a serial loop here

    def test_sync_lint(self, cluster):
        client, _, _ = cluster
        out = client.lint(DSL_KERNEL, tenant="linty")
        assert out["schema"] == "repro.lint/v1"
        assert out["ok"] is True

    def test_replica_4xx_relayed_not_retried(self, cluster):
        client, router, _ = cluster
        retried_before = router.queue.counters.retried
        with pytest.raises(ServiceError) as err:
            client.run("0" * 64, {"A": np.zeros((2, 2))}, {"n": 1})
        assert err.value.status == 404
        assert router.queue.counters.retried == retried_before

    def test_submit_poll_result_round_trip(self, cluster):
        client, _, _ = cluster
        key = client.compile(PY_KERNEL)["key"]
        A, _ = env(seed=23)
        job = client.submit(
            "run",
            tenant="async-t",
            **ServiceClient.run_body(
                key, {"A": A, "B": np.zeros_like(A)}, {"n": N, "m": M}
            ),
        )
        assert job["state"] in ("queued", "running")
        assert job["tenant"] == "async-t"
        out = client.wait(job["job_id"], timeout=60)
        assert out["state"] == "done"
        assert np.array_equal(
            out["result"]["arrays"]["B"], expected_from(A)
        )
        # Poll after completion still answers (until the TTL reaper).
        assert client.poll(job["job_id"])["state"] == "done"

    def test_result_is_409_until_terminal(self, cluster):
        client, router, _ = cluster
        router.pause()
        try:
            job = client.submit("lint", source=DSL_KERNEL)
            with pytest.raises(ServiceError) as err:
                client.result(job["job_id"])
            assert err.value.status == 409
        finally:
            router.resume()
        assert client.wait(job["job_id"], timeout=60)["state"] == "done"

    def test_cancel_queued_job(self, cluster):
        client, router, _ = cluster
        router.pause()  # keep the job parked in the queue
        try:
            job = client.submit("lint", source=DSL_KERNEL)
            cancelled = client.cancel(job["job_id"])
            assert cancelled["state"] == "cancelled"
        finally:
            router.resume()
        out = client.result(job["job_id"])
        assert out["state"] == "cancelled"
        assert out["result"] is None

    def test_unknown_job_is_404(self, cluster):
        client, _, _ = cluster
        with pytest.raises(ServiceError) as err:
            client.poll("j-doesnotexist")
        assert err.value.status == 404

    def test_submit_validates_kind_and_body(self, cluster):
        client, _, _ = cluster
        with pytest.raises(ServiceError) as err:
            client._request("POST", "/submit", {"kind": "explode", "body": {}})
        assert err.value.status == 400
        with pytest.raises(ServiceError) as err:
            client._request("POST", "/submit", {"kind": "lint", "body": 7})
        assert err.value.status == 400


class TestAdmissionControl:
    def test_saturation_is_429_with_retry_after(self, cluster):
        client, router, _ = cluster
        router.pause()
        parked = []
        try:
            for i in range(router.queue.max_depth):
                parked.append(
                    client.submit("lint", tenant="flood", source=DSL_KERNEL)
                )
            with pytest.raises(ServiceError) as err:
                client.submit("lint", tenant="flood", source=DSL_KERNEL)
            assert err.value.status == 429
            assert err.value.retry_after is not None
            assert err.value.retry_after >= 1
        finally:
            for job in parked:
                client.cancel(job["job_id"])
            router.resume()
        assert client.metrics()["jobs"]["rejected"] >= 1

    def test_tenant_quota_is_429(self, cluster):
        client, router, _ = cluster
        router.queue.quotas.limits["tiny"] = 1
        router.pause()
        try:
            job = client.submit("lint", tenant="tiny", source=DSL_KERNEL)
            with pytest.raises(ServiceError) as err:
                client.submit("lint", tenant="tiny", source=DSL_KERNEL)
            assert err.value.status == 429
            assert "tiny" in str(err.value)
            client.cancel(job["job_id"])
        finally:
            router.queue.quotas.limits.pop("tiny", None)
            router.resume()


class TestFleet:
    @pytest.mark.parametrize("transport", ["json", "wire"])
    def test_404_repair_replays_compile_on_other_replica(
        self, cluster, transport
    ):
        client, router, supervisor = cluster
        kernel = REPAIR_KERNELS[transport]
        # Lands on the least-loaded replica: replica 0 registers it.
        key = client.compile(kernel)["key"]
        repairs_before = router.counters["repairs"]
        # Forget the sticky route (as if LRU-evicted) so the run falls
        # back to least-loaded, then divert that to replica 1 — which
        # never saw the compile and must 404-repair.
        router._sticky.pop(key, None)
        handle0 = supervisor.handles[0]
        handle0.begin()  # divert the next run to replica 1
        try:
            A, B = env(seed=31)
            out = client.run(
                key, {"A": A, "B": B}, {"n": N, "m": M}, transport=transport
            )
        finally:
            handle0.end()
        assert np.array_equal(out["arrays"]["B"], expected_from(A, kernel))
        assert out["cluster"]["replica"] == 1
        assert router.counters["repairs"] == repairs_before + 1

    def test_shared_cache_warm_hit_across_replicas(self, cluster):
        _, _, supervisor = cluster
        replica_a, replica_b = supervisor.handles
        first = replica_a.client.compile(WARM_KERNEL, backend="mp")
        assert not first["cached"], first
        # Replica B never compiled this program, but shares the store.
        second = replica_b.client.compile(WARM_KERNEL, backend="mp")
        assert second["cached"], second
        assert second["key"] == first["key"]

        # B answered from the store A filled, and says so in /metrics.
        assert replica_b.client.metrics()["cache"]["hits"] >= 1

        # Run on A, then the same program on B, which never compiled it.
        A, B = env(seed=47)
        want = expected_from(A, WARM_KERNEL)
        ran = replica_a.client.run(
            first["key"], {"A": A, "B": B}, {"n": N, "m": M},
            workers=2, backend="mp", policy="unit",
        )
        assert np.array_equal(ran["arrays"]["B"], want)
        if ran["engine"] != "mp-pool":  # pragma: no cover - tiny hosts
            pytest.skip("mp pool unavailable; shared-store hit still proven")
        warm = replica_b.client.run(
            first["key"], {"A": A, "B": np.zeros_like(A)}, {"n": N, "m": M},
            workers=2, backend="mp", policy="unit",
        )
        assert warm["engine"] == "mp-pool", warm
        assert np.array_equal(warm["arrays"]["B"], want)

    def test_metrics_document(self, cluster):
        client, _, _ = cluster
        metrics = client.metrics()
        assert metrics["schema"] == "repro.metrics/v1"
        jobs = metrics["jobs"]
        for key in (
            "submitted", "completed", "failed", "retried",
            "rejected", "cancelled", "expired", "depth", "states",
        ):
            assert key in jobs, key
        assert jobs["submitted"] >= jobs["completed"] > 0
        fleet = metrics["cluster"]
        assert fleet["replicas"] == 2
        assert fleet["dispatchers"] >= 2
        assert len(fleet["per_replica"]) == 2
        for gauge in fleet["per_replica"]:
            assert {"index", "alive", "inflight", "generation"} <= set(gauge)
        assert metrics["cache"]["entries"] >= 1  # the shared store


class TestCrashRetry:
    """The acceptance scenario: SIGKILL a replica mid-job and watch the
    router retry the job to completion on a fresh process."""

    # Big enough that the run is still in flight when the kill lands.
    BIG_N = 220

    @pytest.fixture()
    def crash_cluster(self, tmp_path):
        router, supervisor, thread = start_cluster(
            replicas=1,
            cache_dir=str(tmp_path / "cache"),
            max_retries=3,
            drain_s=1.0,
            sync_timeout_s=120.0,
        )
        client = ServiceClient(port=router.port, retries=2, backoff_s=0.02)
        try:
            yield client, router, supervisor
        finally:
            router.shutdown()
            router.close()
            supervisor.stop()
            thread.join(timeout=10)

    def test_job_survives_replica_crash(self, crash_cluster):
        client, router, supervisor = crash_cluster
        n = self.BIG_N
        key = client.compile(PY_KERNEL)["key"]
        rng = np.random.default_rng(3)
        A = rng.random((n + 1, n + 1))
        want = np.zeros_like(A)
        transform_function(PY_KERNEL, cache=None)(A, want, n, n)

        # Warm the path (program registered, arrays JSON-decoded once).
        warm = client.run(
            key, {"A": A, "B": np.zeros_like(A)}, {"n": n, "m": n}
        )
        assert np.array_equal(warm["arrays"]["B"], want)

        job = client.submit(
            "run",
            **ServiceClient.run_body(
                key, {"A": A, "B": np.zeros_like(A)}, {"n": n, "m": n}
            ),
        )
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            state = client.poll(job["job_id"])["state"]
            if state == "running":
                break
            assert state == "queued", state
            time.sleep(0.005)
        else:  # pragma: no cover - dispatch stalled
            pytest.fail("job never started running")
        supervisor.kill(0, graceful=False)  # SIGKILL, mid-request

        out = client.wait(job["job_id"], timeout=120)
        assert out["state"] == "done", out
        assert out["retries"] >= 1
        assert "unreachable" in out["fallback_reason"]
        assert np.array_equal(out["result"]["arrays"]["B"], want), (
            "retried result diverged from serial"
        )
        assert out["result"]["cluster"]["fallback_reason"]
        metrics = client.metrics()
        assert metrics["jobs"]["retried"] >= 1
        assert metrics["cluster"]["restarts"] >= 1


class TestGracefulShutdown:
    def test_sigterm_drains_and_leaves_no_shm(self, tmp_path):
        shm = Path("/dev/shm")
        if not shm.is_dir():  # pragma: no cover - exotic hosts
            pytest.skip("no /dev/shm on this platform")
        before = {p.name for p in shm.glob("repro-par*")}
        supervisor = ReplicaSupervisor(
            replicas=1,
            cache_dir=str(tmp_path / "cache"),
            drain_s=15.0,
            auto_restart=False,  # a graceful exit must stay down
        ).start()
        try:
            handle = supervisor.handles[0]
            key = handle.client.compile(PY_KERNEL, backend="mp")["key"]
            A, B = env()

            outcome: list = []

            def run_mp():
                try:
                    outcome.append(
                        handle.client.run(
                            key, {"A": A, "B": B}, {"n": N, "m": M},
                            workers=2, backend="mp",
                        )
                    )
                except Exception as exc:  # acceptable mid-shutdown
                    outcome.append(exc)

            t = threading.Thread(target=run_mp)
            t.start()
            time.sleep(0.15)  # let the mp run (and its shm) get going
            supervisor.kill(0, graceful=True)  # SIGTERM
            handle.proc.join(timeout=30)
            assert handle.proc.exitcode == 0, handle.proc.exitcode
            t.join(timeout=30)
            assert outcome, "client thread never finished"
        finally:
            supervisor.stop()
        leaked = {p.name for p in shm.glob("repro-par*")} - before
        assert not leaked, f"shm segments leaked past shutdown: {leaked}"

    def test_cli_on_a_busy_port_exits_and_leaves_no_process(self, tmp_path):
        """``repro cluster`` whose router cannot bind stops the replicas it
        started and exits nonzero, instead of waiting on them forever."""
        src = Path(__file__).resolve().parents[2] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        with socket.socket() as busy:
            busy.bind(("127.0.0.1", 0))
            busy.listen()
            port = busy.getsockname()[1]
            cli = subprocess.Popen(
                [sys.executable, "-m", "repro", "cluster", "--replicas", "1",
                 "--port", str(port), "--cache-dir", str(tmp_path / "cache")],
                env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                start_new_session=True,  # its own process group
            )
            try:
                _, err = cli.communicate(timeout=60)
            except subprocess.TimeoutExpired:
                os.killpg(cli.pid, signal.SIGKILL)
                cli.communicate()
                pytest.fail("repro cluster hung on a busy port")
        assert cli.returncode != 0
        assert b"cannot listen" in err, err
        deadline = time.monotonic() + 10.0
        while True:
            try:
                os.killpg(cli.pid, 0)  # anyone left in the group?
            except ProcessLookupError:
                break
            if time.monotonic() > deadline:
                os.killpg(cli.pid, signal.SIGKILL)
                pytest.fail("a process outlived repro cluster in its group")
            time.sleep(0.1)
