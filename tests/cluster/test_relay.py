"""The router relays every run as bytes.

A JSON ``/run`` is parsed once at the front door (for its key and
tenant), forwarded verbatim, and answered with the replica's reply bytes
plus a spliced ``cluster`` block.  These tests pin that the relay is
invisible: the bytes a client gets are exactly what a decode-and-re-encode
router would send for the same replica reply, errors keep their status
and message, repair replays the same bytes, and the router keeps no
settled synchronous job.
"""

import json
import threading
import time

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro import wire
from repro.api import transform_function
from repro.cluster import start_cluster
from repro.cluster.router import _splice
from repro.service.client import ServiceClient, ServiceError, decode_run_result
from tests.service import post_list_run

KERNEL = """
def relay2d(A, B, n, m):
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            B[i, j] = 2.0 * A[i, j] + 1.0
"""

INT_KERNEL = """
def twice(A, B, n):
    for i in range(1, n + 1):
        B[i] = A[i] + A[i]
"""

LINT_SOURCE = """
procedure saxpy(X[1], Y[1]; n)
  doall i = 1, n
    Y(i) := Y(i) + 2.0 * X(i)
  end
end
"""

N = M = 6
JSON_HEADERS = {"Content-Type": "application/json"}
BLOCK = {"replica": 0, "attempts": 2, "retries": 1, "fallback_reason": "x"}


def encoded(doc: dict) -> bytes:
    return json.dumps(doc, allow_nan=False).encode("utf-8")


def spliced(reply: bytes, block: dict) -> bytes:
    return b"".join(_splice(reply, "cluster", [encoded(block)]))


class TestSplice:
    @pytest.mark.parametrize("reply", [
        {},
        {"key": "k", "engine": "serial", "transport": "json",
         "wall_s": 4.2e-05,
         "arrays": {"B": [[0.0, "NaN"], ["-Infinity", 1.5]]},
         "array_dtypes": {"B": "<f8"}},
        {"engine": "mp-pool", "region": None, "claims": 3,
         "stats": {"nested": {"}": "{"}}, "note": "brace } in a string"},
    ])
    def test_replica_replies(self, reply):
        raw = encoded(reply)
        assert spliced(raw, BLOCK) == encoded({**reply, "cluster": BLOCK})

    @given(reply=st.dictionaries(
        st.text(max_size=6).filter(lambda k: k != "cluster"),
        st.recursive(
            st.none() | st.booleans() | st.integers()
            | st.floats(allow_nan=False, allow_infinity=False)
            | st.text(max_size=6),
            lambda kids: st.lists(kids, max_size=3)
            | st.dictionaries(st.text(max_size=4), kids, max_size=3),
            max_leaves=10,
        ),
        max_size=6,
    ))
    @settings(max_examples=200, deadline=None)
    def test_any_json_object(self, reply):
        raw = encoded(reply)
        assert spliced(raw, BLOCK) == encoded({**reply, "cluster": BLOCK})

    def test_the_reply_is_sent_as_a_view(self):
        raw = encoded({"key": "k"})
        head = _splice(raw, "cluster", [encoded(BLOCK)])[0]
        assert isinstance(head, memoryview) and head.obj is raw


@pytest.fixture(scope="module")
def cluster(tmp_path_factory):
    router, supervisor, thread = start_cluster(
        replicas=1,
        cache_dir=str(tmp_path_factory.mktemp("relay-cache")),
        drain_s=1.0,
        sync_timeout_s=120.0,
    )
    client = ServiceClient(port=router.port, retries=2, backoff_s=0.02)
    try:
        key = client.compile(KERNEL)["key"]
        yield client, router, supervisor, key
    finally:
        client.close()
        router.shutdown()
        router.close()
        supervisor.stop()
        thread.join(timeout=10)


@pytest.fixture()
def replies(cluster):
    """Every reply the replica sent the router, as the router got it."""
    _, router, _, _ = cluster
    seen = []
    relay = router._relay_run

    def spy(handle, job):
        raw, ctype = relay(handle, job)
        seen.append(raw)
        return raw, ctype

    router._relay_run = spy
    yield seen
    del router._relay_run


def env(seed=5):
    rng = np.random.default_rng(seed)
    A = rng.random((N + 1, M + 1))
    A[1, 2], A[3, 4], A[5, 1] = np.nan, np.inf, -np.inf
    return A


def expected_from(A):
    B = np.zeros_like(A)
    transform_function(KERNEL, cache=None)(A, B, N, M)
    return B


def run_bytes(key, A, **extra) -> bytes:
    body = ServiceClient.run_body(
        key, {"A": A, "B": np.zeros_like(A)}, {"n": N, "m": M}
    )
    return encoded({**body, **extra})


def same_arrays(got: dict, want: dict) -> None:
    assert got.keys() == want.keys()
    for name in want:
        assert got[name].dtype == want[name].dtype
        assert got[name].tobytes() == want[name].tobytes()


class TestSyncJsonRun:
    def test_reply_is_the_replica_bytes_plus_cluster(self, cluster, replies):
        client, _, supervisor, key = cluster
        A = env()
        raw = run_bytes(key, A)
        _, routed = client.request_bytes("POST", "/run", raw, JSON_HEADERS)
        (reply,) = replies
        doc = json.loads(routed)
        assert routed == encoded({**json.loads(reply), "cluster": doc["cluster"]})
        assert doc["cluster"] == {"replica": 0, "attempts": 1, "retries": 0}

        _, direct = supervisor.handles[0].client.request_bytes(
            "POST", "/run", raw, JSON_HEADERS
        )
        want, got = decode_run_result(json.loads(direct)), decode_run_result(doc)
        assert set(got) == set(want) | {"cluster"}
        for name in ("key", "engine", "transport", "array_dtypes"):
            assert got[name] == want[name]
        same_arrays(got["arrays"], want["arrays"])
        assert np.array_equal(got["arrays"]["B"], expected_from(A), equal_nan=True)

    def test_int64_arrays_keep_their_dtype(self, cluster):
        client, _, supervisor, _ = cluster
        key = client.compile(INT_KERNEL)["key"]
        A = np.arange(9, dtype=np.int64) * 2**40
        arrays = {"A": A, "B": np.zeros_like(A)}
        replica = supervisor.handles[0].client

        def lists(c):
            return decode_run_result(post_list_run(c, key, arrays, {"n": 8}))

        # Typed buffers (the client's form), then tagged float lists.
        for got, want in [
            (client.run(key, arrays, {"n": 8}), replica.run(key, arrays, {"n": 8})),
            (lists(client), lists(replica)),
        ]:
            # Only the written array comes back (and keeps its dtype tag).
            assert got["array_dtypes"] == want["array_dtypes"] == {"B": "<i8"}
            same_arrays(got["arrays"], want["arrays"])
            assert got["arrays"]["B"].tolist() == (2 * A).tolist()

    @pytest.mark.parametrize("tenant", ["", 5, None])
    @pytest.mark.parametrize("transport", ["json", "wire"])
    def test_bad_tenant_is_a_400(self, cluster, tenant, transport):
        client, _, _, key = cluster
        A = env()
        if transport == "json":
            raw, headers = run_bytes(key, A, tenant=tenant), JSON_HEADERS
        else:
            raw = wire.encode_frame(
                {"key": key, "scalars": {"n": N, "m": M}, "tenant": tenant},
                {"A": A, "B": np.zeros_like(A)},
            )
            headers = {"Content-Type": wire.CONTENT_TYPE}
        with pytest.raises(ServiceError) as err:
            client.request_bytes("POST", "/run", raw, headers)
        assert err.value.status == 400
        assert err.value.payload == {
            "error": "tenant must be a non-empty string"
        }

    def test_tenant_over_quota_is_a_429(self, cluster):
        client, router, _, key = cluster
        router.queue.quotas.limits["tiny"] = 1
        router.pause()
        try:
            parked = client.submit("lint", tenant="tiny", source=LINT_SOURCE)
            with pytest.raises(ServiceError) as err:
                client.request_bytes(
                    "POST", "/run", run_bytes(key, env(), tenant="tiny"),
                    JSON_HEADERS,
                )
            assert err.value.status == 429
            assert err.value.retry_after is not None
            assert err.value.retry_after >= 1
            assert "tiny" in err.value.payload["error"]
            client.cancel(parked["job_id"])
        finally:
            router.queue.quotas.limits.pop("tiny", None)
            router.resume()

    def test_replica_400_is_relayed(self, cluster):
        client, _, supervisor, key = cluster
        body = ServiceClient.run_body(
            key, {"A": env(), "B": np.zeros((N + 1, M + 1))}, {"n": N}
        )
        with pytest.raises(ServiceError) as direct:
            supervisor.handles[0].client._request("POST", "/run", body)
        with pytest.raises(ServiceError) as routed:
            client._request("POST", "/run", body)
        assert direct.value.status == routed.value.status == 400
        assert routed.value.payload["error"] == (
            f"HTTP 400: {direct.value.payload['error']}"
        )


class TestAsyncJsonRun:
    def test_submit_poll_result(self, cluster, replies):
        client, router, _, key = cluster
        A = env(seed=9)
        job = client.submit(
            "run", tenant="async-t",
            **ServiceClient.run_body(
                key, {"A": A, "B": np.zeros_like(A)}, {"n": N, "m": M}
            ),
        )
        client.wait(job["job_id"], timeout=60)
        polled = client.poll(job["job_id"])
        assert polled["state"] == "done"
        assert "result_encoding" not in polled
        assert "result_nbytes" not in polled

        _, raw = client.request_bytes("GET", f"/result/{job['job_id']}")
        doc = json.loads(raw)
        (reply,) = replies
        assert list(doc) == [*polled, "result"]
        result = {**json.loads(reply), "cluster": doc["result"]["cluster"]}
        assert raw == encoded({**doc, "result": result})
        out = decode_run_result(doc["result"])
        assert np.array_equal(out["arrays"]["B"], expected_from(A), equal_nan=True)

        settled = router.queue.get(job["job_id"])
        assert settled.result_raw == reply
        assert settled.raw_body is None and settled.body == {}


def wire_run_frame(key, A) -> bytes:
    return wire.encode_frame(
        {"key": key, "scalars": {"n": N, "m": M}},
        {"A": A, "B": np.zeros_like(A)},
    )


class TestReplySet:
    """Router replies are the replica's: only the arrays the run wrote."""

    def test_sync_json(self, cluster):
        client, _, _, key = cluster
        _, raw = client.request_bytes(
            "POST", "/run", run_bytes(key, env()), JSON_HEADERS
        )
        doc = json.loads(raw)
        assert set(doc["arrays"]) == {"B"}
        assert doc["array_dtypes"] == {"B": "<f8"}

    def test_sync_wire(self, cluster):
        client, _, _, key = cluster
        _, raw = client.request_bytes(
            "POST", "/run", wire_run_frame(key, env()),
            {"Content-Type": wire.CONTENT_TYPE},
        )
        doc, views = wire.decode_frame(raw)
        assert set(views) == {"B"} and views["B"].dtype == np.float64
        assert "cluster" in doc

    @pytest.mark.parametrize("transport", ["json", "wire"])
    def test_async_result(self, cluster, transport):
        client, _, _, key = cluster
        A = env(seed=21)
        job = client.submit_run(
            key, {"A": A, "B": np.zeros_like(A)}, {"n": N, "m": M},
            transport=transport,
        )
        doc = client.wait(job["job_id"], timeout=60)
        assert doc["state"] == "done"
        result = doc["result"]
        assert set(result["arrays"]) == {"B"}  # result() fills nothing in
        if transport == "json":
            assert result["array_dtypes"] == {"B": "<f8"}
        assert np.array_equal(
            result["arrays"]["B"], expected_from(A), equal_nan=True
        )


class TestResultWait:
    """``GET /result/<id>?wait=<s>`` blocks until the job settles."""

    @staticmethod
    def parked(cluster):
        """A lint job the paused router holds queued."""
        client, router, _, _ = cluster
        router.pause()
        return client.submit("lint", source=LINT_SOURCE)["job_id"]

    @staticmethod
    def later(action, delay=0.3):
        timer = threading.Timer(delay, action)
        timer.start()
        return timer

    def test_wakes_when_the_job_settles(self, cluster):
        client, router, _, _ = cluster
        job_id = self.parked(cluster)
        timer = self.later(router.resume)
        try:
            t0 = time.monotonic()
            doc = client.result(job_id, wait=30)
            waited = time.monotonic() - t0
        finally:
            timer.join()
            router.resume()
        assert doc["state"] == "done" and doc["result"]["ok"]
        assert 0.25 <= waited < 20

    def test_cancel_wakes_a_waiter(self, cluster):
        client, router, _, _ = cluster
        job_id = self.parked(cluster)
        timer = self.later(lambda: client.cancel(job_id))
        try:
            t0 = time.monotonic()
            doc = client.result(job_id, wait=30)
            waited = time.monotonic() - t0
        finally:
            timer.join()
            router.resume()
        assert doc["state"] == "cancelled"
        assert 0.25 <= waited < 20

    def test_the_reaper_leaves_a_waiter_its_job(self, cluster):
        """A job settled and at once past its TTL: the waiter still gets
        its document, and the next request finds the job reaped."""
        client, router, _, _ = cluster
        ttl, router.queue.result_ttl_s = router.queue.result_ttl_s, 0.0
        job_id = self.parked(cluster)
        timer = self.later(router.resume)
        try:
            doc = client.result(job_id, wait=30)
            time.sleep(0.01)
            with pytest.raises(ServiceError) as err:
                client.result(job_id)
        finally:
            timer.join()
            router.resume()
            router.queue.result_ttl_s = ttl
        assert doc["state"] == "done"
        assert err.value.status == 404

    def test_an_unsettled_job_is_a_409_after_the_wait(self, cluster):
        client, router, _, _ = cluster
        job_id = self.parked(cluster)
        try:
            t0 = time.monotonic()
            with pytest.raises(ServiceError) as err:
                client.result(job_id, wait=0.3)
            assert err.value.status == 409
            assert time.monotonic() - t0 >= 0.25
            with pytest.raises(TimeoutError):
                client.wait(job_id, timeout=0.3)
        finally:
            client.cancel(job_id)
            router.resume()

    def test_wait_is_one_request(self, cluster):
        client, _, _, key = cluster
        A = env(seed=8)
        job = client.submit(
            "run", **ServiceClient.run_body(
                key, {"A": A, "B": np.zeros_like(A)}, {"n": N, "m": M}
            ),
        )
        paths = []
        send = client.request_bytes

        def spy(method, path, data=None, headers=None):
            paths.append(path)
            return send(method, path, data, headers)

        client.request_bytes = spy
        try:
            doc = client.wait(job["job_id"], timeout=60)
        finally:
            del client.request_bytes
        assert doc["state"] == "done"
        assert len(paths) == 1 and paths[0].startswith(
            f"/result/{job['job_id']}?wait="
        )

    @pytest.mark.parametrize("query", [
        "wait=-1", "wait=soon", "wait=nan", "wait=inf", "wait=1&wait=2",
        "timeout=5",
    ])
    def test_a_bad_wait_is_a_400(self, cluster, query):
        client, _, _, _ = cluster
        job_id = client.submit("lint", source=LINT_SOURCE)["job_id"]
        with pytest.raises(ServiceError) as err:
            client.request_bytes("GET", f"/result/{job_id}?{query}")
        assert err.value.status == 400


def test_a_shutdown_wakes_a_waiter_and_the_drain_completes(tmp_path):
    router, supervisor, thread = start_cluster(
        replicas=1, cache_dir=str(tmp_path / "cache"), drain_s=1.0
    )
    client = ServiceClient(port=router.port)
    try:
        router.pause()
        job_id = client.submit("lint", source=LINT_SOURCE)["job_id"]
        got = []

        def waiter():
            with pytest.raises(ServiceError) as err:
                ServiceClient(port=router.port).result(job_id, wait=30)
            got.append(err.value.status)

        waiting = threading.Thread(target=waiter)
        waiting.start()
        time.sleep(0.3)
        router.shutdown()
        assert router.drain(10.0)
        waiting.join(timeout=10)
        assert not waiting.is_alive() and got == [409]
    finally:
        client.close()
        router.close()
        supervisor.stop()
        thread.join(timeout=10)


class TestNoSettledSyncJobs:
    def test_sync_jobs_leave_the_table(self, cluster):
        client, router, _, key = cluster
        before = client.metrics()["jobs"]
        A = env(seed=3)
        for _ in range(25):
            client.run(key, {"A": A, "B": np.zeros_like(A)}, {"n": N, "m": M})
            client.run(
                key, {"A": A, "B": np.zeros_like(A)}, {"n": N, "m": M},
                transport="wire",
            )
        client.lint(LINT_SOURCE)
        client.compile(KERNEL)
        after = client.metrics()["jobs"]
        assert after["completed"] == before["completed"] + 52
        assert after["states"] == before["states"]


class TestRepair:
    def test_restarted_replica_gets_the_same_bytes(self, cluster):
        """Runs last in this module: it restarts the fleet's replica."""
        client, router, supervisor, key = cluster
        handle = supervisor.handles[0]
        generation = handle.generation
        supervisor.kill(0, graceful=True)
        deadline = time.monotonic() + 60.0
        while not (handle.generation > generation and handle.alive):
            assert time.monotonic() < deadline, "replica never restarted"
            time.sleep(0.05)

        sent = []
        send = handle.client.request_bytes

        def spy(method, path, data=None, headers=None):
            sent.append((path, data))
            return send(method, path, data, headers)

        handle.client.request_bytes = spy
        repairs = router.counters["repairs"]
        A = env(seed=13)
        raw = run_bytes(key, A)
        _, routed = client.request_bytes("POST", "/run", raw, JSON_HEADERS)
        out = decode_run_result(json.loads(routed))
        assert np.array_equal(out["arrays"]["B"], expected_from(A), equal_nan=True)
        assert router.counters["repairs"] == repairs + 1
        assert [path for path, _ in sent] == ["/run", "/compile", "/run"]
        assert sent[0][1] == sent[2][1] == raw
