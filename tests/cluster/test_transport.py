"""Array transports through the cluster front door.

The router promise under test: wire frames pass through *opaquely*
(header peek only — the router never materializes an ndarray), results
stream back as frames, sticky routing sends a program's runs to the
replica that compiled it, and a hostile frame is a 400 at the front door
with every replica still alive behind it.

The large-payload tests use a 1M-element array and compare served
results bit-for-bit against the locally executed serial program.
"""

import numpy as np
import pytest

from repro import wire
from repro.api import transform_function
from repro.cluster import start_cluster
from repro.service.client import ServiceClient, ServiceError

KERNEL = """
def p9axpy(X, Y, n):
    for i in range(1, n + 1):
        Y[i] = 2.0 * X[i] + 0.5 * Y[i] + 1.0
"""

# A distinct program so the sticky test controls its own routing history.
STICKY_KERNEL = KERNEL.replace("0.5", "0.25")

BIG = 1_048_576

RUN = dict(workers=2, backend="mp")


@pytest.fixture(scope="module")
def cluster(tmp_path_factory):
    cache_dir = tmp_path_factory.mktemp("transport-cache")
    router, supervisor, thread = start_cluster(
        replicas=2,
        cache_dir=str(cache_dir),
        max_depth=8,
        drain_s=2.0,
        sync_timeout_s=120.0,
    )
    client = ServiceClient(
        port=router.port, retries=2, backoff_s=0.02, timeout=300.0
    )
    try:
        yield client, router, supervisor
    finally:
        router.shutdown()
        router.close()
        supervisor.stop()
        thread.join(timeout=10)


@pytest.fixture(scope="module")
def big_env():
    rng = np.random.default_rng(31)
    X = rng.random(BIG + 1)
    Y0 = rng.random(BIG + 1)
    expected = Y0.copy()
    transform_function(KERNEL, cache=None)(X, expected, BIG)
    return X, Y0, expected


class TestLargeBitIdentity:
    @pytest.mark.parametrize("transport", ["json", "wire"])
    def test_front_door(self, cluster, big_env, transport):
        client, _, _ = cluster
        X, Y0, expected = big_env
        key = client.compile(KERNEL, backend="mp")["key"]
        out = client.run(
            key, {"X": X, "Y": Y0}, {"n": BIG}, transport=transport, **RUN
        )
        got = out["arrays"]["Y"]
        assert got.dtype == np.float64
        assert got.tobytes() == expected.tobytes(), (
            f"{transport} served result is not bit-identical to serial"
        )
        assert out["cluster"]["replica"] in (0, 1)

    @pytest.mark.parametrize("transport", ["json", "wire"])
    def test_direct_replica(self, cluster, big_env, transport):
        _, _, supervisor = cluster
        X, Y0, expected = big_env
        handle = supervisor.handles[0]
        direct = ServiceClient(port=handle.port, timeout=300.0)
        try:
            key = direct.compile(KERNEL, backend="mp")["key"]
            out = direct.run(
                key, {"X": X, "Y": Y0}, {"n": BIG},
                transport=transport, **RUN,
            )
            assert out["arrays"]["Y"].tobytes() == expected.tobytes(), (
                f"{transport} direct-replica result is not bit-identical"
            )
        finally:
            direct.close()


class TestStickyRouting:
    def test_warm_hit_same_replica(self, cluster):
        client, router, _ = cluster
        key = client.compile(STICKY_KERNEL, backend="mp")["key"]
        rng = np.random.default_rng(5)
        X = rng.random(257)
        Y = rng.random(257)
        opts = dict(workers=2, backend="mp", policy="unit")
        first = client.run(
            key, {"X": X, "Y": Y}, {"n": 256}, transport="wire", **opts
        )
        with router._state_lock:
            hits_before = router.counters["sticky_hits"]
        second = client.run(
            key, {"X": X, "Y": Y}, {"n": 256}, transport="wire", **opts
        )
        assert second["cluster"]["replica"] == first["cluster"]["replica"]
        with router._state_lock:
            assert router.counters["sticky_hits"] > hits_before

    def test_sticky_key_recorded(self, cluster):
        client, router, _ = cluster
        key = client.compile(STICKY_KERNEL, backend="mp")["key"]
        with router._state_lock:
            assert key in router._sticky


class TestPassThrough:
    def test_transport_counters_on_both_hops(self, cluster):
        client, _, supervisor = cluster
        key = client.compile(KERNEL, backend="mp")["key"]
        rng = np.random.default_rng(7)
        X, Y = rng.random(65), rng.random(65)
        client.run(key, {"X": X, "Y": Y}, {"n": 64}, transport="wire", **RUN)
        client.run(key, {"X": X, "Y": Y}, {"n": 64}, transport="json", **RUN)
        fleet = client.metrics()["cluster"]
        assert fleet["transport"]["wire"] >= 1, fleet["transport"]
        assert fleet["transport"]["json"] >= 1, fleet["transport"]
        assert fleet["sticky_keys"] >= 1
        # The frame reached a replica still in wire form — proof the
        # router forwarded opaquely instead of re-encoding to JSON.
        replica_wire = 0
        for handle in supervisor.handles:
            direct = ServiceClient(port=handle.port)
            try:
                replica_wire += direct.metrics()["server"]["transport"]["wire"]
            finally:
                direct.close()
        assert replica_wire >= 1

    def test_router_bytes_counters(self, cluster):
        client, router, _ = cluster
        with router._state_lock:
            bytes_in = router.counters["bytes_in"]
            bytes_out = router.counters["bytes_out"]
        assert bytes_in > 0 and bytes_out > 0


class TestAsyncWire:
    def test_submit_poll_result_round_trip(self, cluster):
        client, _, _ = cluster
        key = client.compile(KERNEL, backend="mp")["key"]
        rng = np.random.default_rng(9)
        X = rng.random(129)
        Y0 = rng.random(129)
        expected = Y0.copy()
        transform_function(KERNEL, cache=None)(X, expected, 128)
        job = client.submit_run(
            key, {"X": X, "Y": Y0}, {"n": 128}, transport="wire", **RUN
        )
        assert job["state"] == "queued"
        out = client.wait(job["job_id"], timeout=120.0)
        assert out["state"] == "done"
        assert out["result_encoding"] == "wire"
        assert out["result"]["arrays"]["Y"].tobytes() == expected.tobytes()

    def test_wire_result_needs_wire_accept(self, cluster):
        client, _, _ = cluster
        key = client.compile(KERNEL, backend="mp")["key"]
        rng = np.random.default_rng(13)
        job = client.submit_run(
            key, {"X": rng.random(33), "Y": rng.random(33)}, {"n": 32},
            transport="wire", **RUN,
        )
        client.wait(job["job_id"], timeout=120.0)
        with pytest.raises(ServiceError) as err:
            client.request_bytes(
                "GET", f"/result/{job['job_id']}", None,
                {"Accept": "application/json"},
            )
        assert err.value.status == 406
        assert wire.CONTENT_TYPE in str(err.value)

    def test_wire_submit_rejects_non_run_kind(self, cluster):
        client, _, _ = cluster
        frame = wire.encode_frame(
            {"kind": "compile", "body": {"source": "x"}}, {}
        )
        with pytest.raises(ServiceError) as err:
            client.request_bytes(
                "POST", "/submit", frame,
                {"Content-Type": wire.CONTENT_TYPE},
            )
        assert err.value.status == 400


class TestFrontDoorSafety:
    @pytest.mark.parametrize("payload", [
        b"garbage-not-a-frame",
        b"RPW1\xff\xff\xff\xff",
    ])
    def test_malformed_frame_is_a_400_replicas_survive(self, cluster, payload):
        client, _, supervisor = cluster
        with pytest.raises(ServiceError) as err:
            client.request_bytes(
                "POST", "/run", payload,
                {"Content-Type": wire.CONTENT_TYPE, "Accept": wire.CONTENT_TYPE},
            )
        assert err.value.status == 400
        assert len(supervisor.alive_handles()) == 2
        assert client.healthz()["status"] == "ok"

    def test_truncated_real_frame_is_a_400(self, cluster):
        client, _, _ = cluster
        key = client.compile(KERNEL, backend="mp")["key"]
        rng = np.random.default_rng(17)
        frame = wire.encode_frame(
            {"key": key, "scalars": {"n": 16}},
            {"X": rng.random(17), "Y": rng.random(17)},
        )
        with pytest.raises(ServiceError) as err:
            client.request_bytes(
                "POST", "/run", frame[:-32],
                {"Content-Type": wire.CONTENT_TYPE, "Accept": wire.CONTENT_TYPE},
            )
        assert err.value.status == 400
        assert client.healthz()["status"] == "ok"

    @pytest.mark.parametrize("field,extra", [
        ("transport", {"transport": "shm"}),
        ("shm_arrays", {"shm_arrays": [{"name": "X", "segment": "repro-x"}]}),
    ])
    def test_retired_shm_fields_are_a_400(self, cluster, field, extra):
        client, _, supervisor = cluster
        key = client.compile(KERNEL, backend="mp")["key"]
        rng = np.random.default_rng(19)
        body = ServiceClient.run_body(
            key, {"X": rng.random(17), "Y": rng.random(17)}, {"n": 16},
            **RUN, **extra,
        )
        with pytest.raises(ServiceError) as err:
            client._request("POST", "/run", body)
        assert err.value.status == 400
        assert repr(field) in str(err.value)
        assert len(supervisor.alive_handles()) == 2
        assert client.healthz()["status"] == "ok"

    def test_chunk_lang_is_a_400_through_the_router(self, cluster):
        # The chunk language is derived by each replica's plan, never
        # requested: the retired field is refused, as a lone server does.
        client, _, supervisor = cluster
        key = client.compile(KERNEL, backend="mp")["key"]
        rng = np.random.default_rng(23)
        body = ServiceClient.run_body(
            key, {"X": rng.random(17), "Y": rng.random(17)}, {"n": 16},
            chunk_lang="c", **RUN,
        )
        with pytest.raises(ServiceError) as err:
            client._request("POST", "/run", body)
        assert err.value.status == 400
        assert "'chunk_lang' is not a /run option" in str(err.value)
        assert len(supervisor.alive_handles()) == 2
