"""The two /run array transports against a lone server.

``tests/wire/test_wire.py`` pins the frame codec; these tests pin the
HTTP layer on top of it: negotiation, dtype preservation end to end,
non-finite round trips, byte/transport accounting, and the promise that
a hostile frame gets a 400 — never a dead server.
"""

import json

import numpy as np
import pytest

from repro import wire
from repro.api import transform_function
from repro.cache import ArtifactCache
from repro.cluster.loadtest import LoadTest, loadtest_main
from repro.service import ServiceClient, ServiceError, serve_background
from repro.service.client import decode_run_result
from tests.service import post_list_run

PY_KERNEL = """
def scale2d(A, B, n, m):
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            B[i, j] = 2.0 * A[i, j] + 1.0
"""

# Integer in, integer out — exercises dtype preservation through every
# transport (the historical JSON path coerced everything to float64).
INT_KERNEL = """
def bump(A, B, n):
    for i in range(1, n + 1):
        B[i] = A[i] + 1
"""

N = M = 12


@pytest.fixture()
def service(tmp_path):
    server, thread = serve_background(cache=ArtifactCache(tmp_path / "cache"))
    try:
        yield ServiceClient(port=server.port), server
    finally:
        server.shutdown()
        server.close()
        thread.join(timeout=10)


def env():
    rng = np.random.default_rng(23)
    A = rng.random((N + 1, M + 1))
    return A, np.zeros_like(A)


def run_as(client, transport, key, arrays, scalars):
    """The run's arrays over ``transport``: ``json`` (typed buffers) and
    ``wire`` through the client, ``json-lists`` as a hand-written body."""
    if transport == "json-lists":
        reply = post_list_run(client, key, arrays, scalars)
        assert all(isinstance(v, list) for v in reply["arrays"].values())
        return decode_run_result(reply)["arrays"]
    return client.run(key, arrays, scalars, transport=transport)["arrays"]


def expected_from(A):
    B = np.zeros_like(A)
    transform_function(PY_KERNEL, cache=None)(A, B, N, M)
    return B


class TestWireTransport:
    @pytest.mark.parametrize("run_opts", [
        {},                                  # serial python engine
        {"workers": 2, "backend": "mp"},     # chunked mp engine
    ])
    def test_run_matches_json(self, service, run_opts):
        client, _ = service
        backend = run_opts.get("backend", "python")
        key = client.compile(PY_KERNEL, backend=backend)["key"]
        A, B = env()
        out = client.run(
            key, {"A": A, "B": B}, {"n": N, "m": M},
            transport="wire", **run_opts,
        )
        assert out["transport"] == "wire"
        assert np.array_equal(out["arrays"]["B"], expected_from(A))
        # Result arrays are zero-copy views over the response buffer.
        assert not out["arrays"]["B"].flags.writeable

    def test_int64_dtype_preserved(self, service):
        client, _ = service
        key = client.compile(INT_KERNEL)["key"]
        A = np.arange(N + 1, dtype=np.int64) * 3
        B = np.zeros(N + 1, dtype=np.int64)
        for transport in ("json", "json-lists", "wire"):
            got = run_as(client, transport, key, {"A": A, "B": B}, {"n": N})["B"]
            assert got.dtype == np.int64, transport
            assert np.array_equal(got[1:], A[1:] + 1), transport

    def test_nan_round_trip(self, service):
        # Y[0] is outside the loop range, so the NaN travels through the
        # transport untouched by compute — it must come back as NaN (and
        # bit-exactly over the wire transport).
        client, _ = service
        key = client.compile(PY_KERNEL)["key"]
        A, B = env()
        B[0, 0] = np.nan
        B[0, 1] = np.inf
        for transport in ("json", "json-lists", "wire"):
            got = run_as(
                client, transport, key, {"A": A, "B": B}, {"n": N, "m": M}
            )["B"]
            assert np.isnan(got[0, 0]), transport
            assert got[0, 1] == np.inf, transport
            assert np.array_equal(got[1:], expected_from(A)[1:]), transport
        wired = client.run(
            key, {"A": A, "B": B}, {"n": N, "m": M}, transport="wire"
        )["arrays"]["B"]
        assert np.array_equal(
            wired.view(np.uint64)[0, :2], B.view(np.uint64)[0, :2]
        )

    def test_wire_request_can_accept_json(self, service):
        # A wire *request* with ``Accept: application/json`` gets a JSON
        # response — negotiation is per direction.
        client, _ = service
        key = client.compile(PY_KERNEL)["key"]
        A, B = env()
        frame = wire.encode_frame(
            {"key": key, "scalars": {"n": N, "m": M}},
            {"A": A, "B": B},
        )
        rheaders, raw = client.request_bytes(
            "POST", "/run", frame,
            {"Content-Type": wire.CONTENT_TYPE, "Accept": "application/json"},
        )
        ctype = (rheaders.get("Content-Type") or "").split(";")[0].strip()
        assert ctype == "application/json"
        out = json.loads(raw)
        assert out["transport"] == "wire"
        back = wire.array_from_json(
            out["arrays"]["B"], out["array_dtypes"]["B"]
        )
        assert np.array_equal(back, expected_from(A))


class TestMalformedFrames:
    @pytest.mark.parametrize("mangle", [
        lambda frame: b"garbage-not-a-frame",
        lambda frame: frame[: len(frame) // 2],          # truncated payload
        lambda frame: b"XXXX" + frame[4:],               # bad magic
        lambda frame: frame + b"trailing-bytes",
    ])
    def test_rejected_with_400_server_stays_up(self, service, mangle):
        client, _ = service
        key = client.compile(PY_KERNEL)["key"]
        A, B = env()
        frame = wire.encode_frame(
            {"key": key, "scalars": {"n": N, "m": M}}, {"A": A, "B": B}
        )
        with pytest.raises(ServiceError) as err:
            client.request_bytes(
                "POST", "/run", mangle(frame),
                {"Content-Type": wire.CONTENT_TYPE, "Accept": wire.CONTENT_TYPE},
            )
        assert err.value.status == 400
        # The server survived and still serves good frames.
        out = client.run(
            key, {"A": A, "B": B}, {"n": N, "m": M}, transport="wire"
        )
        assert np.array_equal(out["arrays"]["B"], expected_from(A))

    def test_unknown_json_transport_is_a_400(self, service):
        client, _ = service
        key = client.compile(PY_KERNEL)["key"]
        with pytest.raises(ServiceError) as err:
            client._request("POST", "/run", {
                "key": key, "transport": "carrier-pigeon",
                "arrays": {}, "scalars": {},
            })
        assert err.value.status == 400

    @pytest.mark.parametrize("field", ["transport", "shm_arrays"])
    def test_naming_the_servers_own_segments_is_a_400(self, service, field):
        """A body naming the warm pool's segments must not run in place
        over the server's own memory; the pool keeps serving."""
        client, server = service
        key = client.compile(PY_KERNEL, backend="mp")["key"]
        A, B = env()
        run = dict(workers=2, backend="mp")
        client.run(key, {"A": A, "B": B}, {"n": N, "m": M},
                   transport="wire", **run)
        (warm,) = server.pools._pools.values()
        specs = [
            {"name": s.name, "segment": s.segment,
             "shape": list(s.shape), "dtype": s.dtype}
            for s in warm.pool.shared.specs()
        ]
        body = ServiceClient.run_body(
            key, {"A": A, "B": B}, {"n": N, "m": M}, shm_arrays=specs, **run
        )
        if field == "transport":
            body["transport"] = "shm"
        with pytest.raises(ServiceError) as err:
            client._request("POST", "/run", body)
        assert err.value.status == 400
        assert repr(field) in str(err.value)
        out = client.run(key, {"A": A, "B": B}, {"n": N, "m": M},
                         transport="wire", **run)
        assert out["engine"] == "mp-pool"
        assert np.array_equal(out["arrays"]["B"], expected_from(A))
        assert list(server.pools._pools.values()) == [warm]


def test_shm_transport_is_refused_client_side():
    """json and wire are the only transports; "shm" is an unknown one."""
    with pytest.raises(ValueError, match="shm"):
        ServiceClient(transport="shm")
    with pytest.raises(ValueError, match="shm"):
        LoadTest("127.0.0.1", 1, transport="shm")
    client = ServiceClient(port=1)
    A, B = env()
    with pytest.raises(ValueError, match="shm"):
        client.run("k", {"A": A, "B": B}, {"n": N, "m": M}, transport="shm")
    with pytest.raises(ValueError, match="shm"):
        client.submit_run(
            "k", {"A": A, "B": B}, {"n": N, "m": M}, transport="shm"
        )
    with pytest.raises(SystemExit) as exit_:
        loadtest_main(["--transport", "shm"])
    assert exit_.value.code == 2


class TestAccounting:
    def test_bytes_and_transport_counters(self, service):
        client, server = service
        key = client.compile(PY_KERNEL, backend="mp")["key"]
        A, B = env()
        for transport in ("json", "wire"):
            out = client.run(
                key, {"A": A, "B": B}, {"n": N, "m": M},
                transport=transport, workers=2, backend="mp",
            )
            assert np.array_equal(out["arrays"]["B"], expected_from(A))
        metrics = client.metrics()["server"]
        counts = metrics["transport"]
        assert set(counts) == {"json", "wire"}, counts
        assert counts["json"] >= 1 and counts["wire"] >= 1, counts
        assert metrics["bytes_in"] > 0 and metrics["bytes_out"] > 0
        with server._state_lock:
            assert server.counters["bytes_in"] >= metrics["bytes_in"]

    def test_wire_moves_fewer_bytes_than_json(self, service):
        client, server = service
        key = client.compile(PY_KERNEL)["key"]
        A, B = env()

        def run_bytes(transport):
            with server._state_lock:
                before = server.counters["bytes_in"] + server.counters["bytes_out"]
            client.run(key, {"A": A, "B": B}, {"n": N, "m": M},
                       transport=transport)
            with server._state_lock:
                after = server.counters["bytes_in"] + server.counters["bytes_out"]
            return after - before

        assert run_bytes("wire") < run_bytes("json")

    def test_connection_is_reused(self, service):
        client, _ = service
        client.healthz()
        conn = client._conn()
        sock = conn.sock
        assert sock is not None
        client.healthz()
        assert client._conn() is conn and conn.sock is sock
