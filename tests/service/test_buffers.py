"""JSON arrays as typed buffers, through a lone server and the router.

``ServiceClient(transport="json")`` sends every array as
``{"dtype", "shape", "base64"}``.  These tests pin the contract: the
reply comes back in the request's form and bit-exact (NaN payloads,
signed zeros, int64 extremes, any byte order), a malformed buffer is a
400 from a lone server and from the router alike — decided before any
worker pool is leased — and a hand-written float-list body still gets
float lists back.
"""

import base64
import http.client
import json

import numpy as np
import pytest

from repro.cache import ArtifactCache
from repro.cluster import start_cluster
from repro.service import ServiceClient, ServiceError, serve_background
from repro.service import server as server_mod
from repro.service.client import decode_run_result

COPY = """
def copy2d(A, B, n, m):
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            B[i, j] = A[i, j]
"""

N = M = 5
RUN = {"backend": "mp", "workers": 2}
JSON_HEADERS = {"Content-Type": "application/json"}
I64 = np.iinfo(np.int64)


def _bits(*words: int) -> np.ndarray:
    return np.array(words, dtype=np.uint64).view(np.float64)


#: Quiet NaNs with payloads (one negative), both infinities, both zeros.
SPECIALS = _bits(
    0x7FF8_0000_DEAD_BEEF, 0xFFF8_0000_0000_0001,
    0x7FF0_0000_0000_0000, 0xFFF0_0000_0000_0000,
    0x8000_0000_0000_0000, 0x0000_0000_0000_0000,
)


def _specials_env():
    rng = np.random.default_rng(41)
    A, B = rng.random((N + 1, M + 1)), rng.random((N + 1, M + 1))
    A[1, :] = SPECIALS  # copied into B by the run
    B[0, :] = SPECIALS  # outside the loop: travels untouched
    return A, B


def _int_env():
    A = np.arange((N + 1) * (M + 1), dtype=np.int64).reshape(N + 1, M + 1)
    A[1, 1], A[1, 2] = I64.min, I64.max
    B = np.full_like(A, I64.min)
    B[0, 0] = I64.max
    return A, B


def _fortran_env():
    return tuple(np.asfortranarray(a) for a in _specials_env())


def _big_endian_env():
    return tuple(a.astype(">f8") for a in _specials_env())


ENVS = {
    "specials": _specials_env,
    "int64-extremes": _int_env,
    "fortran-order": _fortran_env,
    "big-endian": _big_endian_env,
}


def expected(A, B):
    want = np.array(B, order="C")
    want[1:, 1:] = A[1:, 1:]
    return want


def assert_same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.ascontiguousarray(got).tobytes() == want.tobytes()


@pytest.fixture(scope="module")
def lone(tmp_path_factory):
    server, thread = serve_background(
        cache=ArtifactCache(tmp_path_factory.mktemp("buffers-cache"))
    )
    client = ServiceClient(port=server.port)
    try:
        yield client, server
    finally:
        client.close()
        server.shutdown()
        server.close()
        thread.join(timeout=10)


@pytest.fixture(scope="module")
def routed(tmp_path_factory):
    router, supervisor, thread = start_cluster(
        replicas=1,
        cache_dir=str(tmp_path_factory.mktemp("buffers-cluster")),
        drain_s=1.0,
        sync_timeout_s=120.0,
    )
    client = ServiceClient(port=router.port)
    try:
        yield client, supervisor.handles[0].client
    finally:
        client.close()
        router.shutdown()
        router.close()
        supervisor.stop()
        thread.join(timeout=10)


@pytest.fixture(params=["server-run", "router-run", "router-submit"])
def path(request, lone, routed):
    """``(send, client)``: ``send`` posts a run body along this path and
    returns the reply as the server wrote it; ``client`` talks to the
    same front door."""
    front, _ = request.param.split("-")
    client = lone[0] if front == "server" else routed[0]

    def run(body):
        _, raw = client.request_bytes(
            "POST", "/run", json.dumps(body).encode(), JSON_HEADERS
        )
        return json.loads(raw)

    def submit(body):
        job = client.submit("run", **body)["job_id"]
        doc = client.wait(job, timeout=60.0)
        assert doc["state"] == "done", doc
        _, raw = client.request_bytes("GET", f"/result/{job}")
        return json.loads(raw)["result"]

    return run if request.param.endswith("run") else submit, client


class TestRoundTrip:
    @pytest.mark.parametrize("case", sorted(ENVS))
    def test_bit_exact(self, path, case):
        send, client = path
        key = client.compile(COPY, backend="mp")["key"]
        A, B = ENVS[case]()
        body = ServiceClient.run_body(
            key, {"A": A, "B": B}, {"n": N, "m": M}, **RUN
        )
        assert "array_dtypes" not in body
        assert set(body["arrays"]["A"]) == {"dtype", "shape", "base64"}
        reply = send(body)
        assert reply["engine"] == "mp-pool" and reply["transport"] == "json"
        # The reply uses the request's form.
        assert set(reply["arrays"]) == {"B"}
        assert isinstance(reply["arrays"]["B"], dict)
        got = decode_run_result(reply)["arrays"]["B"]
        assert got.flags.writeable
        assert_same_bits(got, expected(A, B))

    def test_client_run_and_wait_decode_buffers(self, routed):
        client, _ = routed
        key = client.compile(COPY, backend="mp")["key"]
        A, B = _specials_env()
        out = client.run(key, {"A": A, "B": B}, {"n": N, "m": M}, **RUN)
        assert out["arrays"]["A"] is A
        assert_same_bits(out["arrays"]["B"], expected(A, B))
        job = client.submit_run(key, {"A": A, "B": B}, {"n": N, "m": M}, **RUN)
        doc = client.wait(job["job_id"], timeout=60.0)
        assert_same_bits(doc["result"]["arrays"]["B"], expected(A, B))


def _b64(data: bytes) -> str:
    return base64.b64encode(data).decode("ascii")


def _short(buf):
    buf["base64"] = _b64(base64.b64decode(buf["base64"])[:-8])


def _set(field, value):
    return lambda buf: buf.__setitem__(field, value)


def _flat(buf):
    buf["shape"] = [buf["shape"][0] * buf["shape"][1]]


#: ``(name, mangle of the body's "A" buffer, words the 400 names)``.
MALFORMED = [
    ("wrong-length", _short, "nbytes"),
    ("unknown-dtype", _set("dtype", "<q9"), "bad dtype"),
    ("object-dtype", _set("dtype", "|O"), "object dtypes"),
    ("null-dtype", _set("dtype", None), "bad dtype"),
    ("bad-base64", _set("base64", "AAAA!AAA"), "bad base64"),
    ("padded-twice", lambda b: b.__setitem__("base64", b["base64"] + "=="),
     "bad base64"),
    ("negative-dim", _set("shape", [-1, 2]), "bad shape"),
    ("wrong-rank", _flat, "rank 2 expected, got 1"),
    ("extra-key", lambda b: b.__setitem__("order", "C"), "exactly the keys"),
]


def _malformed_body(key, mangle):
    # A shape no valid run of this module uses: leasing its pool would
    # have to create one.
    rng = np.random.default_rng(3)
    A, B = rng.random((11, 11)), rng.random((11, 11))
    body = ServiceClient.run_body(key, {"A": A, "B": B}, {"n": 10, "m": 10},
                                  **RUN)
    if mangle == "mixed":
        body["arrays"]["A"] = A.tolist()
    elif mangle == "tagged":
        body["array_dtypes"] = {"A": "<f8", "B": "<f8"}
    else:
        mangle(body["arrays"]["A"])
    return body


CASES = [pytest.param(m, words, id=name) for name, m, words in MALFORMED] + [
    pytest.param("mixed", "mixes typed buffers and lists", id="mixed-forms"),
    pytest.param("tagged", "'array_dtypes' tags float lists only",
                 id="dtype-tags-with-buffers"),
]


class TestMalformed:
    @pytest.mark.parametrize("mangle, words", CASES)
    def test_lone_server_400_leases_no_pool(
        self, lone, monkeypatch, mangle, words
    ):
        client, server = lone
        key = client.compile(COPY, backend="mp")["key"]

        def no_pool(*args, **kwargs):
            raise AssertionError("a malformed request leased a pool")

        monkeypatch.setattr(server_mod, "WorkerPool", no_pool)
        before = server.server_metrics()
        with pytest.raises(ServiceError) as err:
            client._request("POST", "/run", _malformed_body(key, mangle))
        assert err.value.status == 400
        assert words in str(err.value)
        after = server.server_metrics()
        assert after["warm_pools"] == before["warm_pools"]
        assert after["runs"] == before["runs"]

    @pytest.mark.parametrize("mangle, words", CASES)
    def test_router_400_restarts_nothing(self, routed, mangle, words):
        client, replica = routed
        key = client.compile(COPY, backend="mp")["key"]
        before = replica.healthz()
        body = _malformed_body(key, mangle)
        with pytest.raises(ServiceError) as err:
            client._request("POST", "/run", body)
        assert err.value.status == 400
        assert words in str(err.value)
        job = client.submit("run", **body)["job_id"]
        doc = client.wait(job, timeout=60.0)
        assert doc["state"] == "failed" and doc["attempts"] == 1, doc
        assert "HTTP 400" in doc["error"] and words in doc["error"]
        after = replica.healthz()
        assert after["warm_pools"] == before["warm_pools"]
        assert after["runs"] == before["runs"]
        assert client.healthz()["fleet"]["restarts"] == 0


class TestListCompatibility:
    def test_raw_float_list_body_gets_lists_back(self, routed, lone):
        """A curl-style body: float lists and dtype tags, posted with
        plain ``http.client``, gets lists and ``array_dtypes`` back."""
        A, B = np.random.default_rng(9).random((2, N + 1, M + 1))
        B[0, 0], B[0, 1], B[0, 2] = np.nan, np.inf, -0.0
        for client in (lone[0], routed[0]):
            key = client.compile(COPY, backend="mp")["key"]
            body = {
                "key": key,
                "arrays": {"A": A.tolist(), "B": [
                    ["NaN" if x != x else "Infinity" if x == np.inf else x
                     for x in row] for row in B.tolist()
                ]},
                "array_dtypes": {"A": "<f8", "B": "<f8"},
                "scalars": {"n": N, "m": M}, **RUN,
            }
            conn = http.client.HTTPConnection("127.0.0.1", client.port)
            try:
                conn.request("POST", "/run", json.dumps(body), JSON_HEADERS)
                resp = conn.getresponse()
                reply = json.loads(resp.read())
            finally:
                conn.close()
            assert resp.status == 200, reply
            assert reply["array_dtypes"] == {"B": "<f8"}
            rows = reply["arrays"]["B"]
            assert isinstance(rows, list) and rows[0][:2] == ["NaN", "Infinity"]
            got = decode_run_result(reply)["arrays"]["B"]
            assert_same_bits(got, expected(A, B))
