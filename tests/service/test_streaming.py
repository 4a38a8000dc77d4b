"""Streaming ``/run`` over the wire transport.

A wire request's payloads are read from the socket straight into the
leased pool's shm segments, and the response is written from those same
segments: no request or response frame is ever held as one buffer, on
either end.  These tests pin that down — nothing on the path decodes,
encodes or loads a whole frame — and the failure contract that comes with
reading a request while holding a pool: a truncated upload, a client
that hangs up mid-response and a refused frame all end in a clean error
on that connection only, the pool keeps serving, the connection is kept
when the body could be drained, and no segment leaks.
"""

import json
import socket
import struct
import threading
import time

import numpy as np
import pytest

from repro import wire
from repro.cache import ArtifactCache
from repro.parallel.shm import SharedArrayPool
from repro.service import ServiceClient, ServiceError, serve_background
from tests.parallel import own_segments

SAXPY1D = """
procedure saxpy1d(X[1], Y[1]; n)
  doall i = 1, n
    Y(i) := Y(i) + 2.5 * X(i)
  end
end
"""

#: 2 x 8 MiB: far more than a socket buffer holds, so a reader that
#: stops early really leaves the sender stuck mid-frame.
BULK_N = 1 << 20


@pytest.fixture()
def service(tmp_path):
    before = set(own_segments())
    server, thread = serve_background(cache=ArtifactCache(tmp_path / "cache"))
    client = ServiceClient(port=server.port, transport="wire", timeout=60.0)
    try:
        key = client.compile(SAXPY1D, backend="mp")["key"]
        yield client, server, key
    finally:
        client.close()
        server.shutdown()
        server.close()
        thread.join(timeout=10)
    assert set(own_segments()) <= before


def inputs(n, seed):
    rng = np.random.default_rng(seed)
    return {"X": rng.standard_normal(n + 1), "Y": rng.standard_normal(n + 1)}


def expected(arrays):
    y = arrays["Y"].copy()
    y[1:] += 2.5 * arrays["X"][1:]
    return y


def run(client, key, arrays, n):
    return client.run(key, arrays, {"n": n}, backend="mp", workers=2)


def raw_request(port: int, frame: bytes, length: int | None = None):
    """A socket that has sent a wire ``POST /run`` head plus ``frame``."""
    sock = socket.create_connection(("127.0.0.1", port), timeout=30)
    head = (
        "POST /run HTTP/1.1\r\nHost: x\r\n"
        f"Content-Type: {wire.CONTENT_TYPE}\r\n"
        f"Content-Length: {len(frame) if length is None else length}\r\n\r\n"
    )
    sock.sendall(head.encode() + frame)
    return sock


def test_no_whole_frame_is_built_or_loaded(service, monkeypatch):
    client, server, key = service

    def forbidden(*args, **kwargs):
        raise AssertionError("a whole-frame buffer was built")

    # The client still reads the reply whole (decode_frame views over
    # it); everything else on the path must stream.
    monkeypatch.setattr(wire, "encode_frame", forbidden)
    monkeypatch.setattr(SharedArrayPool, "load", forbidden)
    monkeypatch.setattr(SharedArrayPool, "copy_back", forbidden)
    # Two requests on one warm pool: the second must not see the first's
    # data anywhere (its payloads overwrite every segment byte).
    for seed in (1, 2):
        arrays = inputs(4096, seed)
        out = run(client, key, arrays, 4096)
        assert out["engine"] == "mp-pool"
        assert np.array_equal(out["arrays"]["Y"], expected(arrays))
        assert np.array_equal(out["arrays"]["X"], arrays["X"])
    assert len(server.pools) == 1


def test_bytes_in_counts_the_streamed_frame(service):
    client, server, key = service
    arrays = inputs(2048, 3)
    body = {"key": key, "scalars": {"n": 2048}, "backend": "mp", "workers": 2}
    size = len(wire.encode_frame(body, arrays))
    with server._state_lock:
        before = server.counters["bytes_in"]
    client.run(key, arrays, {"n": 2048}, backend="mp", workers=2)
    with server._state_lock:
        assert server.counters["bytes_in"] - before == size


def test_refused_frame_is_drained_and_the_connection_kept(service):
    client, _, key = service
    arrays = inputs(BULK_N, 4)
    frame = wire.encode_frame({"key": "no-such-key", "scalars": {"n": 1}}, arrays)
    client.healthz()
    sock = client._conn().sock
    with pytest.raises(ServiceError) as err:
        client.request_bytes(
            "POST", "/run", frame, {"Content-Type": wire.CONTENT_TYPE}
        )
    assert err.value.status == 404
    # The 16 MiB the route never read were drained, not left to prefix
    # the next request: the same socket serves a good run.
    out = run(client, key, arrays, BULK_N)
    assert client._conn().sock is sock
    assert np.array_equal(out["arrays"]["Y"], expected(arrays))


def test_truncated_upload_fails_alone(service):
    client, server, key = service
    arrays = inputs(BULK_N, 5)
    run(client, key, arrays, BULK_N)  # the pool exists, warm
    frame = wire.encode_frame(
        {"key": key, "scalars": {"n": BULK_N}, "backend": "mp", "workers": 2},
        arrays,
    )
    t0 = time.monotonic()
    sock = raw_request(server.port, frame[: len(frame) // 2], len(frame))
    sock.shutdown(socket.SHUT_WR)  # the client gives up mid-payload
    reply = b""
    while chunk := sock.recv(65536):  # the server ends the connection
        reply += chunk
    sock.close()
    assert reply.startswith(b"HTTP/1.1 400"), reply[:80]
    assert b"truncated" in reply
    assert time.monotonic() - t0 < 20.0
    # The half-written segments are harmless: the next request's payload
    # overwrites them, on the same warm pool.
    arrays = inputs(BULK_N, 6)
    out = run(client, key, arrays, BULK_N)
    assert np.array_equal(out["arrays"]["Y"], expected(arrays))
    assert len(server.pools) == 1


def test_client_hanging_up_mid_response_fails_alone(service):
    client, server, key = service
    arrays = inputs(BULK_N, 7)
    # Warm the pool first: workers forked while the raw socket is open
    # would inherit it (the server runs in this process), and its close
    # below would then send no reset.
    run(client, key, arrays, BULK_N)
    frame = wire.encode_frame(
        {"key": key, "scalars": {"n": BULK_N}, "backend": "mp", "workers": 2},
        arrays,
    )
    sock = raw_request(server.port, frame)
    assert sock.recv(64).startswith(b"HTTP/1.1 200")
    # Reset, not a polite FIN: the server's sendall fails at once.
    sock.setsockopt(
        socket.SOL_SOCKET, socket.SO_LINGER, b"\x01\x00\x00\x00\x00\x00\x00\x00"
    )
    sock.close()
    deadline = time.monotonic() + 20.0
    while server.inflight and time.monotonic() < deadline:
        time.sleep(0.02)
    assert server.inflight == 0
    arrays = inputs(BULK_N, 8)
    out = run(client, key, arrays, BULK_N)
    assert np.array_equal(out["arrays"]["Y"], expected(arrays))
    assert len(server.pools) == 1


@pytest.mark.parametrize("stall", ["upload", "download"])
def test_stalled_client_releases_the_pool(service, monkeypatch, stall):
    """A client that stops sending mid-payload, or stops reading
    mid-response, but keeps its connection open is dropped after the
    handler's socket timeout; the pool it held serves the next run."""
    client, server, key = service
    arrays = inputs(BULK_N, 17)
    run(client, key, arrays, BULK_N)  # warm, before the raw socket exists
    monkeypatch.setattr(server.RequestHandlerClass, "timeout", 0.5)
    frame = wire.encode_frame(
        {"key": key, "scalars": {"n": BULK_N}, "backend": "mp", "workers": 2},
        arrays,
    )
    sent = frame[: len(frame) // 2] if stall == "upload" else frame
    sock = raw_request(server.port, sent, len(frame))
    try:
        t0 = time.monotonic()
        arrays = inputs(BULK_N, 18)
        out = run(client, key, arrays, BULK_N)
        assert np.array_equal(out["arrays"]["Y"], expected(arrays))
        assert time.monotonic() - t0 < 20.0
        assert len(server.pools) == 1
        if stall == "upload":
            assert sock.recv(64).startswith(b"HTTP/1.1 408")
    finally:
        sock.close()


def test_concurrent_same_shape_runs_serialize_on_the_pool(service):
    client, _, key = service
    results: dict[int, bool] = {}

    def worker(seed):
        arrays = inputs(50_000, seed)
        for _ in range(3):
            out = run(client, key, arrays, 50_000)
            if not np.array_equal(out["arrays"]["Y"], expected(arrays)):
                results[seed] = False
                return
        results[seed] = True

    threads = [threading.Thread(target=worker, args=(s,)) for s in (10, 11, 12)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
    assert results == {10: True, 11: True, 12: True}


def test_old_style_whole_frame_request_is_served(service):
    """The wire format did not change: a frame built whole by
    ``encode_frame`` and sent as one buffer is served as before."""
    client, _, key = service
    arrays = inputs(4096, 13)
    frame = wire.encode_frame(
        {"key": key, "scalars": {"n": 4096}, "backend": "mp", "workers": 2},
        arrays,
    )
    rheaders, raw = client.request_bytes(
        "POST", "/run", frame,
        {"Content-Type": wire.CONTENT_TYPE, "Accept": wire.CONTENT_TYPE},
    )
    assert rheaders.get("Content-Type") == wire.CONTENT_TYPE
    body, views = wire.decode_frame(raw)
    assert body["engine"] == "mp-pool"
    assert np.array_equal(views["Y"], expected(arrays))


def count_leases(server, monkeypatch) -> list:
    """Record every pool lease the server takes from now on."""
    leases: list = []
    lease = server.pools.lease

    def counted(workers, arrays):
        leases.append(workers)
        return lease(workers, arrays)

    monkeypatch.setattr(server.pools, "lease", counted)
    return leases


def test_length_disagreeing_with_the_frame_is_refused_before_a_lease(
    service, monkeypatch
):
    client, server, key = service
    leases = count_leases(server, monkeypatch)
    frame = wire.encode_frame(
        {"key": key, "scalars": {"n": 4096}, "backend": "mp", "workers": 2},
        inputs(4096, 14),
    )
    for data in (frame[:-8], frame + b"\0" * 8):
        with pytest.raises(ServiceError) as err:
            client.request_bytes(
                "POST", "/run", data, {"Content-Type": wire.CONTENT_TYPE}
            )
        assert err.value.status == 400
        assert "truncated" in str(err.value) or "trailing" in str(err.value)
    assert leases == []


def frame_with(key: str, descs: list[dict], payloads: list[bytes]) -> bytes:
    """A frame whose header says exactly ``descs`` (no encoder checks)."""
    header = json.dumps({
        "schema": wire.SCHEMA,
        "body": {"key": key, "scalars": {"n": 8}, "backend": "mp", "workers": 2},
        "arrays": descs,
    }).encode()
    return b"".join(
        [wire.MAGIC, struct.pack(">I", len(header)), header]
        + [struct.pack(">Q", len(p)) + p for p in payloads]
    )


def desc(name, dtype, shape, itemsize=8) -> dict:
    count = int(np.prod(shape))
    return {"name": name, "dtype": dtype, "shape": list(shape),
            "order": "C", "nbytes": count * itemsize}


@pytest.mark.parametrize("descs,match", [
    ([desc("X", "<f8", [9]), desc("Y", "<f8", [9]), desc("Z", "<f8", [9])],
     "unknown arrays"),
    ([desc("X", "<f8", [3, 3]), desc("Y", "<f8", [9])], "rank"),
    ([desc("X", "|O", [9]), desc("Y", "<f8", [9])], "object"),
])
def test_bad_arrays_are_refused_before_a_payload_byte_is_read(
    service, monkeypatch, descs, match
):
    client, server, key = service
    leases = count_leases(server, monkeypatch)

    def forbidden(self, dest):
        raise AssertionError("a payload was read into a segment")

    monkeypatch.setattr(wire.FrameReader, "read_into", forbidden)
    frame = frame_with(key, descs, [b"\0" * d["nbytes"] for d in descs])
    with pytest.raises(ServiceError) as err:
        client.request_bytes(
            "POST", "/run", frame, {"Content-Type": wire.CONTENT_TYPE}
        )
    assert err.value.status == 400
    assert match in str(err.value)
    assert leases == []


@pytest.mark.parametrize("transport", ["json", "wire"])
@pytest.mark.parametrize("workers", ["x", 0, -1, 1.5, True])
def test_bad_workers_is_a_400(service, transport, workers):
    client, server, key = service
    with pytest.raises(ServiceError) as err:
        client.run(
            key, inputs(64, 15), {"n": 64}, transport=transport,
            backend="mp", workers=workers,
        )
    assert err.value.status == 400
    assert f"workers must be an integer >= 1 (got {workers!r})" in str(err.value)
    assert len(server.pools) == 0
    out = client.run(key, inputs(64, 16), {"n": 64}, transport=transport,
                     backend="mp", workers=1)
    assert out["engine"] == "mp-pool"
