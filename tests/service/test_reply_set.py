"""A served run returns only the arrays its program stores to.

The write set is fixed at ``/compile`` (``CompiledProgram.written``, the
same rule as the plan's copy-back set); a ``/run`` reply carries those
arrays and their dtype tags on every engine and every transport (wire,
JSON typed buffers, JSON float lists), and
``ServiceClient.run`` fills every other name back in with the caller's
own array.  A run its plan refuses is decided before a pool is leased.
"""

import json

import numpy as np
import pytest

from repro import wire
from repro.cache import ArtifactCache
from repro.codegen.cload import have_compiler
from repro.frontend.dsl import parse
from repro.ir.visitor import stored_arrays
from repro.parallel import plan as plan_mod
from repro.parallel.plan import prepare
from repro.service import ServiceClient, serve_background
from repro.service.client import decode_run_result
from tests.service import post_list_run

SCALE2D = """
def scale2d(A, B, n, m):
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            B[i, j] = 2.0 * A[i, j] + 1.0
"""

GUARDED = """
procedure guarded(A[1], B[1], C[1]; n, k)
  doall i = 1, n
    B(i) := A(i) + 1.0
    if k > 0 then
      C(i) := A(i)
    end
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

N = M = 9
JSON_HEADERS = {"Content-Type": "application/json"}

needs_gcc = pytest.mark.skipif(not have_compiler(), reason="no gcc on PATH")


@pytest.fixture()
def service(tmp_path):
    server, thread = serve_background(cache=ArtifactCache(tmp_path / "cache"))
    client = ServiceClient(port=server.port)
    try:
        yield client, server
    finally:
        client.close()
        server.shutdown()
        server.close()
        thread.join(timeout=10)


def scale2d_env(seed=3):
    A = np.random.default_rng(seed).random((N + 1, M + 1))
    return {"A": A, "B": np.zeros_like(A)}


def histogram_env(n=24):
    K = np.zeros(n + 1)
    K[1:] = np.random.default_rng(4).integers(1, 6, size=n)
    return {"H": np.zeros(7), "K": K}


def raw_reply(client, key, arrays, scalars, transport, **options):
    """The server's own reply, nothing filled in:
    ``(body, {name: ndarray}, {name: dtype tag})``.  ``json`` sends typed
    buffers (as ``ServiceClient`` does), ``json-lists`` float lists; the
    reply must come back in the request's form."""
    if transport in ("json", "json-lists"):
        if transport == "json":
            body = ServiceClient.run_body(key, arrays, scalars, **options)
            _, raw = client.request_bytes(
                "POST", "/run", json.dumps(body).encode(), JSON_HEADERS
            )
            reply, form = json.loads(raw), dict
        else:
            reply = post_list_run(client, key, arrays, scalars, **options)
            form = list
        assert all(isinstance(v, form) for v in reply["arrays"].values())
        doc = decode_run_result(reply)
        return doc, doc["arrays"], doc["array_dtypes"]
    frame = wire.encode_frame(
        {"key": key, "scalars": scalars, **options}, arrays
    )
    _, raw = client.request_bytes(
        "POST", "/run", frame, {"Content-Type": wire.CONTENT_TYPE}
    )
    doc, views = wire.decode_frame(raw)
    return doc, views, {name: v.dtype.str for name, v in views.items()}


RAW_TRANSPORTS = ["json", "json-lists", "wire"]

ENGINES = [
    pytest.param("mp", {"backend": "mp", "workers": 2}, "mp-pool", id="mp"),
    pytest.param("mp", {"backend": "python"}, "serial", id="serial"),
    pytest.param("c", {"backend": "c"}, "c", id="c", marks=needs_gcc),
]


class TestReplySet:
    @pytest.mark.parametrize("transport", RAW_TRANSPORTS)
    @pytest.mark.parametrize("compiled, options, engine", ENGINES)
    def test_only_the_written_array_comes_back(
        self, service, transport, compiled, options, engine
    ):
        client, server = service
        key = client.compile(SCALE2D, backend=compiled)["key"]
        assert server.programs[key].written == ("B",)
        doc, arrays, dtypes = raw_reply(
            client, key, scale2d_env(), {"n": N, "m": M}, transport,
            **options,
        )
        assert doc["engine"] == engine
        assert set(arrays) == set(dtypes) == {"B"}
        assert dtypes["B"] == "<f8"

    @pytest.mark.parametrize("transport", RAW_TRANSPORTS)
    def test_a_store_under_a_false_guard_still_comes_back(
        self, service, transport
    ):
        client, _ = service
        key = client.compile(GUARDED, backend="mp")["key"]
        A = np.arange(N + 1, dtype=np.float64)
        C = np.full(N + 1, 7.0)
        doc, arrays, dtypes = raw_reply(
            client, key, {"A": A, "B": np.zeros(N + 1), "C": C},
            {"n": N, "k": 0}, transport, backend="mp", workers=2,
        )
        assert doc["engine"] == "mp-pool"
        assert set(arrays) == set(dtypes) == {"B", "C"}
        assert np.array_equal(arrays["C"], C)


class TestClientFillIn:
    @pytest.mark.parametrize("transport", ["json", "wire"])
    def test_every_input_name_comes_back(self, service, transport):
        client, _ = service
        key = client.compile(SCALE2D, backend="mp")["key"]
        arrays = scale2d_env()
        out = client.run(
            key, arrays, {"n": N, "m": M}, transport=transport,
            backend="mp", workers=2,
        )
        assert list(out["arrays"]) == ["A", "B"]
        assert out["arrays"]["A"] is arrays["A"]
        assert out["arrays"]["B"] is not arrays["B"]
        assert np.array_equal(
            out["arrays"]["B"][1:, 1:], 2.0 * arrays["A"][1:, 1:] + 1.0
        )


class TestRefusedBeforeLease:
    @pytest.mark.parametrize("transport", RAW_TRANSPORTS)
    def test_a_refused_run_forks_no_fleet(self, service, transport):
        client, server = service
        key = client.compile(HISTOGRAM, backend="mp", analyze=False)["key"]
        before = client.metrics()["dispatch"]["safety"]
        env = histogram_env()
        doc, arrays, dtypes = raw_reply(
            client, key, env, {"n": 24}, transport, backend="mp",
            workers=2, safety="speculate",
        )
        assert doc["engine"] == "serial-fallback"
        assert "refused every dispatch" in doc["fallback_reason"]
        assert server.server_metrics()["warm_pools"] == 0
        assert set(arrays) == set(dtypes) == {"H"}
        want = env["H"].copy()
        for k in env["K"][1:]:
            want[int(k)] += 1.0
        assert np.array_equal(arrays["H"], want)
        after = client.metrics()["dispatch"]["safety"]
        assert after["checked"] == before["checked"] + 1
        assert after["blocked"] == before["blocked"] + 1

    @pytest.mark.parametrize("transport", ["json", "wire"])
    def test_a_dispatching_run_meets_the_plan_it_was_checked_by(
        self, service, transport
    ):
        client, server = service
        key = client.compile(SCALE2D, backend="mp")["key"]
        before = client.metrics()["dispatch"]["safety"]["checked"]
        out = client.run(
            key, scale2d_env(), {"n": N, "m": M}, transport=transport,
            backend="mp", workers=2,
        )
        assert out["engine"] == "mp-pool"
        assert server.server_metrics()["warm_pools"] == 1
        # One verdict counted per run, and one plan built for the shape.
        assert client.metrics()["dispatch"]["safety"]["checked"] == before + 1
        proc = server.programs[key].proc
        assert len([k for k in plan_mod._PLANS if k[0] == id(proc)]) == 1


def test_the_plan_and_the_server_share_one_write_set():
    proc = parse(GUARDED)
    arrays = {"A": np.zeros(4), "B": np.zeros(4), "C": np.zeros(4)}
    plan = prepare(
        proc, arrays, {"n": 3, "k": 0}, "warn", "gss", None, 2
    )
    assert plan.written == stored_arrays(proc) == ("B", "C")
