"""The compile-and-run server, driven through the in-process client."""

import json
import threading
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.api import transform_function
from repro.cache import ArtifactCache
from repro.codegen.cload import have_compiler
from repro.frontend.dsl import parse
from repro.parallel import run_parallel_procedure
from repro.service import ServiceClient, ServiceError, serve_background
from repro.service.server import MAX_RUN_WORKERS

PY_KERNEL = """
def scale2d(A, B, n, m):
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            B[i, j] = 2.0 * A[i, j] + 1.0
"""

DSL_KERNEL = """
procedure saxpy(X[1], Y[1]; n)
  doall i = 1, n
    Y(i) := Y(i) + 2.0 * X(i)
  end
end
"""

RACY_KERNEL = """
procedure chase(A[1]; n)
  doall i = 2, n
    A(i) := A(i - 1) + 1.0
  end
end
"""

#: A dispatch, then a serial loop that ``m`` can run off ``B``'s end.
BUMP_THEN_CHAIN = """
procedure bump_then_chain(A[1], B[1]; n, m)
  doall i = 1, n
    A(i) := A(i) + 1.0
  end
  for j = 1, m
    B(j) := B(j - 1) + 1.0
  end
end
"""

#: A float scalar the C engine cannot take (it passes scalars as longs).
SCALE_BY = """
procedure scale_by(A[1], B[1]; n, a)
  doall i = 1, n
    B(i) := a * A(i)
  end
end
"""

N = M = 12
SAXPY_N = 8


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
    rng = np.random.default_rng(11)
    A = rng.random((N + 1, M + 1))
    return A, np.zeros_like(A)


def saxpy_env():
    rng = np.random.default_rng(5)
    return rng.random(SAXPY_N + 1), rng.random(SAXPY_N + 1)


def assert_saxpy_served(client, key, backend, transport):
    X, Y = saxpy_env()
    out = client.run(
        key, {"X": X, "Y": Y}, {"n": SAXPY_N}, transport=transport,
        backend=backend, workers=2,
    )
    assert np.array_equal(out["arrays"]["Y"][1:], Y[1:] + 2.0 * X[1:])


def expected_from(A):
    B = np.zeros_like(A)
    local = transform_function(PY_KERNEL, cache=None)
    local(A, B, N, M)
    return B


class TestEndpoints:
    def test_healthz(self, service):
        client, _ = service
        health = client.healthz()
        assert health["status"] == "ok"

    def test_compile_python(self, service):
        client, _ = service
        out = client.compile(PY_KERNEL)
        assert out["name"] == "scale2d"
        assert out["coalesced_nests"] == 1
        assert not out["cached"]
        assert "doall" in out["loop_source"]

    def test_compile_dsl_autodetected(self, service):
        client, _ = service
        out = client.compile(DSL_KERNEL)
        assert out["name"] == "saxpy"
        assert out["arrays"] == {"X": 1, "Y": 1}

    def test_second_compile_served_from_cache(self, service):
        client, _ = service
        first = client.compile(PY_KERNEL)
        second = client.compile(PY_KERNEL)
        assert second["key"] == first["key"]
        assert not first["cached"] and second["cached"]

    def test_run_serial(self, service):
        client, _ = service
        key = client.compile(PY_KERNEL)["key"]
        A, B = env()
        out = client.run(key, {"A": A, "B": B}, {"n": N, "m": M})
        assert out["engine"] == "serial"
        assert np.array_equal(out["arrays"]["B"], expected_from(A))

    def test_run_mp_matches_serial(self, service):
        client, _ = service
        key = client.compile(PY_KERNEL, backend="mp")["key"]
        A, B = env()
        out = client.run(
            key, {"A": A, "B": B}, {"n": N, "m": M}, workers=2, backend="mp"
        )
        assert out["engine"] in ("mp-pool", "serial-fallback")
        assert np.array_equal(out["arrays"]["B"], expected_from(A))

    def test_run_mp_says_which_claim_loop_ran(self, service):
        client, _ = service
        key = client.compile(PY_KERNEL, backend="mp")["key"]
        A, B = env()
        counted = client.metrics()["dispatch"]["claim_loop"]
        assert set(counted) == {"native", "py", "static", "fallbacks"}
        out = client.run(
            key, {"A": A, "B": B}, {"n": N, "m": M}, workers=2, backend="mp"
        )
        assert out["engine"] == "mp-pool"
        loop = out["claim_loop"]
        assert loop == ("native" if out["chunk_lang"] == "c" else "py")
        after = client.metrics()["dispatch"]["claim_loop"]
        assert after[loop] == counted[loop] + out["dispatches"]
        assert after["fallbacks"] == counted["fallbacks"]

    def test_run_mp_says_how_many_fork_joins(self, service):
        from repro.ir.printer import to_source
        from repro.workloads import get_workload, make_env

        client, _ = service
        w = get_workload("gauss_jordan")
        key = client.compile(to_source(w.proc), backend="mp", analyze=False)["key"]
        arrays, scalars = make_env(w, seed=2)
        before = client.metrics()["dispatch"]
        out = client.run(key, arrays, scalars, workers=2, backend="mp")
        assert out["engine"] == "mp-pool" and out["dispatches"] == 11
        after = client.metrics()["dispatch"]
        assert after["dispatches"] == before["dispatches"] + 11
        assert after["fork_joins"] == before["fork_joins"] + out["fork_joins"]
        if out["claim_loop"] == "native":
            assert (out["region"], out["fork_joins"]) == ("native", 1)
            assert after["regions"]["native"] == (
                before["regions"].get("native", 0) + 1
            )
        else:
            assert out["region"].startswith("SPMD006")
            assert out["fork_joins"] == 11

    def test_lint_clean_source(self, service):
        client, _ = service
        out = client.lint(DSL_KERNEL)
        assert out["schema"] == "repro.lint/v1"
        assert out["procedure"] == "saxpy"
        assert out["ok"] is True
        assert out["findings"] == []

    def test_lint_racy_source_flagged(self, service):
        client, _ = service
        out = client.lint(RACY_KERNEL)
        assert out["ok"] is False
        assert "RACE001" in {f["rule"] for f in out["findings"]}

    def test_lint_counts_in_metrics(self, service):
        client, _ = service
        client.lint(DSL_KERNEL)
        client.lint(RACY_KERNEL)
        assert client.metrics()["server"]["lints"] == 2

    def test_run_mp_enforce_safe_kernel_dispatches(self, service):
        client, _ = service
        key = client.compile(PY_KERNEL, backend="mp")["key"]
        A, B = env()
        out = client.run(
            key,
            {"A": A, "B": B},
            {"n": N, "m": M},
            workers=2,
            backend="mp",
        )
        assert np.array_equal(out["arrays"]["B"], expected_from(A))
        if out["engine"] == "mp-pool":
            assert out["safety"] == "inspect"
            assert out["blocked_dispatches"] == 0

    def test_run_mp_enforce_racy_kernel_falls_back_serial(self, service):
        client, _ = service
        # analyze=False keeps the lying DOALL claim (mark_doall would
        # demote it); the safety gate is the last line of defense.
        key = client.compile(RACY_KERNEL, backend="mp", analyze=False)["key"]
        n = 32
        A = np.zeros(n + 1)
        out = client.run(
            key, {"A": A}, {"n": n}, workers=2, backend="mp"
        )
        # Refused dispatch, serial rerun: exact recurrence semantics.
        assert out["engine"] == "serial-fallback"
        assert "RACE001" in out["fallback_reason"]
        assert np.allclose(out["arrays"]["A"][2:], np.arange(1, n))

    def test_metrics_schema(self, service):
        client, _ = service
        client.compile(PY_KERNEL)
        client.compile(PY_KERNEL)
        metrics = client.metrics()
        assert metrics["schema"] == "repro.metrics/v1"
        assert metrics["cache"]["hits"] >= 1
        assert metrics["server"]["compiles"] == 2
        assert metrics["server"]["compile_cache_hits"] == 1
        assert set(metrics["dispatch"]) >= {"runs", "dispatches", "claims"}


class TestConcurrency:
    def test_four_client_threads(self, service):
        client, _ = service
        key = client.compile(PY_KERNEL, backend="mp")["key"]
        A, _ = env()
        want = expected_from(A)
        results: list = [None] * 4
        errors: list = []

        def worker(slot: int) -> None:
            try:
                out = client.run(
                    key,
                    {"A": A, "B": np.zeros_like(A)},
                    {"n": N, "m": M},
                    workers=2,
                    backend="mp",
                )
                results[slot] = out
            except Exception as exc:  # surfaced below with context
                errors.append((slot, exc))

        threads = [
            threading.Thread(target=worker, args=(s,)) for s in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not errors, errors
        for out in results:
            assert out is not None
            assert np.array_equal(out["arrays"]["B"], want)
        # Same (workers, shapes) signature: requests shared warm pools,
        # bounded by the registry cap.
        _, server = service
        assert server.server_metrics()["runs"] == 4


class TestErrors:
    def test_unknown_program_is_404(self, service):
        client, _ = service
        with pytest.raises(ServiceError) as err:
            client.run("0" * 64, {"A": np.zeros((2, 2))}, {"n": 1})
        assert err.value.status == 404

    def test_unknown_route_is_404(self, service):
        client, _ = service
        with pytest.raises(ServiceError) as err:
            client._request("GET", "/nope")
        assert err.value.status == 404

    def test_bad_json_is_400(self, service):
        client, _ = service
        req = urllib.request.Request(
            client.base + "/compile",
            data=b"{not json",
            method="POST",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(req, timeout=30)
        assert err.value.code == 400
        assert "error" in json.loads(err.value.read())

    def test_compile_rejects_bad_source(self, service):
        client, _ = service
        with pytest.raises(ServiceError) as err:
            client.compile("def broken(:\n  pass")
        assert err.value.status == 400

    def test_compile_rejects_unknown_option(self, service):
        client, _ = service
        with pytest.raises(ServiceError) as err:
            client.compile(PY_KERNEL, bogus=True)
        assert err.value.status == 400

    def test_run_rejects_unknown_array(self, service):
        client, _ = service
        key = client.compile(PY_KERNEL)["key"]
        with pytest.raises(ServiceError) as err:
            client.run(key, {"Z": np.zeros((2, 2))}, {"n": 1, "m": 1})
        assert err.value.status == 400

    def test_run_rejects_unknown_safety_mode(self, service):
        client, _ = service
        key = client.compile(PY_KERNEL)["key"]
        A, B = env()
        with pytest.raises(ServiceError) as err:
            client.run(
                key, {"A": A, "B": B}, {"n": N, "m": M}, safety="paranoid"
            )
        assert err.value.status == 400

    @pytest.mark.parametrize("transport", ["json", "wire"])
    def test_run_bounds_workers(self, service, monkeypatch, transport):
        """The worker count comes from outside and a pool forks that many
        processes: above the bound it is a 400 naming ``workers``, before
        any pool is leased."""

        def no_pool(*args, **kwargs):
            raise AssertionError("an oversized /run must not lease a pool")

        monkeypatch.setattr("repro.service.server.WorkerPool", no_pool)
        client, server = service
        key = client.compile(PY_KERNEL, backend="mp")["key"]
        A, B = env()
        with pytest.raises(ServiceError) as err:
            client.run(
                key, {"A": A, "B": B}, {"n": N, "m": M}, transport=transport,
                backend="mp", workers=MAX_RUN_WORKERS + 1,
            )
        assert err.value.status == 400
        assert "workers" in str(err.value)
        assert server.server_metrics()["warm_pools"] == 0
        assert client.healthz()["status"] == "ok"

    @pytest.mark.parametrize("batch", [True, 2.7, -5, 0, "8", 1, None])
    def test_run_rejects_a_bad_claim_batch(self, service, batch):
        client, _ = service
        key = client.compile(PY_KERNEL)["key"]
        A, B = env()
        with pytest.raises(ServiceError) as err:
            client.run(
                key, {"A": A, "B": B}, {"n": N, "m": M}, backend="mp",
                claim_batch=batch,
            )
        assert err.value.status == 400
        assert "claim_batch" in str(err.value)

    def test_run_takes_the_auto_claim_batch(self, service):
        # "auto" names the batch rule itself: the one value /run accepts.
        client, _ = service
        key = client.compile(PY_KERNEL)["key"]
        A, B = env()
        out = client.run(
            key, {"A": A, "B": B}, {"n": N, "m": M}, backend="mp", workers=2,
            claim_batch="auto",
        )
        assert out["engine"] == "mp-pool"

    @pytest.mark.parametrize(
        "field,value",
        [
            ("chunk", 2.5), ("chunk", "3"), ("chunk", True), ("chunk", 0),
            ("policy", "bogus"), ("policy", 3),
            ("timeout", "soon"), ("timeout", True), ("timeout", 0),
            ("timeout", -1.5),
            ("backend", "bogus"), ("backend", 3), ("backend", ["mp"]),
            ("timeout", "1"),
        ],
    )
    def test_run_rejects_a_bad_scheduling_option(self, service, field, value):
        """Named and refused before a pool is leased, over json and wire:
        no worker traceback in the reply, and the next run is served as
        usual."""
        client, _ = service
        key = client.compile(PY_KERNEL, backend="mp")["key"]
        A, B = env()
        good = {"backend": "mp", "workers": 2, "policy": "fixed", "chunk": 2}
        for transport in ("json", "wire"):
            with pytest.raises(ServiceError) as err:
                client.run(
                    key, {"A": A, "B": B}, {"n": N, "m": M},
                    transport=transport, **{**good, field: value},
                )
            assert err.value.status == 400
            assert field in str(err.value)
            assert "Traceback" not in str(err.value)
            out = client.run(
                key, {"A": A, "B": B}, {"n": N, "m": M},
                transport=transport, **good,
            )
            assert out["engine"] == "mp-pool" and out["iterations"] == N * M

    @pytest.mark.parametrize(
        "field,value",
        [
            ("variants", "gcc-O3"),
            ("calibrate", True),
            ("shm_arrays", [{"name": "A", "segment": "repro-par-1-x-0"}]),
            ("transport", "shm"),
            ("chunk_lang", "c"),
            ("log_events", True),
            ("claim_batch", 4),
        ],
    )
    def test_run_rejects_retired_fields(self, service, field, value):
        client, _ = service
        key = client.compile(PY_KERNEL)["key"]
        A, B = env()
        body = ServiceClient.run_body(
            key, {"A": A, "B": B}, {"n": N, "m": M}, backend="mp",
            **{field: value},
        )
        with pytest.raises(ServiceError) as err:
            client._request("POST", "/run", body)
        assert err.value.status == 400
        assert repr(field) in str(err.value)
        assert client.healthz()["status"] == "ok"

    @pytest.mark.parametrize("backend", ["python", "mp"])
    def test_a_serial_loop_past_an_extent_is_a_400(self, service, backend):
        """The caller's data runs a serial loop off ``B``'s end: a 400 on
        every engine (on mp, the raise of the parent's compiled residue),
        and an in-range run of the same program is served after it."""
        client, _ = service
        key = client.compile(BUMP_THEN_CHAIN, backend=backend)["key"]
        opts = {"backend": backend, "workers": 2}
        with pytest.raises(ServiceError) as err:
            client.run(
                key, {"A": np.zeros(9), "B": np.zeros(5)}, {"n": 8, "m": 9},
                **opts,
            )
        assert err.value.status == 400
        out = client.run(
            key, {"A": np.zeros(9), "B": np.zeros(10)}, {"n": 8, "m": 9},
            **opts,
        )
        assert out["engine"] == ("mp-pool" if backend == "mp" else "serial")
        assert np.array_equal(out["arrays"]["B"], np.arange(10.0))

    @pytest.mark.skipif(not have_compiler(), reason="no gcc on PATH")
    @pytest.mark.parametrize("transport", ["json", "wire"])
    @pytest.mark.parametrize("bad", ["float scalar", "int64 arrays"])
    def test_the_c_engines_argument_types_are_a_400(
        self, service, transport, bad
    ):
        """The C engine takes float64 arrays and integer scalars: anything
        else is a 400 naming the argument, and the next good run is
        served."""
        client, _ = service
        key = client.compile(SCALE_BY, backend="c")["key"]
        A, B, scalars = np.arange(9.0), np.zeros(9), {"n": 8, "a": 2}
        if bad == "float scalar":
            args, named = ({"A": A, "B": B}, {**scalars, "a": 2.5}), "'a'"
        else:
            ints = {"A": A.astype(np.int64), "B": B.astype(np.int64)}
            args, named = (ints, scalars), "'A'"
        with pytest.raises(ServiceError) as err:
            client.run(key, *args, transport=transport, backend="c")
        assert err.value.status == 400
        assert named in str(err.value) and "C backend" in str(err.value)
        assert "Traceback" not in str(err.value)
        out = client.run(
            key, {"A": A, "B": B}, scalars, transport=transport, backend="c"
        )
        assert out["engine"] == "c"
        assert np.array_equal(out["arrays"]["B"], 2.0 * A)

    @pytest.mark.parametrize("transport", ["json", "wire"])
    @pytest.mark.parametrize("backend", ["python", "mp"])
    @pytest.mark.parametrize("n", [True, 1e300, 2**70, -(2**63) - 1])
    def test_run_rejects_a_bad_scalar(self, service, backend, transport, n):
        """A bool, or an integral value past int64, is named and refused
        before it reaches an engine; the next good run is served."""
        client, _ = service
        key = client.compile(DSL_KERNEL, backend=backend)["key"]
        X, Y = saxpy_env()
        with pytest.raises(ServiceError) as err:
            client.run(
                key, {"X": X, "Y": Y}, {"n": n}, transport=transport,
                backend=backend, workers=2,
            )
        assert err.value.status == 400
        assert "scalar 'n'" in str(err.value)
        assert_saxpy_served(client, key, backend, transport)

    @pytest.mark.parametrize("backend", ["python", "mp"])
    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    def test_run_rejects_a_nonfinite_scalar(self, service, backend, token):
        # json.loads accepts the bare tokens; wire headers are strict JSON.
        client, _ = service
        key = client.compile(DSL_KERNEL, backend=backend)["key"]
        X, Y = saxpy_env()
        body = ServiceClient.run_body(
            key, {"X": X, "Y": Y}, {"n": 0}, backend=backend, workers=2
        )
        raw = json.dumps(body).replace('"n": 0', f'"n": {token}')
        with pytest.raises(ServiceError) as err:
            client.request_bytes(
                "POST", "/run", raw.encode(),
                {"Content-Type": "application/json"},
            )
        assert err.value.status == 400
        assert "scalar 'n'" in str(err.value)
        assert_saxpy_served(client, key, backend, "json")

    @pytest.mark.parametrize("transport", ["json", "wire"])
    def test_run_past_an_array_extent_is_a_400(self, service, transport):
        client, _ = service
        key = client.compile(DSL_KERNEL)["key"]
        X, Y = saxpy_env()
        with pytest.raises(ServiceError) as err:
            client.run(key, {"X": X, "Y": Y}, {"n": 100}, transport=transport)
        assert err.value.status == 400
        assert "run failed" in str(err.value)
        assert_saxpy_served(client, key, "python", transport)

    def test_bad_run_option_is_the_runtimes_400(self, service):
        """A served run refuses a bad ``safety`` with the very text the
        in-process driver raises for it."""
        client, _ = service
        key = client.compile(DSL_KERNEL, backend="mp")["key"]
        X, Y = saxpy_env()
        with pytest.raises(ValueError) as local:
            run_parallel_procedure(
                parse(DSL_KERNEL), {"X": X, "Y": Y}, {"n": SAXPY_N},
                workers=2, safety="bogus",
            )
        with pytest.raises(ServiceError) as err:
            client.run(
                key, {"X": X, "Y": Y}, {"n": SAXPY_N}, backend="mp",
                workers=2, safety="bogus",
            )
        assert err.value.status == 400
        assert err.value.payload["error"] == str(local.value)

    def test_lint_requires_source(self, service):
        client, _ = service
        with pytest.raises(ServiceError) as err:
            client._request("POST", "/lint", {"frontend": "dsl"})
        assert err.value.status == 400

    def test_lint_rejects_unknown_option(self, service):
        client, _ = service
        with pytest.raises(ServiceError) as err:
            client.lint(DSL_KERNEL, bogus=True)
        assert err.value.status == 400

    def test_lint_rejects_broken_source(self, service):
        client, _ = service
        with pytest.raises(ServiceError) as err:
            client.lint("procedure nope(\n")
        assert err.value.status == 400
