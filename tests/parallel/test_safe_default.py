"""The safe default: no loop is dispatched on trust.

The default safety mode (``"inspect"``) verifies each loop once per plan,
dispatches the proven ones, lets the runtime inspector decide the
unproven ones it can, and runs every other loop serially with its rule
code.  These tests hold it to the invariant — bit-identical to the
interpreter, or a refusal with a rule code — on the seeded racy
workloads, through the library driver, the ``backend="mp"`` front door
and a served ``/run``; hold ``floyd`` (parallel by an argument the
verifier cannot make) to the ``"off"`` opt-out; check that the ruler's
nests dispatch under the default exactly as under ``"off"``; and check
that a retired or unknown mode is refused at every layer before any pool
exists.
"""

import re

import numpy as np
import pytest

from repro.api import lower_and_coalesce, transform_function
from repro.cache import ArtifactCache
from repro.cli import main
from repro.cluster import start_cluster
from repro.ir.printer import to_source
from repro.parallel import (
    SafetyVerificationError,
    WorkerPool,
    resolve_safety,
    run_parallel_procedure,
)
from repro.parallel.backend import compile_mp_procedure
from repro.parallel.plan import verdict
from repro.runtime.interp import Interpreter
from repro.service import ServiceClient, ServiceError, serve_background
from repro.transforms import coalesce_procedure
from repro.workloads import RACY_WORKLOADS, get_workload, make_env

SEEDS = range(10)
#: Two workers under unit self-scheduling: the shape that made a
#: dispatched running accumulator (racy_scalar) store a wrong ``T``.
RUN = {"workers": 2, "policy": "unit"}
RULES = {"racy_flow": "RACE001", "racy_overlap": "RACE002", "racy_scalar": "PRIV002"}

#: The racy workloads as restricted Python, for ``transform_function``.
RACY_PY = {
    "racy_flow": """
def racy_flow(A, n):
    for i in prange(2, n + 1):
        A[i] = A[i - 1] + 1.0
""",
    "racy_overlap": """
def racy_overlap(A, B, n, m):
    for i in prange(1, n + 1):
        for j in prange(1, m + 1):
            B[j] = A[i, j]
""",
    "racy_scalar": """
def racy_scalar(A, T, n, acc):
    for i in prange(1, n + 1):
        acc = acc + A[i]
        T[i] = acc
""",
}


def copies(arrays):
    return {k: v.copy() for k, v in arrays.items()}


def same(got, want):
    return all(np.array_equal(got[k], want[k]) for k in want)


def interpreted(w, seed, scalars=None):
    """``(arrays, scalars, the interpreter's result)`` of one seed."""
    arrays, sc = make_env(w, scalars=scalars, seed=seed)
    want = copies(arrays)
    Interpreter().run(w.proc, want, sc)
    return arrays, sc, want


def tagged(w):
    """The workload coalesced with its DOALL tags as written: the lying
    claim survives to the runtime, which is the last line of defense."""
    _, proc, _, _ = lower_and_coalesce(
        to_source(w.proc), frontend="dsl", analyze=False, cache=None
    )
    return proc


@pytest.fixture(scope="module")
def lone(tmp_path_factory):
    server, thread = serve_background(
        cache=ArtifactCache(tmp_path_factory.mktemp("safe-default-cache"))
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
        cache_dir=str(tmp_path_factory.mktemp("safe-default-cluster")),
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


# ---------------------------------------------------------------------------
# the racy workloads: bit-identical, or refused with the rule code
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(RACY_WORKLOADS))
def test_racy_driver_run_is_bit_identical_or_refused(name):
    w = RACY_WORKLOADS[name]()
    proc = tagged(w)
    for seed in SEEDS:
        arrays, sc, want = interpreted(w, seed)
        before = copies(arrays)
        try:
            result = run_parallel_procedure(proc, arrays, sc, timeout=60.0, **RUN)
        except SafetyVerificationError as exc:
            assert RULES[name] in str(exc), seed
            assert same(arrays, before), seed  # refused before any worker
            continue
        assert same(arrays, want), seed
        # Not refused: the inspector refuted the loop and it ran serially.
        assert result.blocked_dispatches == 1 and not result.dispatches
        assert RULES[name] in {f.rule for f in result.safety.findings}


@pytest.mark.parametrize("name", sorted(RACY_WORKLOADS))
def test_racy_front_door_is_bit_identical(name):
    w = RACY_WORKLOADS[name]()
    fn = transform_function(
        RACY_PY[name], backend="mp", analyze=False, cache=None, **RUN
    )
    for seed in SEEDS:
        arrays, sc, want = interpreted(w, seed)
        fn(**arrays, **sc)
        assert same(arrays, want), seed
        last, reason = fn.last_parallel, fn._backend.fallback_reason
        if last is None:
            assert RULES[name] in reason, seed
        else:
            assert reason is None and last.blocked_dispatches == 1


@pytest.mark.parametrize("name", sorted(RACY_WORKLOADS))
def test_racy_served_run_is_bit_identical(lone, name):
    client, _ = lone
    w = RACY_WORKLOADS[name]()
    key = client.compile(to_source(w.proc), backend="mp", analyze=False)["key"]
    for seed in SEEDS:
        arrays, sc, want = interpreted(w, seed)
        out = client.run(key, arrays, sc, backend="mp", **RUN)
        assert same(out["arrays"], want), seed
        if out["engine"] == "serial-fallback":
            assert RULES[name] in out["fallback_reason"], seed
        else:
            assert out["blocked_dispatches"] == 1
            (cert,) = out["inspect"]["certificates"]
            assert cert["status"] == "refuted"


# ---------------------------------------------------------------------------
# floyd: serial by default, dispatched under the opt-out
# ---------------------------------------------------------------------------


def test_floyd_runs_serially_by_default_and_dispatches_under_off():
    w = get_workload("floyd")
    proc = coalesce_procedure(w.proc)[0]
    arrays, sc, want = interpreted(w, 3, {"n": 9})
    (loop,) = verdict(proc).loops
    assert not loop.proven
    codes = ", ".join(sorted({f.rule for f in loop.findings}))
    with pytest.raises(SafetyVerificationError, match=f"loop .* \\({codes}\\)"):
        run_parallel_procedure(proc, copies(arrays), sc, workers=2)
    compiled = compile_mp_procedure(proc, workers=2)
    got = copies(arrays)
    compiled.run(got, sc)
    assert codes in compiled.fallback_reason
    assert compiled.last is None and same(got, want)

    got = copies(arrays)
    result = run_parallel_procedure(
        proc, got, sc, workers=2, safety="off", timeout=60.0
    )
    assert result.fork_joins >= 1 and result.dispatches
    assert result.safety is None and same(got, want)


# ---------------------------------------------------------------------------
# the ruler's nests dispatch exactly as before
# ---------------------------------------------------------------------------


def dispatch_shape(result):
    return (
        result.claims, result.fork_joins, result.chunk_lang,
        len(result.dispatches),
    )


@pytest.mark.parametrize("policy", ["gss", "unit"])
@pytest.mark.parametrize(
    "name,sizes",
    [
        ("matmul", {"n": 16}),
        ("gauss_jordan", {"n": 12, "m": 1}),
        ("saxpy2d", {"n": 20, "m": 20}),
    ],
)
def test_a_proven_nest_dispatches_as_under_off(name, sizes, policy):
    w = get_workload(name)
    proc = coalesce_procedure(w.proc)[0]
    shapes = {}
    for safety in (None, "off"):
        arrays, sc, want = interpreted(w, 7, sizes)
        result = run_parallel_procedure(
            proc, arrays, sc, workers=2, policy=policy, safety=safety,
            timeout=60.0,
        )
        assert same(arrays, want) and result.blocked_dispatches == 0
        shapes[safety] = dispatch_shape(result)
    assert shapes[None] == shapes["off"]


def test_the_old_spelling_runs_the_inspected_nest_unchanged():
    w = get_workload("scatter_perm")
    proc = coalesce_procedure(w.proc)[0]
    shapes = {}
    for safety in ("inspect", "speculate"):
        arrays, sc, want = interpreted(w, 7, {"n": 500})
        result = run_parallel_procedure(
            proc, arrays, sc, workers=2, safety=safety, timeout=60.0
        )
        assert same(arrays, want) and result.safety_mode == "inspect"
        shapes[safety] = dispatch_shape(result) + (result.proven_dynamic,)
    assert shapes["inspect"] == shapes["speculate"]
    assert shapes["inspect"][-1] == 1


# ---------------------------------------------------------------------------
# retired and unknown modes: refused everywhere, before any pool
# ---------------------------------------------------------------------------

COPY = """
def copy2d(A, B, n, m):
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            B[i, j] = A[i, j]
"""


@pytest.mark.parametrize("mode", ["warn", "enforce", "paranoid"])
def test_a_retired_or_unknown_mode_is_refused_before_any_pool(
    mode, monkeypatch, lone, routed, capsys
):
    forked = []
    monkeypatch.setattr(
        WorkerPool, "__init__", lambda *a, **k: forked.append(a) or 1 / 0
    )
    w = get_workload("saxpy2d")
    proc = coalesce_procedure(w.proc)[0]
    arrays, sc = make_env(w)
    before = copies(arrays)
    message = "safety must be 'inspect' (the default) or 'off'"
    with pytest.raises(ValueError, match=re.escape(message)):
        resolve_safety(mode)
    with pytest.raises(ValueError, match=re.escape(message)):
        run_parallel_procedure(proc, arrays, sc, workers=2, safety=mode)
    with pytest.raises(ValueError, match=re.escape(message)):
        compile_mp_procedure(proc, workers=2, safety=mode)
    with pytest.raises(ValueError, match=re.escape(message)):
        transform_function(COPY, backend="mp", cache=None, safety=mode)
    assert not forked and same(arrays, before)

    A = np.random.default_rng(2).random((6, 6))
    env = ({"A": A, "B": np.zeros_like(A)}, {"n": 5, "m": 5})
    lone_client, server = lone
    key = lone_client.compile(COPY, backend="mp")["key"]
    pools = server.server_metrics()["warm_pools"]
    with pytest.raises(ServiceError) as err:
        lone_client.run(key, *env, backend="mp", workers=2, safety=mode)
    assert err.value.status == 400 and message in str(err.value)
    assert server.server_metrics()["warm_pools"] == pools

    client, replica = routed
    key = client.compile(COPY, backend="mp")["key"]
    before_runs = replica.healthz()["runs"]
    body = ServiceClient.run_body(
        key, *env, backend="mp", workers=2, safety=mode
    )
    with pytest.raises(ServiceError) as err:
        client._request("POST", "/run", body)
    assert err.value.status == 400 and message in str(err.value)
    doc = client.wait(client.submit("run", **body)["job_id"], timeout=60.0)
    assert doc["state"] == "failed" and doc["attempts"] == 1, doc
    assert "HTTP 400" in doc["error"]
    assert replica.healthz()["runs"] == before_runs
    assert client.healthz()["fleet"]["restarts"] == 0

    with pytest.raises(SystemExit) as exit_:
        main(["--workload", "saxpy2d", "--run", "--backend", "mp",
              "--safety", mode])
    assert exit_.value.code == 2
    assert "invalid choice" in capsys.readouterr().err
    assert not forked


def test_the_cli_offers_the_two_modes_only(capsys):
    """``"speculate"``, the library's old spelling of the default, is
    not a CLI choice."""
    with pytest.raises(SystemExit) as exit_:
        main(["--workload", "saxpy2d", "--run", "--backend", "mp",
              "--safety", "speculate"])
    assert exit_.value.code == 2
    err = capsys.readouterr().err
    assert "invalid choice" in err and "'inspect', 'off'" in err
