"""The prepared plan: nothing compile-time on a warm call, and no stale plan.

A warm ``run_parallel_procedure`` call must fill in, dispatch, combine and
copy back — and nothing else.  These tests put counting shims on every
compile-time entry point (verify, validate, chunk and region codegen, the
compiler, the artifact store — and, for an inspected loop, the
Python inspector's eligibility test, vectorized pass and walk) and require
zero calls on runs 2–5 of every execution path: the region, GSS, unit with
an auto batch, inspection, a reduction, a fission residue and an
enforce-blocked loop —
each run bit-identical to the interpreter, run 2 dispatching exactly like
run 1.  The rest pins what invalidates a plan, what keeps plans apart,
and that per-run state (certificates) never leaks between runs.
"""

import collections
import functools
import importlib
import os
import shutil
import sys
import threading

import numpy as np
import pytest

from repro.cache import ArtifactCache, configure, default_cache
from repro.codegen.cload import have_compiler
from repro.frontend.dsl import parse
from repro.parallel import WorkerPool, run_parallel_procedure
from repro.parallel import plan as plan_mod
from repro.parallel import region  # noqa: F401  (the shims patch it)
from repro.runtime.interp import Interpreter
from repro.transforms import coalesce_procedure
from repro.transforms.fission import fission_procedure
from repro.tuning import reset_tuning_memo
from repro.workloads import get_workload, make_env
from tests.parallel import pin_chunk_lang

pytestmark = pytest.mark.skipif(not have_compiler(), reason="no gcc on PATH")

HALF_RACY = """
procedure half_racy(A[1], B[1]; n)
  for t = 1, 3
    doall i = 2, n
      A(i) := A(i - 1) + 1.0
    end
    doall j = 1, n
      B(j) := B(j) + A(j)
    end
  end
end
"""

AXPY = """
procedure axpy(X[1], Y[1]; n, a)
  doall i = 1, n
    Y(i) := Y(i) + a * X(i)
  end
end
"""


def copies(arrays):
    return {k: v.copy() for k, v in arrays.items()}


def same(got, want):
    return all(np.array_equal(got[k], want[k]) for k in want)


def interpreted(original, arrays, scalars):
    want = copies(arrays)
    Interpreter().run(original, want, scalars)
    return want


def case(name):
    """``(procedure to run, original, arrays, scalars, run options)``."""
    if name == "enforce_blocked":
        proc = parse(HALF_RACY)
        rng = np.random.default_rng(1)
        arrays = {"A": rng.random(10), "B": rng.random(10)}
        return proc, proc, arrays, {"n": 9}, {"safety": "enforce"}
    kernel, sizes, options = {
        "gauss_jordan": ("gauss_jordan", {"n": 11, "m": 2}, {"policy": "gss"}),
        "floyd": ("floyd", {"n": 9}, {"policy": "gss"}),
        "matmul": ("matmul", {"n": 8}, {"policy": "gss"}),
        "saxpy2d": ("saxpy2d", {"n": 20, "m": 20}, {"policy": "unit"}),
        "scatter_perm": ("scatter_perm", {"n": 300}, {"safety": "speculate"}),
        "ragged_update": (
            "ragged_update", {"n": 40, "m": 6}, {"safety": "speculate"},
        ),
        "dot_product": ("dot_product", {"n": 500}, {}),
        "mixed_update": ("mixed_update", {"n": 60}, {}),
    }[name]
    w = get_workload(kernel)
    arrays, scalars = make_env(w, scalars=sizes, seed=3)
    if name in ("scatter_perm", "ragged_update"):
        proc = w.proc
    elif name == "dot_product":
        proc = fission_procedure(w.proc, fission=False, reduction=True).procedure
    elif name == "mixed_update":
        proc = fission_procedure(w.proc).procedure
    else:
        proc = coalesce_procedure(w.proc)[0]
    return proc, w.proc, arrays, scalars, options


def shape(result):
    """What a run dispatched — identical between a plan's runs."""
    return (
        len(result.dispatches), result.fork_joins, result.region,
        result.claims, result.lock_ops, result.chunk_lang,
        [d.claim_batch for d in result.dispatches],
    )


@pytest.fixture(autouse=True)
def private_store(tmp_path):
    """A store of this test's own: no kernel path some earlier run already
    has mapped."""
    session = default_cache()
    store = configure(dir=tmp_path / "store")
    yield store
    configure(dir=session.root)


@pytest.fixture
def calls(monkeypatch):
    """Counts of every compile-time entry point, by name."""
    from repro.cache.store import ArtifactCache as Store

    counts = collections.Counter()

    def shim(owner, attr):
        real = getattr(owner, attr)

        @functools.wraps(real)
        def counted(*args, **kwargs):
            counts[attr] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, attr, counted)

    for module, attr in (
        ("repro.analysis.safety", "verify_procedure"),
        ("repro.parallel.plan", "validate"),
        ("repro.parallel.runtime", "generate_chunk_c"),
        ("repro.parallel.region", "generate_region_c"),
        ("repro.parallel.runtime", "compile_chunk_library"),
        ("repro.codegen.cload", "_compile_into"),  # the gcc run itself
        ("repro.runtime.inspector", "inspector_eligible"),
        ("repro.runtime.inspector", "_vectorized_inspect"),
        ("repro.runtime.inspector", "_SubscriptInspector"),
    ):
        shim(importlib.import_module(module), attr)
    shim(Store, "get")
    return counts


def plans_of(proc):
    return [p for p in plan_mod._PLANS.values() if p.proc is proc]


# ---------------------------------------------------------------------------
# warm-path purity and identity
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "name",
    [
        "gauss_jordan", "floyd", "matmul", "saxpy2d", "scatter_perm",
        "ragged_update", "dot_product", "mixed_update", "enforce_blocked",
    ],
)
def test_warm_runs_do_nothing_compile_time(name, calls):
    proc, original, arrays, scalars, options = case(name)
    want = interpreted(original, arrays, scalars)
    shapes = []
    with WorkerPool(arrays, workers=2) as pool:
        for run in range(5):
            if run == 1:
                assert calls["validate"] >= 1, calls  # the cold run built it
                calls.clear()
            got = copies(arrays)
            result = run_parallel_procedure(
                proc, got, scalars, workers=2, pool=pool, timeout=60.0,
                **options,
            )
            assert same(got, want), run
            shapes.append(shape(result))
    assert not +calls, f"compile-time work on a warm run: {dict(calls)}"
    assert shapes[0] == shapes[1]
    assert len(plans_of(proc)) == 1
    if name in ("gauss_jordan", "floyd"):
        assert result.region == "native"
    if name == "dot_product":
        assert result.reductions == 1
    if name == "enforce_blocked":
        assert result.blocked_dispatches == 3 and len(result.dispatches) == 3
    if name in ("scatter_perm", "ragged_update"):
        # The kernel unit's own inspector proved every run: no Python
        # inspection at all once the plan is warm.
        (cert,) = result.certificates
        assert (cert.status, cert.inspector) == ("proven-dynamic", "native")


def test_a_plan_is_reused_across_scalar_values_and_array_shapes(calls):
    """The key holds types, never values: a new ``n`` is filled in per call."""
    w = get_workload("gauss_jordan")
    proc = coalesce_procedure(w.proc)[0]
    for n in (11, 7, 13):
        arrays, scalars = make_env(w, scalars={"n": n, "m": 2}, seed=n)
        want = interpreted(w.proc, arrays, scalars)
        result = run_parallel_procedure(
            proc, arrays, scalars, workers=2, timeout=60.0
        )
        assert result.region == "native" and same(arrays, want)
    assert calls["validate"] == 1 and len(plans_of(proc)) == 1


# ---------------------------------------------------------------------------
# per-run state stays per run
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "kernel,policy,status",
    [("scatter_perm", "gss", "proven-dynamic"),
     ("ragged_update", "static", "proven-dynamic")],
)
def test_each_run_carries_only_its_own_certificates(kernel, policy, status):
    w = get_workload(kernel)
    arrays, scalars = make_env(w)
    want = interpreted(w.proc, arrays, scalars)
    results = []
    for _ in range(2):
        got = copies(arrays)
        results.append(
            run_parallel_procedure(
                w.proc, got, scalars, workers=2, policy=policy,
                safety="speculate", timeout=60.0,
            )
        )
        assert same(got, want)
    for result in results:
        (cert,) = result.certificates
        assert cert.status == status
    first, second = results
    assert first.certificates[0] is not second.certificates[0]
    # A run never mutates the memoized verdict: it holds no certificates.
    assert first.safety is second.safety is plan_mod.verdict(w.proc)


# ---------------------------------------------------------------------------
# invalidation
# ---------------------------------------------------------------------------


def test_reset_tuning_memo_drops_the_plans(calls):
    proc, original, arrays, scalars, options = case("matmul")
    for _ in range(2):
        run_parallel_procedure(proc, copies(arrays), scalars, workers=2)
    assert calls["verify_procedure"] == 1 and plans_of(proc)
    reset_tuning_memo()
    assert not plans_of(proc)
    got = copies(arrays)
    run_parallel_procedure(proc, got, scalars, workers=2)
    assert calls["verify_procedure"] == 2
    assert same(got, interpreted(original, arrays, scalars))


def test_a_new_store_and_a_deleted_store_rebuild(tmp_path, calls):
    proc, original, arrays, scalars, options = case("matmul")
    want = interpreted(original, arrays, scalars)
    stores = []
    for tag in ("a", "b"):  # configure(dir=...): a new store, a new plan
        stores.append(configure(dir=tmp_path / tag))
        got = copies(arrays)
        result = run_parallel_procedure(proc, got, scalars, workers=2)
        assert result.chunk_lang == "c" and same(got, want)
    assert len(plans_of(proc)) == 2
    assert calls["compile_chunk_library"] >= 2
    # The store the current plan's kernels live in vanishes (what a
    # cold-start caller does after each call): no wrong array, and the
    # plan that could not bind is rebuilt into native chunks again.
    shutil.rmtree(stores[-1].root)
    for _ in range(3):
        got = copies(arrays)
        result = run_parallel_procedure(proc, got, scalars, workers=2)
        assert same(got, want)
    assert result.chunk_lang == "c"


def test_an_unbindable_kernel_drops_its_plan(calls):
    proc, original, arrays, scalars, options = case("matmul")
    want = interpreted(original, arrays, scalars)
    run_parallel_procedure(proc, copies(arrays), scalars, workers=2)
    (stale,) = plans_of(proc)
    kernels = {
        slot.job["c_so"]
        for slot in stale._slots.values()
        if "c_so" in getattr(slot, "job", {})
    }
    assert kernels
    for so_path in kernels:
        os.remove(so_path)
    got = copies(arrays)  # a fresh pool: its workers dlopen the path
    run_parallel_procedure(proc, got, scalars, workers=2)
    assert same(got, want)
    assert stale not in plans_of(proc)
    got = copies(arrays)
    result = run_parallel_procedure(proc, got, scalars, workers=2)
    assert same(got, want) and result.chunk_lang == "c"
    assert result.claim_loop == "native"


def test_scalar_types_workers_and_policies_get_their_own_plans():
    proc = parse(AXPY)
    rng = np.random.default_rng(0)
    arrays = {"X": rng.random(33), "Y": rng.random(33)}
    shapes = [
        ({"n": 32, "a": 2}, 2, "gss"),
        ({"n": 32, "a": 2.5}, 2, "gss"),
        ({"n": 32, "a": 2}, 3, "gss"),
        ({"n": 32, "a": 2}, 2, "unit"),
    ]
    for scalars, workers, policy in shapes * 2:
        got = copies(arrays)
        result = run_parallel_procedure(
            proc, got, scalars, workers=workers, policy=policy
        )
        assert same(got, interpreted(proc, arrays, scalars))
        assert result.chunk_lang == "c"
    assert len(plans_of(proc)) == len(shapes)


def test_four_threads_with_their_own_pools_share_one_plan():
    """The server's pattern: one registered program, concurrent requests,
    the first of which build the plan while the others wait for it.

    The pools are forked before the threads start: a ``fork`` while
    another thread waits on a compiler's output pipes would hand the
    pipe to the new workers, and that wait would never end.
    """
    proc, original, arrays, scalars, options = case("floyd")
    want = interpreted(original, arrays, scalars)
    errors = []

    def client(pool):
        try:
            for _ in range(3):
                got = copies(arrays)
                result = run_parallel_procedure(
                    proc, got, scalars, workers=2, pool=pool, timeout=60.0,
                )
                assert result.region == "native" and same(got, want)
        except BaseException as exc:  # surfaced below
            errors.append(exc)

    pools = [WorkerPool(arrays, workers=2) for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # interleave the threads as often as can be
    try:
        threads = [threading.Thread(target=client, args=(p,)) for p in pools]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120.0)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
        for p in pools:
            p.close()
    assert not errors, errors
    assert len(plans_of(proc)) == 1


def test_a_thousand_procedures_leave_the_memo_at_its_bound():
    """The ``cold_start`` pattern: a distinct procedure per call."""
    arrays = {"A": np.zeros(5)}
    for k in range(1000):
        proc = parse(
            f"procedure p{k}(A[1]; n)\n  doall i = 1, n\n"
            f"    A(i) := A(i) + {k}.0\n  end\nend\n"
        )
        plan_mod.prepare(
            proc, arrays, {"n": 4}, "warn", "gss", None, 2,
        )
        assert len(plan_mod._PLANS) <= plan_mod.MEMO_BOUND
        assert len(plan_mod._VERDICTS) <= plan_mod.MEMO_BOUND
    assert len(plan_mod._PLANS) == plan_mod.MEMO_BOUND


def test_a_patched_plan_time_name_waits_for_the_plans_to_drop(monkeypatch):
    """Why the suite's conftest drops plans before each test: a plan built
    before a patch keeps what it decided until it is dropped."""
    proc, original, arrays, scalars, options = case("matmul")
    run_parallel_procedure(proc, copies(arrays), scalars, workers=2)

    def boom(*args, **kwargs):
        raise RuntimeError("injected codegen failure")

    monkeypatch.setattr("repro.parallel.runtime.generate_chunk_c", boom)
    warm = run_parallel_procedure(proc, copies(arrays), scalars, workers=2)
    assert warm.chunk_lang == "c"
    plan_mod.drop_plans()
    got = copies(arrays)
    cold = run_parallel_procedure(proc, got, scalars, workers=2)
    assert cold.chunk_lang == "numpy"  # the rung below a failed kernel
    assert same(got, interpreted(original, arrays, scalars))


def test_the_server_prewarm_builds_through_the_plan_kernel_path(
    tmp_path, calls, monkeypatch
):
    proc, original, arrays, scalars, options = case("dot_product")
    store = ArtifactCache(tmp_path / "prewarmed")
    assert plan_mod.prewarm(proc, store) == 1
    assert calls["generate_chunk_c"] == 1  # one C build per loop shape
    # One loop shape, one build: the kernel the plan runs on this host —
    # and without a compiler nothing, as no generated text is kept.
    saxpy = case("saxpy2d")[0]
    assert plan_mod.prewarm(saxpy, ArtifactCache(tmp_path / "cc")) == 1
    assert calls["generate_chunk_c"] == 2
    pin_chunk_lang(monkeypatch, "numpy")
    assert plan_mod.prewarm(saxpy, ArtifactCache(tmp_path / "no-cc")) == 0
    assert calls["generate_chunk_c"] == 2
