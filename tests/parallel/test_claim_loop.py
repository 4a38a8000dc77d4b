"""The native fetch&add claim loop (``claim_loop == "native"``).

For dispatches with C chunks the worker's whole claim loop runs in C:
hardware atomics on the shared counter words, chunks through the kernel's
uniform-entry thunk, claim logs written natively into each worker's slice
of the pool's shared ring.
These tests pin what must not change with the protocol — chunk boundaries,
``claims``/``lock_ops``, one event per chunk, bit-identical arrays — and
the one rule the protocol adds: a counter is driven by the lock *or* by
atomics within a dispatch, never both.
"""

import multiprocessing
import shutil
from dataclasses import astuple

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.api import transform_function
from repro.cache import ArtifactCache, configure
from repro.codegen import cload
from repro.codegen.cload import have_compiler
from repro.frontend.dsl import parse
from repro.parallel import WorkerPool, run_parallel_procedure
from repro.parallel import plan as plan_mod
from repro.parallel import runtime, worker
from repro.parallel.counter import SharedClaimCounter, policy_plan
from repro.parallel.observe import DISPATCH
from repro.runtime.interp import Interpreter
from repro.transforms import coalesce_procedure, fission_procedure
from repro.tuning import reset_tuning_memo
from repro.workloads import dot_product, get_workload, make_env
from repro.workloads.shapes import IRREGULAR_WORKLOADS
from tests.parallel import own_segments, pin_chunk_lang, run_one, safety_for

needs_gcc = pytest.mark.skipif(not have_compiler(), reason="no gcc on PATH")

#: ``A(i) := A(i) + 1`` over zeros: afterwards every element says how many
#: times its iteration ran — a lost update or a double claim is a 0 or a 2.
INCREMENT = parse(
    """
    procedure incr(A[1]; lo, hi)
      doall i = lo, hi
        A(i) := A(i) + 1.0
      end
    end
    """
)


def chunks_of(dispatch) -> list[tuple[int, int]]:
    return sorted((e.lo, e.hi) for e in dispatch.events)


def assert_partition(chunks, lo, hi) -> None:
    """``chunks`` (sorted) cover ``[lo, hi]`` exactly once, no gaps."""
    assert chunks[0][0] == lo and chunks[-1][1] == hi
    assert all(a[1] + 1 == b[0] for a, b in zip(chunks, chunks[1:]))


def replay(lo, hi, rule, batch) -> tuple[list[tuple[int, int]], int]:
    """One process draining the lock-guarded counter: the reference."""
    counter = SharedClaimCounter(lo, hi, multiprocessing.get_context())
    chunks: list[tuple[int, int]] = []
    lock_ops = 0
    while claimed := counter.claim_batch(rule, batch):
        chunks += claimed
        lock_ops += 1
    return chunks, lock_ops


# ---------------------------------------------------------------------------
# (i) both protocols hand out exactly the chunks claim_batch would, at the
# batch the rule derives, and report them alike
# ---------------------------------------------------------------------------

SPAN = 6000  # array length: lo <= 900 plus n <= 5000


@pytest.fixture(scope="module")
def pools():
    made = {
        w: WorkerPool({"A": np.zeros(SPAN)}, workers=w) for w in (1, 2, 3)
    }
    yield made
    for pool in made.values():
        pool.close()


@st.composite
def dispatches(draw):
    lo = draw(st.integers(0, 900))
    n = draw(st.integers(1, 5000))
    policy = draw(
        st.sampled_from(("unit", "fixed", "gss", "static", "static-cyclic"))
    )
    chunk = draw(st.integers(1, 40)) if policy == "fixed" else None
    workers = draw(st.integers(1, 3))
    return lo, n, policy, chunk, workers


def rule_batch(policy, chunk, n, active) -> int:
    """The batch rule, restated: unit/fixed take ``min(64, chunks //
    (8·active))`` chunks per claim, at least 1; GSS and static take 1."""
    if policy not in ("unit", "fixed"):
        return 1
    chunks = -(-n // (chunk or 1))
    return max(1, min(64, chunks // (8 * active)))


def reported(d):
    """What both claim protocols report alike for the same dispatch."""
    return (
        d.claims, d.lock_ops, d.claim_batch, d.lo, d.hi, d.workers, d.policy,
        chunks_of(d),
    )


@needs_gcc
@settings(max_examples=60, deadline=None, derandomize=True)
@given(case=dispatches())
def test_native_claims_equal_lock_guarded_replay(pools, case):
    lo, n, policy, chunk, workers = case
    hi = lo + n - 1
    static = policy.startswith("static")
    active = min(workers, n)
    batch = rule_batch(policy, chunk, n, active)
    runs = {}
    for lang in ("c", "py"):
        arrays = {"A": np.zeros(SPAN)}
        with pytest.MonkeyPatch.context() as patch:
            pin_chunk_lang(patch, lang)
            result = run_parallel_procedure(
                INCREMENT, arrays, {"lo": lo, "hi": hi}, pool=pools[workers],
                policy=policy, chunk=chunk, safety="off",
            )
        (d,) = result.dispatches
        protocol = "static" if static else "native" if lang == "c" else "py"
        assert (d.claim_loop, d.chunk_lang) == (protocol, lang)
        assert np.all(arrays["A"][lo : hi + 1] == 1.0)
        assert arrays["A"].sum() == n == sum(d.iterations_per_worker)
        runs[lang] = d
    d = runs["c"]
    assert reported(d) == reported(runs["py"])
    assert d.claim_batch == batch  # the rule's: 1 under GSS and static

    chunks = chunks_of(d)
    assert_partition(chunks, lo, hi)
    if static:
        assert d.lock_ops == 0 and d.claims == len(chunks)
        return
    rule = policy_plan(policy, n, active, chunk).rule
    want, want_locks = replay(lo, hi, rule, batch)
    assert chunks == want
    assert (d.claims, d.lock_ops) == (len(want), want_locks)
    if policy == "gss":
        sizes = [c_hi - c_lo + 1 for c_lo, c_hi in chunks]
        assert sizes == sorted(sizes, reverse=True)
        for (c_lo, _), size in zip(chunks, sizes):
            assert size == max(1, -(-(hi - c_lo + 1) // active))


# ---------------------------------------------------------------------------
# (ii) two real workers racing for the counter: nothing lost, nothing twice
# ---------------------------------------------------------------------------


@needs_gcc
@pytest.mark.parametrize("policy,chunk", [("unit", None), ("fixed", 3)])
def test_contended_increment_is_exact(policy, chunk):
    # Enough claims that draining them outlasts a peer's wake-up, which
    # on a 2-vCPU host can take several milliseconds after a warm call.
    claims = 1_000_000
    n = claims * (chunk or 1)
    both_worked = False
    with WorkerPool({"A": np.zeros(n + 1)}, workers=2) as pool:
        # A fast host lets one worker drain the range before its peer
        # wakes; five runs must all be exact, a few more may be spent
        # waiting for one in which the two really raced.
        for attempt in range(15):
            arrays = {"A": np.zeros(n + 1)}
            result = run_parallel_procedure(
                INCREMENT, arrays, {"lo": 1, "hi": n}, pool=pool,
                policy=policy, chunk=chunk, log_events=False, safety="off",
            )
            (d,) = result.dispatches
            assert d.claim_loop == "native" and d.claim_batch == 64
            assert d.claims == claims
            assert d.lock_ops == -(-claims // d.claim_batch)
            assert np.all(arrays["A"][1:] == 1.0) and arrays["A"][0] == 0.0
            both_worked |= all(d.iterations_per_worker)
            if both_worked and attempt >= 4:
                break
    assert both_worked, "one worker drained every run: no contention tested"


# ---------------------------------------------------------------------------
# (iii) native == Python protocol == interpreter, bit for bit
# ---------------------------------------------------------------------------

POLICIES = (("unit", None), ("fixed", 5), ("gss", None))


def _program(name):
    if name == "dot_product":
        w = dot_product()
        return w, fission_procedure(w.proc, fission=False, reduction=True).procedure
    w = get_workload(name)
    return w, coalesce_procedure(w.proc)[0]


@needs_gcc
@pytest.mark.parametrize("method", ("fork", "spawn"))
@pytest.mark.parametrize(
    "name",
    (
        "matmul", "gauss_jordan", "saxpy2d", "dot_product", "jacobi2d",
        "stencil3d", "floyd",
    ),
)
def test_native_equals_python_protocol_equals_interpreter(name, method):
    w, proc = _program(name)
    arrays, sc = make_env(w, seed=4)
    want = {k: v.copy() for k, v in arrays.items()}
    Interpreter().run(w.proc, want, sc)
    before = own_segments()
    ctx = multiprocessing.get_context(method)
    with WorkerPool(arrays, workers=2, ctx=ctx) as pool:
        for policy, chunk in POLICIES:
            runs = {}
            for lang in ("c", "py"):
                got = {k: v.copy() for k, v in arrays.items()}
                with pytest.MonkeyPatch.context() as patch:
                    pin_chunk_lang(patch, lang)
                    runs[lang] = run_parallel_procedure(
                        proc, got, sc, pool=pool, policy=policy, chunk=chunk,
                        safety=safety_for(name),
                    )
                for k in want:
                    assert np.array_equal(got[k], want[k]), (lang, policy, k)
            native, py = runs["c"], runs["py"]
            assert {d.claim_loop for d in native.dispatches} == {"native"}
            assert {d.chunk_lang for d in native.dispatches} == {"c"}
            assert py.claim_loop == "py" and py.chunk_lang == "py"
            assert [d.claims for d in native.dispatches] == [
                d.claims for d in py.dispatches
            ]
            assert [d.lock_ops for d in native.dispatches] == [
                d.lock_ops for d in py.dispatches
            ]
            assert native.reductions == py.reductions
    assert own_segments() == before


@needs_gcc
def test_proven_dynamic_dispatch_is_native():
    w = IRREGULAR_WORKLOADS["scatter_perm"]()
    arrays, sc = make_env(w)
    result = run_parallel_procedure(w.proc, arrays, sc, workers=2)
    (cert,) = result.certificates
    assert cert.status == "proven-dynamic"
    (dispatch,) = result.dispatches
    assert (dispatch.claim_loop, dispatch.chunk_lang) == ("native", "c")


@needs_gcc
def test_other_paths_keep_the_python_loop(monkeypatch):
    w = get_workload("saxpy2d")
    proc, _ = coalesce_procedure(w.proc)
    want = make_env(w, seed=1)[0]
    Interpreter().run(w.proc, want, make_env(w, seed=1)[1])

    def run(lang="c", **kwargs):
        arrays, sc = make_env(w, seed=1)
        with pytest.MonkeyPatch.context() as patch:
            pin_chunk_lang(patch, lang)
            result = run_one(proc, arrays, sc, workers=2, **kwargs)
        assert all(np.array_equal(arrays[k], want[k]) for k in want)
        assert result.chunk_lang == lang
        return result

    assert run("numpy").claim_loop == "py"
    assert run("py").claim_loop == "py"
    static = run(policy="static")
    assert (static.claim_loop, static.chunk_lang) == ("static", "c")
    assert static.lock_ops == 0


# ---------------------------------------------------------------------------
# (iv) a log longer than the ring: drained and re-entered, nothing dropped
# ---------------------------------------------------------------------------


@needs_gcc
@pytest.mark.parametrize("rows", (100, 48))  # longer, shorter than the batch of 64
def test_ring_overflow_keeps_every_event(monkeypatch, rows):
    """A ring shorter than a batch is made 64 rows long: a claim loop that
    stops before its first claim would otherwise drain an empty ring and
    re-enter forever.  The deadline turns such a regression into a
    failure instead of a hang."""
    monkeypatch.setattr(worker, "RING_ROWS", rows)  # the pool sizes its ring
    w = get_workload("saxpy2d")
    proc, _ = coalesce_procedure(w.proc)
    arrays, sc = make_env(w, scalars={"n": 150, "m": 150}, seed=0)
    want = {k: v.copy() for k, v in arrays.items()}
    Interpreter().run(w.proc, want, sc)
    d = run_one(proc, arrays, sc, workers=2, policy="unit", timeout=60.0)
    assert d.claim_loop == "native" and d.claim_batch == 64
    assert d.lock_ops == -(-22_500 // 64)
    assert d.claims == 22_500 == len(d.events)
    assert_partition(chunks_of(d), 1, 22_500)
    assert all(np.array_equal(arrays[k], want[k]) for k in want)


# ---------------------------------------------------------------------------
# (v) a worker that cannot bind stops its peers before anything has run;
# the dispatch goes out once on the lock-guarded protocol
# ---------------------------------------------------------------------------


def _saxpy_case(seed=2):
    w = get_workload("saxpy2d")
    proc, _ = coalesce_procedure(w.proc)
    arrays, sc = make_env(w, seed=seed)
    want = {k: v.copy() for k, v in arrays.items()}
    Interpreter().run(w.proc, want, sc)
    return proc, arrays, sc, want


#: Two top-level DOALLs: two dispatches in one run, no serial loop.
PAIR = parse(
    """
    procedure pair(A[1], B[1]; n)
      doall i = 1, n
        A(i) := A(i) * 2.0 + 1.0
      end
      doall j = 1, n
        B(j) := B(j) + A(j)
      end
    end
    """
)


def jobs_sent(monkeypatch) -> list[str]:
    """Record the protocol of every job the parent sends a pool."""
    sent: list[str] = []
    real = WorkerPool.dispatch

    def recording(self, job, lo, hi, deadline=None):
        sent.append("native" if "region" in job else "py")
        return real(self, job, lo, hi, deadline)

    monkeypatch.setattr(WorkerPool, "dispatch", recording)
    return sent


def plans_of(proc) -> list:
    return [p for p in plan_mod._PLANS.values() if p.proc is proc]


def assert_sent_back(
    monkeypatch, proc, arrays, scalars, want, lang="c", **options
):
    """One native job, refused by a worker that could not bind: the
    dispatch runs once on the lock-guarded protocol with the same result
    (its chunks in ``lang``), one fallback is counted, the plan is
    dropped, the pool stays healthy and no later dispatch of the run
    tries the driver again."""
    sent = jobs_sent(monkeypatch)
    fallbacks = DISPATCH["claim_loop"]["fallbacks"]
    with WorkerPool(arrays, workers=2) as pool:  # forked after the patch
        result = run_parallel_procedure(
            proc, arrays, scalars, pool=pool, timeout=60.0, **options
        )
        assert not pool.broken
    assert all(np.array_equal(arrays[k], want[k]) for k in want)
    assert result.claim_loop == "py" and result.chunk_lang == lang
    assert sent == ["native"] + ["py"] * len(result.dispatches)
    assert DISPATCH["claim_loop"]["fallbacks"] == fallbacks + 1
    assert not plans_of(proc)
    return result


@needs_gcc
@pytest.mark.parametrize("broken", ("library", "thunk", "worker 1"))
def test_fleet_that_cannot_bind_redispatches_on_python_protocol(
    monkeypatch, broken
):
    if broken == "library":
        monkeypatch.setattr(
            runtime, "claim_loop_library",
            lambda cache="default": "/nonexistent/librepro_claim.so",
        )
    elif broken == "thunk":
        monkeypatch.setattr(runtime, "THUNK_SUFFIX", "__no_such_thunk")
    else:
        real = cload.load_claim_loop

        def flaky(so_path):
            if multiprocessing.current_process().name.endswith("-1"):
                raise OSError("injected: worker 1 cannot dlopen")
            return real(so_path)

        monkeypatch.setattr(cload, "load_claim_loop", flaky)
    n = 5000
    arrays = {"A": np.arange(n + 1.0), "B": np.ones(n + 1)}
    want = {k: v.copy() for k, v in arrays.items()}
    Interpreter().run(PAIR, want, {"n": n})
    # Both protocols call a kernel through its thunk: without one, the
    # lock-guarded loop runs the Python chunk (a chunk fallback per
    # dispatch) instead of the kernel.
    chunk_fallbacks = DISPATCH["chunk_lang"]["fallbacks"]
    result = assert_sent_back(
        monkeypatch, PAIR, arrays, {"n": n}, want,
        lang="py" if broken == "thunk" else "c", policy="unit",
    )
    assert DISPATCH["chunk_lang"]["fallbacks"] - chunk_fallbacks == (
        2 if broken == "thunk" else 0
    )
    assert result.region is None and len(result.dispatches) == 2
    for d in result.dispatches:
        assert d.total_iterations == n == len(d.events)


# ---------------------------------------------------------------------------
# (vi) events are materialized on first access, identically to before
# ---------------------------------------------------------------------------


def _eager_events(d):
    """The list every dispatch used to build whether or not it was read."""
    assert all(isinstance(rows, bytes) for _, rows in d.event_log)
    events = [
        runtime.ClaimEvent(
            wid, int(lo), int(hi), t0 - d.t_base, t1 - d.t_base, t2 - d.t_base
        )
        for wid, rows in d.event_log
        for lo, hi, t0, t1, t2 in np.frombuffer(rows).reshape(-1, 5)
    ]
    events.sort(key=lambda e: (e.worker, e.t_claim))
    return events


@needs_gcc
@pytest.mark.parametrize("lang", ("c", "py"))
def test_lazy_events(monkeypatch, lang):
    built = []

    class CountingEvent(runtime.ClaimEvent):
        def __init__(self, *args, **kwargs):
            built.append(1)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(runtime, "ClaimEvent", CountingEvent)
    pin_chunk_lang(monkeypatch, lang)
    proc, arrays, sc, _ = _saxpy_case()
    d = run_one(
        proc, arrays, sc, workers=2, policy="fixed", chunk=7,
    )
    assert d.claim_loop == ("native" if lang == "c" else "py")
    assert not built, "ClaimEvents were built before anyone read them"

    events = d.events
    assert len(built) == len(events) == d.claims
    assert d.events is events  # cached, not rebuilt
    assert [astuple(e) for e in events] == [
        astuple(e) for e in _eager_events(d)
    ]
    assert [(e.worker, e.t_claim) for e in events] == sorted(
        (e.worker, e.t_claim) for e in events
    )
    for e in events:
        assert 0.0 <= e.t_claim <= e.t_work <= e.t_end <= d.wall_time
    no_log = run_one(proc, arrays, sc, workers=2, log_events=False)
    assert no_log.events == [] and no_log.claims > 0


# ---------------------------------------------------------------------------
# (viii) no compiler: the Python loop, and nobody calls gcc to find out
# ---------------------------------------------------------------------------


def test_no_compiler_means_python_loop(monkeypatch, compilerless):
    calls = []
    monkeypatch.setattr(
        cload, "_compile_into", lambda *a, **k: calls.append(a) or 1 / 0
    )
    proc, arrays, sc, want = _saxpy_case()
    d = run_one(proc, arrays, sc, workers=2)
    assert d.claim_loop == "py" and d.chunk_lang == "numpy"
    assert not calls
    assert all(np.array_equal(arrays[k], want[k]) for k in want)


# ---------------------------------------------------------------------------
# the claim library is built at most once per process
# ---------------------------------------------------------------------------

COLD_KERNEL = """
def cold{tag}(A, B, n, m):
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            B[i, j] = {c!r} * A[i, j] + B[i, j]
"""


@needs_gcc
def test_claim_library_builds_once_across_vanishing_stores(
    monkeypatch, tmp_path
):
    """What ``cold_start`` does: a fresh store per call, deleted after it."""
    built = []
    real = cload._compile_into

    def counting(tmp, name, *args, **kwargs):
        built.append(name)
        return real(tmp, name, *args, **kwargs)

    monkeypatch.setattr(cload, "_compile_into", counting)
    monkeypatch.setattr(cload, "_CLAIM_LIB", None)  # as in a new process
    n = 24
    rng = np.random.default_rng(0)
    try:
        for tag, c in ((1, 2.5), (2, 3.5)):
            reset_tuning_memo()
            store = configure(dir=tmp_path / f"cold-{tag}")
            fn = transform_function(
                COLD_KERNEL.format(tag=tag, c=c), backend="mp", workers=2,
                cache=store,
            )
            A = rng.random((n + 1, n + 1))
            B = rng.random((n + 1, n + 1))
            want = B.copy()
            want[1:, 1:] = c * A[1:, 1:] + want[1:, 1:]
            fn(A, B, n, n)
            shutil.rmtree(store.root)
            assert np.array_equal(B, want)
            assert fn.last_parallel.claim_loop == "native"
    finally:
        configure()  # back to the session's store
    assert sorted(built) == ["cold1__chunk", "cold2__chunk", "repro_claim"]


@needs_gcc
def test_first_run_of_a_single_doall_builds_only_its_kernel(
    monkeypatch, tmp_path
):
    """``cold_start``'s guard: a coalesced single-DOALL program on a fresh
    store compiles its kernel unit and nothing else of its own — its
    dispatch enters the claim library's fixed driver, which is resolved
    once per process."""
    built = []
    real = cload._compile_into

    def counting(tmp, name, *args, **kwargs):
        built.append(name)
        return real(tmp, name, *args, **kwargs)

    monkeypatch.setattr(cload, "_compile_into", counting)
    monkeypatch.setattr(cload, "_CLAIM_LIB", None)  # as in a new process
    try:
        for seed in (1, 2):
            store = configure(dir=tmp_path / f"fresh-{seed}")
            proc, arrays, sc, want = _saxpy_case(seed)
            d = run_one(proc, arrays, sc, workers=2)
            assert (d.claim_loop, d.chunk_lang) == ("native", "c")
            assert all(np.array_equal(arrays[k], want[k]) for k in want)
            shutil.rmtree(store.root)
    finally:
        configure()  # back to the session's store
    assert sorted(built) == ["repro_claim"] + [f"{proc.name}__chunk"] * 2


@needs_gcc
def test_claim_library_is_a_private_copy_of_the_store_entry(
    monkeypatch, tmp_path
):
    monkeypatch.setattr(cload, "_CLAIM_LIB", None)
    store = ArtifactCache(tmp_path / "store")
    path = cload.claim_loop_library(store)
    assert path is not None and str(tmp_path) not in path
    shutil.rmtree(store.root)
    assert cload.claim_loop_library(ArtifactCache(tmp_path / "other")) == path
    assert cload.load_claim_loop(path) is not None  # still loadable
