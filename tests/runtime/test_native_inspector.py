"""The native inspector: the kernel unit's C pass, held to the Python one.

A loop the default safety mode inspects gets ``<kernel>__inspect`` in its
kernel's translation unit; the parent runs it first and takes only its
proof — everything else goes to :func:`repro.runtime.inspector.
inspect_dispatch`.  So on every registered workload and on generated
index data (permutations, duplicates, out-of-bounds, NaN/inf, guards —
some of them on a cast or an intrinsic of the data — ragged bounds, 2-D
targets, repeated same-iteration stores) the verdict
through the native pass must be the Python inspector's, proofs must come
from the native pass, and both must agree with the executing shadow
recorder.  A compiler-less host gives the same verdicts from Python.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.codegen.cload import have_compiler
from repro.frontend.dsl import parse
from repro.parallel import run_parallel_procedure
from repro.parallel import plan as plan_mod
from repro.parallel import runtime
from repro.runtime import inspector
from repro.runtime.interp import Interpreter, InterpreterError
from repro.workloads import IRREGULAR_WORKLOADS, RACY_WORKLOADS, make_env

from tests.parallel import own_segments, pin_chunk_lang
from tests.safety.shadow import _Recorder, record_dispatch

needs_gcc = pytest.mark.skipif(not have_compiler(), reason="no gcc on PATH")


def plan_for(proc, arrays, scalars):
    return plan_mod.prepare(
        proc, arrays, scalars, "inspect", "gss", None, 2,
    )


def verdict(result):
    """What must not change: the decision, and the counts of a proof."""
    if result.error is not None:
        return ("error", result.error)
    if not result.proven:
        return ("refuted", result.conflicts)
    return ("proven", result.iterations, result.elements)


def both(proc, arrays, scalars):
    """``(through the plan's native pass, Python inspector alone)``."""
    plan = plan_for(proc, arrays, scalars)
    (loop,) = plan.loops
    native = plan.inspector(loop, scalars)
    assert native is not None
    return (
        runtime.inspect_dispatch(loop, scalars, arrays, native),
        inspector.inspect_dispatch(loop, scalars, arrays),
    )


@needs_gcc
@pytest.mark.parametrize(
    "name", sorted(IRREGULAR_WORKLOADS) + sorted(RACY_WORKLOADS)
)
def test_native_verdict_is_the_python_verdict_on_every_workload(name):
    w = (IRREGULAR_WORKLOADS.get(name) or RACY_WORKLOADS[name])()
    arrays, sc = make_env(w)
    plan = plan_for(w.proc, arrays, sc)
    (loop,) = plan.loops
    native = plan.inspector(loop, sc)
    if plan.strategies[id(loop)] != "inspect":
        # Values flow through the loop: refused, never inspected.
        assert native is None
        return
    got = runtime.inspect_dispatch(loop, sc, arrays, native)
    want = inspector.inspect_dispatch(loop, sc, arrays)
    assert verdict(got) == verdict(want)
    assert got.inspector == ("native" if want.proven else "walk")


# ---------------------------------------------------------------------------
# generated index data, checked against the executing shadow recorder
# ---------------------------------------------------------------------------

PROGRAMS = {
    "scatter": """
        procedure scatter(B[1], P[1], Q[1]; n)
          doall i = 1, n
            B(int(P(i))) := 2.0 * P(i)
          end
        end""",
    "guarded": """
        procedure guarded(B[1], P[1], Q[1]; n)
          doall i = 1, n
            if Q(i) > 0.5 then
              B(int(P(i))) := 1.0
            end
          end
        end""",
    "ragged": """
        procedure ragged(B[2], P[1], Q[1]; n)
          doall i = 1, n
            for j = 1, int(Q(i) * 3.0)
              B(int(P(i)), j) := 0.5 * j
            end
          end
        end""",
    "two_d": """
        procedure two_d(B[2], P[1], Q[1]; n)
          doall i = 1, n
            B(int(P(i)), int(Q(i) * 2.0) + 1) := 1.0
          end
        end""",
    "cast_guard": """
        procedure cast_guard(B[1], P[1], Q[1]; n)
          doall i = 1, n
            if int(P(i)) > 0 then
              B(int(P(i))) := 1.0
            end
          end
        end""",
    "math_guard": """
        procedure math_guard(B[1], P[1], Q[1]; n)
          doall i = 1, n
            if sqrt(P(i)) + 1.0 / (P(i) + 1.0) > 1.0 or Q(i) > 0.5 then
              B(int(P(i))) := 1.0
            end
          end
        end""",
    "twice": """
        procedure twice(B[1], P[1], Q[1]; n)
          doall i = 1, n
            B(int(P(i))) := 1.0
            B(int(P(i))) := 2.0
          end
        end""",
}
PROCS = {name: parse(src) for name, src in PROGRAMS.items()}

#: How one subscript value of a permutation is spoiled (or not).
MUTATIONS = ("none", "duplicate", "oob", "negative", "nan", "inf", "big")


def program_env(name, n, perm, guard, mutation, at):
    p = np.zeros(n + 1)
    p[1:] = np.asarray(perm, dtype=float) + 1.0
    p[at] = {
        "none": p[at],
        "duplicate": p[1 if at != 1 else n],
        "oob": n + 1.0,
        "negative": -1.0,
        "nan": np.nan,
        "inf": np.inf,
        "big": 1e30,
    }[mutation]
    q = np.zeros(n + 1)
    q[1:] = guard
    b = np.zeros((n + 1, 4)) if PROCS[name].arrays["B"] == 2 else np.zeros(n + 1)
    return {"B": b, "P": p, "Q": q}, {"n": n}


@st.composite
def cases(draw):
    n = draw(st.integers(1, 24))
    return (
        draw(st.sampled_from(sorted(PROCS))),
        n,
        draw(st.permutations(range(n))),
        draw(st.lists(st.sampled_from([0.0, 0.4, 0.6, 1.0]), min_size=n,
                      max_size=n)),
        draw(st.sampled_from(MUTATIONS)),
        draw(st.integers(1, n)),
    )


def shadow_verdict(proc, arrays, scalars):
    """"error", "overlap" or "disjoint" — by executing every iteration."""
    try:
        logs = record_dispatch(
            _Recorder(), proc.body.stmts[0], dict(scalars),
            {k: v.copy() for k, v in arrays.items()},
        )
    except InterpreterError:
        return "error"
    writers: dict = {}
    for log in logs:
        for elem in log.writes:
            if writers.setdefault(elem, log.value) != log.value:
                return "overlap"
    return "disjoint"


@needs_gcc
@settings(
    max_examples=120, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(cases())
def test_native_and_python_inspectors_agree_with_the_shadow(case):
    name, n, perm, guard, mutation, at = case
    proc = PROCS[name]
    arrays, sc = program_env(name, n, perm, guard, mutation, at)
    with np.errstate(invalid="ignore"):
        got, want = both(proc, arrays, sc)
    assert verdict(got) == verdict(want), case
    shadow = shadow_verdict(proc, arrays, sc)
    expected = {"error": "error", "overlap": "refuted", "disjoint": "proven"}
    assert verdict(got)[0] == expected[shadow], case
    # The native pass only ever proves, and proves every clean permutation
    # (it may leave a proof to Python: a huge but legal int() in a guard).
    assert got.proven or got.inspector != "native", case
    if mutation == "none":
        assert got.proven and got.inspector == "native", case


@needs_gcc
@pytest.mark.parametrize("again,native", [(1, True), (40, False)])
def test_a_rewrite_past_the_iteration_log_is_left_to_python(again, native):
    # Each iteration writes 40 elements of its row, then one of them again:
    # the first 32 are in the iteration's log (a native proof), a later
    # one is not, so the native pass cannot tell and Python proves it.
    proc = parse(f"""
        procedure wide(B[2], P[1]; n)
          doall i = 1, n
            for j = 1, 40
              B(int(P(i)), j) := 1.0
            end
            B(int(P(i)), {again}) := 2.0
          end
        end""")
    n = 6
    arrays = {"B": np.zeros((n + 1, 41)), "P": np.arange(n + 1.0)[::-1].copy()}
    got, want = both(proc, arrays, {"n": n})
    assert verdict(got) == verdict(want) == ("proven", n, 40 * n)
    assert (got.inspector == "native") == native


# ---------------------------------------------------------------------------
# whole runs
# ---------------------------------------------------------------------------


def scatter(n=300, **poison):
    w = IRREGULAR_WORKLOADS["scatter_perm"]()
    arrays, sc = make_env(w, scalars={"n": n}, seed=5)
    for k, value in poison.items():
        arrays["P"][int(k[1:])] = value
    return w, arrays, sc


def serial(w, arrays, sc):
    want = {k: v.copy() for k, v in arrays.items()}
    Interpreter().run(w.proc, want, sc)
    return want


@needs_gcc
def test_a_refuted_run_is_bit_identical_to_serial():
    w, arrays, sc = scatter(p7=3.0)  # B(3) written by iterations 3 and 7
    want = serial(w, arrays, sc)
    result = run_parallel_procedure(
        w.proc, arrays, sc, workers=2, timeout=60.0
    )
    assert all(np.array_equal(arrays[k], want[k]) for k in want)
    (cert,) = result.certificates
    assert (cert.status, cert.inspector) == ("refuted", "walk")
    assert result.proven_dynamic == 0 and not result.dispatches


@needs_gcc
def test_a_proven_run_says_native_everywhere():
    w, arrays, sc = scatter()
    want = serial(w, arrays, sc)
    result = run_parallel_procedure(
        w.proc, arrays, sc, workers=2, timeout=60.0
    )
    assert all(np.array_equal(arrays[k], want[k]) for k in want)
    (cert,) = result.certificates
    assert cert.inspector == "native"
    assert cert.to_dict()["inspector"] == "native"
    assert str(cert).startswith("dynamic[inspector/native] loop i: proven")


@pytest.fixture(params=["native", "numpy"])
def host(request, monkeypatch):
    """Both inspectors: the compiler-less host runs the Python one alone."""
    if request.param == "native" and not have_compiler():
        pytest.skip("no gcc on PATH")
    if request.param == "numpy":
        pin_chunk_lang(monkeypatch, "numpy")
    return request.param


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), 1e30])
def test_a_non_finite_or_huge_subscript_is_an_error_not_a_crash(host, bad):
    w, arrays, sc = scatter(p5=bad)
    loop = w.proc.body.stmts[0]
    plan = plan_for(w.proc, arrays, sc)
    with np.errstate(invalid="ignore"):
        insp = runtime.inspect_dispatch(
            loop, sc, arrays, plan.inspector(loop, sc)
        )
    assert insp.eligible and not insp.proven and insp.error is not None
    before = {k: v.copy() for k, v in arrays.items()}
    with np.errstate(invalid="ignore"), pytest.raises(InterpreterError):
        run_parallel_procedure(
            w.proc, arrays, sc, workers=2, timeout=60.0
        )
    assert own_segments() == []
    # The serial fallback stopped at iteration 5; the caller's arrays were
    # never copied back.
    assert all(
        np.array_equal(arrays[k], before[k], equal_nan=True) for k in before
    )


@pytest.mark.parametrize("poison", [{}, {"p9": 4.0}])
def test_a_compiler_less_host_gives_the_same_verdicts(host, poison):
    w, arrays, sc = scatter(**poison)
    want = inspector.inspect_dispatch(w.proc.body.stmts[0], sc, arrays)
    result = run_parallel_procedure(
        w.proc, arrays, sc, workers=2, timeout=60.0
    )
    (cert,) = result.certificates
    assert cert.status == ("proven-dynamic" if want.proven else "refuted")
    assert cert.describe() == want.describe()
    assert (cert.inspector == "native") == (host == "native" and want.proven)
