"""End-to-end tests for the process-parallel runtime.

Covers the satellite checklist: bit-for-bit equivalence against serial
pygen on matmul / Gauss–Jordan / a triangular nest, crash injection with
clean shutdown and no orphaned shared memory, and chunk accounting (every
iteration claimed exactly once) under unit / fixed / GSS policies.
"""

import multiprocessing

import numpy as np
import pytest

from repro.analysis.doall import mark_doall
from repro.codegen.cload import have_compiler
from repro.codegen.pygen import compile_procedure
from repro.frontend.dsl import parse
from repro.ir.expr import ArrayRef
from repro.ir.stmt import Assign
from repro.ir.visitor import walk_stmts
from repro.parallel import (
    MPCompiledProcedure,
    ParallelDispatchError,
    ParallelTimeoutError,
    SafetyVerificationError,
    WorkerCrashError,
    WorkerPool,
    compile_mp_procedure,
    run_parallel_procedure,
)
from repro.runtime.interp import Interpreter, InterpreterError
from repro.transforms import coalesce_procedure
from repro.workloads import get_workload, make_env
from tests.parallel import own_segments, pin_chunk_lang, run_one

POLICIES = ("unit", "fixed", "gss", "static")

#: A dispatch, then a serial loop the parent runs as a compiled residue;
#: ``m`` past ``B``'s last index makes the residue raise.
BUMP_THEN_CHAIN = parse(
    """
    procedure bump_then_chain(A[1], B[1]; n, m)
      doall i = 1, n
        A(i) := A(i) + 1.0
      end
      for j = 1, m
        B(j) := B(j - 1) + 1.0
      end
    end
    """
)


def _serial_baseline(workload, seed=0, scalars=None):
    arrays, sc = make_env(workload, scalars=scalars, seed=seed)
    baseline = {k: v.copy() for k, v in arrays.items()}
    compile_procedure(workload.proc).run(baseline, sc)
    return arrays, sc, baseline


def _assert_bit_for_bit(baseline, arrays):
    for name in baseline:
        assert np.array_equal(baseline[name], arrays[name]), name


class TestEquivalence:
    @pytest.mark.parametrize("policy", POLICIES)
    def test_matmul_matches_serial_pygen(self, policy):
        w = get_workload("matmul")
        proc, results = coalesce_procedure(w.proc)
        assert results, "matmul must coalesce"
        arrays, sc, baseline = _serial_baseline(w, seed=3)
        stats = run_one(
            proc, arrays, sc, workers=3, policy=policy, chunk=5
        )
        _assert_bit_for_bit(baseline, arrays)
        assert stats.total_iterations == sc["n"] ** 2

    @pytest.mark.parametrize("policy", ("unit", "gss"))
    def test_gauss_jordan_hybrid_matches_serial_pygen(self, policy):
        w = get_workload("gauss_jordan")
        proc, _ = coalesce_procedure(w.proc)
        arrays, sc, baseline = _serial_baseline(w, seed=4)
        result = run_parallel_procedure(
            proc, arrays, sc, workers=2, policy=policy
        )
        _assert_bit_for_bit(baseline, arrays)
        assert len(result.dispatches) >= 1

    @pytest.mark.parametrize("policy", POLICIES)
    def test_triangular_nest_matches_serial_pygen(self, policy):
        proc = mark_doall(
            parse(
                """
                procedure tri(A[2]; n)
                  doall i = 1, n
                    doall j = 1, i
                      A(i, j) := float(i * 1000 + j)
                    end
                  end
                end
                """
            )
        )
        coalesced, results = coalesce_procedure(proc, triangular=True)
        assert results, "triangular nest must coalesce"
        n = 13
        arrays = {"A": np.zeros((n + 1, n + 1))}
        baseline = {"A": np.zeros((n + 1, n + 1))}
        compile_procedure(proc).run(baseline, {"n": n})
        run_one(
            coalesced, arrays, {"n": n}, workers=3, policy=policy, chunk=4
        )
        _assert_bit_for_bit(baseline, arrays)

    def test_saxpy2d_across_worker_counts(self):
        w = get_workload("saxpy2d")
        proc, _ = coalesce_procedure(w.proc)
        for workers in (1, 2, 5):
            arrays, sc, baseline = _serial_baseline(w, seed=workers)
            run_one(proc, arrays, sc, workers=workers)
            _assert_bit_for_bit(baseline, arrays)


class TestChunkAccounting:
    @pytest.mark.parametrize("policy", ("unit", "fixed", "gss"))
    def test_every_iteration_claimed_exactly_once(self, policy):
        w = get_workload("saxpy2d")
        proc, _ = coalesce_procedure(w.proc)
        arrays, sc = make_env(w, seed=1)
        stats = run_one(
            proc, arrays, sc, workers=3, policy=policy, chunk=6
        )
        n = sc["n"] * sc["m"]
        assert stats.lo == 1 and stats.hi == n
        claimed = sorted(
            value
            for e in stats.events
            for value in range(e.lo, e.hi + 1)
        )
        assert claimed == list(range(1, n + 1))  # exactly once, no gaps
        assert stats.claims == len(stats.events)
        assert stats.total_iterations == n

    def test_fixed_chunk_claim_count(self):
        w = get_workload("saxpy2d")
        proc, _ = coalesce_procedure(w.proc)
        arrays, sc = make_env(w, seed=1)
        stats = run_one(
            proc, arrays, sc, workers=2, policy="fixed", chunk=10
        )
        n = sc["n"] * sc["m"]
        assert stats.claims == -(-n // 10)
        assert all(e.size <= 10 for e in stats.events)

    def test_static_plan_needs_no_counter_claims(self):
        w = get_workload("saxpy2d")
        proc, _ = coalesce_procedure(w.proc)
        arrays, sc = make_env(w, seed=1)
        stats = run_one(
            proc, arrays, sc, workers=3, policy="static"
        )
        # one contiguous block per (non-empty) worker
        assert stats.claims <= 3
        claimed = sorted(
            v for e in stats.events for v in range(e.lo, e.hi + 1)
        )
        assert claimed == list(range(stats.lo, stats.hi + 1))


BOOM = """
procedure boom(A[1]; n, d)
  doall i = 1, n
    A(i) := float(i div (n - d))
  end
end
"""


class TestRobustness:
    def test_worker_crash_is_clean(self):
        proc = mark_doall(parse(BOOM))
        arrays = {"A": np.zeros(40)}
        snapshot = arrays["A"].copy()
        before = own_segments()
        with pytest.raises(WorkerCrashError, match="worker"):
            run_parallel_procedure(
                proc, arrays, {"n": 39, "d": 39}, workers=3
            )
        # clean shutdown: caller arrays untouched, no orphaned shared memory
        assert np.array_equal(arrays["A"], snapshot)
        assert own_segments() == before

    @pytest.mark.skipif(not have_compiler(), reason="no gcc on PATH")
    def test_crash_injection_runs_on_the_native_claim_loop(self):
        """The crash above, minus the crash: same kernel, same options —
        it is the native claim loop whose death the test above survives."""
        proc = mark_doall(parse(BOOM))
        arrays = {"A": np.zeros(40)}
        before = own_segments()
        stats = run_one(
            proc, arrays, {"n": 39, "d": 38}, workers=3
        )
        assert (stats.claim_loop, stats.chunk_lang) == ("native", "c")
        assert np.array_equal(arrays["A"][1:], np.arange(1.0, 40.0))
        assert own_segments() == before

    def test_a_raising_serial_residue_is_final(self, monkeypatch):
        """A compiled residue's raise is the run's error: the loop is not
        rerun on the tree interpreter, then or on any later run."""

        def interpreted(*args, **kwargs):
            raise AssertionError("the tree interpreter ran a compiled residue")

        monkeypatch.setattr(Interpreter, "_exec", interpreted)
        arrays = {"A": np.zeros(9), "B": np.zeros(5)}
        with pytest.raises(InterpreterError, match="serial loop 'j'"):
            run_parallel_procedure(
                BUMP_THEN_CHAIN, arrays, {"n": 8, "m": 9}, workers=2,
                timeout=60.0,
            )
        assert not arrays["A"].any() and own_segments() == []
        arrays = {"A": np.zeros(9), "B": np.zeros(10)}
        run_parallel_procedure(
            BUMP_THEN_CHAIN, arrays, {"n": 8, "m": 9}, workers=2, timeout=60.0
        )
        assert np.array_equal(arrays["A"][1:], np.ones(8))
        assert np.array_equal(arrays["B"], np.arange(10.0))

    def test_timeout_kills_workers_and_preserves_arrays(self, monkeypatch):
        w = get_workload("matmul")
        proc, _ = coalesce_procedure(w.proc)
        arrays, sc = make_env(w, scalars={"n": 96}, seed=0)
        snapshot = arrays["C"].copy()
        # Pin the interpreted chunk language: native kernels finish this
        # workload inside the 0.1s budget, which would defeat the test.
        pin_chunk_lang(monkeypatch, "py")
        with pytest.raises(ParallelTimeoutError):
            run_parallel_procedure(
                proc, arrays, sc, workers=2, policy="gss", timeout=0.1,
            )
        assert np.array_equal(arrays["C"], snapshot)
        assert own_segments() == []

    def test_procedure_without_doall_is_rejected(self):
        proc = parse(
            """
            procedure s(A[1]; n)
              for i = 1, n
                A(i) := float(i)
              end
            end
            """
        )
        with pytest.raises(ParallelDispatchError, match="no dispatchable"):
            run_parallel_procedure(proc, {"A": np.zeros(5)}, {"n": 4})

    def test_empty_iteration_space(self):
        proc = mark_doall(
            parse(
                """
                procedure empty(A[1]; n)
                  doall i = 1, n
                    A(i) := 1.0
                  end
                end
                """
            )
        )
        arrays = {"A": np.zeros(4)}
        stats = run_one(proc, arrays, {"n": 0}, workers=2)
        assert stats.total_iterations == 0
        assert np.all(arrays["A"] == 0.0)


class TestObservability:
    def test_measured_schedule_as_sim_result(self):
        w = get_workload("saxpy2d")
        proc, _ = coalesce_procedure(w.proc)
        arrays, sc = make_env(w, seed=2)
        stats = run_one(
            proc, arrays, sc, workers=2, policy="fixed", chunk=8
        )
        sim = stats.to_sim_result()
        assert sim.p == 2
        assert sim.total_dispatches == stats.claims
        assert sum(t.iterations for t in sim.processors) == stats.total_iterations
        assert sim.finish_time >= max(e.end for e in sim.events)
        # events carry the simulator's 0-based flat first-iteration convention
        assert min(e.first_iteration for e in sim.events) == 0

    def test_gantt_renders(self):
        w = get_workload("saxpy2d")
        proc, _ = coalesce_procedure(w.proc)
        arrays, sc = make_env(w, seed=2)
        stats = run_one(proc, arrays, sc, workers=2)
        chart = stats.gantt(width=30)
        assert "P0" in chart and "P1" in chart and "dispatches" in chart


def _single_loop(name):
    """A one-DOALL procedure plus its ``make_env`` workload, by name."""
    w = get_workload(name)
    if name == "saxpy2d":
        return w, coalesce_procedure(w.proc)[0]
    return w, w.proc


class TestOneDriver:
    """``run_parallel_procedure`` is the one driver: what it (and the mp
    backend over it) no longer takes, and what it refuses before any
    process or segment exists."""

    def test_reuse_pool_is_not_an_option(self):
        w, proc = _single_loop("saxpy2d")
        arrays, sc = make_env(w)
        for run in (
            lambda **o: run_parallel_procedure(proc, arrays, sc, **o),
            lambda **o: compile_mp_procedure(proc, **o),
        ):
            with pytest.raises(TypeError, match="reuse_pool"):
                run(workers=2, reuse_pool=True)

    @pytest.mark.parametrize(
        "option",
        [
            {"calibrate": True}, {"variants": "gcc-O3"},
            {"method": "spawn"}, {"fallback": False}, {"name": "pool"},
        ],
    )
    def test_tuner_options_are_gone(self, option):
        """Retired options — the tuner's, the start method, the backend's
        fallback switch and the pool's process name — are not keywords."""
        w, proc = _single_loop("saxpy2d")
        arrays, sc = make_env(w)
        (name,) = option
        for run in (
            lambda: run_parallel_procedure(proc, arrays, sc, **option),
            lambda: compile_mp_procedure(proc, **option),
            lambda: WorkerPool(arrays, workers=2, **option),
        ):
            with pytest.raises(TypeError, match=name):
                run()
        assert own_segments() == []

    @pytest.mark.parametrize("batch", [True, 2.7, 0, -5, "8", None, 4, 1])
    def test_claim_batch_is_auto_or_a_positive_integer(
        self, monkeypatch, batch
    ):
        """The claim batch is derived, never requested: the driver's and
        the backend factory's keyword takes only ``"auto"`` — the rule
        itself — and any other value, a positive integer included, is
        refused before any pool exists."""
        w, proc = _single_loop("saxpy2d")
        arrays, sc = make_env(w)
        before = {k: v.copy() for k, v in arrays.items()}
        forked = []
        monkeypatch.setattr(
            WorkerPool, "__init__", lambda *a, **k: forked.append(a) or 1 / 0
        )
        with pytest.raises(ValueError, match="claim_batch"):
            run_parallel_procedure(
                proc, arrays, sc, workers=2, claim_batch=batch
            )
        with pytest.raises(ValueError, match="claim_batch"):
            compile_mp_procedure(proc, claim_batch=batch)
        assert not forked
        _assert_bit_for_bit(before, arrays)

    def test_auto_claim_batch_is_the_omitted_one(self):
        w, proc = _single_loop("saxpy2d")
        runs = []
        for options in ({}, {"claim_batch": "auto"}):
            arrays, sc = make_env(w, seed=3)
            d = run_one(proc, arrays, sc, workers=2, policy="unit", **options)
            runs.append((d.claims, d.lock_ops, d.claim_batch, arrays))
        (claims, lock_ops, batch, want), got = runs
        assert batch > 1 and lock_ops < claims
        assert got[:3] == (claims, lock_ops, batch)
        _assert_bit_for_bit(want, got[3])
        assert repr(compile_mp_procedure(proc, claim_batch="auto")) == repr(
            MPCompiledProcedure(proc)
        )
        with pytest.raises(TypeError, match="claim_batch"):
            MPCompiledProcedure(proc, claim_batch="auto")

    @pytest.mark.parametrize("policy,chunk", [("nope", None), ("fixed", 0)])
    def test_a_bad_policy_is_refused_before_any_pool(
        self, monkeypatch, policy, chunk
    ):
        """The plan resolves the policy when it is built: a bad one raises
        there, before any fleet is forked, and leaves no plan behind."""
        from repro.parallel import plan as plan_mod

        w, proc = _single_loop("saxpy2d")
        arrays, sc = make_env(w)
        before = {k: v.copy() for k, v in arrays.items()}
        forked = []
        monkeypatch.setattr(
            WorkerPool, "__init__", lambda *a, **k: forked.append(a) or 1 / 0
        )
        plans = len(plan_mod._PLANS)
        mp = compile_mp_procedure(proc, workers=2, policy=policy, chunk=chunk)
        for run in (
            lambda: run_parallel_procedure(
                proc, arrays, sc, workers=2, policy=policy, chunk=chunk
            ),
            lambda: mp.run(arrays, sc),
        ):
            with pytest.raises(ValueError, match="policy|chunk"):
                run()
        assert not forked and mp.fallback_reason is None
        assert len(plan_mod._PLANS) == plans
        _assert_bit_for_bit(before, arrays)

    @pytest.mark.parametrize("timeout", [0, -1, True, "1", float("nan")])
    def test_timeout_is_none_or_a_positive_number(self, monkeypatch, timeout):
        """Refused before any pool exists: no fleet forked only to time
        out — under ``backend="mp"``, no silent serial fallback."""
        w, proc = _single_loop("saxpy2d")
        arrays, sc = make_env(w)
        before = {k: v.copy() for k, v in arrays.items()}
        forked = []
        monkeypatch.setattr(
            WorkerPool, "__init__", lambda *a, **k: forked.append(a) or 1 / 0
        )
        mp = compile_mp_procedure(proc, timeout=timeout)
        for run in (
            lambda: run_parallel_procedure(proc, arrays, sc, timeout=timeout),
            lambda: mp.run(arrays, sc),
        ):
            with pytest.raises(ValueError, match="timeout must be a number > 0"):
                run()
        assert not forked and mp.fallback_reason is None
        _assert_bit_for_bit(before, arrays)

    @pytest.mark.parametrize("workers", [0, -1, True, 2.0, "2"])
    def test_workers_is_a_positive_integer(self, workers):
        """A worker count below 1 is refused, never floored to 1 and then
        reported as the count that ran."""
        w, proc = _single_loop("saxpy2d")
        arrays, sc = make_env(w)
        before = {k: v.copy() for k, v in arrays.items()}
        for run in (
            lambda: run_parallel_procedure(proc, arrays, sc, workers=workers),
            lambda: compile_mp_procedure(proc, workers=workers).run(arrays, sc),
            lambda: WorkerPool(arrays, workers=workers),
        ):
            with pytest.raises(ValueError, match="workers must be an integer >= 1"):
                run()
        _assert_bit_for_bit(before, arrays)
        assert own_segments() == []

    @pytest.mark.parametrize(
        "name,rule", [("racy_flow", "RACE001"), ("racy_scalar", "PRIV002")]
    )
    def test_refused_doall_creates_no_process_and_no_segment(
        self, monkeypatch, name, rule
    ):
        def no_pool(*args, **kwargs):
            raise AssertionError("a refused run must not lease a pool")

        monkeypatch.setattr("repro.parallel.runtime.WorkerPool", no_pool)
        w, proc = _single_loop(name)
        arrays, sc = make_env(w)
        children = multiprocessing.active_children()
        with pytest.raises(
            SafetyVerificationError, match=f"safety=inspect refused.*{rule}"
        ):
            run_parallel_procedure(proc, arrays, sc, workers=2)
        assert own_segments() == []
        assert multiprocessing.active_children() == children


class TestCopyBack:
    """A run copies back only the arrays the procedure stores to."""

    @pytest.mark.parametrize(
        "name,safety",
        [("scatter_perm", None), ("saxpy2d", None), ("matmul", None)],
    )
    def test_read_only_inputs_may_be_read_only_arrays(self, name, safety):
        w = get_workload(name)
        inspected = name == "scatter_perm"  # its own loop, not coalesced
        proc = w.proc if inspected else coalesce_procedure(w.proc)[0]
        arrays, sc, baseline = _serial_baseline(w, seed=2)
        written = {
            s.target.name for s in walk_stmts(proc.body)
            if isinstance(s, Assign) and isinstance(s.target, ArrayRef)
        }
        assert written and written != set(arrays)
        for name_ in set(arrays) - written:
            arrays[name_].flags.writeable = False
        run_parallel_procedure(
            proc, arrays, sc, workers=2, safety=safety, timeout=60.0
        )
        _assert_bit_for_bit(baseline, arrays)
