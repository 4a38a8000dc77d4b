"""Tests for the persistent worker pool and the pool dispatch engine.

Covers the PR's checklist: pool reuse across many dispatches bitwise-equal
to serial pygen, surviving empty-range DOALLs between real dispatches,
guaranteed shared-memory unlink on every exit path (success, crash,
timeout), the claim-accounting invariant under batched claiming for every
policy, and the gather grace-window regression (a worker that exits
cleanly right after posting its result must be counted from the message
log, never misclassified by its exit code).
"""

import errno
import multiprocessing
import queue as queue_mod
import time

import numpy as np
import pytest

from repro.analysis.doall import mark_doall
from repro.codegen.cload import have_compiler
from repro.codegen.pygen import compile_procedure
from repro.frontend.dsl import parse
from repro.parallel import (
    ParallelError,
    ParallelTimeoutError,
    WorkerCrashError,
    WorkerPool,
    run_parallel_procedure,
)
from repro.parallel.counter import policy_plan
from repro.parallel.pool import GATHER_GRACE, gather_results, raise_worker_crashes
from repro.transforms import coalesce_procedure
from repro.workloads import get_workload, make_env
from tests.parallel import own_segments, pin_chunk_lang, run_one

POLICIES = ("unit", "fixed", "gss", "static")


def _serial_baseline(workload, seed=0, scalars=None):
    arrays, sc = make_env(workload, scalars=scalars, seed=seed)
    baseline = {k: v.copy() for k, v in arrays.items()}
    compile_procedure(workload.proc).run(baseline, sc)
    return arrays, sc, baseline


def _assert_bit_for_bit(baseline, arrays):
    for name in baseline:
        assert np.array_equal(baseline[name], arrays[name]), name


class TestPoolReuse:
    @pytest.mark.parametrize("policy", POLICIES)
    def test_gauss_jordan_many_dispatches_one_pool(self, policy):
        """One resident fleet serves every pivot-row dispatch bit-for-bit."""
        w = get_workload("gauss_jordan")
        proc, _ = coalesce_procedure(w.proc)
        arrays, sc, baseline = _serial_baseline(w, seed=7)
        result = run_parallel_procedure(
            proc, arrays, sc, workers=2, policy=policy
        )
        _assert_bit_for_bit(baseline, arrays)
        # one dispatch per pivot row plus the extraction nest: >= 3 reuses
        assert len(result.dispatches) >= 3

    @pytest.mark.parametrize("policy", ("unit", "gss"))
    def test_matmul_through_pool_engine(self, policy):
        w = get_workload("matmul")
        proc, _ = coalesce_procedure(w.proc)
        arrays, sc, baseline = _serial_baseline(w, seed=3)
        stats = run_one(
            proc, arrays, sc, workers=3, policy=policy, chunk=5,
        )
        _assert_bit_for_bit(baseline, arrays)
        assert stats.total_iterations == sc["n"] ** 2

    def test_triangular_nest_through_pool_engine(self):
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
            coalesced, arrays, {"n": n}, workers=3, policy="fixed",
            chunk=4,
        )
        _assert_bit_for_bit(baseline, arrays)

    def test_sequence_of_doalls_shares_one_pool(self):
        proc = parse(
            """
            procedure seq(A[1], B[1]; n)
              doall i = 1, n
                A(i) := float(i)
              end
              doall i = 1, n
                B(i) := float(3 * i)
              end
              doall i = 1, n
                A(i) := float(7 * i)
              end
            end
            """
        )
        n = 25
        arrays = {"A": np.zeros(n + 1), "B": np.zeros(n + 1)}
        result = run_parallel_procedure(
            proc, arrays, {"n": n}, workers=2
        )
        assert len(result.dispatches) == 3
        assert np.array_equal(arrays["A"][1:], 7.0 * np.arange(1, n + 1))
        assert np.array_equal(arrays["B"][1:], 3.0 * np.arange(1, n + 1))

    def test_pool_survives_empty_range_between_dispatches(self):
        """An empty DOALL idles the pool; the next dispatch still works."""
        proc = parse(
            """
            procedure gaps(A[1], B[1]; n, z)
              doall i = 1, n
                A(i) := float(i)
              end
              doall i = 1, z
                A(i) := 0.0
              end
              doall i = 1, n
                B(i) := float(2 * i)
              end
            end
            """
        )
        n = 17
        arrays = {"A": np.zeros(n + 1), "B": np.zeros(n + 1)}
        result = run_parallel_procedure(
            proc, arrays, {"n": n, "z": 0}, workers=2
        )
        assert len(result.dispatches) == 3
        empty = result.dispatches[1]
        assert empty.total_iterations == 0 and empty.claims == 0
        assert np.array_equal(arrays["A"][1:], np.arange(1, n + 1, dtype=float))
        assert np.array_equal(arrays["B"][1:], 2.0 * np.arange(1, n + 1))


class TestBatchedClaimAccounting:
    """The claim batch is derived: at these trip counts the rule gives
    unit and fixed dispatches more than one chunk per claim."""

    @pytest.mark.parametrize("policy", POLICIES)
    def test_every_iteration_claimed_exactly_once(self, policy):
        w = get_workload("saxpy2d")
        proc, _ = coalesce_procedure(w.proc)
        arrays, sc = make_env(w, scalars={"n": 24, "m": 24}, seed=1)
        stats = run_one(proc, arrays, sc, workers=3, policy=policy, chunk=6)
        n = sc["n"] * sc["m"]
        if policy in ("unit", "fixed"):
            assert stats.claim_batch > 1
        claimed = sorted(
            v for e in stats.events for v in range(e.lo, e.hi + 1)
        )
        assert claimed == list(range(1, n + 1))  # exactly once, no gaps
        assert stats.total_iterations == n
        assert stats.claims == len(stats.events)

    def test_batching_cuts_lock_traffic(self):
        w = get_workload("saxpy2d")
        proc, _ = coalesce_procedure(w.proc)
        arrays, sc = make_env(w, seed=1)
        stats = run_one(proc, arrays, sc, workers=2, policy="unit")
        assert stats.claims == sc["n"] * sc["m"]
        # every lock round-trip hands out up to claim_batch chunks
        assert stats.claim_batch > 1
        assert stats.lock_ops < stats.claims
        assert stats.lock_ops >= -(-stats.claims // stats.claim_batch)

    def test_gss_claims_stay_single_under_batching(self):
        w = get_workload("saxpy2d")
        proc, _ = coalesce_procedure(w.proc)
        arrays, sc = make_env(w, seed=2)
        stats = run_one(proc, arrays, sc, workers=2, policy="gss")
        # GSS never batches, at a trip count where unit claims would:
        # one chunk per critical section
        assert stats.claim_batch == 1
        assert stats.lock_ops == stats.claims

    def test_static_plan_has_zero_lock_ops(self):
        w = get_workload("saxpy2d")
        proc, _ = coalesce_procedure(w.proc)
        arrays, sc = make_env(w, seed=1)
        stats = run_one(proc, arrays, sc, workers=3, policy="static")
        assert stats.lock_ops == 0


BOOM = """
procedure boom(A[1]; n, d)
  doall i = 1, n
    A(i) := float(i div (n - d))
  end
end
"""


class TestPoolRobustness:
    def test_crash_on_pool_path_is_clean(self):
        """A crash on dispatch two of a warm pool (dispatch one is the
        healthy twin: same kernel on the native claim loop, no crash)."""
        proc = mark_doall(parse(BOOM))
        arrays = {"A": np.zeros(40)}
        before = own_segments()
        pool = WorkerPool(arrays, workers=3)
        try:
            healthy = run_parallel_procedure(
                proc, arrays, {"n": 39, "d": 38}, pool=pool
            )
            if have_compiler():
                assert healthy.claim_loop == "native"
            assert np.array_equal(arrays["A"][1:], np.arange(1.0, 40.0))
            snapshot = arrays["A"].copy()
            with pytest.raises(WorkerCrashError, match="worker"):
                run_parallel_procedure(
                    proc, arrays, {"n": 39, "d": 39}, pool=pool
                )
            assert pool.broken
        finally:
            pool.close()
        assert np.array_equal(arrays["A"], snapshot)
        assert own_segments() == before

    def test_failed_start_leaves_no_worker_and_no_segment(self, monkeypatch):
        """If the second worker cannot start, the first must not survive
        the constructor attached to segments that were just unlinked."""
        ctx = multiprocessing.get_context("fork")
        real_start = ctx.Process.start
        starts = []

        def start(proc):
            starts.append(proc)
            if len(starts) == 2:
                raise OSError(errno.EAGAIN, "injected: cannot fork")
            real_start(proc)

        monkeypatch.setattr(ctx.Process, "start", start)
        children = multiprocessing.active_children()
        before = own_segments()
        with pytest.raises(OSError, match="injected"):
            WorkerPool({"A": np.zeros(8)}, workers=3, ctx=ctx)
        assert len(starts) == 2
        assert multiprocessing.active_children() == children
        assert not starts[0].is_alive()
        assert own_segments() == before

    def test_timeout_on_pool_path_is_clean(self, monkeypatch):
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

    def test_close_unlinks_segments_and_is_idempotent(self):
        arrays = {"A": np.arange(12.0), "B": np.ones((3, 4))}
        before = own_segments()
        pool = WorkerPool(arrays, workers=2)
        assert set(pool.views) == {"A", "B"}
        # one per array, and the workers' claim-log ring block
        assert len(own_segments()) == len(before) + 3
        pool.close()
        assert own_segments() == before
        pool.close()  # idempotent
        assert own_segments() == before

    def test_dispatch_after_close_raises(self):
        with WorkerPool({"A": np.zeros(4)}, workers=1) as pool:
            pass
        with pytest.raises(ParallelError, match="closed"):
            pool.dispatch({"plan": policy_plan("unit", 4, 1)}, 1, 4)

    def test_failed_dispatch_breaks_the_pool(self):
        """A job the workers cannot run crashes the fleet; the pool then
        refuses further dispatches and still unlinks its segments."""
        before = own_segments()
        pool = WorkerPool({"A": np.zeros(8)}, workers=2)
        bad_job = {
            "source": "def broken(:",  # unparsable chunk source
            "fname": "broken",
            "array_order": ["A"],
            "scalar_order": [],
            "scalars": {},
            "plan": policy_plan("unit", 8, 2),
            "lo": 1,
            "batch": 1,
            "log_events": False,
        }
        try:
            with pytest.raises(WorkerCrashError):
                pool.dispatch(bad_job, 1, 8)
            assert pool.broken
            with pytest.raises(ParallelError, match="broken"):
                pool.dispatch(bad_job, 1, 8)
        finally:
            pool.close()
        assert own_segments() == before


class _TimedQueue:
    """Result-queue stand-in whose message only surfaces after a delay.

    ``get(timeout)`` always comes up empty (sleeping through the timeout,
    like a real queue would); ``get_nowait`` releases the message once
    ``release_after`` seconds have passed — modeling a worker whose feeder
    thread flushed its result *after* the parent saw the process exit.
    """

    def __init__(self, msg, release_after):
        self._msg = msg
        self._release = time.monotonic() + release_after

    def get(self, timeout=None):
        if timeout:
            time.sleep(timeout)
        raise queue_mod.Empty

    def get_nowait(self):
        if self._msg is not None and time.monotonic() >= self._release:
            msg, self._msg = self._msg, None
            return msg
        raise queue_mod.Empty


class _ExitedProc:
    """A process that has already exited with the given code."""

    def __init__(self, exitcode=0):
        self.exitcode = exitcode

    def is_alive(self):
        return False


class TestGatherGraceWindow:
    def test_clean_exit_after_result_is_not_a_crash(self):
        """Regression: the message log wins over the exit code.

        A worker that posts its result and exits 0 before the parent's
        next poll must be counted from the final queue drain, not marked
        dead on the strength of ``is_alive() == False``.
        """
        msg = ("ok", 0, 100, {"rec": b"", "tim": b"", "log": b""})
        q = _TimedQueue(msg, release_after=GATHER_GRACE)
        procs = [_ExitedProc(exitcode=0)]
        results = gather_results(procs, q, deadline=None, want={0})
        assert results[0] == msg
        raise_worker_crashes(results, procs)  # must not raise

    def test_messageless_dead_worker_is_a_crash(self):
        q = _TimedQueue(None, release_after=0.0)
        procs = [_ExitedProc(exitcode=1)]
        results = gather_results(procs, q, deadline=None, want={0})
        assert results[0] == ("dead", 0, 1)
        with pytest.raises(WorkerCrashError, match="exitcode 1"):
            raise_worker_crashes(results, procs)
