"""Tests for the ``backend="mp"`` adapter behind the one-call API."""

import numpy as np
import pytest

import repro.parallel.backend as backend_mod
from repro.api import transform_function
from repro.parallel import ParallelTimeoutError
from repro.parallel.backend import MPCompiledProcedure
from repro.transforms import coalesce_procedure
from repro.workloads import get_workload

SWEEP = """
def sweep(A, B, n, m):
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            B[i, j] = 2.0 * A[i, j] + 1.0
"""

SERIAL_SCAN = """
def scan(A, n):
    for i in range(2, n + 1):
        A[i] = A[i - 1] + A[i]
"""


def _sweep_env(n=8, m=12, seed=0):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n + 1, m + 1))
    return A, np.zeros((n + 1, m + 1))


class TestMPBackendThroughAPI:
    def test_matches_serial_backend(self):
        A, B_mp = _sweep_env()
        _, B_serial = _sweep_env()
        serial = transform_function(SWEEP)
        parallel = transform_function(SWEEP, backend="mp", workers=2, policy="gss")
        serial(A, B_serial, 8, 12)
        parallel(A, B_mp, 8, 12)
        assert np.array_equal(B_serial, B_mp)
        assert parallel.last_parallel is not None
        assert parallel.last_parallel.total_iterations == 8 * 12

    def test_generated_source_is_the_chunk_function(self):
        parallel = transform_function(SWEEP, backend="mp", workers=2)
        assert "__chunk" in parallel.generated_source
        assert "__lo, __hi" in parallel.generated_source

    def test_fully_serial_function_falls_back(self):
        # The scan has a loop-carried dependence: nothing to dispatch, so
        # the backend must run the serial path and record why.
        fn = transform_function(SERIAL_SCAN, backend="mp", workers=2)
        A = np.arange(10, dtype=float)
        expect = A.copy()
        for i in range(2, 10):
            expect[i] = expect[i - 1] + expect[i]
        fn(A, 9)
        assert np.array_equal(A, expect)
        assert fn.last_parallel is None
        assert "ParallelDispatchError" in fn._backend.fallback_reason

    def test_backend_options_rejected_for_serial_backend(self):
        with pytest.raises(TypeError, match="takes no options"):
            transform_function(SWEEP, backend="python", workers=4)

    @pytest.mark.parametrize("timeout", [0, -1, True, "1"])
    def test_a_bad_timeout_raises_instead_of_falling_back(self, timeout):
        A, B = _sweep_env()
        parallel = transform_function(
            SWEEP, backend="mp", workers=2, timeout=timeout
        )
        with pytest.raises(ValueError, match="timeout"):
            parallel(A, B, 8, 12)
        assert parallel.last_parallel is None
        assert parallel._backend.fallback_reason is None

    def test_claim_batch_option_flows_through(self):
        # The batch is derived, not chosen: a default unit run at this
        # size batches by the rule, and naming a batch is a ValueError.
        A, B_mp = _sweep_env(seed=2)
        _, B_serial = _sweep_env(seed=2)
        serial = transform_function(SWEEP)
        parallel = transform_function(
            SWEEP, backend="mp", workers=2, policy="unit",
        )
        serial(A, B_serial, 8, 12)
        parallel(A, B_mp, 8, 12)
        assert np.array_equal(B_serial, B_mp)
        last = parallel.last_parallel
        # batched unit claims: fewer critical sections than chunks
        assert 0 < last.lock_ops < last.claims
        with pytest.raises(ValueError, match="claim_batch"):
            transform_function(SWEEP, backend="mp", claim_batch=4)


class TestFallbackPaths:
    def test_timeout_falls_back_to_serial_pygen(self, monkeypatch):
        w = get_workload("saxpy2d")
        proc, _ = coalesce_procedure(w.proc)

        def fake_run(*args, **kwargs):
            raise ParallelTimeoutError("deadline exceeded (injected)")

        monkeypatch.setattr(backend_mod, "run_parallel_procedure", fake_run)
        compiled = MPCompiledProcedure(proc, workers=2, timeout=0.001)
        from repro.workloads import make_env

        arrays, sc = make_env(w, seed=5)
        baseline = {k: v.copy() for k, v in arrays.items()}
        from repro.codegen.pygen import compile_procedure

        compile_procedure(proc).run(baseline, sc)
        compiled.run(arrays, sc)
        assert compiled.fallback_reason.startswith("ParallelTimeoutError")
        for name in arrays:
            assert np.array_equal(arrays[name], baseline[name])
