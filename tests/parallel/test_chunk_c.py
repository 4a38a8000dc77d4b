"""Native C chunk kernels: equivalence, fallback ladder, and caching.

Where gcc is on PATH and every array is float64, a plan runs claimed
blocks through a compiled C kernel (``chunk_lang == "c"``) instead of a
generated Python chunk.  These tests pin the contract:

* bit-for-bit equivalence: mp-with-C == mp-with-Python == serial pygen on
  rectangular (matmul, saxpy2d), hybrid (Gauss–Jordan), and triangular
  nests;
* the ladder: no compiler, a codegen failure or a compile failure lands
  on the whole-slice numpy chunk where npgen accepts the body, else on
  the scalar Python chunk; non-float64 arrays run the Python chunk.  The
  run still succeeds, ``result.chunk_lang`` shows the rung, and only a
  failed build or bind counts as a chunk fallback;
* caching: one gcc invocation per kernel shape (content-addressed
  library), one dlopen per shape per process (``load_chunk_kernel``);
* codegen: coalesced rectangular recovery strength-reduces (odometer
  increments), anything else falls back to per-iteration recovery.

Everything that needs gcc is marked; without a compiler the equivalence
tests skip and the degradation tests still run (that path must never
require a compiler).
"""

import numpy as np
import pytest

from repro.analysis.doall import mark_doall
from repro.api import transform_function
from repro.codegen.cgen import (
    CGenError,
    NAIVE_MARKER,
    SR_MARKER,
    generate_chunk_c,
)
from repro.codegen.cload import (
    compile_chunk_library,
    have_compiler,
    load_chunk_kernel,
)
from repro.codegen.pygen import compile_procedure
from repro.frontend.dsl import parse
from repro.parallel import run_parallel_procedure
from repro.parallel.backend import MPCompiledProcedure
from repro.parallel.observe import DISPATCH
from repro.parallel.plan import chunk_lang
from repro.runtime.interp import Interpreter
from repro.transforms import coalesce_procedure
from repro.workloads import get_workload, make_env
from tests.parallel import pin_chunk_lang, run_one

needs_gcc = pytest.mark.skipif(not have_compiler(), reason="no gcc on PATH")


def _serial_baseline(workload, seed=0, scalars=None):
    arrays, sc = make_env(workload, scalars=scalars, seed=seed)
    baseline = {k: v.copy() for k, v in arrays.items()}
    compile_procedure(workload.proc).run(baseline, sc)
    return arrays, sc, baseline


def _assert_bit_for_bit(baseline, arrays):
    for name in baseline:
        np.testing.assert_array_equal(baseline[name], arrays[name])


FILL_SOURCE = """
procedure fill(A[2]; n, m)
  doall i = 1, n
    doall j = 1, m
      A(i, j) := i * 1000 + j
    end
  end
end
"""

TRI_SOURCE = """
procedure tri(A[2]; n)
  doall i = 1, n
    doall j = 1, i
      A(i, j) := float(i * 1000 + j)
    end
  end
end
"""


class TestEquivalence:
    """mp-C == mp-Python == serial, bit for bit."""

    @needs_gcc
    @pytest.mark.parametrize("name", ("matmul", "saxpy2d"))
    def test_rectangular_workloads(self, name, monkeypatch):
        w = get_workload(name)
        proc, _ = coalesce_procedure(w.proc)
        arrays_c, sc, baseline = _serial_baseline(w, seed=11)
        arrays_py = {k: v.copy() for k, v in arrays_c.items()}
        # seeds match: both parallel runs start from identical inputs
        for k in arrays_c:
            np.testing.assert_array_equal(arrays_c[k], arrays_py[k])

        r_c = run_one(proc, arrays_c, sc, workers=3)
        pin_chunk_lang(monkeypatch, "py")
        r_py = run_one(proc, arrays_py, sc, workers=3)
        assert r_c.chunk_lang == "c"
        assert r_py.chunk_lang == "py"
        _assert_bit_for_bit(baseline, arrays_c)
        _assert_bit_for_bit(baseline, arrays_py)

    @needs_gcc
    def test_gauss_jordan_hybrid(self):
        w = get_workload("gauss_jordan")
        proc, _ = coalesce_procedure(w.proc)
        arrays, sc, baseline = _serial_baseline(w, seed=5)
        result = run_parallel_procedure(proc, arrays, sc, workers=3)
        assert result.chunk_lang == "c"
        assert len(result.dispatches) > 1  # one per pivot row
        _assert_bit_for_bit(baseline, arrays)

    @needs_gcc
    def test_triangular_nest(self):
        proc = mark_doall(parse(TRI_SOURCE))
        coalesced, results = coalesce_procedure(proc, triangular=True)
        assert results
        n = 13
        arrays = {"A": np.zeros((n + 1, n + 1))}
        baseline = {"A": np.zeros((n + 1, n + 1))}
        compile_procedure(proc).run(baseline, {"n": n})
        result = run_one(coalesced, arrays, {"n": n}, workers=3)
        assert result.chunk_lang == "c"
        _assert_bit_for_bit(baseline, arrays)

    @needs_gcc
    def test_claim_batch_with_c_chunks(self):
        w = get_workload("matmul")
        proc, _ = coalesce_procedure(w.proc)
        arrays, sc, baseline = _serial_baseline(w, seed=2)
        result = run_one(
            proc, arrays, sc, workers=3, policy="unit", claim_batch=4,
        )
        assert result.chunk_lang == "c"
        assert result.lock_ops < result.claims
        _assert_bit_for_bit(baseline, arrays)


class TestFallbackLadder:
    """Every failure mode lands on a slower chunk language, run succeeding."""

    def test_no_compiler_resolves_to_numpy(self, compilerless):
        assert chunk_lang({"A": np.zeros(4)}) == "numpy"

    def test_invalid_lang_rejected(self):
        # The chunk language is derived, never requested: any value of
        # the retired option is an unknown keyword.
        proc = mark_doall(parse(TRI_SOURCE))
        with pytest.raises(TypeError, match="chunk_lang"):
            run_parallel_procedure(
                proc, {"A": np.zeros((4, 4))}, {"n": 3}, chunk_lang="fortran"
            )
        with pytest.raises(TypeError, match="chunk_lang"):
            MPCompiledProcedure(proc, chunk_lang="c")
        with pytest.raises(TypeError, match="chunk_lang"):
            transform_function(
                "def f(A, n):\n    for i in range(1, n + 1):\n"
                "        A[i] = 1.0\n",
                backend="mp", chunk_lang="py",
            )

    def test_no_compiler_run_degrades(self, compilerless):
        w = get_workload("saxpy2d")
        proc, _ = coalesce_procedure(w.proc)
        arrays, sc, baseline = _serial_baseline(w, seed=1)
        before = DISPATCH.chunk_fallbacks
        result = run_one(proc, arrays, sc, workers=2)
        # No compiler: the plan derives the vectorized numpy chunk
        # (saxpy2d passes the vectorization rules) — a rung, not a
        # fallback — and the run never fails.
        assert result.chunk_lang == "numpy"
        assert DISPATCH.chunk_fallbacks == before
        _assert_bit_for_bit(baseline, arrays)

    def test_int64_arrays_run_py_chunks_without_a_fallback(self):
        # The compiled and vectorized chunks are built for float64; any
        # other dtype derives the dtype-generic Python chunk, which is the
        # plan's choice, not a failure.
        proc, _ = coalesce_procedure(mark_doall(parse(FILL_SOURCE)))
        n, m = 9, 7
        arrays = {"A": np.zeros((n + 1, m + 1), dtype=np.int64)}
        want = {"A": arrays["A"].copy()}
        Interpreter().run(proc, want, {"n": n, "m": m})
        before = DISPATCH.chunk_fallbacks
        result = run_one(proc, arrays, {"n": n, "m": m}, workers=2)
        assert result.chunk_lang == "py"
        assert DISPATCH.chunk_fallbacks == before
        assert arrays["A"].dtype == np.int64
        np.testing.assert_array_equal(arrays["A"], want["A"])

    @needs_gcc
    def test_failed_kernel_build_runs_numpy(self, monkeypatch):
        # A gcc host whose kernel build fails steps down one rung, to the
        # whole-slice numpy chunk — not to the scalar Python chunk.
        def boom(*args, **kwargs):
            raise OSError("injected: the kernel does not build")

        monkeypatch.setattr("repro.parallel.runtime.compile_chunk_library", boom)
        w = get_workload("saxpy2d")
        proc, _ = coalesce_procedure(w.proc)
        arrays, sc = make_env(w, seed=6)
        want = {k: v.copy() for k, v in arrays.items()}
        Interpreter().run(w.proc, want, sc)
        before = DISPATCH.chunk_fallbacks
        result = run_one(proc, arrays, sc, workers=2)
        assert result.chunk_lang == "numpy"
        assert DISPATCH.chunk_fallbacks == before + 1
        _assert_bit_for_bit(want, arrays)

    @needs_gcc
    def test_codegen_failure_degrades(self, monkeypatch):
        def boom(*args, **kwargs):
            raise CGenError("injected codegen failure")

        monkeypatch.setattr("repro.parallel.runtime.generate_chunk_c", boom)
        w = get_workload("saxpy2d")
        proc, _ = coalesce_procedure(w.proc)
        arrays, sc, baseline = _serial_baseline(w, seed=1)
        before = DISPATCH.chunk_fallbacks
        result = run_one(proc, arrays, sc, workers=2)
        assert result.chunk_lang == "numpy"  # the rung below the kernel
        assert DISPATCH.chunk_fallbacks > before
        _assert_bit_for_bit(baseline, arrays)

    @needs_gcc
    def test_bad_c_source_degrades(self, monkeypatch):
        monkeypatch.setattr(
            "repro.parallel.runtime.generate_chunk_c",
            lambda *a, **k: "this is not C;",
        )
        w = get_workload("saxpy2d")
        proc, _ = coalesce_procedure(w.proc)
        arrays, sc, baseline = _serial_baseline(w, seed=4)
        before = DISPATCH.chunk_fallbacks
        result = run_one(proc, arrays, sc, workers=2)
        assert result.chunk_lang == "numpy"  # the rung below the kernel
        assert DISPATCH.chunk_fallbacks > before
        _assert_bit_for_bit(baseline, arrays)

    @needs_gcc
    def test_failure_memoized_once_per_run(self, monkeypatch):
        calls = []

        def boom(*args, **kwargs):
            calls.append(1)
            raise CGenError("injected")

        monkeypatch.setattr("repro.parallel.runtime.generate_chunk_c", boom)
        w = get_workload("gauss_jordan")
        proc, _ = coalesce_procedure(w.proc)
        arrays, sc, _ = _serial_baseline(w, seed=0)
        result = run_parallel_procedure(proc, arrays, sc, workers=2)
        assert "c" not in {d.chunk_lang for d in result.dispatches}
        # Hybrid Gauss–Jordan dispatches once per pivot row, but the
        # failed shape is memoized: one codegen attempt per distinct
        # (loop, scalar-types) key, not one per dispatch.
        assert len(calls) < len(result.dispatches)

    @needs_gcc
    def test_metrics_count_c_dispatches(self):
        w = get_workload("saxpy2d")
        proc, _ = coalesce_procedure(w.proc)
        arrays, sc, _ = _serial_baseline(w, seed=9)
        before = DISPATCH.chunk_c
        run_one(proc, arrays, sc, workers=2)
        assert DISPATCH.chunk_c > before
        assert "chunk_lang" in DISPATCH.as_dict()


class TestKernelCaching:
    """One gcc run per shape, one dlopen per shape per process."""

    @needs_gcc
    def test_compile_chunk_library_is_content_addressed(self):
        w = get_workload("matmul")
        proc, _ = coalesce_procedure(w.proc)
        source = generate_chunk_c(proc)
        so1, _hit1 = compile_chunk_library(source, "matmul__chunk")
        so2, hit2 = compile_chunk_library(source, "matmul__chunk")
        assert so1 == so2
        assert hit2  # second identical compile never invokes gcc

    @needs_gcc
    def test_load_chunk_kernel_is_memoized(self):
        w = get_workload("matmul")
        proc, _ = coalesce_procedure(w.proc)
        source = generate_chunk_c(proc)
        so, _ = compile_chunk_library(source, "matmul__chunk")
        sig = ("ptr", "long", "long") * 3 + ("long",)
        before = load_chunk_kernel.cache_info().hits
        fn1 = load_chunk_kernel(so, "matmul__chunk", sig)
        fn2 = load_chunk_kernel(so, "matmul__chunk", sig)
        assert fn1 is fn2
        assert load_chunk_kernel.cache_info().hits > before

    @needs_gcc
    def test_repeat_dispatch_reuses_kernel(self):
        w = get_workload("saxpy2d")
        proc, _ = coalesce_procedure(w.proc)
        arrays, sc, baseline = _serial_baseline(w, seed=3)
        source = generate_chunk_c(proc)
        run_one(proc, arrays, sc, workers=2)
        # The runtime's compile of the same shape must hit the artifact
        # cache entry the dispatch above published.
        _, hit = compile_chunk_library(source, f"{proc.name}__chunk")
        assert hit
        _assert_bit_for_bit(baseline, arrays)


class TestChunkCodegen:
    """Shape of the generated C, independent of execution."""

    def test_rectangular_recovery_strength_reduces(self):
        w = get_workload("matmul")
        proc, _ = coalesce_procedure(w.proc)
        source = generate_chunk_c(proc)
        assert SR_MARKER in source
        assert NAIVE_MARKER not in source

    def test_triangular_recovery_stays_per_iteration(self):
        proc = mark_doall(parse(TRI_SOURCE))
        coalesced, _ = coalesce_procedure(proc, triangular=True)
        source = generate_chunk_c(coalesced)
        assert SR_MARKER not in source
        assert NAIVE_MARKER in source

    def test_divmod_style_also_strength_reduces(self):
        w = get_workload("matmul")
        proc, _ = coalesce_procedure(w.proc, style="divmod")
        source = generate_chunk_c(proc)
        assert SR_MARKER in source

    def test_non_unit_step_rejected(self):
        proc = mark_doall(
            parse(
                """
                procedure strided(A[1]; n)
                  doall i = 1, n, 2
                    A(i) := 1.0
                  end
                end
                """
            )
        )
        with pytest.raises(CGenError, match="unit-step"):
            generate_chunk_c(proc)

    @needs_gcc
    def test_kernel_matches_python_chunk_directly(self):
        """ctypes call on plain ndarrays == the Python chunk, no mp."""
        import ctypes

        from repro.codegen.pygen import (
            compile_chunk_source,
            generate_chunk_source,
        )

        w = get_workload("matmul")
        proc, _ = coalesce_procedure(w.proc)
        arrays, sc = make_env(w, seed=8)
        arrays_py = {k: v.copy() for k, v in arrays.items()}

        n = sc["n"]
        flat = n * n
        source = generate_chunk_c(proc)
        so, _ = compile_chunk_library(source, f"{proc.name}__chunk")
        sig = ("ptr", "long", "long") * 3 + ("long",)
        fn = load_chunk_kernel(so, f"{proc.name}__chunk", sig)
        args = []
        for name in proc.arrays:
            a = arrays[name]
            args.append(a.ctypes.data_as(ctypes.POINTER(ctypes.c_double)))
            args.extend(int(d) for d in a.shape)
        fn(1, flat, *args, int(n))

        pyfn = compile_chunk_source(
            generate_chunk_source(proc), f"{proc.name}__chunk"
        )
        pyfn(1, flat, *[arrays_py[k] for k in proc.arrays], n)
        _assert_bit_for_bit(arrays_py, arrays)
