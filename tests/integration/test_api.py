"""Tests for the high-level decorator API."""

import re

import numpy as np
import pytest

from repro.api import coalesce_jit, transform_function
from repro.codegen.cload import have_compiler

SWEEP_SRC = """
def sweep(A, B, n, m):
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            B[i, j] = 2.0 * A[i, j]
"""


def _env(n=6, m=9, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n + 1, m + 1))
    b = np.zeros((n + 1, m + 1))
    return a, b


class TestTransformFunction:
    def test_runs_and_matches_semantics(self):
        tf = transform_function(SWEEP_SRC)
        a, b = _env()
        tf(a, b, 6, 9)
        np.testing.assert_array_equal(b[1:, 1:], 2.0 * a[1:, 1:])

    def test_coalesces_the_pair(self):
        tf = transform_function(SWEEP_SRC)
        assert len(tf.results) == 1
        assert tf.results[0].depth == 2
        assert "doall" in tf.loop_source

    def test_keyword_arguments(self):
        tf = transform_function(SWEEP_SRC)
        a, b = _env()
        tf(a, b, m=9, n=6)
        assert b[1, 1] == 2.0 * a[1, 1]

    def test_missing_argument(self):
        tf = transform_function(SWEEP_SRC)
        a, b = _env()
        with pytest.raises(TypeError, match="missing"):
            tf(a, b, 6)

    def test_unexpected_argument(self):
        tf = transform_function(SWEEP_SRC)
        a, b = _env()
        with pytest.raises(TypeError, match="unexpected"):
            tf(a, b, 6, 9, q=1)

    def test_duplicate_argument(self):
        tf = transform_function(SWEEP_SRC)
        a, b = _env()
        with pytest.raises(TypeError, match="duplicate"):
            tf(a, b, 6, n=6, m=9)

    def test_report_mentions_nest(self):
        tf = transform_function(SWEEP_SRC)
        text = tf.report()
        assert "1 nest(s) coalesced" in text
        assert "(i, j)" in text

    def test_generated_source_is_python(self):
        tf = transform_function(SWEEP_SRC)
        assert tf.generated_source.startswith("def sweep(")

    def test_divmod_style(self):
        tf = transform_function(SWEEP_SRC, style="divmod")
        assert "ceildiv" not in tf.loop_source
        a, b = _env()
        tf(a, b, 6, 9)
        np.testing.assert_array_equal(b[1:, 1:], 2.0 * a[1:, 1:])

    def test_false_prange_demoted(self):
        src = """
def rec(A, n):
    for i in prange(2, n + 1):
        A[i] = A[i - 1] + 1.0
"""
        tf = transform_function(src)
        assert "doall" not in tf.loop_source  # analyser demoted the claim
        a = np.zeros(9)
        tf(a, 8)
        np.testing.assert_array_equal(a[1:], np.arange(0, 8, dtype=float))

    def test_analysis_can_be_disabled(self):
        src = """
def claimed(A, n):
    for i in prange(1, n + 1):
        A[i] = A[i] + 1.0
"""
        tf = transform_function(src, analyze=False)
        assert "doall" in tf.loop_source  # claim taken at face value

    def test_unknown_backend(self):
        with pytest.raises(ValueError, match="backend"):
            transform_function(SWEEP_SRC, backend="fortran")

    @pytest.mark.skipif(not have_compiler(), reason="no gcc")
    def test_c_backend(self):
        tf = transform_function(SWEEP_SRC, backend="c")
        a, b = _env()
        tf(a, b, 6, 9)
        np.testing.assert_array_equal(b[1:, 1:], 2.0 * a[1:, 1:])
        assert "#pragma omp parallel for" in tf.generated_source


class TestDecorator:
    def test_bare_decorator(self):
        @coalesce_jit
        def scale(A, B, n):
            for i in range(1, n + 1):
                B[i] = A[i] * 3.0

        rng = np.random.default_rng(1)
        a = rng.standard_normal(8)
        b = np.zeros(8)
        scale(a, b, 7)
        np.testing.assert_array_equal(b[1:], 3.0 * a[1:])
        assert scale.__name__ == "scale"

    def test_decorator_with_options(self):
        @coalesce_jit(style="divmod")
        def sweep(A, B, n, m):
            for i in range(1, n + 1):
                for j in range(1, m + 1):
                    B[i, j] = A[i, j] + 1.0

        a, b = _env()
        sweep(a, b, 6, 9)
        np.testing.assert_array_equal(b[1:, 1:], a[1:, 1:] + 1.0)
        assert "ceildiv" not in sweep.loop_source

    def test_matmul_through_decorator(self):
        @coalesce_jit
        def matmul(A, B, C, n):
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    C[i, j] = 0.0
                    for k in range(1, n + 1):
                        C[i, j] = C[i, j] + A[i, k] * B[k, j]

        assert len(matmul.results) == 2  # distributed then both coalesced
        n = 7
        rng = np.random.default_rng(2)
        a = rng.standard_normal((n + 1, n + 1))
        b = rng.standard_normal((n + 1, n + 1))
        c_arr = np.zeros((n + 1, n + 1))
        matmul(a, b, c_arr, n)
        np.testing.assert_allclose(c_arr[1:, 1:], a[1:, 1:] @ b[1:, 1:])

    def test_called_form_keeps_its_options(self):
        from repro.parallel.backend import MPCompiledProcedure

        def sweep(A, B, n, m):
            for i in range(1, n + 1):
                for j in range(1, m + 1):
                    B[i, j] = 2.0 * A[i, j]

        tf = coalesce_jit(sweep, backend="mp", workers=2)
        assert isinstance(tf._backend, MPCompiledProcedure)
        assert tf._backend.workers == 2
        assert tf.__name__ == "sweep"
        a, b = _env()
        tf(a, b, 6, 9)
        np.testing.assert_array_equal(b[1:, 1:], 2.0 * a[1:, 1:])

    @pytest.mark.parametrize("options, error", [
        ({"backend": "mp", "claim_batch": 4}, ValueError),
        ({"claim_batch": 4}, TypeError),  # the python backend takes none
    ])
    def test_called_form_refuses_what_the_decorator_refuses(
        self, options, error
    ):
        def sweep(A, B, n, m):
            for i in range(1, n + 1):
                for j in range(1, m + 1):
                    B[i, j] = 2.0 * A[i, j]

        with pytest.raises(error) as decorated:
            coalesce_jit(**options)(sweep)
        with pytest.raises(error, match=re.escape(str(decorated.value))):
            coalesce_jit(sweep, **options)
