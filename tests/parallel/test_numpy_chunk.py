"""Whole-slice numpy chunk kernels (``chunk_lang="numpy"``).

The compiler-less-host chunk language: workers execute claimed flat-index blocks
as vectorized numpy slice assignments instead of interpreted per-iteration
chunks.  These tests pin the contract:

* bit-for-bit equivalence with the serial interpreter on every shape the
  generator accepts (rectangular recoveries, stencils with nested affine
  subscripts), with ``result.chunk_lang == "numpy"`` proving the vectorized
  path actually ran;
* hybrid programs degrade per-dispatch: Gauss–Jordan's pivot-row shapes
  refuse vectorization (loop-carried reads), fall back to ``py``, count a
  fallback — and the run still matches serial exactly;
* refusals are loud at the codegen layer (``NumpyGenError`` for gather /
  scatter subscripts) and quiet at the dispatch layer;
* ``chunk_lang`` auto-resolution prefers numpy over py when no C compiler
  is on PATH.
"""

import numpy as np
import pytest

from repro.codegen.npgen import NumpyGenError, generate_chunk_numpy
from repro.codegen.pygen import compile_procedure
from repro.parallel import run_parallel_procedure
from repro.parallel.observe import DISPATCH
from repro.parallel.runtime import resolve_chunk_lang
from repro.transforms import coalesce_procedure
from repro.workloads import get_workload, make_env
from tests.parallel import run_one


def _serial_baseline(workload, seed=0):
    arrays, sc = make_env(workload, seed=seed)
    baseline = {k: v.copy() for k, v in arrays.items()}
    compile_procedure(workload.proc).run(baseline, sc)
    return arrays, sc, baseline


def _assert_bit_for_bit(baseline, arrays):
    for name in baseline:
        np.testing.assert_array_equal(baseline[name], arrays[name])


class TestEquivalence:
    @pytest.mark.parametrize(
        "name", ("matmul", "saxpy2d", "jacobi2d", "stencil3d")
    )
    def test_doall_workloads(self, name):
        w = get_workload(name)
        proc, _ = coalesce_procedure(w.proc)
        arrays, sc, baseline = _serial_baseline(w, seed=5)
        result = run_one(
            proc, arrays, sc, workers=2, policy="unit", chunk_lang="numpy",
        )
        _assert_bit_for_bit(baseline, arrays)
        assert result.chunk_lang == "numpy"

    def test_hybrid_gauss_degrades_per_dispatch(self):
        # Pivot-row elimination reads the pivot row while writing others:
        # npgen refuses the shape, the dispatch falls back to interpreted
        # chunks, and the arithmetic still matches serial bit for bit.
        w = get_workload("gauss_jordan")
        proc, _ = coalesce_procedure(w.proc)
        arrays, sc, baseline = _serial_baseline(w, seed=1)
        before = DISPATCH.chunk_fallbacks
        result = run_parallel_procedure(
            proc, arrays, sc, workers=2, policy="unit", chunk_lang="numpy",
        )
        assert result.dispatches
        _assert_bit_for_bit(baseline, arrays)
        assert DISPATCH.chunk_fallbacks > before


class TestRefusals:
    def test_gather_scatter_raises(self):
        # histogram's H(int(K(i))) subscript is a scatter — vectorizing it
        # with slice assignment would collapse duplicate keys.
        w = get_workload("histogram")
        with pytest.raises(NumpyGenError):
            generate_chunk_numpy(w.proc)


class TestResolution:
    def test_explicit_numpy_resolves(self):
        assert resolve_chunk_lang("numpy") == "numpy"

    def test_auto_prefers_numpy_without_compiler(self, monkeypatch):
        monkeypatch.setattr(
            "repro.parallel.runtime.have_compiler", lambda: False
        )
        assert resolve_chunk_lang(None) == "numpy"
        assert resolve_chunk_lang("auto") == "numpy"
