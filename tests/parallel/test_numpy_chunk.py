"""Whole-slice numpy chunks (the ``"numpy"`` chunk language).

The rung below the C kernel: workers execute claimed flat-index blocks
as vectorized numpy slice assignments instead of interpreted per-iteration
chunks.  These tests pin the contract (on a host the ``compilerless``
fixture hides gcc from):

* bit-for-bit equivalence with the serial interpreter on every shape the
  generator accepts (rectangular recoveries, stencils with nested affine
  subscripts), with ``result.chunk_lang == "numpy"`` proving the vectorized
  path actually ran;
* hybrid programs step down per dispatch: Gauss–Jordan's pivot-row shapes
  refuse vectorization (loop-carried reads) and run ``py`` — the ladder,
  not a fallback — and the run still matches serial exactly;
* refusals are loud at the codegen layer (``NumpyGenError`` for gather /
  scatter subscripts) and quiet at the dispatch layer;
* the derived language prefers numpy over py when no C compiler is on
  PATH.
"""

import numpy as np
import pytest

from repro.codegen.npgen import NumpyGenError, generate_chunk_numpy
from repro.codegen.pygen import compile_procedure
from repro.parallel import run_parallel_procedure
from repro.parallel.observe import DISPATCH
from repro.parallel.plan import chunk_lang
from repro.runtime.interp import Interpreter
from repro.transforms import coalesce_procedure
from repro.workloads import WORKLOADS, get_workload, make_env
from tests.parallel import run_one, safety_for


#: What each registry workload's dispatches run without a compiler: numpy
#: where npgen accepts the dispatched loop, py elsewhere (calc_pi's
#: derived reduction loop, floyd's relaxation, gauss_jordan's pivot row).
COMPILERLESS_LANGS = {
    "matmul": {"numpy"},
    "saxpy2d": {"numpy"},
    "jacobi2d": {"numpy"},
    "stencil3d": {"numpy"},
    "calc_pi": {"py"},
    "floyd": {"py"},
    "gauss_jordan": {"numpy", "py"},
}


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
    def test_doall_workloads(self, name, compilerless):
        w = get_workload(name)
        proc, _ = coalesce_procedure(w.proc)
        arrays, sc, baseline = _serial_baseline(w, seed=5)
        result = run_one(proc, arrays, sc, workers=2, policy="unit")
        _assert_bit_for_bit(baseline, arrays)
        assert result.chunk_lang == "numpy"

    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_every_registry_workload(self, name, compilerless):
        assert set(COMPILERLESS_LANGS) == set(WORKLOADS)
        w = get_workload(name)
        proc, _ = coalesce_procedure(w.proc)
        arrays, sc = make_env(w, seed=3)
        want = {k: v.copy() for k, v in arrays.items()}
        Interpreter().run(w.proc, want, dict(sc))
        before = DISPATCH["chunk_lang"]["fallbacks"]
        result = run_parallel_procedure(
            proc, arrays, sc, workers=2, safety=safety_for(name)
        )
        assert {d.chunk_lang for d in result.dispatches} == COMPILERLESS_LANGS[name]
        assert DISPATCH["chunk_lang"]["fallbacks"] == before
        _assert_bit_for_bit(want, arrays)

    def test_hybrid_gauss_degrades_per_dispatch(self, compilerless):
        # Pivot-row elimination reads the pivot row while writing others:
        # npgen refuses the shape, the dispatch runs interpreted chunks,
        # and the arithmetic still matches serial bit for bit.  Stepping
        # down the ladder is not a fallback: nothing failed.
        w = get_workload("gauss_jordan")
        proc, _ = coalesce_procedure(w.proc)
        arrays, sc, baseline = _serial_baseline(w, seed=1)
        before = DISPATCH["chunk_lang"]["fallbacks"]
        result = run_parallel_procedure(
            proc, arrays, sc, workers=2, policy="unit"
        )
        assert "py" in {d.chunk_lang for d in result.dispatches}
        _assert_bit_for_bit(baseline, arrays)
        assert DISPATCH["chunk_lang"]["fallbacks"] == before


class TestRefusals:
    def test_gather_scatter_raises(self):
        # histogram's H(int(K(i))) subscript is a scatter — vectorizing it
        # with slice assignment would collapse duplicate keys.
        w = get_workload("histogram")
        with pytest.raises(NumpyGenError):
            generate_chunk_numpy(w.proc)


class TestResolution:
    def test_auto_prefers_numpy_without_compiler(self, compilerless):
        assert chunk_lang({"A": np.zeros(3), "B": np.zeros((2, 2))}) == "numpy"
        assert chunk_lang({"A": np.zeros(3, dtype=np.int64)}) == "py"
