"""Every chunk language is bit-identical to serial, on every nest shape.

A plan derives what workers run for a claimed block: the C kernel
(``-O2``), the whole-slice numpy chunk or the generated Python chunk.
Each rung is pinned here (:func:`tests.parallel.pin_chunk_lang`) on
rectangular nests (matmul, saxpy2d), the hybrid Gauss–Jordan program and
a triangular nest, and must leave the caller's arrays exactly as the
serial build does.  A compiler-less host runs the ``c`` cases too: they
start from numpy, and bit-identity still holds.
"""

import numpy as np
import pytest

from repro.codegen.cload import have_compiler
from repro.codegen.pygen import compile_procedure
from repro.frontend.dsl import parse
from repro.parallel import run_parallel_procedure
from repro.transforms import coalesce_procedure
from repro.workloads import get_workload, make_env
from tests.parallel import pin_chunk_lang, run_one

LANGS = ("c", "numpy", "py")

TRI_SOURCE = """
procedure tri(A[2]; n)
  doall i = 1, n
    doall j = 1, i
      A(i, j) := float(i * 1000 + j)
    end
  end
end
"""


def _serial_baseline(workload, seed=0):
    arrays, sc = make_env(workload, seed=seed)
    baseline = {k: v.copy() for k, v in arrays.items()}
    compile_procedure(workload.proc).run(baseline, sc)
    return arrays, sc, baseline


def _assert_bit_for_bit(baseline, arrays):
    for name in baseline:
        np.testing.assert_array_equal(baseline[name], arrays[name])


def _ran(lang: str) -> str:
    """The language a pinned ``lang`` runs in on this host."""
    return "numpy" if lang == "c" and not have_compiler() else lang


@pytest.mark.parametrize("lang", LANGS)
@pytest.mark.parametrize("workload", ("matmul", "saxpy2d"))
def test_rectangular(workload, lang, monkeypatch):
    pin_chunk_lang(monkeypatch, lang)
    w = get_workload(workload)
    proc, _ = coalesce_procedure(w.proc)
    arrays, sc, baseline = _serial_baseline(w, seed=11)
    result = run_one(proc, arrays, sc, workers=2, policy="unit")
    _assert_bit_for_bit(baseline, arrays)
    assert result.chunk_lang == _ran(lang)  # the pinned language ran


@pytest.mark.parametrize("lang", LANGS)
def test_hybrid_gauss_jordan(lang, monkeypatch):
    pin_chunk_lang(monkeypatch, lang)
    w = get_workload("gauss_jordan")
    proc, _ = coalesce_procedure(w.proc)
    arrays, sc, baseline = _serial_baseline(w, seed=2)
    result = run_parallel_procedure(proc, arrays, sc, workers=2, policy="unit")
    assert result.dispatches
    _assert_bit_for_bit(baseline, arrays)


@pytest.mark.parametrize("lang", LANGS)
def test_triangular(lang, monkeypatch):
    pin_chunk_lang(monkeypatch, lang)
    proc0 = parse(TRI_SOURCE)
    proc, _ = coalesce_procedure(proc0, triangular=True)
    n = 13
    baseline = {"A": np.zeros((n + 1, n + 1))}
    compile_procedure(proc0).run(baseline, {"n": n})
    arrays = {"A": np.zeros((n + 1, n + 1))}
    result = run_one(proc, arrays, {"n": n}, workers=2, policy="unit")
    _assert_bit_for_bit(baseline, arrays)
    # npgen refuses the triangular recovery: numpy steps down to py.
    assert result.chunk_lang in (_ran(lang), "py")
