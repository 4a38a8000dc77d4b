"""The variant catalog: availability probing and forced-variant dispatch.

Pins the farm's contract:

* the catalog is well-formed and lookups behave;
* availability is probed, never assumed — every C variant vanishes on
  compiler-less hosts;
* **every** variant available on this host produces bit-identical
  results to the serial interpreter when forced
  (``variants=[name], calibrate=False``) — on rectangular, hybrid
  (Gauss–Jordan), and triangular nests.

The equivalence tests enumerate ``available_variants()`` at collection
time, so a compiler-less host simply runs fewer parametrizations —
nothing skips spuriously.
"""

import numpy as np
import pytest

from repro.codegen.cload import have_compiler
from repro.codegen.pygen import compile_procedure
from repro.frontend.dsl import parse
from repro.parallel import run_parallel_doall, run_parallel_procedure
from repro.transforms import coalesce_procedure
from repro.tuning.variants import (
    VARIANTS,
    available_variants,
    default_variant,
    variant_by_name,
)
from repro.workloads import get_workload, make_env

AVAILABLE = [v.name for v in available_variants("auto")]


def _serial_baseline(workload, seed=0):
    arrays, sc = make_env(workload, seed=seed)
    baseline = {k: v.copy() for k, v in arrays.items()}
    compile_procedure(workload.proc).run(baseline, sc)
    return arrays, sc, baseline


def _assert_bit_for_bit(baseline, arrays):
    for name in baseline:
        np.testing.assert_array_equal(baseline[name], arrays[name])


class TestCatalog:
    def test_names_unique_and_lookup_roundtrips(self):
        names = [v.name for v in VARIANTS]
        assert len(names) == len(set(names))
        for v in VARIANTS:
            assert variant_by_name(v.name) is v

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown variant"):
            variant_by_name("tcc-O9")
        with pytest.raises(ValueError, match="unknown variant"):
            available_variants("auto", names="gcc-O2,bogus")

    def test_name_normalization(self):
        comma = available_variants("auto", names="py, numpy")
        listed = available_variants("auto", names=["py", "numpy"])
        assert [v.name for v in comma] == [v.name for v in listed]
        assert [v.name for v in available_variants("auto", names="all")] == (
            AVAILABLE
        )

    def test_to_dict_carries_build_flags(self):
        d = variant_by_name("gcc-O3").to_dict()
        assert d == {
            "name": "gcc-O3", "lang": "c", "cc": "gcc", "optimize": "-O3",
        }


class TestAvailability:
    def test_lang_restricts_like_chunk_lang(self):
        assert all(v.lang == "py" for v in available_variants("py"))
        assert all(v.lang != "c" for v in available_variants("numpy"))
        assert all(v.lang == "c" for v in available_variants("c"))

    def test_explicit_names_override_lang(self):
        # --variants numpy must force the numpy build even when the
        # resolved chunk language is "c".
        got = available_variants("c", names=["numpy"])
        assert [v.name for v in got] == ["numpy"]

    def test_unavailable_compiler_variants_drop(self, monkeypatch):
        # A pinned gcc decision on a compiler-less host is silently
        # dropped, never an error.
        monkeypatch.setattr(
            "repro.tuning.variants.have_compiler",
            lambda cc="gcc": False,
        )
        assert available_variants("auto", names=["gcc-O3"]) == []

    def test_no_compiler_host_keeps_a_farm(self, monkeypatch):
        monkeypatch.setattr(
            "repro.tuning.variants.have_compiler",
            lambda cc="gcc": False,
        )
        names = [v.name for v in available_variants("auto")]
        assert names == ["numpy", "py"]
        assert default_variant("c").name == "py"

    def test_default_variant_is_the_prefarm_build(self):
        if have_compiler():
            assert default_variant("c").name == "gcc-O2"
        assert default_variant("numpy").name == "numpy"
        assert default_variant("py").name == "py"


TRI_SOURCE = """
procedure tri(A[2]; n)
  doall i = 1, n
    doall j = 1, i
      A(i, j) := float(i * 1000 + j)
    end
  end
end
"""


class TestForcedVariantEquivalence:
    """Every available build is bit-identical to serial when forced."""

    @pytest.mark.parametrize("name", AVAILABLE)
    @pytest.mark.parametrize("workload", ("matmul", "saxpy2d"))
    def test_rectangular(self, workload, name):
        w = get_workload(workload)
        proc, _ = coalesce_procedure(w.proc)
        arrays, sc, baseline = _serial_baseline(w, seed=11)
        result = run_parallel_doall(
            proc, arrays, sc, workers=2, policy="unit",
            variants=[name], calibrate=False,
        )
        _assert_bit_for_bit(baseline, arrays)
        assert result.variant == name  # the forced build actually ran

    @pytest.mark.parametrize("name", AVAILABLE)
    def test_hybrid_gauss_jordan(self, name):
        w = get_workload("gauss_jordan")
        proc, _ = coalesce_procedure(w.proc)
        arrays, sc, baseline = _serial_baseline(w, seed=2)
        result = run_parallel_procedure(
            proc, arrays, sc, workers=2, policy="unit",
            variants=[name], calibrate=False,
        )
        assert result.dispatches
        _assert_bit_for_bit(baseline, arrays)

    @pytest.mark.parametrize("name", AVAILABLE)
    def test_triangular(self, name):
        proc0 = parse(TRI_SOURCE)
        proc, _ = coalesce_procedure(proc0, triangular=True)
        n = 13
        baseline = {"A": np.zeros((n + 1, n + 1))}
        compile_procedure(proc0).run(baseline, {"n": n})
        arrays = {"A": np.zeros((n + 1, n + 1))}
        run_parallel_doall(
            proc, arrays, {"n": n}, workers=2, policy="unit",
            variants=[name], calibrate=False,
        )
        _assert_bit_for_bit(baseline, arrays)
