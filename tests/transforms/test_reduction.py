"""Reduction recognition and parallel dispatch (the ``reduction`` pass
of :mod:`repro.transforms.fission` + the runtime combine)."""

import numpy as np
import pytest

from repro.analysis.safety import verify_procedure
from repro.frontend.dsl import parse
from repro.parallel import run_parallel_procedure
from repro.runtime.interp import run
from repro.transforms.fission import fission_procedure
from repro.workloads import dot_product, guarded_sum, make_env


def retag_reductions(proc):
    """The loop-splitting walk with only the reduction pass selected."""
    return fission_procedure(proc, fission=False, reduction=True)


class TestRetagging:
    def test_dot_product_loop_retagged_doall(self):
        w = dot_product()
        res = retag_reductions(w.proc)
        assert res.recognized == 1
        assert res.procedure.body.stmts[0].is_doall

    def test_guarded_accumulator_recognized(self):
        w = guarded_sum()
        res = retag_reductions(w.proc)
        assert res.recognized == 1
        out = res.reductions[0]
        assert out.reduction.guard is not None
        assert out.reduction.scalar == "s"

    def test_red001_finding_names_the_scalar(self):
        res = retag_reductions(dot_product().proc)
        (f,) = res.findings
        assert f.rule == "RED001" and f.severity == "info"
        assert f.scalar == "s"

    @pytest.mark.parametrize("workload", [dot_product, guarded_sum])
    def test_red001_is_the_verifiers_finding(self, workload):
        """The pass and the verifier report one RED001, word for word."""
        res = fission_procedure(workload().proc, reduction=True)
        (ours,) = [f for f in res.findings if f.rule == "RED001"]
        (theirs,) = [
            f
            for loop in verify_procedure(res.procedure).loops
            for f in loop.findings
            if f.rule == "RED001"
        ]
        fields = ("rule", "message", "hint", "scalar")
        assert [getattr(ours, k) for k in fields] == [
            getattr(theirs, k) for k in fields
        ]

    def test_non_reduction_serial_loop_untouched(self):
        p = parse(
            """
            procedure rec(C[1], A[1]; n)
              for i = 1, n
                C(i) := C(i - 1) + A(i)
              end
            end
            """
        )
        res = retag_reductions(p)
        assert res.recognized == 0
        assert res.procedure == p

    def test_existing_doall_untouched(self):
        p = parse(
            """
            procedure ok(A[1], B[1]; n)
              doall i = 1, n
                B(i) := A(i) + 1.0
              end
            end
            """
        )
        res = retag_reductions(p)
        assert res.recognized == 0 and res.procedure == p


class TestVerifierAgreement:
    def test_retagged_loop_verifies_with_red001(self):
        res = retag_reductions(dot_product().proc)
        report = verify_procedure(res.procedure)
        assert report.ok
        rules = {f.rule for f in report.findings}
        assert "RED001" in rules and "PRIV002" not in rules
        assert any(
            getattr(lp, "reduction", None) == "s" for lp in report.loops
        )

    def test_unrecognized_accumulator_still_blocks(self):
        # Claiming DOALL by hand on a non-commutative update must stay
        # fatal: RED001 is only granted to the recognized idiom.
        p = parse(
            """
            procedure bad(A[1]; n, s)
              doall i = 1, n
                s := s - A(i)
              end
            end
            """
        )
        report = verify_procedure(p)
        assert not report.ok
        assert "PRIV002" in {f.rule for f in report.findings}


def _serial_result(w):
    arrays, sc = make_env(w)
    run(w.proc, arrays, dict(sc))
    return arrays, sc


class TestParallelDispatch:
    @pytest.mark.parametrize("factory", [dot_product, guarded_sum])
    def test_bit_identical_to_serial(self, factory):
        w = factory()
        expect, sc = _serial_result(w)
        res = retag_reductions(w.proc)
        arrays, _ = make_env(w)
        out = run_parallel_procedure(
            res.procedure, arrays, sc, workers=3
        )
        assert len(out.dispatches) >= 1
        assert out.reductions == 1
        np.testing.assert_array_equal(arrays["R"], expect["R"])

    def test_deterministic_across_worker_counts(self):
        w = dot_product()
        res = retag_reductions(w.proc)
        values = []
        for workers in (1, 2, 5):
            arrays, sc = make_env(w)
            run_parallel_procedure(
                res.procedure, arrays, sc, workers=workers
            )
            values.append(arrays["R"][1])
        assert values[0] == values[1] == values[2]

    def test_matches_numpy_reference(self):
        w = guarded_sum()
        arrays, sc = make_env(w)
        expect = {k: v.copy() for k, v in arrays.items()}
        w.reference(expect, sc)
        res = retag_reductions(w.proc)
        run_parallel_procedure(
            res.procedure, arrays, sc, workers=4
        )
        np.testing.assert_array_equal(arrays["R"], expect["R"])
