"""The chunk-safety verifier: de-coalescing, race scan, guard refutation.

The proof obligation is stated at the granularity the runtime actually
dispatches: workers claim blocks of the *flat* loop, so safety means no
two flat iterations conflict.  These tests check the whole chain — the
recovery recognizer reconstructs the virtual nest from coalesced code,
the Banerjee scan finds candidate direction vectors, the exact rational
refutation kills the infeasible ones — on every registered workload
(all must prove race-free, raw and coalesced, in both recovery styles)
and on the seeded racy counter-examples (each must be rejected with
exactly its intended rule code).
"""

import pytest

from repro.analysis.recovery import recognize_recovered_nest
from repro.analysis.safety import RULES, verify_procedure
from repro.frontend.dsl import parse
from repro.ir.builder import assign, block, c, doall, proc, ref, serial, v
from repro.ir.expr import Const, Var
from repro.transforms.coalesce import coalesce_procedure
from repro.transforms.normalize import normalize_procedure
from repro.workloads import RACY_WORKLOADS, WORKLOADS


def compile_like_backend(p, style="ceiling", triangular=False):
    """Normalize + coalesce with the claimed DOALL tags kept (analyze off)."""
    from repro.transforms.fission import fission_procedure

    q = normalize_procedure(p)
    q = fission_procedure(q, fission=False, distribute=True).procedure
    q, _ = coalesce_procedure(q, style=style, triangular=triangular)
    return q


SAFE = sorted(set(WORKLOADS) - {"floyd"})


class TestSafeWorkloads:
    @pytest.mark.parametrize("name", SAFE)
    def test_raw_workload_proven(self, name):
        report = verify_procedure(WORKLOADS[name]().proc)
        assert report.ok, report.format()

    @pytest.mark.parametrize("name", SAFE)
    @pytest.mark.parametrize("style", ["ceiling", "divmod"])
    def test_coalesced_workload_proven(self, name, style):
        p = compile_like_backend(WORKLOADS[name]().proc, style=style)
        report = verify_procedure(p)
        assert report.ok, report.format()

    def test_report_shape_and_by_id(self):
        p = compile_like_backend(WORKLOADS["matmul"]().proc)
        report = verify_procedure(p)
        assert report.loops, "matmul must have a dispatchable loop"
        assert set(report.by_id.values()) == set(report.loops)
        for verdict in report.loops:
            assert verdict.shape in ("rectangular", "triangular-exact", "direct")


class TestRacyWorkloads:
    EXPECTED = {
        "racy_flow": "RACE001",
        "racy_overlap": "RACE002",
        "racy_scalar": "PRIV002",
    }

    @pytest.mark.parametrize("name", sorted(RACY_WORKLOADS))
    def test_raw_rejected_with_rule(self, name):
        report = verify_procedure(RACY_WORKLOADS[name]().proc)
        assert not report.ok
        codes = {f.rule for f in report.findings}
        assert self.EXPECTED[name] in codes, report.format()

    @pytest.mark.parametrize("name", sorted(RACY_WORKLOADS))
    def test_coalesced_rejected_with_rule(self, name):
        p = compile_like_backend(RACY_WORKLOADS[name]().proc)
        report = verify_procedure(p)
        assert not report.ok
        codes = {f.rule for f in report.findings}
        assert self.EXPECTED[name] in codes, report.format()

    def test_findings_carry_metadata(self):
        report = verify_procedure(RACY_WORKLOADS["racy_flow"]().proc)
        (finding,) = [f for f in report.findings if f.rule == "RACE001"]
        assert finding.severity == "error"
        assert finding.rule in RULES
        assert finding.array == "A"
        assert finding.directions is not None
        assert finding.hint
        d = finding.to_dict()
        assert d["rule"] == "RACE001" and d["loop"] == finding.loop_var


class TestGuardRefutation:
    def test_gauss_pivot_guard_proves_disjoint(self):
        """The i != j guard is what makes the elimination DOALL legal."""
        p = WORKLOADS["gauss_jordan"]().proc
        assert verify_procedure(p).ok

    def test_without_guard_same_body_is_racy(self):
        src = """
procedure unguarded(AB[2]; n, i)
  doall j = 1, n
    AB(j, n) := AB(j, n) - AB(i, n)
  end
end
"""
        # Reading row i while every j (including j = i) rewrites it: the
        # verifier must not invent the missing guard.
        report = verify_procedure(parse(src))
        assert not report.ok
        assert {f.rule for f in report.findings} & {"RACE001", "RACE003"}

    def test_guarded_version_is_proven(self):
        src = """
procedure guarded(AB[2]; n, i)
  doall j = 1, n
    if j != i then
      AB(j, n) := AB(j, n) - AB(i, n)
    end
  end
end
"""
        report = verify_procedure(parse(src))
        assert report.ok, report.format()


class TestTriangular:
    def _triangle(self):
        return proc(
            "tri",
            doall("i", 1, v("n"))(
                doall("j", 1, v("i"))(
                    assign(ref("T", v("i"), v("j")), v("i") * 100 + v("j"))
                )
            ),
            arrays={"T": 2},
            scalars=("n",),
        )

    def test_triangular_exact_recognized_and_proven(self):
        p = compile_like_backend(self._triangle(), triangular=True)
        report = verify_procedure(p)
        assert report.ok, report.format()
        shapes = {vd.shape for vd in report.loops}
        assert "triangular-exact" in shapes or "rectangular" in shapes

    def test_racy_triangular_body_flagged(self):
        racy = proc(
            "tri_racy",
            doall("i", 1, v("n"))(
                doall("j", 1, v("i"))(
                    # Column-only subscript: rows collide across i.
                    assign(ref("T", v("j")), v("i") * 100 + v("j"))
                )
            ),
            arrays={"T": 1},
            scalars=("n",),
        )
        p = compile_like_backend(racy, triangular=True)
        report = verify_procedure(p)
        assert not report.ok
        assert "RACE002" in {f.rule for f in report.findings}


class TestRecoveryRecognition:
    @pytest.mark.parametrize("style", ["ceiling", "divmod"])
    def test_rectangular_recovery_recognized(self, style):
        p = compile_like_backend(WORKLOADS["saxpy2d"]().proc, style=style)
        loop = p.body.stmts[0]
        nest = recognize_recovered_nest(loop, set(p.scalars))
        assert nest.shape == "rectangular"
        assert len(nest.index_vars) == 2

    def test_uncoalesced_loop_is_direct(self):
        p = proc(
            "plain",
            doall("i", 1, v("n"))(assign(ref("A", v("i")), c(1.0))),
            arrays={"A": 1},
            scalars=("n",),
        )
        loop = p.body.stmts[0]
        nest = recognize_recovered_nest(loop, {"n"})
        assert nest.shape == "direct"
        assert nest.index_vars == ("i",)
        assert nest.bounds == (Var("n"),)

    def test_recovery_reconstructs_constant_outer_bound(self):
        src = """
procedure k(A[2])
  doall i = 1, 4
    doall j = 1, 8
      A(i, j) := 1.0
    end
  end
end
"""
        from repro.analysis.safety import _virtual_levels

        p = compile_like_backend(parse(src))
        loop = p.body.stmts[0]
        nest = recognize_recovered_nest(loop, set())
        assert nest.shape == "rectangular"
        assert nest.bounds[1] == Const(8)
        # The outer wrap bound never appears in recovery code; the verifier
        # reconstructs it from the flat trip count (32 / 8 = 4).
        levels = _virtual_levels(loop, nest)
        assert levels[0].upper == Const(4)
        assert levels[1].upper == Const(8)


class TestConservatism:
    def test_non_affine_subscript_assumed_racy(self):
        src = """
procedure indirect(A[1], P[1]; n)
  doall i = 1, n
    A(P(i)) := 1.0
  end
end
"""
        report = verify_procedure(parse(src))
        assert not report.ok
        finding = next(f for f in report.findings if f.rule == "RACE002")
        assert not finding.exact  # assumed, not proven

    def test_serial_loops_not_audited(self):
        p = proc(
            "serial_only",
            serial("i", 2, v("n"))(
                assign(ref("A", v("i")), ref("A", v("i") - c(1)))
            ),
            arrays={"A": 1},
            scalars=("n",),
        )
        report = verify_procedure(p)
        assert report.ok
        assert not report.loops  # nothing dispatchable, nothing to prove

    def test_read_only_shared_scalars_allowed(self):
        p = proc(
            "scaled",
            doall("i", 1, v("n"))(
                assign(ref("A", v("i")), v("alpha") * ref("B", v("i")))
            ),
            arrays={"A": 1, "B": 1},
            scalars=("n", "alpha"),
        )
        assert verify_procedure(p).ok

    def test_hybrid_outer_serial_inner_doall(self):
        # The gauss shape: dispatchable loop under a serial pivot loop is
        # audited once, with the pivot variable treated as a parameter.
        p = proc(
            "hybrid",
            block(
                serial("k", 1, v("n"))(
                    doall("i", 1, v("n"))(
                        assign(ref("A", v("i"), v("k")), v("k") * 1.0)
                    )
                )
            ),
            arrays={"A": 2},
            scalars=("n",),
        )
        report = verify_procedure(p)
        assert report.ok
        assert len(report.loops) == 1
