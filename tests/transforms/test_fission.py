"""SCC-driven loop fission (:mod:`repro.transforms.fission`)."""

import numpy as np

from repro.frontend.dsl import parse
from repro.runtime.interp import run
from repro.transforms.fission import fission_loop, fission_procedure
from repro.workloads import make_env, mixed_antidep, mixed_update

from tests.equivalence import assert_equivalent


def interp_env(proc, n=24, seed=3):
    rng = np.random.default_rng(seed)
    arrays = {
        name: np.rint(rng.standard_normal(n + 1) * 8.0)
        for name in proc.arrays
    }
    return arrays, {"n": n}


def assert_same_semantics(p, q, n=24):
    a1, sc = interp_env(p, n)
    a2 = {k: v.copy() for k, v in a1.items()}
    run(p, a1, dict(sc))
    run(q, a2, dict(sc))
    for name in a1:
        np.testing.assert_array_equal(a1[name], a2[name])


class TestFissionApplied:
    def test_mixed_update_splits_into_doall_and_serial(self):
        w = mixed_update()
        res = fission_procedure(w.proc)
        assert res.applied == 1 and res.refused == 0
        kinds = {p.kind for p in res.outcomes[0].pieces}
        assert kinds == {"doall", "serial"}
        loops = res.procedure.body.stmts
        assert len(loops) == 2
        assert sorted(lp.is_doall for lp in loops) == [False, True]

    def test_mixed_update_semantics_preserved(self):
        w = mixed_update()
        res = fission_procedure(w.proc)
        assert_same_semantics(w.proc, res.procedure)

    def test_topological_order_preserves_flow(self):
        # S1 consumes S0's output in the same iteration: both pieces are
        # DOALL but the producer loop must come first.
        p = parse(
            """
            procedure chainf(A[1], B[1], C[1]; n)
              for i = 1, n
                B(i) := A(i) + 1.0
                C(i) := B(i) * 2.0
              end
            end
            """
        )
        res = fission_procedure(p)
        assert res.applied == 1
        loops = res.procedure.body.stmts
        assert [lp.is_doall for lp in loops] == [True, True]
        first_targets = {
            s.target.name for s in loops[0].body.stmts
        }
        assert first_targets == {"B"}
        assert_same_semantics(p, res.procedure)

    def test_finding_is_fiss001_with_statement_indices(self):
        res = fission_procedure(mixed_update().proc)
        (f,) = res.findings
        assert f.rule == "FISS001" and f.severity == "info"
        assert f.src_stmt is not None and f.dst_stmt is not None
        assert "DOALL" in f.message


class TestFissionRefused:
    def test_antidep_cycle_refused_with_fiss002(self):
        w = mixed_antidep()
        res = fission_procedure(w.proc)
        assert res.applied == 0 and res.refused == 1
        (f,) = res.findings
        assert f.rule == "FISS002"
        assert f.src_stmt is not None and f.dst_stmt is not None
        assert f.directions, "the blocking edge must carry directions"
        assert "dependence" in f.message

    def test_refusal_leaves_loop_intact(self):
        w = mixed_antidep()
        res = fission_procedure(w.proc)
        assert len(res.procedure.body.stmts) == 1
        assert not res.procedure.body.stmts[0].is_doall
        assert_same_semantics(w.proc, res.procedure)

    def test_scalar_cycle_through_two_statements_refused(self):
        p = parse(
            """
            procedure chain(A[1]; n, s, t)
              for i = 1, n
                t := s + A(i)
                s := t * 2.0
              end
            end
            """
        )
        res = fission_procedure(p)
        assert res.applied == 0 and res.refused == 1
        assert res.findings[0].rule == "FISS002"


class TestFissionScope:
    def test_doall_loops_left_alone(self):
        p = parse(
            """
            procedure ok(A[1], B[1], C[1]; n)
              doall i = 1, n
                B(i) := A(i) + 1.0
                C(i) := A(i) * 2.0
              end
            end
            """
        )
        res = fission_procedure(p)
        assert not res.outcomes
        assert res.procedure == p

    def test_single_statement_serial_not_attempted(self):
        p = parse(
            """
            procedure one(C[1], A[1]; n)
              for i = 1, n
                C(i) := C(i - 1) + A(i)
              end
            end
            """
        )
        res = fission_procedure(p)
        assert not res.outcomes

    def test_fission_loop_returns_outcome_record(self):
        w = mixed_update()
        loops, outcome = fission_loop(w.proc.body.stmts[0])
        assert outcome.applied and len(loops) == 2


class TestFissionEndToEnd:
    def test_mixed_update_matches_reference_after_fission(self):
        w = mixed_update()
        arrays, sc = make_env(w)
        expect = {k: v.copy() for k, v in arrays.items()}
        w.reference(expect, sc)
        res = fission_procedure(w.proc)
        run(res.procedure, arrays, dict(sc))
        for name in arrays:
            np.testing.assert_array_equal(arrays[name], expect[name])


class TestOneWalk:
    SOURCE = """
        procedure inside(A[2], B[2], C[2]; n)
          doall i = 1, n
            for j = 2, n
              B(i, j) := A(i, j) + 1.0
              C(i, j) := C(i, j - 1) + 1.0
            end
          end
        end
        """

    def test_recovery_stays_out_of_doall_bodies(self):
        p = parse(self.SOURCE)
        res = fission_procedure(p, reduction=True)
        assert not res.outcomes and not res.reductions
        assert res.procedure == p

    def test_distribution_splits_inside_doall_bodies_bottom_up(self):
        p = parse(self.SOURCE)
        res = fission_procedure(p, reduction=True, distribute=True)
        assert not res.outcomes and not res.reductions
        loops = res.procedure.body.stmts
        assert [lp.is_doall for lp in loops] == [True, True]
        assert all(not lp.body.stmts[0].is_doall for lp in loops)
        sizes = {name: (9, 9) for name in "ABC"}
        assert_equivalent(p, res.procedure, sizes, {"n": 8})

    def test_sections_follow_the_selected_passes(self):
        w = mixed_update()
        assert [s for s, _ in fission_procedure(w.proc).sections()] == [
            "fission: 1 loop(s) split, 0 refused"
        ]
        both = fission_procedure(w.proc, reduction=True)
        assert [s for s, _ in both.sections()] == [
            "fission: 1 loop(s) split, 0 refused",
            "reduction: 0 loop(s) recognized",
        ]
        only = fission_procedure(w.proc, fission=False, reduction=True)
        assert [s for s, _ in only.sections()] == [
            "reduction: 0 loop(s) recognized"
        ]
