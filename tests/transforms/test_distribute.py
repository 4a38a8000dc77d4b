"""Loop distribution: the ``distribute`` pass of the loop-splitting walk
(:mod:`repro.transforms.fission`)."""

import pytest

from repro.analysis.pdg import build_pdg
from repro.frontend.dsl import parse
from repro.ir import validate
from repro.ir.builder import assign, c, doall, proc, ref, serial, v
from repro.ir.visitor import collect_loops
from repro.transforms.coalesce import coalesce_procedure
from repro.transforms.fission import fission_loop, fission_procedure

from tests.equivalence import assert_equivalent


def distribute(loop):
    """Split one loop along its SCCs, every piece keeping its kind."""
    return fission_loop(loop, retag=False)[0]


def distribute_all(proc):
    """The loop-splitting walk with only distribution selected."""
    return fission_procedure(proc, fission=False, distribute=True).procedure


class TestDependenceGraph:
    def test_independent_statements_unordered(self):
        lp = doall("i", 1, 9)(
            assign(ref("A", v("i")), c(1.0)),
            assign(ref("B", v("i")), c(2.0)),
        )
        assert build_pdg(lp).edges == ()

    def test_same_iteration_flow_ordered(self):
        lp = doall("i", 1, 9)(
            assign(ref("A", v("i")), c(1.0)),
            assign(ref("B", v("i")), ref("A", v("i"))),
        )
        g = build_pdg(lp)
        assert g.edges_between(0, 1)
        assert not g.edges_between(1, 0)

    def test_cross_iteration_backward_creates_cycle(self):
        # S1 reads what S2 wrote in an earlier iteration AND S2 reads S1's
        # same-iteration value: a genuine cycle.
        lp = serial("i", 2, 9)(
            assign(ref("A", v("i")), ref("B", v("i") - 1)),
            assign(ref("B", v("i")), ref("A", v("i"))),
        )
        g = build_pdg(lp)
        assert g.edges_between(0, 1) and g.edges_between(1, 0)

    def test_shared_scalar_fuses(self):
        lp = doall("i", 1, 9)(
            assign(v("t"), ref("A", v("i"))),
            assign(ref("B", v("i")), v("t")),
        )
        g = build_pdg(lp)
        assert g.edges_between(0, 1) and g.edges_between(1, 0)


class TestDistribute:
    def test_independent_statements_split(self):
        lp = doall("i", 1, 9)(
            assign(ref("A", v("i")), c(1.0)),
            assign(ref("B", v("i")), c(2.0)),
        )
        pieces = distribute(lp)
        assert len(pieces) == 2
        assert all(len(p.body) == 1 for p in pieces)

    def test_flow_dependent_statements_split_in_order(self):
        lp = doall("i", 1, 9)(
            assign(ref("A", v("i")), c(1.0)),
            assign(ref("B", v("i")), ref("A", v("i"))),
        )
        pieces = distribute(lp)
        assert len(pieces) == 2
        # Producer loop must come first.
        assert pieces[0].body.stmts[0].target.name == "A"

    def test_cycle_stays_together(self):
        lp = serial("i", 2, 9)(
            assign(ref("A", v("i")), ref("B", v("i") - 1)),
            assign(ref("B", v("i")), ref("A", v("i"))),
        )
        assert distribute(lp) == [lp]

    def test_single_statement_unchanged(self):
        lp = doall("i", 1, 9)(assign(ref("A", v("i")), c(1.0)))
        assert distribute(lp) == [lp]

    def test_equivalence_simple_split(self):
        p = proc(
            "p",
            doall("i", 1, 9)(
                assign(ref("A", v("i")), v("i") * 2),
                assign(ref("B", v("i")), ref("A", v("i")) + 1),
            ),
            arrays={"A": 1, "B": 1},
        )
        out = distribute_all(p)
        validate(out)
        assert len(collect_loops(out)) == 2
        assert_equivalent(p, out, {"A": (10,), "B": (10,)})


class TestDistributeProcedure:
    MATMUL = """
        procedure matmul(A[2], B[2], C[2]; n)
          doall i = 1, n
            doall j = 1, n
              C(i, j) := 0.0
              for k = 1, n
                C(i, j) := C(i, j) + A(i, k) * B(k, j)
              end
            end
          end
        end
        """

    def test_matmul_split_makes_nests_perfect(self):
        mm = parse(self.MATMUL)
        out = distribute_all(mm)
        validate(out)
        # Top level now has two (i, j) nests.
        assert len(out.body) == 2
        assert_equivalent(mm, out, {k: (7, 7) for k in "ABC"}, {"n": 6})

    def test_matmul_distribute_then_coalesce_both_nests(self):
        mm = parse(self.MATMUL)
        out = distribute_all(mm)
        coalesced, results = coalesce_procedure(out)
        assert len(results) == 2
        validate(coalesced)
        assert_equivalent(mm, coalesced, {k: (7, 7) for k in "ABC"}, {"n": 6})

    def test_recurrence_not_split_incorrectly(self):
        p = parse(
            """
            procedure rec(A[1], B[1]; n)
              for i = 2, n
                A(i) := B(i - 1) + 1.0
                B(i) := A(i) * 2.0
              end
            end
            """
        )
        out = distribute_all(p)
        validate(out)
        assert_equivalent(p, out, {"A": (20,), "B": (20,)}, {"n": 19})

    def test_fixed_point_is_stable(self):
        mm = parse(self.MATMUL)
        once = distribute_all(mm)
        twice = distribute_all(once)
        assert once == twice

    def test_statements_inside_if(self):
        p = proc(
            "p",
            doall("i", 1, 6)(
                assign(ref("A", v("i")), c(1.0)),
            ),
            serial("t", 1, 2)(
                assign(ref("A", v("t")), c(0.0)),
                assign(ref("B", v("t")), c(0.0)),
            ),
            arrays={"A": 1, "B": 1},
        )
        out = distribute_all(p)
        validate(out)
        assert_equivalent(p, out, {"A": (8,), "B": (8,)})

    def test_anti_dependence_order_preserved(self):
        # S1 reads A(i+1) which S2 writes: S1 must run before S2 for the
        # same element — distribution must keep S1's loop first.
        p = proc(
            "anti",
            serial("i", 1, 8)(
                assign(ref("B", v("i")), ref("A", v("i") + 1)),
                assign(ref("A", v("i")), c(0.0)),
            ),
            arrays={"A": 1, "B": 1},
        )
        out = distribute_all(p)
        validate(out)
        assert_equivalent(p, out, {"A": (10,), "B": (10,)})


class TestOneWalk:
    DEEP = """
        procedure deep(A[5], B[5]; n)
          doall a = 1, n
            doall b = 1, n
              doall c = 1, n
                doall d = 1, n
                  doall e = 1, n
                    A(a, b, c, d, e) := 1.0
                    B(a, b, c, d, e) := 2.0
                  end
                end
              end
            end
          end
        end
        """

    @pytest.mark.parametrize("analyze", [True, False])
    def test_five_deep_nest_coalesces_as_two_depth_five_nests(self, analyze):
        # Splitting bottom-up reaches every level in one walk, so the
        # outermost loop splits too and both nests are perfect.
        from repro.api import lower_and_coalesce

        _, out, results, _ = lower_and_coalesce(
            self.DEEP, frontend="dsl", analyze=analyze, cache=None
        )
        assert [r.depth for r in results] == [5, 5]
        assert len(out.body) == 2
        assert_equivalent(
            parse(self.DEEP), out, {"A": (4,) * 5, "B": (4,) * 5}, {"n": 3}
        )

    def test_one_walk_is_the_fixed_point(self):
        once = distribute_all(parse(self.DEEP))
        assert len(once.body) == 2
        assert distribute_all(once) == once
