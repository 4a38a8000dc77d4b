"""Unit tests for loop normalization."""

import pytest

from repro.ir.builder import assign, c, doall, proc, ref, serial, v
from repro.ir.expr import Const, Var
from repro.transforms.base import TransformError
from repro.transforms.normalize import (
    normalize_loop,
    normalize_procedure,
    trip_count_expr,
)

from tests.equivalence import assert_equivalent


class TestTripCount:
    def test_constant(self):
        lp = serial("i", 3, 11, 2)(assign(v("x"), v("i")))
        assert trip_count_expr(lp) == Const(5)  # 3,5,7,9,11

    def test_symbolic(self):
        lp = serial("i", 1, v("n"))(assign(v("x"), v("i")))
        assert trip_count_expr(lp) == Var("n")

    def test_symbolic_with_offset(self):
        lp = serial("i", 0, v("n"))(assign(v("x"), v("i")))
        # (n - 0) div 1 + 1 = n + 1
        assert str(trip_count_expr(lp)) == str(Var("n") + 1)


class TestNormalizeLoop:
    def test_already_normalized_is_identity(self):
        lp = serial("i", 1, v("n"))(assign(v("x"), v("i")))
        assert normalize_loop(lp) is lp

    def test_offset_lower_bound(self):
        lp = serial("i", 5, 9)(assign(ref("A", v("i")), c(1.0)))
        norm = normalize_loop(lp)
        assert norm.lower == Const(1)
        assert norm.upper == Const(5)
        # Body index becomes 5 + (i - 1)
        p1 = proc("p", lp, arrays={"A": 1})
        p2 = proc("p", norm, arrays={"A": 1})
        assert_equivalent(p1, p2, {"A": (12,)})

    def test_step_two(self):
        lp = serial("i", 1, 9, 2)(assign(ref("A", v("i")), v("i")))
        norm = normalize_loop(lp)
        assert norm.step == Const(1)
        assert norm.upper == Const(5)
        p1 = proc("p", lp, arrays={"A": 1})
        p2 = proc("p", norm, arrays={"A": 1})
        assert_equivalent(p1, p2, {"A": (12,)})

    def test_symbolic_bounds(self):
        lp = serial("i", v("lo"), v("hi"))(assign(ref("A", v("i")), c(2.0)))
        norm = normalize_loop(lp)
        p1 = proc("p", lp, arrays={"A": 1}, scalars=("lo", "hi"))
        p2 = proc("p", norm, arrays={"A": 1}, scalars=("lo", "hi"))
        assert_equivalent(p1, p2, {"A": (20,)}, {"lo": 3, "hi": 11})

    def test_kind_preserved(self):
        lp = doall("i", 0, 9)(assign(ref("A", v("i")), c(1.0)))
        assert normalize_loop(lp).is_doall

    def test_zero_trip_stays_zero_trip(self):
        lp = serial("i", 5, 3)(assign(ref("A", v("i")), c(1.0)))
        norm = normalize_loop(lp)
        p1 = proc("p", lp, arrays={"A": 1})
        p2 = proc("p", norm, arrays={"A": 1})
        assert_equivalent(p1, p2, {"A": (8,)})

    def test_symbolic_step_rejected(self):
        lp = serial("i", 1, 9, v("s"))(assign(v("x"), v("i")))
        with pytest.raises(TransformError, match="symbolic step"):
            normalize_loop(lp)

    def test_inner_bound_referencing_outer_var_is_substituted(self):
        # for i = 0..n-1: for j = 1..i+1 — normalizing i rewrites j's bound.
        inner = serial("j", 1, v("i") + 1)(assign(ref("A", v("i") + 1, v("j")), c(1.0)))
        outer = serial("i", 0, v("n") - 1)(inner)
        norm = normalize_loop(outer)
        p1 = proc("p", outer, arrays={"A": 2}, scalars=("n",))
        p2 = proc("p", norm, arrays={"A": 2}, scalars=("n",))
        assert_equivalent(p1, p2, {"A": (7, 8)}, {"n": 6})


class TestNormalizeProcedure:
    def test_all_loops_normalized(self):
        p = proc(
            "p",
            serial("i", 2, 10, 2)(
                serial("j", 0, 4)(assign(ref("A", v("i"), v("j")), v("i") * v("j")))
            ),
            arrays={"A": 2},
        )
        out = normalize_procedure(p)
        from repro.ir.visitor import collect_loops

        assert all(lp.is_normalized for lp in collect_loops(out))
        assert_equivalent(p, out, {"A": (12, 6)})

    def test_loops_inside_if(self):
        from repro.ir.builder import if_

        p = proc(
            "p",
            if_(
                v("n") > c(0),
                serial("i", 0, v("n") - 1)(assign(ref("A", v("i")), c(1.0))),
            ),
            arrays={"A": 1},
            scalars=("n",),
        )
        out = normalize_procedure(p)
        from repro.ir.visitor import collect_loops

        assert all(lp.is_normalized for lp in collect_loops(out))
        assert_equivalent(p, out, {"A": (10,)}, {"n": 6})
