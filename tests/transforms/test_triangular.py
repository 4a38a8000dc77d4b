"""Unit and property tests for triangular-nest coalescing."""

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.ir.builder import assign, block, c, doall, proc, ref, serial, v
from repro.ir.validate import validate
from repro.runtime.interp import Interpreter
from repro.transforms.base import TransformError
from repro.transforms.triangular import (
    coalesce_triangular,
    coalesce_triangular_exact,
    coalesce_triangular_guarded,
    guarded_waste,
)

from tests.equivalence import assert_equivalent


def lower_triangle(bound=None):
    """doall i = 1..n { doall j = 1..i { T(i,j) := marker } }."""
    inner_hi = bound if bound is not None else v("i")
    return proc(
        "tri",
        doall("i", 1, v("n"))(
            doall("j", 1, inner_hi)(
                assign(ref("T", v("i"), v("j")), v("i") * 100 + v("j"))
            )
        ),
        arrays={"T": 2},
        scalars=("n",),
    )


class TestExactRecoveryFormula:
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 10, 40])
    def test_closed_form_enumerates_triangle(self, n):
        """(i, j) from the isqrt formulas == lexicographic triangle walk."""
        interp = Interpreter()
        total = n * (n + 1) // 2
        expected = [(i, j) for i in range(1, n + 1) for j in range(1, i + 1)]
        got = []
        for flat in range(1, total + 1):
            i = ((8 * flat - 7) ** 0.5)  # sanity only; real eval below
            env = {"I": flat}
            from repro.frontend.dsl import parse_expr

            i_val = interp._eval(
                parse_expr("(isqrt(8 * I - 7) + 1) div 2"), env, {}
            )
            j_val = flat - i_val * (i_val - 1) // 2
            got.append((i_val, j_val))
        assert got == expected


class TestLegality:
    def test_rectangular_nest_rejected(self):
        p = proc(
            "r",
            doall("i", 1, v("n"))(
                doall("j", 1, v("m"))(assign(ref("T", v("i"), v("j")), c(0.0)))
            ),
            arrays={"T": 2},
            scalars=("n", "m"),
        )
        with pytest.raises(TransformError, match="rectangular"):
            coalesce_triangular(p.body.stmts[0])

    def test_serial_loop_rejected(self):
        p = proc(
            "s",
            serial("i", 1, v("n"))(
                doall("j", 1, v("i"))(assign(ref("T", v("i"), v("j")), c(0.0)))
            ),
            arrays={"T": 2},
            scalars=("n",),
        )
        with pytest.raises(TransformError, match="DOALL"):
            coalesce_triangular(p.body.stmts[0])

    def test_imperfect_nest_rejected(self):
        p = proc(
            "imp",
            doall("i", 1, v("n"))(
                assign(ref("T", v("i"), c(1)), c(0.0)),
                doall("j", 1, v("i"))(assign(ref("T", v("i"), v("j")), c(1.0))),
            ),
            arrays={"T": 2},
            scalars=("n",),
        )
        with pytest.raises(TransformError, match="perfect"):
            coalesce_triangular(p.body.stmts[0])

    def test_exact_requires_canonical_bound(self):
        p = lower_triangle(bound=v("i") + 1)
        with pytest.raises(TransformError, match="canonical"):
            coalesce_triangular_exact(p.body.stmts[0])

    def test_unknown_strategy(self):
        p = lower_triangle()
        with pytest.raises(ValueError, match="strategy"):
            coalesce_triangular(p.body.stmts[0], strategy="magic")

    def test_non_normalized_outer_rejected(self):
        p = proc(
            "off",
            doall("i", 0, v("n"))(
                doall("j", 1, v("i") + 1)(assign(ref("T", v("i") + 1, v("j")), c(0.0)))
            ),
            arrays={"T": 2},
            scalars=("n",),
        )
        with pytest.raises(TransformError, match="normalized"):
            coalesce_triangular(p.body.stmts[0])


class TestSemantics:
    @pytest.mark.parametrize("strategy", ["exact", "guarded"])
    @pytest.mark.parametrize("n", [1, 2, 5, 9])
    def test_equivalence_canonical_triangle(self, strategy, n):
        p = lower_triangle()
        result = coalesce_triangular(p.body.stmts[0], strategy=strategy)
        p2 = p.with_body(block(result.loop))
        validate(p2)
        assert_equivalent(p, p2, {"T": (n + 1, n + 1)}, {"n": n})

    def test_auto_picks_exact_for_canonical(self):
        p = lower_triangle()
        assert coalesce_triangular(p.body.stmts[0]).strategy == "exact"

    def test_auto_picks_guarded_for_affine(self):
        p = lower_triangle(bound=v("i") * 2)
        result = coalesce_triangular(p.body.stmts[0])
        assert result.strategy == "guarded"
        p2 = p.with_body(block(result.loop))
        validate(p2)
        assert_equivalent(p, p2, {"T": (7, 13)}, {"n": 6})

    def test_guarded_decreasing_bound(self):
        # f(i) = n - i + 1: maximum at i = 1 — endpoint logic must pick it.
        p = lower_triangle(bound=v("n") - v("i") + 1)
        result = coalesce_triangular_guarded(p.body.stmts[0])
        p2 = p.with_body(block(result.loop))
        validate(p2)
        assert_equivalent(p, p2, {"T": (8, 8)}, {"n": 7})

    def test_exact_total_iterations(self):
        p = lower_triangle()
        result = coalesce_triangular_exact(p.body.stmts[0])
        interp = Interpreter()
        total = interp._eval(result.total_iterations, {"n": 10}, {})
        assert total == 55

    def test_exact_has_no_guard(self):
        from repro.ir.stmt import If

        p = lower_triangle()
        result = coalesce_triangular_exact(p.body.stmts[0])
        assert not any(isinstance(s, If) for s in result.loop.body.stmts)

    def test_guarded_executes_box(self):
        p = lower_triangle()
        result = coalesce_triangular_guarded(p.body.stmts[0])
        interp = Interpreter()
        total = interp._eval(result.total_iterations, {"n": 10}, {})
        assert total == 100

    def test_exact_codegen(self):
        from repro.codegen import compile_procedure
        from repro.runtime.equivalence import copy_env, random_env
        from repro.runtime.interp import run

        p = lower_triangle()
        result = coalesce_triangular_exact(p.body.stmts[0])
        p2 = p.with_body(block(result.loop))
        env = random_env(p, {"T": (8, 8)})
        e1, e2 = copy_env(env), copy_env(env)
        run(p, e1, {"n": 7})
        compile_procedure(p2).run(e2, {"n": 7})
        assert np.array_equal(e1["T"], e2["T"])


class TestGuardedWaste:
    def test_triangle_waste_approaches_half(self):
        assert guarded_waste(100, lambda i: i) == pytest.approx(
            1 - (100 * 101 / 2) / (100 * 100)
        )

    def test_rectangle_has_no_waste(self):
        assert guarded_waste(10, lambda i: 7) == 0.0

    def test_empty(self):
        assert guarded_waste(0, lambda i: i) == 0.0


@given(n=st.integers(1, 25), seed=st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_property_exact_recovery_bijection(n, seed):
    """The isqrt recovery is a bijection onto the triangle for any n."""
    from repro.frontend.dsl import parse_expr

    interp = Interpreter()
    i_e = parse_expr("(isqrt(8 * I - 7) + 1) div 2")
    j_e = parse_expr("I - i * (i - 1) div 2")
    seen = set()
    for flat in range(1, n * (n + 1) // 2 + 1):
        i_val = interp._eval(i_e, {"I": flat}, {})
        j_val = interp._eval(j_e, {"I": flat, "i": i_val}, {})
        assert 1 <= j_val <= i_val <= n, (flat, i_val, j_val)
        seen.add((i_val, j_val))
    assert len(seen) == n * (n + 1) // 2


class TestProcedureIntegration:
    def test_coalesce_procedure_triangular_flag(self):
        from repro.frontend.dsl import parse
        from repro.transforms.coalesce import coalesce_procedure
        from repro.transforms.triangular import TriangularResult

        p = parse(
            """
            procedure trihyb(T[2]; n, steps)
              for t = 1, steps
                doall i = 1, n
                  doall j = 1, i
                    T(i, j) := T(i, j) + 1.0
                  end
                end
              end
            end
            """
        )
        out, results = coalesce_procedure(p, triangular=True)
        validate(out)
        assert len(results) == 1
        assert isinstance(results[0], TriangularResult)
        assert results[0].strategy == "exact"
        assert_equivalent(p, out, {"T": (8, 8)}, {"n": 7, "steps": 3})

    def test_default_leaves_triangles_alone(self):
        from repro.frontend.dsl import parse
        from repro.transforms.coalesce import coalesce_procedure

        p = parse(
            """
            procedure tri(T[2]; n)
              doall i = 1, n
                doall j = 1, i
                  T(i, j) := 0.0
                end
              end
            end
            """
        )
        out, results = coalesce_procedure(p)
        assert results == []
        assert out == p

    def test_rectangular_still_preferred_over_triangular(self):
        from repro.frontend.dsl import parse
        from repro.transforms.coalesce import CoalesceResult, coalesce_procedure

        p = parse(
            """
            procedure rect(T[2]; n, m)
              doall i = 1, n
                doall j = 1, m
                  T(i, j) := 0.0
                end
              end
            end
            """
        )
        out, results = coalesce_procedure(p, triangular=True)
        assert len(results) == 1
        assert isinstance(results[0], CoalesceResult)
