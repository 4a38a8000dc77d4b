"""Unit and property tests for loop coalescing — the paper's transformation."""

import itertools

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.ir.builder import assign, block, c, doall, proc, ref, serial, v
from repro.ir.expr import Const, Var
from repro.ir.stmt import LoopKind
from repro.ir.validate import validate
from repro.experiments.e10_end_to_end import run_doall_shuffled
from repro.transforms.base import TransformError
from repro.transforms.coalesce import (
    coalesce,
    coalesce_procedure,
    extract_perfect_nest,
    products_from_inside,
    recovery_expressions,
)

from tests.equivalence import assert_equivalent


def _mark_nest(shape):
    """Perfect DOALL nest writing a unique value per iteration point."""
    m = len(shape)
    idx = [v(f"i{k}") for k in range(m)]
    value = c(0)
    for k in range(m):
        value = value * 1000 + idx[k]
    body = assign(ref("T", *idx), value)
    loop = body
    for k in range(m - 1, -1, -1):
        loop = doall(f"i{k}", 1, shape[k])(loop)
    return proc("mark", loop, arrays={"T": m})


class TestPerfectNestExtraction:
    def test_depth_three(self):
        p = _mark_nest((2, 3, 4))
        nest = extract_perfect_nest(p.body.stmts[0])
        assert [lp.var for lp in nest] == ["i0", "i1", "i2"]

    def test_max_depth_cap(self):
        p = _mark_nest((2, 3, 4))
        nest = extract_perfect_nest(p.body.stmts[0], max_depth=2)
        assert len(nest) == 2

    def test_imperfect_nest_stops(self):
        loop = doall("i", 1, 3)(
            assign(ref("T", v("i"), c(1)), c(0.0)),
            doall("j", 1, 3)(assign(ref("T", v("i"), v("j")), c(1.0))),
        )
        assert len(extract_perfect_nest(loop)) == 1


class TestRecoveryExpressions:
    @pytest.mark.parametrize("style", ["ceiling", "divmod"])
    @pytest.mark.parametrize(
        "shape", [(4,), (2, 3), (3, 5), (2, 3, 4), (5, 1, 3), (1, 1, 4), (2, 2, 2, 2)]
    )
    def test_recovery_enumerates_lexicographic(self, style, shape):
        exprs = recovery_expressions(Var("I"), [Const(n) for n in shape], style)
        points = []
        from repro.runtime.interp import Interpreter

        interp = Interpreter()
        total = int(np.prod(shape))
        for flat in range(1, total + 1):
            env = {"I": flat}
            points.append(tuple(interp._eval(e, env, {}) for e in exprs))
        expected = list(
            itertools.product(*[range(1, n + 1) for n in shape])
        )
        assert points == expected

    def test_products(self):
        prods = products_from_inside([Const(2), Const(3), Const(4)])
        assert prods == [Const(12), Const(4), Const(1)]

    def test_unknown_style(self):
        with pytest.raises(ValueError, match="style"):
            recovery_expressions(Var("I"), [Const(2)], "bogus")

    def test_empty_bounds(self):
        with pytest.raises(ValueError, match="at least one"):
            recovery_expressions(Var("I"), [], "ceiling")

    def test_symbolic_bounds_survive(self):
        exprs = recovery_expressions(Var("I"), [Var("n"), Var("m")], "ceiling")
        from repro.ir.visitor import free_vars

        assert free_vars(exprs[0]) <= {"I", "n", "m"}

    def test_innermost_ceiling_is_single_mod_form(self):
        """Paper's special case: i_m needs one div + one mul + one sub."""
        from repro.ir.visitor import walk_exprs
        from repro.ir.expr import BinOp

        exprs = recovery_expressions(Var("I"), [Const(7), Const(9)], "ceiling")
        inner_divmods = [
            e.op
            for e in walk_exprs(exprs[1])
            if isinstance(e, BinOp) and e.op in ("floordiv", "ceildiv", "mod")
        ]
        assert inner_divmods == ["floordiv"]

    def test_outermost_has_no_wraparound(self):
        from repro.ir.expr import BinOp

        exprs = recovery_expressions(Var("I"), [Const(7), Const(9)], "ceiling")
        assert isinstance(exprs[0], BinOp) and exprs[0].op == "ceildiv"


class TestCoalesceLegality:
    def test_serial_loop_rejected_by_default(self):
        lp = serial("i", 1, 3)(doall("j", 1, 3)(assign(ref("T", v("i"), v("j")), c(0.0))))
        with pytest.raises(TransformError, match="requires DOALL"):
            coalesce(lp)

    def test_all_serial_allowed_with_flag(self):
        lp = serial("i", 1, 3)(serial("j", 1, 4)(assign(ref("T", v("i"), v("j")), c(0.0))))
        result = coalesce(lp, require_doall=False)
        assert result.loop.kind is LoopKind.SERIAL
        assert result.depth == 2

    def test_mixed_kinds_rejected_even_with_flag(self):
        lp = serial("i", 1, 3)(doall("j", 1, 3)(assign(ref("T", v("i"), v("j")), c(0.0))))
        with pytest.raises(TransformError, match="mixed"):
            coalesce(lp, depth=2, require_doall=False)

    def test_maximal_depth_trims_at_kind_boundary(self):
        # DOALL pair over a serial reduction: depth=None coalesces the pair.
        lp = doall("i", 1, 3)(
            doall("j", 1, 4)(
                serial("k", 1, 5)(
                    assign(ref("T", v("i"), v("j")), ref("T", v("i"), v("j")) + v("k"))
                )
            )
        )
        result = coalesce(lp)
        assert result.depth == 2
        assert result.index_vars == ("i", "j")

    def test_non_normalized_rejected(self):
        lp = doall("i", 0, 3)(doall("j", 1, 3)(assign(ref("T", v("i") + 1, v("j")), c(0.0))))
        with pytest.raises(TransformError, match="not normalized"):
            coalesce(lp)

    def test_auto_normalize(self):
        lp = doall("i", 0, 3)(doall("j", 1, 3)(assign(ref("T", v("i") + 1, v("j")), c(0.0))))
        result = coalesce(lp, auto_normalize=True)
        assert result.depth == 2

    def test_triangular_nest_rejected(self):
        lp = doall("i", 1, 5)(doall("j", 1, v("i"))(assign(ref("T", v("i"), v("j")), c(0.0))))
        with pytest.raises(TransformError, match="non-rectangular"):
            coalesce(lp)

    def test_depth_beyond_perfect_rejected(self):
        p = _mark_nest((2, 3))
        with pytest.raises(TransformError, match="perfect only to depth"):
            coalesce(p.body.stmts[0], depth=3)

    def test_depth_zero_rejected(self):
        p = _mark_nest((2, 3))
        with pytest.raises(ValueError, match="depth"):
            coalesce(p.body.stmts[0], depth=0)

    def test_flat_var_collision_rejected(self):
        p = _mark_nest((2, 3))
        with pytest.raises(TransformError, match="collides"):
            coalesce(p.body.stmts[0], flat_var="i0")

    def test_fresh_flat_var_avoids_captures(self):
        lp = doall("i_flat", 1, 2)(doall("j", 1, 2)(assign(ref("T", v("i_flat"), v("j")), c(0.0))))
        # The default name would collide with the outer index; a suffixed
        # fresh name must be chosen... but here "i_flat" IS the outer index,
        # so the default base is "i_flat_flat" which is free.
        result = coalesce(lp)
        assert result.flat_var not in ("i_flat", "j")


class TestCoalesceSemantics:
    @pytest.mark.parametrize("style", ["ceiling", "divmod"])
    @pytest.mark.parametrize("materialize", ["assign", "substitute"])
    @pytest.mark.parametrize("shape", [(3,), (2, 5), (4, 1, 3), (2, 3, 2, 2)])
    def test_equivalent_to_original(self, style, materialize, shape):
        p = _mark_nest(shape)
        result = coalesce(p.body.stmts[0], style=style, materialize=materialize)
        p2 = p.with_body(block(result.loop))
        validate(p2)
        sizes = {"T": tuple(n + 1 for n in shape)}
        assert_equivalent(p, p2, sizes)

    def test_total_iterations(self):
        p = _mark_nest((3, 4, 5))
        result = coalesce(p.body.stmts[0])
        assert result.loop.upper == Const(60)

    def test_symbolic_bounds_equivalence(self):
        body = assign(ref("T", v("i"), v("j")), v("i") * 100 + v("j"))
        p = proc(
            "p",
            doall("i", 1, v("n"))(doall("j", 1, v("m"))(body)),
            arrays={"T": 2},
            scalars=("n", "m"),
        )
        result = coalesce(p.body.stmts[0])
        p2 = p.with_body(block(result.loop))
        validate(p2)
        assert_equivalent(p, p2, {"T": (7, 9)}, {"n": 6, "m": 8})

    def test_shuffled_execution_of_coalesced_loop(self):
        p = _mark_nest((4, 5))
        result = coalesce(p.body.stmts[0])
        p2 = p.with_body(block(result.loop))
        assert_equivalent(
            p, p2, {"T": (5, 6)}, runner_transformed=run_doall_shuffled
        )

    def test_partial_coalesce_depth_two_of_three(self):
        p = _mark_nest((2, 3, 4))
        result = coalesce(p.body.stmts[0], depth=2)
        assert result.depth == 2
        # The coalesced loop's body still contains the i2 loop.
        inner_loops = [
            s for s in result.loop.body.stmts if type(s).__name__ == "Loop"
        ]
        assert len(inner_loops) == 1
        p2 = p.with_body(block(result.loop))
        validate(p2)
        assert_equivalent(p, p2, {"T": (3, 4, 5)})

    def test_recovery_metadata(self):
        p = _mark_nest((2, 3))
        result = coalesce(p.body.stmts[0])
        assert result.index_vars == ("i0", "i1")
        assert set(result.recovery) == {"i0", "i1"}
        assert result.bounds == (Const(2), Const(3))

    def test_materialize_substitute_has_no_index_assignments(self):
        from repro.ir.stmt import Assign

        p = _mark_nest((2, 3))
        result = coalesce(p.body.stmts[0], materialize="substitute")
        heads = [
            s
            for s in result.loop.body.stmts
            if isinstance(s, Assign) and isinstance(s.target, Var)
        ]
        assert heads == []

    def test_bad_materialize(self):
        p = _mark_nest((2, 3))
        with pytest.raises(ValueError, match="materialize"):
            coalesce(p.body.stmts[0], materialize="inline")


class TestCoalesceProcedure:
    def test_hybrid_nest_inner_subnest_coalesced(self):
        # Serial outer (time step), DOALL inner pair — the paper's hybrid
        # case: only the DOALL subnest is coalesced.
        inner = doall("i", 1, v("n"))(
            doall("j", 1, v("n"))(
                assign(ref("A", v("i"), v("j")), ref("A", v("i"), v("j")) + v("t"))
            )
        )
        p = proc("hyb", serial("t", 1, v("steps"))(inner), arrays={"A": 2}, scalars=("n", "steps"))
        out, results = coalesce_procedure(p)
        assert len(results) == 1
        assert results[0].depth == 2
        validate(out)
        assert_equivalent(p, out, {"A": (6, 6)}, {"n": 5, "steps": 3})

    def test_two_independent_nests_both_coalesced(self):
        nest1 = doall("i", 1, 4)(doall("j", 1, 4)(assign(ref("A", v("i"), v("j")), c(1.0))))
        nest2 = doall("p", 1, 3)(doall("q", 1, 5)(assign(ref("B", v("p"), v("q")), c(2.0))))
        p = proc("two", nest1, nest2, arrays={"A": 2, "B": 2})
        out, results = coalesce_procedure(p)
        assert len(results) == 2
        flat_names = {r.flat_var for r in results}
        assert len(flat_names) == 2  # fresh names do not collide
        validate(out)
        assert_equivalent(p, out, {"A": (5, 5), "B": (4, 6)})

    def test_single_doall_not_coalesced_by_default_min_depth(self):
        p = proc(
            "one",
            doall("i", 1, 8)(assign(ref("A", v("i")), c(1.0))),
            arrays={"A": 1},
        )
        out, results = coalesce_procedure(p)
        assert results == []
        assert out == p

    def test_triangular_nest_left_alone(self):
        p = proc(
            "tri",
            doall("i", 1, 6)(
                doall("j", 1, v("i"))(assign(ref("A", v("i"), v("j")), c(1.0)))
            ),
            arrays={"A": 2},
        )
        out, results = coalesce_procedure(p)
        assert results == []
        assert_equivalent(p, out, {"A": (7, 7)})

    def test_auto_normalizes_offset_nests(self):
        p = proc(
            "off",
            doall("i", 0, v("n") - 1)(
                doall("j", 0, v("n") - 1)(
                    assign(ref("A", v("i") + 1, v("j") + 1), v("i") * 10 + v("j"))
                )
            ),
            arrays={"A": 2},
            scalars=("n",),
        )
        out, results = coalesce_procedure(p)
        assert len(results) == 1
        assert_equivalent(p, out, {"A": (8, 8)}, {"n": 7})


# ---------------------------------------------------------------------------
# Property tests
# ---------------------------------------------------------------------------

_shapes = st.lists(st.integers(min_value=1, max_value=7), min_size=1, max_size=4)


@given(shape=_shapes, style=st.sampled_from(["ceiling", "divmod"]))
@settings(max_examples=60, deadline=None)
def test_property_recovery_bijection(shape, style):
    """Recovered tuples enumerate the full iteration space exactly once, in
    lexicographic order — for arbitrary shapes and both recovery styles."""
    from repro.runtime.interp import Interpreter

    exprs = recovery_expressions(Var("I"), [Const(n) for n in shape], style)
    interp = Interpreter()
    total = 1
    for n in shape:
        total *= n
    seen = []
    for flat in range(1, total + 1):
        seen.append(tuple(interp._eval(e, {"I": flat}, {}) for e in exprs))
    assert seen == list(itertools.product(*[range(1, n + 1) for n in shape]))


@given(
    shape=st.lists(st.integers(min_value=1, max_value=5), min_size=2, max_size=3),
    style=st.sampled_from(["ceiling", "divmod"]),
    materialize=st.sampled_from(["assign", "substitute"]),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=30, deadline=None)
def test_property_coalesce_equivalence(shape, style, materialize, seed):
    """Coalescing any rectangular mark-nest preserves program results."""
    p = _mark_nest(tuple(shape))
    result = coalesce(p.body.stmts[0], style=style, materialize=materialize)
    p2 = p.with_body(block(result.loop))
    validate(p2)
    sizes = {"T": tuple(n + 1 for n in shape)}
    assert_equivalent(p, p2, sizes, seed=seed)
