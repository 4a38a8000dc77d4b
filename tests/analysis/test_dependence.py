"""Unit tests for the dependence tester, checked against brute force."""

import itertools

import pytest

from repro.analysis.dependence import DependenceTester, LoopInfo
from repro.frontend.dsl import parse_expr
from repro.ir.builder import assign, c, ref, serial, v
from repro.ir.expr import ArrayRef


def aref(src: str) -> ArrayRef:
    e = parse_expr(src)
    assert isinstance(e, ArrayRef)
    return e


def brute_force_directions(src, sink, loops):
    """Enumerate (i, i′) pairs exhaustively; ground truth for small bounds."""
    names = [info.var for info in loops]
    ranges = [range(info.lower, info.upper + 1) for info in loops]
    feasible = set()
    for i_vals in itertools.product(*ranges):
        for j_vals in itertools.product(*ranges):
            env_i = dict(zip(names, i_vals))
            env_j = dict(zip(names, j_vals))
            from repro.runtime.interp import Interpreter

            interp = Interpreter()
            a = tuple(interp._eval(e, env_i, {}) for e in src.indices)
            b = tuple(interp._eval(e, env_j, {}) for e in sink.indices)
            if a == b:
                dirs = tuple(
                    "<" if x < y else ("=" if x == y else ">")
                    for x, y in zip(i_vals, j_vals)
                )
                feasible.add(dirs)
    return feasible


class TestZIV:
    def test_equal_constants_depend(self):
        loops = [LoopInfo("i", 1, 10)]
        t = DependenceTester(loops)
        assert t.feasible_directions(aref("A(3)"), aref("A(3)"))

    def test_unequal_constants_independent(self):
        loops = [LoopInfo("i", 1, 10)]
        t = DependenceTester(loops)
        assert t.feasible_directions(aref("A(3)"), aref("A(4)")) == []


class TestSIV:
    def test_same_subscript_only_equal_direction(self):
        loops = [LoopInfo("i", 1, 10)]
        t = DependenceTester(loops)
        assert t.feasible_directions(aref("A(i)"), aref("A(i)")) == [("=",)]

    def test_shift_by_one_gives_cross_iteration(self):
        loops = [LoopInfo("i", 1, 10)]
        t = DependenceTester(loops)
        dirs = t.feasible_directions(aref("A(i)"), aref("A(i - 1)"))
        # A(i) == A(i'-1) iff i' = i+1, i.e. direction '<'.
        assert dirs == [("<",)]

    def test_shift_exceeding_range_is_independent(self):
        loops = [LoopInfo("i", 1, 5)]
        t = DependenceTester(loops)
        assert t.feasible_directions(aref("A(i)"), aref("A(i + 100)")) == []

    def test_gcd_infeasible(self):
        # 2i and 2i'+1: even vs odd, never equal.
        loops = [LoopInfo("i", 1, 100)]
        t = DependenceTester(loops)
        assert t.feasible_directions(aref("A(2 * i)"), aref("A(2 * i + 1)")) == []

    def test_strided_overlap(self):
        # 2i vs i+4 meets at (i=4,i'=4), (i=3,i'=2)... brute force agrees.
        loops = [LoopInfo("i", 1, 8)]
        t = DependenceTester(loops)
        got = set(t.feasible_directions(aref("A(2 * i)"), aref("A(i + 4)")))
        expected = brute_force_directions(aref("A(2 * i)"), aref("A(i + 4)"), loops)
        assert expected <= got  # tester may over-approximate, never under


class TestMultiDimensional:
    def test_exact_match_two_dims(self):
        loops = [LoopInfo("i", 1, 6), LoopInfo("j", 1, 6)]
        t = DependenceTester(loops)
        dirs = t.feasible_directions(aref("A(i, j)"), aref("A(i, j)"))
        assert dirs == [("=", "=")]

    def test_row_shift(self):
        loops = [LoopInfo("i", 1, 6), LoopInfo("j", 1, 6)]
        t = DependenceTester(loops)
        dirs = set(t.feasible_directions(aref("A(i, j)"), aref("A(i - 1, j)")))
        assert dirs == {("<", "=")}

    def test_diagonal_shift(self):
        loops = [LoopInfo("i", 1, 6), LoopInfo("j", 1, 6)]
        t = DependenceTester(loops)
        dirs = set(
            t.feasible_directions(aref("A(i, j)"), aref("A(i - 1, j + 1)"))
        )
        assert dirs == {("<", ">")}

    def test_independent_dimensions_prune(self):
        loops = [LoopInfo("i", 1, 6), LoopInfo("j", 1, 6)]
        t = DependenceTester(loops)
        # First dim forces i' = i + 1 ('<'), second forces j' = j ('=').
        dirs = set(t.feasible_directions(aref("A(i, j)"), aref("A(i - 1, j)")))
        assert ("=", "=") not in dirs


class TestConservatism:
    def test_nonaffine_assumed_dependent(self):
        loops = [LoopInfo("i", 1, 10)]
        t = DependenceTester(loops)
        dirs = t.feasible_directions(aref("A(i * i)"), aref("A(i)"))
        assert len(dirs) == 3  # all directions assumed

    def test_symbolic_scalar_assumed_dependent(self):
        loops = [LoopInfo("i", 1, 10)]
        t = DependenceTester(loops)
        assert t.feasible_directions(aref("A(i + off)"), aref("A(i)"))

    def test_unknown_bounds_still_uses_gcd(self):
        loops = [LoopInfo("i", None, None)]
        t = DependenceTester(loops)
        assert t.feasible_directions(aref("A(2 * i)"), aref("A(2 * i + 1)")) == []

    def test_unknown_bounds_allow_shift(self):
        loops = [LoopInfo("i", 1, None)]
        t = DependenceTester(loops)
        assert ("<",) in t.feasible_directions(aref("A(i)"), aref("A(i - 1)"))


class TestHelpers:
    def test_direction_vectors_from_loops(self):
        lp = serial("i", 1, 10)(assign(ref("A", v("i")), c(0.0)))
        t = DependenceTester([LoopInfo.of(lp)])
        assert t.feasible_directions(aref("A(i)"), aref("A(i - 2)")) == [("<",)]

    def test_has_dependence_false_for_distinct_arrays(self):
        lp = serial("i", 1, 10)(assign(ref("A", v("i")), c(0.0)))
        t = DependenceTester([LoopInfo.of(lp)])
        assert t.feasible_directions(aref("A(i)"), aref("B(i)")) == []

    def test_single_iteration_loop_no_cross(self):
        loops = [LoopInfo("i", 3, 3)]
        t = DependenceTester(loops)
        dirs = t.feasible_directions(aref("A(i)"), aref("A(i)"))
        assert dirs == [("=",)]


class TestAgainstBruteForce:
    PAIRS = [
        ("A(i)", "A(i)"),
        ("A(i + 1)", "A(i)"),
        ("A(i)", "A(10 - i)"),
        ("A(2 * i)", "A(i + 3)"),
        ("A(3 * i + 1)", "A(2 * i)"),
        ("A(i, j)", "A(j, i)"),
        ("A(i, j)", "A(i + 1, j - 1)"),
        ("A(i + j, j)", "A(i, j)"),
    ]

    @pytest.mark.parametrize("src,sink", PAIRS)
    def test_never_misses_a_real_dependence(self, src, sink):
        loops = [LoopInfo("i", 1, 6), LoopInfo("j", 1, 6)]
        t = DependenceTester(loops)
        got = set(t.feasible_directions(aref(src), aref(sink)))
        truth = brute_force_directions(aref(src), aref(sink), loops)
        missing = truth - got
        assert not missing, f"tester missed real dependences: {missing}"


class TestSymbolicBounds:
    """Unbounded LoopInfo (symbolic bounds): sound, never crashing.

    A ``None`` bound means the tester cannot see the extent at all —
    every answer must over-approximate the bounded truth, and the
    interval arithmetic must not melt down on infinities (the vertex
    method would compute ``inf - inf``).
    """

    def test_unbounded_same_subscript(self):
        loops = [LoopInfo("i", 1, None)]
        t = DependenceTester(loops)
        assert t.feasible_directions(aref("A(i)"), aref("A(i)")) == [("=",)]

    def test_unbounded_shift_keeps_exact_direction(self):
        loops = [LoopInfo("i", 1, None)]
        t = DependenceTester(loops)
        dirs = t.feasible_directions(aref("A(i)"), aref("A(i - 1)"))
        assert ("<",) in dirs
        assert ("=",) not in dirs  # i = i' - 1 has no equal solution

    def test_unbounded_superset_of_bounded(self):
        # Whatever a finite extent admits, the symbolic extent must too.
        for src, sink in TestAgainstBruteForce.PAIRS:
            bounded = DependenceTester(
                [LoopInfo("i", 1, 6), LoopInfo("j", 1, 6)]
            )
            unbounded = DependenceTester(
                [LoopInfo("i", 1, None), LoopInfo("j", 1, None)]
            )
            got_b = set(bounded.feasible_directions(aref(src), aref(sink)))
            got_u = set(unbounded.feasible_directions(aref(src), aref(sink)))
            assert got_b <= got_u, (src, sink, got_b - got_u)

    def test_no_lower_bound_either(self):
        loops = [LoopInfo("i", None, None)]
        t = DependenceTester(loops)
        dirs = t.feasible_directions(aref("A(i)"), aref("A(i + 3)"))
        assert (">",) in dirs

    def test_gcd_still_refutes_unbounded(self):
        # Parity argument needs no bounds: 2i is even, 2i' + 1 is odd.
        loops = [LoopInfo("i", 1, None)]
        t = DependenceTester(loops)
        assert t.feasible_directions(aref("A(2 * i)"), aref("A(2 * i + 1)")) == []


class TestNegativeStride:
    """Affine subscripts with negative coefficients (reversed traversal)."""

    def test_reversal_crosses_at_midpoint(self):
        loops = [LoopInfo("i", 1, 9)]
        t = DependenceTester(loops)
        got = set(t.feasible_directions(aref("A(10 - i)"), aref("A(i)")))
        truth = brute_force_directions(aref("A(10 - i)"), aref("A(i)"), loops)
        assert truth <= got

    def test_disjoint_reversed_halves(self):
        # 5 - i over i in 1..2 hits {3, 4}; i + 10 hits {11, 12}: disjoint.
        loops = [LoopInfo("i", 1, 2)]
        t = DependenceTester(loops)
        assert t.feasible_directions(aref("A(5 - i)"), aref("A(i + 10)")) == []

    def test_negative_coefficient_exceeding_range(self):
        loops = [LoopInfo("i", 1, 4)]
        t = DependenceTester(loops)
        # -2i + 100 ranges over {92..98}; 2i over {2..8}: no overlap.
        assert t.feasible_directions(aref("A(100 - 2 * i)"), aref("A(2 * i)")) == []

    @pytest.mark.parametrize(
        "src,sink",
        [
            ("A(8 - i)", "A(i)"),
            ("A(7 - 2 * i)", "A(i + 1)"),
            ("A(6 - i, j)", "A(i, 7 - j)"),
        ],
    )
    def test_never_misses_reversed_dependences(self, src, sink):
        loops = [LoopInfo("i", 1, 6), LoopInfo("j", 1, 6)]
        t = DependenceTester(loops)
        got = set(t.feasible_directions(aref(src), aref(sink)))
        truth = brute_force_directions(aref(src), aref(sink), loops)
        assert truth <= got


class TestCoupledSubscripts:
    """Dimensions sharing index variables (A[i+j, i-j] and friends).

    The per-dimension tester intersects direction sets across dimensions;
    coupling is where that intersection does real work — and where a
    naive per-dimension union would hallucinate or miss dependences.
    """

    def test_rotated_diagonal_self(self):
        loops = [LoopInfo("i", 1, 6), LoopInfo("j", 1, 6)]
        t = DependenceTester(loops)
        src, sink = aref("A(i + j, i - j)"), aref("A(i + j, i - j)")
        got = set(t.feasible_directions(src, sink))
        truth = brute_force_directions(src, sink, loops)
        # i+j and i-j jointly determine (i, j): only the equal vector.
        assert truth == {("=", "=")}
        assert truth <= got

    def test_rotated_against_shifted(self):
        loops = [LoopInfo("i", 1, 6), LoopInfo("j", 1, 6)]
        t = DependenceTester(loops)
        src = aref("A(i + j, i - j)")
        sink = aref("A(i + j + 1, i - j - 1)")
        got = set(t.feasible_directions(src, sink))
        truth = brute_force_directions(src, sink, loops)
        assert truth <= got
        # Solving the coupled system: i' = i, j' = j - 1.
        assert ("=", ">") in got

    def test_coupling_refutes_parity(self):
        # (i+j) + (i-j) = 2i is even; sink asks dim0 + dim1 to sum odd.
        loops = [LoopInfo("i", 1, 20), LoopInfo("j", 1, 20)]
        t = DependenceTester(loops)
        src = aref("A(i + j, i - j)")
        sink = aref("A(i + j, i - j + 1)")
        truth = brute_force_directions(src, sink, loops)
        assert truth == set()

    @pytest.mark.parametrize(
        "src,sink",
        [
            ("A(i + j, i - j)", "A(i + j, i - j)"),
            ("A(i + j, i - j)", "A(i + j + 2, i - j)"),
            ("A(i + j, j)", "A(j + 3, i)"),
            ("A(2 * i + j, i)", "A(i + j, j)"),
        ],
    )
    def test_coupled_never_misses(self, src, sink):
        loops = [LoopInfo("i", 1, 5), LoopInfo("j", 1, 5)]
        t = DependenceTester(loops)
        got = set(t.feasible_directions(aref(src), aref(sink)))
        truth = brute_force_directions(aref(src), aref(sink), loops)
        assert truth <= got
