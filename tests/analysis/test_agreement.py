"""One dependence story: the clients of the edge set cannot disagree.

``classify_loop`` / ``mark_doall``, the statement PDG and the chunk-safety
verifier are all filters over :func:`repro.analysis.pdg.dependences` plus
one scalar-privacy test.  The property below generates small guarded,
triangular, symbolically-bounded nests and checks that the three give one
answer per loop — and that every tag the analyser hands out survives
execution in shuffled order.  The regression class pins the case that
used to split them: the pivot-guarded Gauss–Jordan row update.
"""

import random
from datetime import timedelta

import hypothesis.strategies as st
import numpy as np
from hypothesis import given, settings

from repro.analysis.dependence import exposed_written_scalars
from repro.analysis.doall import classify_loop, mark_doall
from repro.analysis.pdg import build_pdg
from repro.analysis.safety import dispatchable, verify_procedure
from repro.analysis.summary import analyze_procedure
from repro.ir.builder import assign, ref
from repro.ir.expr import BinOp, Const, Expr, Var
from repro.ir.stmt import Block, If, Loop, LoopKind, Procedure
from repro.ir.validate import validate
from repro.ir.visitor import collect_loops
from repro.parallel import run_parallel_procedure
from repro.experiments.e10_end_to_end import run_doall_shuffled
from repro.runtime.interp import Interpreter
from repro.transforms import coalesce_procedure
from repro.workloads import gauss_reference, get_workload, make_env

LO, HI = 3, 6  # loops run inside 3..6 so offset subscripts stay positive
SIZE = HI + 4


def loops_with_outer(s, outer=()):
    if isinstance(s, (Block, Procedure)):
        for x in s.stmts if isinstance(s, Block) else (s.body,):
            yield from loops_with_outer(x, outer)
    elif isinstance(s, If):
        yield from loops_with_outer(s.then, outer)
        yield from loops_with_outer(s.orelse, outer)
    elif isinstance(s, Loop):
        yield s, outer
        yield from loops_with_outer(s.body, outer + (s,))


def retag(proc, kind_of):
    """``proc`` with every loop's kind replaced by ``kind_of(loop)``."""

    def go(s):
        if isinstance(s, Block):
            return Block(tuple(go(x) for x in s.stmts))
        if isinstance(s, If):
            return If(s.cond, go(s.then), go(s.orelse))
        if isinstance(s, Loop):
            return s.with_body(go(s.body)).with_kind(kind_of(s))
        return s

    return proc.with_body(go(proc.body))


@st.composite
def guarded_nests(draw) -> Procedure:
    """A depth-1..3 nest: constant or symbolic, rectangular or triangular
    bounds; 1-3 statements with small-offset affine subscripts; optional
    ``==``/``!=`` guard; optional private temp defined outside the
    innermost loop (the Gauss-Jordan ``mult`` shape)."""
    depth = draw(st.integers(1, 3))
    names = ["i", "j", "k"][:depth]

    def index(scope=names) -> Expr:
        if draw(st.integers(0, 5)) == 0:
            return Const(draw(st.integers(LO, HI)))
        e: Expr = Var(draw(st.sampled_from(scope)))
        off = draw(st.sampled_from((-1, 0, 0, 1)))
        return BinOp("+" if off > 0 else "-", e, Const(abs(off))) if off else e

    def value(scope=names) -> Expr:
        kind = draw(st.integers(0, 3))
        if kind == 0:
            return Const(float(draw(st.integers(1, 9))))
        if kind == 1:
            return BinOp("+", ref("A", index(scope), index(scope)), Const(1.0))
        if kind == 2:
            return ref("B", index(scope))
        return ref("A", index(scope), index(scope))

    stmts = [
        assign(ref("A", index(), index()), value())
        for _ in range(draw(st.integers(1, 3)))
    ]
    temp_level = temp = None
    if draw(st.booleans()):
        # t is defined before every use: private wherever it is placed
        stmts.append(assign(ref("A", index(), index()), Var("t")))
        temp_level = draw(st.integers(0, depth - 1))
        temp = assign(Var("t"), value(names[: temp_level + 1]))

    body = Block(tuple(stmts))
    for d in range(depth - 1, -1, -1):
        lower: Expr = Const(LO)
        upper: Expr = Var("n") if draw(st.booleans()) else Const(HI)
        if d > 0:
            shape = draw(st.sampled_from(["rect", "rect", "upto", "after"]))
            if shape == "upto":  # j = LO .. i
                upper = Var(names[d - 1])
            elif shape == "after":  # k = j + 1 .. HI
                lower = BinOp("+", Var(names[d - 1]), Const(1))
        if temp_level == d:
            body = Block((temp,) + body.stmts)
        if draw(st.integers(0, 2)) == 0:
            other: Expr = (
                Var(draw(st.sampled_from(names[:d])))
                if d > 0 and draw(st.booleans())
                else Const(draw(st.integers(LO, HI)))
            )
            op = draw(st.sampled_from(["==", "!="]))
            body = Block((If(BinOp(op, Var(names[d]), other), body),))
        body = Block((Loop(names[d], lower, upper, body),))

    p = Procedure("gen", body, {"A": 2, "B": 1}, ("n",))
    validate(p)
    return p


class _ShuffledDoalls(Interpreter):
    """Runs every DOALL loop in a seeded random order, each iteration on
    its own copy of the scalars (what a dispatch to workers does)."""

    def __init__(self, seed):
        super().__init__()
        self.rng = random.Random(seed)

    def _exec(self, s, env, arrays):
        if isinstance(s, Loop) and s.is_doall:
            values = list(
                range(
                    self._eval_int(s.lower, env, arrays, "lower"),
                    self._eval_int(s.upper, env, arrays, "upper") + 1,
                )
            )
            self.rng.shuffle(values)
            for value in values:
                super()._exec(s.body, {**env, s.var: value}, arrays)
        else:
            super()._exec(s, env, arrays)


@given(p=guarded_nests(), seed=st.integers(0, 10**6))
@settings(max_examples=120, deadline=timedelta(seconds=5), derandomize=True)
def test_classifier_pdg_and_verifier_agree_and_tags_hold(p, seed):
    for loop, outer in loops_with_outer(p):
        verdict = classify_loop(loop, outer)
        bound = {loop.var} | {lp.var for lp in outer}
        carried_array_edge = any(
            e.carried and e.kind != "scalar"
            for e in build_pdg(loop, outer).edges
        )
        exposed = exposed_written_scalars(loop.body, bound)
        assert verdict == (not carried_array_edge and not exposed), loop.var

        # The same loop, claimed DOALL on its own, in front of the verifier.
        claimed = retag(
            p, lambda s: LoopKind.DOALL if s is loop else LoopKind.SERIAL
        )
        (target,) = [lp for lp in collect_loops(claimed) if lp.is_doall]
        assert dispatchable(target)
        safety = verify_procedure(claimed).by_id[id(target)]
        if safety.shape == "direct" and safety.reduction is None:
            assert safety.proven == verdict, safety.findings

    tagged = mark_doall(p)
    rng = np.random.default_rng(seed)
    base = {
        "A": rng.standard_normal((SIZE, SIZE)),
        "B": rng.standard_normal(SIZE),
    }
    want = {k: v.copy() for k, v in base.items()}
    Interpreter().run(p, want, {"n": HI})
    got = {k: v.copy() for k, v in base.items()}
    _ShuffledDoalls(seed).run(tagged, got, {"n": HI})
    for name in want:
        assert np.array_equal(want[name], got[name]), (name, tagged)
    if tagged.body.stmts[0].is_doall:
        got = {k: v.copy() for k, v in base.items()}
        run_doall_shuffled(tagged, got, {"n": HI}, seed=seed)
        for name in want:
            assert np.array_equal(want[name], got[name]), (name, tagged)


class TestGaussJordanRegression:
    """At the parent commit ``lint`` proved the guarded row update
    race-free while ``mark_doall`` demoted it and the PDG reported four
    carried ``AB`` edges plus a self edge on the private ``mult``."""

    def _auto_tagged(self):
        w = get_workload("gauss_jordan")
        stripped = retag(w.proc, lambda s: LoopKind.SERIAL)
        return w, mark_doall(stripped)

    def test_mark_doall_reproduces_the_hand_set_tags(self):
        w, tagged = self._auto_tagged()
        assert tagged == w.proc

    def test_analyze_reports_the_row_update_parallel(self):
        w, _ = self._auto_tagged()
        verdicts = {
            (v.var, v.level): v for v in analyze_procedure(w.proc).verdicts
        }
        assert verdicts[("i", 1)].parallel
        assert not verdicts[("j", 0)].parallel
        assert "i: DOALL [tagged doall]" in analyze_procedure(w.proc).format()

    def test_pdg_of_the_row_update_has_no_carried_edge(self):
        w, _ = self._auto_tagged()
        j_loop = w.proc.body.stmts[0]
        i_loop = j_loop.body.stmts[0]
        assert not [e for e in build_pdg(i_loop, (j_loop,)).edges if e.carried]

    def test_auto_tagged_run_does_one_dispatch_per_pivot(self):
        w, tagged = self._auto_tagged()
        proc, _ = coalesce_procedure(tagged)
        arrays, sc = make_env(w, seed=5)
        before = {k: v.copy() for k, v in arrays.items()}
        want = {k: v.copy() for k, v in arrays.items()}
        Interpreter().run(w.proc, want, sc)
        result = run_parallel_procedure(proc, arrays, sc, workers=2)
        assert len(result.dispatches) == sc["n"] + 1
        for name in want:
            assert np.array_equal(want[name], arrays[name]), name
        n, m = sc["n"], sc["m"]
        assert np.allclose(arrays["X"][1 : n + 1, 1 : m + 1], gauss_reference(before, sc))
