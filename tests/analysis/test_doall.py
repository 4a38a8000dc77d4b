"""Unit tests for DOALL classification and auto-tagging."""


from repro.analysis.dependence import (
    collect_guarded_accesses,
    upward_exposed_scalars,
)
from repro.analysis.doall import (
    classify_loop,
    loop_carried_dependences,
    mark_doall,
)
from repro.frontend.dsl import parse
from repro.ir.builder import assign, c, doall, if_, proc, ref, serial, v
from repro.ir.stmt import LoopKind
from repro.ir.visitor import collect_loops


class TestScalarAnalysis:
    def test_private_temp_ok(self):
        lp = serial("i", 1, v("n"))(
            assign(v("t"), ref("A", v("i"))),
            assign(ref("A", v("i")), v("t") * c(2.0)),
        )
        assert classify_loop(lp)

    def test_read_before_write_blocks(self):
        lp = serial("i", 1, v("n"))(
            assign(ref("A", v("i")), v("t")),
            assign(v("t"), ref("A", v("i"))),
        )
        assert not classify_loop(lp)

    def test_reduction_blocks(self):
        lp = serial("i", 1, v("n"))(assign(v("s"), v("s") + ref("A", v("i"))))
        assert not classify_loop(lp)

    def test_conditional_write_not_definite(self):
        # t written only on one branch, read afterwards: exposed.
        lp = serial("i", 1, v("n"))(
            if_(ref("A", v("i")) > c(0), assign(v("t"), c(1.0))),
            assign(ref("A", v("i")), v("t")),
        )
        assert not classify_loop(lp)

    def test_write_on_both_branches_is_definite(self):
        lp = serial("i", 1, v("n"))(
            if_(
                ref("A", v("i")) > c(0),
                assign(v("t"), c(1.0)),
                assign(v("t"), c(-1.0)),
            ),
            assign(ref("A", v("i")), v("t")),
        )
        assert classify_loop(lp)

    def test_upward_exposed_basics(self):
        from repro.ir.builder import block

        b = block(assign(v("x"), v("y")), assign(v("z"), v("x")))
        exposed, written = upward_exposed_scalars(b)
        assert exposed == {"y"}
        assert written == {"x", "z"}


class TestArrayAnalysis:
    def test_recurrence_detected(self):
        lp = serial("i", 2, v("n"))(
            assign(ref("A", v("i")), ref("A", v("i") - 1) + c(1.0))
        )
        deps = loop_carried_dependences(lp)
        assert deps and deps[0].array == "A"
        assert not classify_loop(lp)

    def test_inplace_update_parallel(self):
        lp = serial("i", 1, v("n"))(
            assign(ref("A", v("i")), ref("A", v("i")) + c(1.0))
        )
        assert classify_loop(lp)

    def test_disjoint_arrays_parallel(self):
        lp = serial("i", 1, v("n"))(
            assign(ref("B", v("i")), ref("A", v("i")))
        )
        assert classify_loop(lp)

    def test_write_write_conflict(self):
        # All iterations write A(1): output dependence carried by the loop.
        lp = serial("i", 1, v("n"))(assign(ref("A", c(1)), v("i")))
        assert not classify_loop(lp)

    def test_outer_loop_context_fixes_indices(self):
        # Inner j loop: A(i, j) = A(i-1, j) — the dependence is carried by
        # the OUTER i loop, so j is parallel given i in context.
        outer = serial("i", 2, v("n"))(
            serial("j", 1, v("m"))(
                assign(ref("A", v("i"), v("j")), ref("A", v("i") - 1, v("j")))
            )
        )
        inner = outer.body.stmts[0]
        assert not classify_loop(outer)
        assert classify_loop(inner, outer=(outer,))

    def test_nonaffine_subscript_blocks(self):
        lp = serial("i", 1, v("n"))(
            assign(ref("A", ref("P", v("i"))), c(1.0))  # indirection
        )
        assert not classify_loop(lp)


class TestMarkDoall:
    def test_matmul_tagging(self):
        mm = parse(
            """
            procedure matmul(A[2], B[2], C[2]; n)
              for i = 1, n
                for j = 1, n
                  C(i, j) := 0.0
                  for k = 1, n
                    C(i, j) := C(i, j) + A(i, k) * B(k, j)
                  end
                end
              end
            end
            """
        )
        loops = collect_loops(mark_doall(mm))
        kinds = {lp.var: lp.kind for lp in loops}
        assert kinds["i"] is LoopKind.DOALL
        assert kinds["j"] is LoopKind.DOALL
        assert kinds["k"] is LoopKind.SERIAL

    def test_wavefront_tagging(self):
        wf = parse(
            """
            procedure wf(A[2]; n, m)
              for i = 2, n
                for j = 1, m
                  A(i, j) := A(i - 1, j) * 2.0
                end
              end
            end
            """
        )
        loops = collect_loops(mark_doall(wf))
        kinds = {lp.var: lp.kind for lp in loops}
        assert kinds["i"] is LoopKind.SERIAL
        assert kinds["j"] is LoopKind.DOALL

    def test_optimistic_tag_demoted(self):
        p = proc(
            "bad",
            doall("i", 2, v("n"))(
                assign(ref("A", v("i")), ref("A", v("i") - 1))
            ),
            arrays={"A": 1},
            scalars=("n",),
        )
        out = mark_doall(p)
        assert collect_loops(out)[0].kind is LoopKind.SERIAL

    def test_stencil_to_fresh_array_parallel(self):
        st = parse(
            """
            procedure sten(A[2], B[2]; n, m)
              for i = 2, n
                for j = 2, m
                  B(i, j) := (A(i - 1, j) + A(i + 1, j)) / 2.0
                end
              end
            end
            """
        )
        loops = collect_loops(mark_doall(st))
        assert all(lp.kind is LoopKind.DOALL for lp in loops)


class TestCollectAccesses:
    def test_reads_and_writes_separated(self):
        lp = serial("i", 1, 5)(
            assign(ref("A", v("i")), ref("B", v("i")) + ref("A", v("i") - 1))
        )
        acc = collect_guarded_accesses(lp.body)
        writes = [a for a in acc if a.is_write]
        reads = [a for a in acc if not a.is_write]
        assert len(writes) == 1 and writes[0].ref.name == "A"
        assert {a.ref.name for a in reads} == {"A", "B"}

    def test_inner_chain_recorded(self):
        lp = serial("j", 1, 5)(assign(ref("A", v("j")), c(0.0)))
        outer_body = serial("i", 1, 5)(lp).body
        acc = collect_guarded_accesses(outer_body)
        assert all(len(a.inner_chain) == 1 for a in acc)
