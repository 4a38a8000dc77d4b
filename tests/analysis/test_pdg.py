"""Statement-level PDG construction, SCC condensation, and reduction
recognition (:mod:`repro.analysis.pdg`)."""

import pytest

from repro.analysis.pdg import (
    REDUCTION_IDENTITY,
    build_pdg,
    recognize_reduction,
)
from repro.frontend.dsl import parse


def loop_of(src):
    return parse(src).body.stmts[0]


MIXED = """
procedure mixed(A[1], B[1], C[1]; n, s)
  for i = 1, n
    B(i) := 2.0 * A(i)
    C(i) := C(i - 1) + A(i)
    s := s + B(i)
  end
end
"""


class TestBuildPdg:
    def test_nodes_are_top_level_statements(self):
        pdg = build_pdg(loop_of(MIXED))
        assert len(pdg.stmts) == 3

    def test_recurrence_has_carried_flow_self_edge(self):
        pdg = build_pdg(loop_of(MIXED))
        self_edges = pdg.edges_between(1, 1)
        assert any(e.kind == "flow" and e.carried for e in self_edges)
        assert pdg.has_self_cycle(1)

    def test_clean_statement_has_no_self_cycle(self):
        pdg = build_pdg(loop_of(MIXED))
        assert not pdg.has_self_cycle(0)

    def test_flow_edge_from_writer_to_scalar_reduction(self):
        # S0 writes B(i); S2 reads B(i) in the same iteration.
        pdg = build_pdg(loop_of(MIXED))
        edges = pdg.edges_between(0, 2)
        assert any(
            e.kind == "flow" and e.var == "B" and not e.carried
            for e in edges
        )

    def test_scalar_self_edge_on_accumulator(self):
        pdg = build_pdg(loop_of(MIXED))
        assert any(
            e.kind == "scalar" and e.var == "s"
            for e in pdg.edges_between(2, 2)
        )

    def test_direction_vectors_on_carried_edges(self):
        pdg = build_pdg(loop_of(MIXED))
        carried = [
            e for e in pdg.edges_between(1, 1) if e.kind == "flow"
        ]
        assert carried and all("<" in e.directions for e in carried)

    def test_describe_names_statements_and_directions(self):
        pdg = build_pdg(loop_of(MIXED))
        (edge,) = [
            e for e in pdg.edges_between(1, 1) if e.kind == "flow"
        ]
        text = edge.describe()
        assert "S1 -> S1" in text and "carried" in text

    def test_to_dict_roundtrip_fields(self):
        d = build_pdg(loop_of(MIXED)).to_dict()
        assert d["statements"] == 3
        assert all(
            {"src", "dst", "kind", "var", "carried"} <= set(e)
            for e in d["edges"]
        )


def edge_set(loop):
    return {(e.src, e.dst, e.kind, e.directions) for e in build_pdg(loop).edges}


def pair_nest(read):
    """``A(i, j) := <read>`` under ``i = 2..8``, ``j = 2..8``."""
    return loop_of(
        f"""
        procedure nest(A[2]; n)
          for i = 2, 8
            for j = 2, 8
              A(i, j) := {read}
            end
          end
        end
        """
    )


def two_statements(read):
    """``A(i) := 1.0`` then ``B(i) := <read>`` in one ``i`` loop."""
    return loop_of(
        f"""
        procedure two(A[1], B[1]; n)
          for i = 2, n - 1
            A(i) := 1.0
            B(i) := {read}
          end
        end
        """
    )


class TestDirectionVectors:
    """Edges carry their direction vector in execution order, over the
    analyzed loop and the inner loop its statement shares (``(i, j)``)."""

    def test_flow_with_less_greater(self):
        # Iteration (i, j) writes what (i+1, j-1) reads.
        assert edge_set(pair_nest("A(i - 1, j + 1)")) == {
            (0, 0, "flow", ("<", ">"))
        }

    def test_anti_with_less_greater(self):
        # Iteration (i, j) reads what (i+1, j-1) overwrites.
        assert edge_set(pair_nest("A(i + 1, j - 1)")) == {
            (0, 0, "anti", ("<", ">"))
        }

    def test_flow_with_less_equal(self):
        assert edge_set(pair_nest("A(i - 1, j)")) == {
            (0, 0, "flow", ("<", "="))
        }

    def test_independent_pair_has_no_edge(self):
        assert edge_set(pair_nest("1.0")) == set()

    def test_backward_read_runs_second_to_first(self):
        # S1 reads A(i+1) one iteration before S0 writes it: an anti
        # edge from the second statement back to the first.
        assert edge_set(two_statements("A(i + 1)")) == {
            (1, 0, "anti", ("<",))
        }

    def test_forward_read_runs_first_to_second(self):
        assert edge_set(two_statements("A(i - 1)")) == {
            (0, 1, "flow", ("<",))
        }

    def test_aligned_read_is_loop_independent(self):
        pdg = build_pdg(two_statements("A(i)"))
        assert [(e.src, e.dst, e.kind, e.directions, e.carried)
                for e in pdg.edges] == [(0, 1, "flow", ("=",), False)]


class TestSccs:
    def test_condensation_is_topological(self):
        pdg = build_pdg(loop_of(MIXED))
        comps = pdg.sccs()
        # Each statement is its own component (no multi-statement cycle).
        assert sorted(k for c in comps for k in c) == [0, 1, 2]
        pos = {k: idx for idx, c in enumerate(comps) for k in c}
        for e in pdg.edges:
            if e.src != e.dst:
                assert pos[e.src] <= pos[e.dst], e.describe()

    def test_recurrence_singleton_is_cyclic(self):
        pdg = build_pdg(loop_of(MIXED))
        assert pdg.cyclic((1,))
        assert not pdg.cyclic((0,))

    def test_two_statement_scalar_cycle(self):
        # t flows S0 -> S1 and s flows S1 -> (next iteration's) S0: one
        # component, cyclic, never splittable.
        lp = loop_of(
            """
            procedure chain(A[1]; n, s, t)
              for i = 1, n
                t := s + A(i)
                s := t * 2.0
              end
            end
            """
        )
        pdg = build_pdg(lp)
        comps = pdg.sccs()
        assert comps == ((0, 1),)
        assert pdg.cyclic(comps[0])
        assert pdg.blocking_edges(comps[0])

    def test_antidep_cycle_across_statements(self):
        lp = loop_of(
            """
            procedure anti(A[1], B[1]; n)
              for i = 1, n - 1
                A(i) := B(i) + 1.0
                B(i) := A(i + 1) * 2.0
              end
            end
            """
        )
        pdg = build_pdg(lp)
        assert pdg.sccs() == ((0, 1),)
        kinds = {e.kind for e in pdg.blocking_edges((0, 1))}
        assert "anti" in kinds

    def test_independent_statements_split(self):
        lp = loop_of(
            """
            procedure indep(A[1], B[1], C[1], D[1]; n)
              for i = 1, n
                B(i) := A(i) + 1.0
                D(i) := C(i) * 2.0
              end
            end
            """
        )
        pdg = build_pdg(lp)
        assert len(pdg.sccs()) == 2
        assert not pdg.edges


class TestRecognizeReduction:
    @pytest.mark.parametrize("op", sorted(REDUCTION_IDENTITY))
    def test_ops_recognized_both_orientations(self, op):
        for form in (f"s {op} A(i)", f"A(i) {op} s"):
            if op in ("min", "max"):
                form = f"{op}({form.split(f' {op} ')[0]}, {form.split(f' {op} ')[1]})"
            lp = loop_of(
                f"""
                procedure red(A[1]; n, s)
                  for i = 1, n
                    s := {form}
                  end
                end
                """
            )
            red = recognize_reduction(lp)
            assert red is not None and red.op == op and red.scalar == "s"

    def test_guarded_reduction_recognized(self):
        lp = loop_of(
            """
            procedure g(A[1]; n, s)
              for i = 1, n
                if A(i) > 0.0 then
                  s := s + A(i)
                end
              end
            end
            """
        )
        red = recognize_reduction(lp)
        assert red is not None and red.guard is not None

    def test_identity_values(self):
        lp = loop_of(
            """
            procedure red(A[1]; n, s)
              for i = 1, n
                s := max(s, A(i))
              end
            end
            """
        )
        assert recognize_reduction(lp).identity == float("-inf")

    @pytest.mark.parametrize(
        "body",
        [
            "s := s - A(i)",  # non-commutative operator
            "s := s + s",  # s on both sides
            "s := A(i) + B(i)",  # s not an operand
            "T(i) := s + A(i)",  # array target
            "i := i + 1",  # the loop variable itself
        ],
    )
    def test_rejections(self, body):
        lp = loop_of(
            f"""
            procedure bad(A[1], B[1], T[1]; n, s)
              for i = 1, n
                {body}
              end
            end
            """
        )
        assert recognize_reduction(lp) is None

    def test_guard_reading_accumulator_rejected(self):
        lp = loop_of(
            """
            procedure bad(A[1]; n, s)
              for i = 1, n
                if s < 100.0 then
                  s := s + A(i)
                end
              end
            end
            """
        )
        assert recognize_reduction(lp) is None

    def test_update_reading_accumulator_rejected(self):
        lp = loop_of(
            """
            procedure bad(A[1]; n, s)
              for i = 1, n
                s := s + s * A(i)
              end
            end
            """
        )
        assert recognize_reduction(lp) is None

    def test_non_unit_step_rejected(self):
        lp = loop_of(
            """
            procedure bad(A[1]; n, s)
              for i = 1, n, 2
                s := s + A(i)
              end
            end
            """
        )
        assert recognize_reduction(lp) is None

    def test_two_statement_body_rejected(self):
        lp = loop_of(MIXED)
        assert recognize_reduction(lp) is None
