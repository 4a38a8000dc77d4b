"""Unit tests for the analysis summary / diagnostics report."""


from repro.analysis.summary import analyze_procedure
from repro.frontend.dsl import parse

MATMUL = """
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

WAVEFRONT = """
procedure wf(A[2]; n, m)
  for i = 2, n
    for j = 1, m
      A(i, j) := A(i - 1, j) * 2.0
    end
  end
end
"""

REDUCTION = """
procedure red(A[1]; n)
  for i = 1, n
    s := s + A(i)
  end
end
"""


class TestVerdicts:
    def test_matmul_verdicts(self):
        summary = analyze_procedure(parse(MATMUL))
        verdicts = {v.var: v for v in summary.verdicts}
        assert verdicts["i"].parallel
        assert verdicts["j"].parallel
        assert not verdicts["k"].parallel
        assert verdicts["k"].carried_arrays == ("C",)

    def test_nesting_levels(self):
        summary = analyze_procedure(parse(MATMUL))
        levels = {v.var: v.level for v in summary.verdicts}
        assert levels == {"i": 0, "j": 1, "k": 2}

    def test_wavefront_reason(self):
        summary = analyze_procedure(parse(WAVEFRONT))
        verdicts = {v.var: v for v in summary.verdicts}
        assert not verdicts["i"].parallel
        assert verdicts["i"].carried_arrays == ("A",)
        assert verdicts["j"].parallel

    def test_reduction_blames_scalar(self):
        src = REDUCTION.replace("s := s + A(i)", "s := s + A(i)")
        p = parse(
            """
            procedure red(A[1], Out[1]; n)
              s := 0.0
              for i = 1, n
                s := s + A(i)
              end
              Out(1) := s
            end
            """
        )
        summary = analyze_procedure(p)
        verdict = next(v for v in summary.verdicts if v.var == "i")
        assert not verdict.parallel
        assert "s" in verdict.blocking_scalars


class TestPlans:
    def test_matmul_plan(self):
        summary = analyze_procedure(parse(MATMUL))
        assert len(summary.plans) == 1
        plan = summary.plans[0]
        assert plan.index_vars == ("i", "j")
        assert plan.depth == 2
        assert plan.total == "n * n"

    def test_no_plan_for_fully_serial(self):
        summary = analyze_procedure(parse(WAVEFRONT))
        assert summary.plans == []

    def test_plan_under_serial_outer(self):
        p = parse(
            """
            procedure hyb(A[2]; n, steps)
              for t = 1, steps
                for i = 1, n
                  for j = 1, n
                    A(i, j) := A(i, j) + 1.0
                  end
                end
              end
            end
            """
        )
        summary = analyze_procedure(p)
        assert len(summary.plans) == 1
        assert summary.plans[0].index_vars == ("i", "j")


class TestFormatting:
    def test_format_contains_verdicts_and_plan(self):
        text = analyze_procedure(parse(MATMUL)).format()
        assert "i: DOALL" in text
        assert "k: serial" in text
        assert "carried dependence on C" in text
        assert "(i, j) depth=2" in text

    def test_format_when_nothing_to_coalesce(self):
        text = analyze_procedure(parse(WAVEFRONT)).format()
        assert "nothing to coalesce" in text


class TestCLI:
    def test_analyze_flag(self, tmp_path, capsys):
        from repro.cli import main

        f = tmp_path / "mm.loop"
        f.write_text(MATMUL)
        assert main([str(f), "--analyze"]) == 0
        out = capsys.readouterr().out
        assert "analysis of procedure 'matmul'" in out
        assert "coalescing plan" in out

    def test_analyze_rejects_bad_source(self, tmp_path, capsys):
        from repro.cli import main

        f = tmp_path / "bad.loop"
        f.write_text("procedure broken\nx := := 1\nend")
        assert main([str(f), "--analyze"]) == 1
