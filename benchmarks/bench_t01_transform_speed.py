"""T1 — compiler-overhead benchmarks: how fast are the passes themselves?

Not a paper claim, but a library property worth tracking: parsing,
analysing, and coalescing should be interactive-speed even for deep nests
and long procedures.  These benchmarks use real pytest-benchmark timing
(multiple rounds) rather than the single-shot pedantic mode the experiment
regenerators use.
"""

from repro.analysis.doall import mark_doall
from repro.frontend.dsl import parse
from repro.ir.builder import assign, ref, v
from repro.ir.stmt import Block, Loop, LoopKind
from repro.ir.expr import Const, Var
from repro.transforms.coalesce import coalesce, coalesce_procedure
from repro.transforms.fission import fission_procedure

MATMUL_SRC = """
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


def deep_nest(depth: int) -> Loop:
    body = Block(
        (assign(ref("T", *[v(f"i{k}") for k in range(depth)]), Const(0.0)),)
    )
    loop: Loop | None = None
    for k in range(depth - 1, -1, -1):
        inner = Block((loop,)) if loop is not None else body
        loop = Loop(f"i{k}", Const(1), Var("n"), inner, Const(1), LoopKind.DOALL)
    assert loop is not None
    return loop


def test_t01_parse_speed(benchmark, record_timing):
    p = benchmark(parse, MATMUL_SRC)
    assert p.name == "matmul"
    record_timing("t01_transform_speed", "parse", benchmark)


def test_t01_analysis_speed(benchmark, record_timing):
    mm = parse(MATMUL_SRC)
    tagged = benchmark(mark_doall, mm)
    assert any(lp.is_doall for lp in _loops(tagged))
    record_timing("t01_transform_speed", "analysis", benchmark)


def test_t01_coalesce_speed_depth8(benchmark, record_timing):
    nest = deep_nest(8)
    result = benchmark(coalesce, nest)
    assert result.depth == 8
    record_timing("t01_transform_speed", "coalesce_depth8", benchmark, depth=8)


def test_t01_full_pipeline_speed(benchmark, record_timing):
    def pipeline():
        p = mark_doall(parse(MATMUL_SRC))
        p = fission_procedure(p, fission=False, distribute=True).procedure
        return coalesce_procedure(p)

    proc_out, results = benchmark(pipeline)
    assert len(results) == 2
    record_timing("t01_transform_speed", "full_pipeline", benchmark)


def _loops(p):
    from repro.ir.visitor import collect_loops

    return collect_loops(p)
