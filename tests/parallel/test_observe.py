"""One fold of a run: ``observe.record_run`` is the only writer of the
per-run ``dispatch`` counts, and it folds them from the run's result.

With the fold patched out, no path of a run — a chunk fallback, a claim
fallback, a reduction, a blocked loop, a region — moves a counter; and a
run that raises records nothing.
"""

import copy

import numpy as np
import pytest

from repro.codegen.cload import have_compiler
from repro.frontend.dsl import parse
from repro.parallel import (
    ParallelTimeoutError,
    WorkerCrashError,
    run_parallel_procedure,
    runtime,
)
from repro.parallel.observe import DISPATCH
from repro.transforms import coalesce_procedure, fission_procedure
from repro.workloads import dot_product, get_workload, make_env

needs_gcc = pytest.mark.skipif(not have_compiler(), reason="no gcc on PATH")

#: One provable loop, one the verifier cannot prove (a data-dependent
#: subscript): under enforce, one dispatch and one blocked loop.
SAXPY_HISTOGRAM = parse(
    """
    procedure saxpy_histogram(H[1], K[1], X[1], Y[1]; n)
      doall i = 1, n
        Y(i) := Y(i) + 2.5 * X(i)
      end
      doall j = 1, n
        H(int(K(j))) := H(int(K(j))) + 1.0
      end
    end
    """
)

BOOM = parse(
    """
    procedure boom(A[1]; n, d)
      doall i = 1, n
        A(i) := float(i div (n - d))
      end
    end
    """
)

LONG = parse(
    """
    procedure long_region(A[1]; n, rounds)
      for t = 1, rounds
        doall i = 1, n
          A(i) := A(i) + 1.0
        end
      end
    end
    """
)


def counters() -> dict:
    return copy.deepcopy(DISPATCH)


def workload(name: str, **sizes):
    w = get_workload(name)
    arrays, scalars = make_env(w, scalars=sizes or None, seed=5)
    return coalesce_procedure(w.proc)[0], arrays, scalars


def chunk_fallback(monkeypatch):
    def boom(*args, **kwargs):
        raise OSError("injected: the kernel does not build")

    monkeypatch.setattr(runtime, "compile_chunk_library", boom)
    proc, arrays, scalars = workload("saxpy2d")
    result = run_parallel_procedure(proc, arrays, scalars, workers=2)
    assert [d.chunk_fallback for d in result.dispatches] == [True]


def claim_fallback(monkeypatch):
    monkeypatch.setattr(
        runtime, "claim_loop_library",
        lambda cache="default": "/nonexistent/librepro_claim.so",
    )
    proc, arrays, scalars = workload("saxpy2d")
    result = run_parallel_procedure(
        proc, arrays, scalars, workers=2, policy="unit"
    )
    assert result.claim_fallbacks == 1 and result.claim_loop == "py"


def reduction(monkeypatch):
    w = dot_product()
    arrays, scalars = make_env(w, scalars={"n": 500}, seed=5)
    proc = fission_procedure(w.proc, fission=False, reduction=True).procedure
    result = run_parallel_procedure(proc, arrays, scalars, workers=2)
    assert result.reductions == 1


def blocked(monkeypatch):
    n = 64
    rng = np.random.default_rng(5)
    arrays = {
        "H": np.zeros(n + 1), "K": rng.integers(1, n, n + 1).astype(float),
        "X": rng.random(n + 1), "Y": rng.random(n + 1),
    }
    result = run_parallel_procedure(
        SAXPY_HISTOGRAM, arrays, {"n": n}, workers=2
    )
    assert result.blocked_dispatches == 1 and len(result.dispatches) == 1


def region(monkeypatch):
    proc, arrays, scalars = workload("gauss_jordan", n=12, m=2)
    result = run_parallel_procedure(proc, arrays, scalars, workers=2)
    assert result.region == "native" and result.fork_joins == 1


@pytest.mark.parametrize(
    "path",
    [
        pytest.param(chunk_fallback, marks=needs_gcc, id="chunk_fallback"),
        pytest.param(claim_fallback, marks=needs_gcc, id="claim_fallback"),
        pytest.param(reduction, id="reduction"),
        pytest.param(blocked, id="blocked"),
        pytest.param(region, marks=needs_gcc, id="region"),
    ],
)
def test_only_the_fold_counts(monkeypatch, path):
    monkeypatch.setattr(runtime, "record_run", lambda *a, **k: None)
    before = counters()
    path(monkeypatch)
    assert counters() == before


def test_a_crashed_run_records_nothing():
    arrays = {"A": np.zeros(40)}
    before = counters()
    with pytest.raises(WorkerCrashError):
        run_parallel_procedure(BOOM, arrays, {"n": 39, "d": 39}, workers=2)
    assert counters() == before


def test_a_timed_out_run_records_nothing():
    arrays = {"A": np.zeros(65)}
    before = counters()
    with pytest.raises(ParallelTimeoutError):
        run_parallel_procedure(
            LONG, arrays, {"n": 64, "rounds": 400_000}, workers=2,
            timeout=0.5, log_events=False,
        )
    assert counters() == before
