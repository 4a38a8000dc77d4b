"""A run's accounting is a table: one row per DOALL instance, kept as
columns, with ``ParallelRunResult`` objects built only when a caller
reads ``result.dispatches``.

The counts a run reports — its properties, ``to_dict()`` and what
``observe.record_run`` folds into ``/metrics`` — come from the table and
must equal the sums over the list it builds, on every path: a region, a
per-dispatch run, a reduction reported as written, and a run with an
empty instance.
"""

import numpy as np
import pytest

from repro.codegen.cload import have_compiler
from repro.frontend.dsl import parse
from repro.parallel import WorkerPool, run_parallel_procedure
from repro.parallel.runtime import ParallelRunResult, _aggregate
from repro.transforms import coalesce_procedure, fission_procedure
from repro.workloads import dot_product, get_workload, make_env

needs_gcc = pytest.mark.skipif(not have_compiler(), reason="no gcc on PATH")

#: The last instance (``t = n``) has an empty range; the ones before it
#: are narrower than the fleet.
SHRINK = parse(
    """
    procedure shrink(A[1]; n)
      for t = 0, n
        doall i = t + 1, n
          A(i) := A(i) + 1.0
        end
      end
    end
    """
)


def gauss(n: int):
    w = get_workload("gauss_jordan")
    arrays, scalars = make_env(w, scalars={"n": n, "m": 1}, seed=2)
    return coalesce_procedure(w.proc)[0], arrays, scalars


def counting(monkeypatch) -> list:
    """Record every ``ParallelRunResult`` construction, wherever made."""
    made = []
    init = ParallelRunResult.__init__

    def spy(self, *args, **kwargs):
        made.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(ParallelRunResult, "__init__", spy)
    return made


def assert_counts_are_the_lists(result) -> None:
    built = result.dispatches
    assert isinstance(built, list) and result.dispatches is built
    stats = result.to_dict()
    assert stats["dispatches"] == len(built)
    assert result.claims == stats["claims"] == sum(d.claims for d in built)
    assert result.lock_ops == stats["lock_ops"] == sum(
        d.lock_ops for d in built
    )
    assert result.total_iterations == stats["iterations"] == sum(
        d.total_iterations for d in built
    )
    assert result.chunk_lang == _aggregate({d.chunk_lang for d in built})
    assert result.claim_loop == _aggregate({d.claim_loop for d in built})
    assert result.fork_joins == (
        1 if result.region == "native" else len(built)
    )


@needs_gcc
def test_nothing_is_built_until_it_is_read(monkeypatch):
    proc, arrays, scalars = gauss(64)
    made = counting(monkeypatch)
    result = run_parallel_procedure(proc, arrays, scalars, workers=2)
    stats = result.to_dict()
    assert (result.region, stats["dispatches"]) == ("native", 65)
    assert made == []  # the run, its record_run and to_dict built nothing
    assert len(result.dispatches) == 65 and len(made) == 65
    assert_counts_are_the_lists(result)
    assert len(made) == 65  # built once, then kept


@pytest.mark.parametrize("policy", ["static", "gss"])
def test_a_per_dispatch_run_counts_its_list(policy):
    proc, arrays, scalars = gauss(16)
    result = run_parallel_procedure(
        proc, arrays, scalars, workers=2, policy=policy
    )
    if policy == "static" or not have_compiler():
        assert result.region != "native" and result.fork_joins == 17
    assert_counts_are_the_lists(result)


def test_a_reduction_counts_the_loop_as_written():
    w = dot_product()
    arrays, scalars = make_env(w, scalars={"n": 500}, seed=5)
    proc = fission_procedure(w.proc, fission=False, reduction=True).procedure
    result = run_parallel_procedure(proc, arrays, scalars, workers=2)
    assert result.total_iterations == 500
    (d,) = result.dispatches
    assert d.reduction_scalar is not None
    assert d.reduction_value == pytest.approx(
        scalars.get("s", 0) + np.dot(arrays["A"][1:501], arrays["B"][1:501])
    )
    assert_counts_are_the_lists(result)


@pytest.mark.parametrize("policy", ["unit", "static"])
def test_an_empty_instance_is_a_row_like_any_other(policy):
    arrays = {"A": np.zeros(6)}
    result = run_parallel_procedure(
        SHRINK, arrays, {"n": 5}, workers=3, policy=policy
    )
    assert arrays["A"].tolist() == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]
    *_, empty = result.dispatches
    assert (empty.lo, empty.hi, empty.total_iterations) == (6, 5, 0)
    assert (empty.workers, empty.iterations_per_worker) == (3, [0, 0, 0])
    assert (empty.wall_time, empty.chunk_lang) == (0.0, "py")
    assert [d.workers for d in result.dispatches] == [3, 3, 3, 2, 1, 3]
    assert_counts_are_the_lists(result)


@needs_gcc
def test_warm_region_runs_keep_their_table():
    """One warm pool, many runs: every run's table is its own."""
    proc, arrays, scalars = gauss(64)
    with WorkerPool(arrays, workers=2) as pool:
        runs = [
            run_parallel_procedure(
                proc, arrays, scalars, pool=pool, log_events=False
            )
            for _ in range(3)
        ]
    for result in runs:
        assert result.fork_joins == 1 and len(result.dispatches) == 65
        assert_counts_are_the_lists(result)
