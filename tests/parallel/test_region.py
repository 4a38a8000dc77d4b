"""The native SPMD region (``result.region == "native"``, one fork/join).

A program with a DOALL under a serial loop runs as *one* dispatch: the
workers run the serial skeleton themselves and meet at a barrier per DOALL
instance.  These tests pin what must not change with that — arrays
bit-identical to the interpreter, ``result.dispatches`` still one entry
per instance with the per-dispatch path's chunks and counts — what is new
(``fork_joins == 1``), every rule that keeps a run on the per-dispatch
path, and that a lost worker never leaves its peers waiting.
"""

import multiprocessing
import os
import signal
import threading
import time

import numpy as np
import pytest

from repro.analysis.doall import mark_doall
from repro.api import transform_function
from repro.codegen import cload
from repro.codegen.cgen import generate_region_c
from repro.codegen.cload import have_compiler
from repro.frontend.dsl import parse
from repro.ir.printer import to_source
from repro.lint import RULE_DOCS
from repro.parallel import (
    ParallelError,
    ParallelTimeoutError,
    WorkerCrashError,
    WorkerPool,
    run_parallel_procedure,
)
from repro.parallel import region, worker
from repro.parallel.counter import policy_plan
from repro.parallel.dispatch import _resolve_claim_batch
from repro.parallel.observe import DISPATCH
from repro.parallel.runtime import RunTable, _dispatchable_loops
from repro.runtime.interp import Interpreter
from repro.transforms import coalesce_procedure
from repro.workloads import get_workload, make_env
from tests.parallel import must_time_out, own_segments, pin_chunk_lang, safety_for
from tests.parallel.test_claim_loop import assert_sent_back

pytestmark = pytest.mark.skipif(not have_compiler(), reason="no gcc on PATH")


def copies(arrays):
    return {k: v.copy() for k, v in arrays.items()}


def same(a, b):
    return all(np.array_equal(a[k], b[k]) for k in b)


def accounting(result):
    """What a dispatch *is*, whichever path produced it."""
    return [
        (
            d.loop_var, d.lo, d.hi, d.claims, d.lock_ops,
            sum(d.iterations_per_worker), d.claim_batch, d.policy,
        )
        for d in result.dispatches
    ]


def gauss_auto():
    """Gauss–Jordan with the tags ``mark_doall`` derives, not the paper's."""
    source = to_source(get_workload("gauss_jordan").proc)
    return coalesce_procedure(mark_doall(parse(source.replace("doall", "for"))))[0]


def program(name):
    """``(procedure to run, original, arrays, scalars)`` at a small size."""
    kernel = "gauss_jordan" if name == "gauss_auto" else name
    w = get_workload(kernel)
    sizes = {"n": 11, "m": 2} if kernel == "gauss_jordan" else {"n": 9}
    arrays, scalars = make_env(w, scalars=sizes, seed=3)
    proc = gauss_auto() if name == "gauss_auto" else coalesce_procedure(w.proc)[0]
    return proc, w.proc, arrays, scalars


def interpreted(original, arrays, scalars):
    want = copies(arrays)
    Interpreter().run(original, want, scalars)
    return want


# ---------------------------------------------------------------------------
# (i) + (ii) equivalence, and identity of accounting with the other path
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("policy", ["unit", "fixed", "gss"])
@pytest.mark.parametrize("workers", [1, 2, 4])
@pytest.mark.parametrize("name", ["gauss_jordan", "floyd", "gauss_auto"])
def test_region_is_the_per_dispatch_run_in_one_fork_join(name, workers, policy):
    proc, original, arrays, scalars = program(name)
    want = interpreted(original, arrays, scalars)
    chunk = 3 if policy == "fixed" else None
    t0 = time.monotonic()
    with WorkerPool(arrays, workers=workers) as pool:
        for log_events, borrowed in ((True, True), (False, True), (True, False)):
            options = dict(
                workers=workers, policy=policy, chunk=chunk,
                log_events=log_events, timeout=60.0, safety=safety_for(name),
            )
            got = copies(arrays)
            result = run_parallel_procedure(
                proc, got, scalars, pool=pool if borrowed else None, **options
            )
            assert result.region == "native" and result.fork_joins == 1
            assert same(got, want)
            assert (result.chunk_lang, result.claim_loop) == ("c", "native")
            for d in result.dispatches:
                assert len(d.events) == (d.claims if log_events else 0)
                assert sorted((e.lo, e.hi) for e in d.events) == sorted(
                    set((e.lo, e.hi) for e in d.events)
                )

            other = copies(arrays)
            with pytest.MonkeyPatch.context() as patch:
                pin_chunk_lang(patch, "py")
                per_dispatch = run_parallel_procedure(
                    proc, other, scalars, **options
                )
            assert per_dispatch.region.startswith("SPMD006")
            assert per_dispatch.fork_joins == len(per_dispatch.dispatches) > 1
            assert same(other, want)
            assert accounting(result) == accounting(per_dispatch)
    # 4 workers on the 2-CPU build host: a barrier that spun would take
    # seconds per run here.
    assert time.monotonic() - t0 < 60.0


PARITY = parse(
    """
    procedure parity(A[1]; n1, n2, n3, n4)
      for t = 1, 1
        doall i = 1, n1
          A(i) := A(i) + 1.0
        end
        doall i = 1, n2
          A(i) := A(i) + 2.0
        end
        doall i = 1, n3
          A(i) := A(i) + 3.0
        end
        doall i = 1, n4
          A(i) := A(i) + 4.0
        end
      end
    end
    """
)
PARITY_N = (1, 7, 100, 22500)


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_region_batch_column_equals_the_python_rule(workers):
    """The batch rule lives in Python (``_resolve_claim_batch``, per
    dispatch) and in C (the driver's ``phase_``, per instance).  The
    region's ``rec`` batch column — what ``d.claim_batch`` reports — must
    equal the Python value on every cell of the table (policy × trip
    count)."""
    scalars = {f"n{k}": n for k, n in enumerate(PARITY_N, 1)}
    arrays = {"A": np.zeros(max(PARITY_N) + 1)}
    want_arrays = interpreted(PARITY, arrays, scalars)
    rules = [("unit", None), ("fixed", 1), ("fixed", 3), ("fixed", 16),
             ("gss", None)]
    with WorkerPool(arrays, workers=workers) as pool:
        for policy, chunk in rules:
            got = copies(arrays)
            result = run_parallel_procedure(
                PARITY, got, scalars, workers=workers, pool=pool,
                policy=policy, chunk=chunk, log_events=False, timeout=60.0,
            )
            assert result.region == "native" and same(got, want_arrays)
            want = []
            for n in PARITY_N:
                active = min(workers, n)
                rule = policy_plan(policy, n, active, chunk)
                want.append(_resolve_claim_batch(rule, n, active))
            cell = (policy, chunk)
            assert [d.claim_batch for d in result.dispatches] == want, cell
    # nest_claims' shape: saxpy2d 150x150 under unit, two workers.
    assert _resolve_claim_batch(policy_plan("unit", 22500, 2), 22500, 2) == 64


def test_same_pool_serves_region_then_dispatch_then_region():
    proc, original, arrays, scalars = program("gauss_jordan")
    want = interpreted(original, arrays, scalars)
    with WorkerPool(arrays, workers=2) as pool:
        seen = []
        for lang in ("c", "py", "c"):
            got = copies(arrays)
            with pytest.MonkeyPatch.context() as patch:
                pin_chunk_lang(patch, lang)
                result = run_parallel_procedure(
                    proc, got, scalars, workers=2, pool=pool, timeout=60.0,
                )
            assert same(got, want)
            seen.append(result.region.partition(":")[0])
        assert seen == ["native", "SPMD006", "native"]
        assert not pool.broken


def test_spawned_workers_meet_at_the_same_barrier():
    proc, original, arrays, scalars = program("floyd")
    want = interpreted(original, arrays, scalars)
    spawn = multiprocessing.get_context("spawn")
    with WorkerPool(arrays, workers=2, ctx=spawn) as pool:
        result = run_parallel_procedure(
            proc, arrays, scalars, pool=pool, timeout=120.0, safety="off"
        )
    assert result.region == "native" and same(arrays, want)


def test_the_rulers_call_is_one_fork_join():
    """``nest_dispatch`` exactly: gauss_jordan n=256 m=1, gss, warm pool."""
    w = get_workload("gauss_jordan")
    proc, _ = coalesce_procedure(w.proc)
    arrays, scalars = make_env(w, scalars={"n": 256, "m": 1}, seed=7)
    runs0, forks0 = DISPATCH["runs"], DISPATCH["fork_joins"]
    with WorkerPool(arrays, workers=2) as pool:
        result = run_parallel_procedure(
            proc, copies(arrays), scalars, workers=2, pool=pool, timeout=60.0,
            policy="gss",
        )
    assert result.fork_joins == 1 and len(result.dispatches) == 257
    assert result.region == "native" and result.chunk_lang == "c"
    assert (DISPATCH["runs"] - runs0, DISPATCH["fork_joins"] - forks0) == (1, 1)
    assert DISPATCH["regions"]["native"] >= 1


def test_programs_without_a_serial_outer_nest_never_see_the_region():
    w = get_workload("matmul")
    proc, _ = coalesce_procedure(w.proc)
    arrays, scalars = make_env(w, scalars={"n": 8}, seed=0)
    result = run_parallel_procedure(proc, arrays, scalars, workers=2)
    assert result.region is None
    assert result.fork_joins == len(result.dispatches) == 1


def test_a_full_ring_is_drained_not_dropped(monkeypatch):
    monkeypatch.setattr(worker, "RING_ROWS", 8)  # made 64 rows long
    proc, original, arrays, scalars = program("floyd")
    want = interpreted(original, arrays, scalars)
    result = run_parallel_procedure(
        proc, arrays, scalars, workers=2, policy="unit", timeout=60.0,
        safety="off",
    )
    assert result.region == "native" and same(arrays, want)
    # 81 chunks per instance, batches of 5: 729 rows overflow the ring
    assert {d.claim_batch for d in result.dispatches} == {5}
    assert result.claims == 9 * 81 > 8
    for d in result.dispatches:
        assert sorted((e.lo, e.hi) for e in d.events) == [
            (i, i) for i in range(d.lo, d.hi + 1)
        ]


TRIANGLE = parse(
    """
    procedure triangle(A[2]; n)
      for k = 1, n
        if k != 3 then
          doall i = k + 1, n
            A(k, i) := A(k, i) + float(k)
          end
        end
        doall j = 1, n - k - 2
          A(n, j) := A(n, j) + 1.0
        end
      end
    end
    """
)


def test_empty_instances_guards_and_fleets_wider_than_the_range():
    """Triangular bounds shrink below the fleet size and to nothing; an
    ``if`` on the serial variable skips instances altogether."""
    arrays = {"A": np.zeros((7, 7))}
    want = interpreted(TRIANGLE, arrays, {"n": 6})
    results = {}
    for lang in ("c", "py"):
        got = copies(arrays)
        with pytest.MonkeyPatch.context() as patch:
            pin_chunk_lang(patch, lang)
            results[lang] = run_parallel_procedure(
                TRIANGLE, got, {"n": 6}, workers=3, timeout=60.0,
            )
        assert same(got, want)
    assert results["c"].region == "native"
    assert accounting(results["c"]) == accounting(results["py"])
    sizes = [d.total_iterations for d in results["c"].dispatches]
    assert 0 in sizes and 1 in sizes and max(sizes) > 3
    assert [d.workers for d in results["c"].dispatches] == [
        d.workers for d in results["py"].dispatches
    ]


# ---------------------------------------------------------------------------
# (iii) every rule that keeps a run on the per-dispatch path
# ---------------------------------------------------------------------------

REDUCTION = parse(
    """
    procedure sums(A[1]; n, s)
      for t = 1, 3
        doall i = 1, n
          s := s + A(i)
        end
      end
    end
    """
)

HALF_RACY = parse(
    """
    procedure half_racy(A[1], B[1]; n)
      for t = 1, 3
        doall i = 2, n
          A(i) := A(i - 1) + 1.0
        end
        doall j = 1, n
          B(j) := B(j) + A(j)
        end
      end
    end
    """
)

SCATTER = parse(
    """
    procedure scatter(B[1], P[1], X[1]; n)
      for t = 1, 3
        doall i = 1, n
          B(int(P(i))) := X(i) + float(t)
        end
      end
    end
    """
)

ARRAY_GUARD = parse(
    """
    procedure array_guard(A[1], G[1]; n)
      for t = 1, 4
        if G(t) > 0.5 then
          doall i = 1, n
            A(i) := A(i) + float(t)
          end
        end
      end
    end
    """
)

SERIAL_WORK = parse(
    """
    procedure serial_work(A[1]; n)
      for t = 1, 3
        A(1) := A(1) + 1.0
        doall i = 2, n
          A(i) := A(i) + float(t)
        end
      end
    end
    """
)


def refused(proc, arrays, scalars, code, **options):
    want = interpreted(proc, arrays, scalars)
    got = copies(arrays)
    result = run_parallel_procedure(
        proc, got, scalars, workers=2, timeout=60.0, **options
    )
    assert result.region.startswith(code + ": "), result.region
    assert code in RULE_DOCS
    assert result.fork_joins == len(result.dispatches)
    assert same(got, want)
    return result


def test_refused_reduction_under_a_serial_loop():
    a = np.arange(13.0)
    result = refused(REDUCTION, {"A": a}, {"n": 12, "s": 1.0}, "SPMD001")
    assert result.reductions == 3
    assert result.dispatches[-1].reduction_value == 1.0 + 3 * a[1:].sum()


def test_refused_blocked_loop_under_enforce():
    arrays = {"A": np.zeros(10), "B": np.zeros(10)}
    result = refused(HALF_RACY, arrays, {"n": 9}, "SPMD002")
    assert result.blocked_dispatches == 3 and len(result.dispatches) == 3
    # off dispatches both loops (the race is the caller's to own), and
    # then nothing stands in the region's way
    got = copies(arrays)
    tagged = run_parallel_procedure(
        HALF_RACY, got, {"n": 9}, workers=1, timeout=60.0, safety="off"
    )
    assert tagged.region == "native"
    assert same(got, interpreted(HALF_RACY, arrays, {"n": 9}))


def test_refused_uninspectable_loop_under_speculate():
    # A reads what it writes: the inspector cannot decide loop i, so
    # the default blocks it, under SPMD002.
    arrays = {"A": np.zeros(10), "B": np.zeros(10)}
    result = refused(HALF_RACY, arrays, {"n": 9}, "SPMD002")
    assert result.blocked_dispatches == 3 and len(result.dispatches) == 3
    assert result.inspected == 0


def test_refused_inspected_loop_under_speculate():
    n = 12
    rng = np.random.default_rng(5)
    arrays = {
        "B": np.zeros(n + 1),
        "P": np.concatenate(([0.0], rng.permutation(n) + 1.0)),
        "X": rng.random(n + 1),
    }
    result = refused(SCATTER, arrays, {"n": n}, "SPMD003")
    assert result.inspected == 3 and result.proven_dynamic == 3


def test_refused_if_that_reads_an_array():
    arrays = {"A": np.zeros(9), "G": np.array([0, 1.0, 0, 1.0, 1.0])}
    result = refused(ARRAY_GUARD, arrays, {"n": 8}, "SPMD004")
    assert len(result.dispatches) == 3


def test_refused_serial_work_between_doalls():
    refused(SERIAL_WORK, {"A": np.zeros(9)}, {"n": 8}, "SPMD004")


def test_refused_static_policy():
    proc, _, arrays, scalars = program("gauss_jordan")
    result = refused(proc, arrays, scalars, "SPMD005", policy="static")
    assert result.claim_loop == "static"


def test_refused_numpy_chunks(compilerless):
    result = refused(LONG, {"A": np.zeros(9)}, {"n": 8, "rounds": 3}, "SPMD006")
    assert result.chunk_lang == "numpy"


@pytest.mark.parametrize("who", ["every worker", "worker 1"])
def test_a_worker_that_cannot_bind_sends_the_run_back(monkeypatch, who):
    """Before any instance has run: the run goes out once more, per
    dispatch on the lock-guarded protocol, on the same healthy pool — and
    none of its dispatches tries a driver again."""
    real = cload.load_region_driver

    def cannot_bind(so_path, fname):
        import multiprocessing

        name = multiprocessing.current_process().name
        if who == "every worker" or name.endswith("-1"):
            raise OSError("injected: region unit will not load")
        return real(so_path, fname)

    monkeypatch.setattr(cload, "load_region_driver", cannot_bind)
    proc, original, arrays, scalars = program("floyd")
    want = interpreted(original, arrays, scalars)
    result = assert_sent_back(
        monkeypatch, proc, arrays, scalars, want, workers=2, safety="off"
    )
    assert result.region.startswith("SPMD006: a worker could not enter")
    assert len(result.dispatches) == 9


def _fold(rows_per_worker, claim_loop="native", **report):
    """``region._assemble`` over hand-made worker reports, into a fresh
    run table, read back as the results it builds: per worker a table of
    instance rows (``loop, lo, hi, iterations, claims, lock_ops, log
    rows, batch``); ``report`` overrides a report's other fields, per
    worker (a list) or for all of them."""
    loop = _dispatchable_loops(LONG.body)[0]
    results = {}
    for wid, rows in enumerate(rows_per_worker):
        fields = {"tim": np.ones((len(rows), 2)).tobytes(), "lang": "c"}
        fields.update(
            {k: v[wid] if isinstance(v, list) else v for k, v in report.items()}
        )
        rec = np.array(rows, dtype=np.int64).tobytes()
        msg = worker._report(rec, fields.pop("tim"), b"", **fields)
        results[wid] = ("ok", wid, 1, msg)
    table = RunTable()
    region._assemble(table, results, [loop], "self-sched", "unit", claim_loop)
    return table.results()


def test_the_fold_checks_every_instance():
    """The workers agree on the instances; per instance the iterations
    sum to the range and idle workers report none — in any instance."""
    good = [[0, 1, 4, 3, 3, 3, 0, 1], [0, 5, 4, 0, 0, 0, 0, 1]]
    (d, empty) = _fold([good, [[0, 1, 4, 1, 1, 1, 0, 1], good[1]]])
    assert (d.iterations_per_worker, d.claims, d.lock_ops) == ([3, 1], 4, 4)
    assert empty.total_iterations == 0
    bad = {
        "disagree": [good, [[0, 2, 4, 1, 1, 1, 0, 1], good[1]]],
        "short": [good, [[0, 1, 4, 0, 0, 0, 0, 1], good[1]]],
        "idle worked": [
            [good[0], [0, 7, 7, 0, 0, 0, 0, 1]],
            [[0, 1, 4, 1, 1, 1, 0, 1], [0, 7, 7, 1, 1, 1, 0, 1]],
        ],
        "empty worked": [
            good, [[0, 1, 4, 1, 1, 1, 0, 1], [0, 5, 4, 1, 1, 1, 0, 1]],
        ],
    }
    for tables in bad.values():
        with pytest.raises(ParallelError, match="disagree|accounting"):
            _fold(tables)


def test_the_fold_checks_the_whole_table():
    """257 instances of a wide range, every row good but instance 200's:
    a check that reads only the first rows would pass it."""
    good = [[[0, i, i + 9, 5, 1, 1, 0, 1]] * 2 for i in range(257)]
    for bad in ([0, 200, 209, 4, 1, 1, 0, 1], [0, 201, 209, 5, 1, 1, 0, 1]):
        tables = [[row[0] for row in good], [row[1] for row in good]]
        assert len(_fold(tables)) == 257
        tables[1][200] = bad
        with pytest.raises(ParallelError, match="disagree|accounting"):
            _fold(tables)


def test_the_fold_checks_the_lock_guarded_loop_too():
    """A Python-protocol job is one instance of loop 0 in the same report:
    every check is the fold's — iterations sum to the range, an idle
    worker reports none — and so is every aggregate: languages ("mixed"
    when workers disagree) and the span of start and finish instants."""
    tims = [np.array(t).tobytes() for t in ([1.0, 3.0], [0.5, 2.0], [2.0, 2.0])]
    rows = [[[0, 1, 2, 1, 1, 1, 0, 1]], [[0, 1, 2, 1, 1, 1, 0, 1]],
            [[0, 1, 2, 0, 0, 0, 0, 1]]]
    (d,) = _fold(rows, "py", tim=tims, lang=["c", "py", "c"])
    assert (d.workers, d.iterations_per_worker, d.claims) == (2, [1, 1], 2)
    assert (d.chunk_lang, d.claim_loop) == ("mixed", "py")
    assert (d.t_base, d.wall_time) == (0.5, 2.5)
    (same_lang,) = _fold(rows, "static", lang="numpy")
    assert (same_lang.chunk_lang, same_lang.claim_loop) == ("numpy", "static")
    bad = {
        "idle worked": [rows[0], [[0, 1, 2, 0, 0, 0, 0, 1]],
                        [[0, 1, 2, 1, 1, 1, 0, 1]]],
        "short": [rows[0], rows[2], rows[2]],
    }
    for tables in bad.values():
        with pytest.raises(ParallelError, match="accounting"):
            _fold(tables, "py", lang="py")


def test_the_emitted_driver_never_spins_unbounded():
    proc, _, _, _ = program("gauss_jordan")
    loops = _dispatchable_loops(proc.body)
    source = generate_region_c(
        proc, loops, [list(proc.scalars) + ["j"], list(proc.scalars)]
    )
    whiles = [ln for ln in source.splitlines() if "while (" in ln]
    body = source[source.index("static long barrier_") :]
    wait = body[body.index("while (") : body.index("return 0;\n}")]
    assert "FUTEX_WAIT" in wait and "bar[2]" in wait  # sleeps, polls stop
    assert "i < r->spin" in body  # the only spin is counted
    # every other ``while`` is the prelude's integer square root
    assert all("x" in ln for ln in whiles if "bar[1]" not in ln)


# ---------------------------------------------------------------------------
# (iv) faults: a lost worker ends the run, it never hangs it
# ---------------------------------------------------------------------------

#: One iteration of one instance divides by zero: ``t == 3``, ``i == d``.
BOOM = parse(
    """
    procedure boom(A[1]; n, d)
      for t = 1, 6
        doall i = 1, n
          A(i) := A(i) + float(i div ((i - d) * (i - d) + (t - 3) * (t - 3)))
        end
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


def test_healthy_twin_of_the_crash_runs_in_the_region():
    arrays = {"A": np.zeros(41)}
    want = interpreted(BOOM, arrays, {"n": 40, "d": 41})
    result = run_parallel_procedure(
        BOOM, arrays, {"n": 40, "d": 41}, workers=2, timeout=60.0
    )
    assert result.region == "native" and same(arrays, want)


#: Coalesced saxpy2d that divides by zero at ``i == j == d``: the fault
#: tests' single-DOALL program, a region of one instance per run.
BOOM2D = coalesce_procedure(
    parse(
        """
        procedure boom2d(X[2], Y[2]; n, m, d)
          doall i = 1, n
            doall j = 1, m
              Y(i, j) := Y(i, j) + 2.5 * X(i, j)
                         + float(i div ((i - d) * (i - d) + (j - d) * (j - d)))
            end
          end
        end
        """
    )
)[0]


def saxpy_case(n=40):
    """Coalesced saxpy2d (a single DOALL) and its arrays."""
    w = get_workload("saxpy2d")
    arrays, scalars = make_env(w, scalars={"n": n, "m": n}, seed=3)
    return coalesce_procedure(w.proc)[0], arrays, scalars


def assert_clean_crash(proc, arrays, scalars):
    snapshot = copies(arrays)
    before = own_segments()
    pool = WorkerPool(arrays, workers=2)
    try:
        t0 = time.monotonic()
        with pytest.raises(WorkerCrashError, match="worker"):
            run_parallel_procedure(
                proc, arrays, scalars, workers=2, pool=pool, timeout=30.0,
            )
        assert time.monotonic() - t0 < 10.0
        assert pool.broken
    finally:
        pool.close()
    assert same(arrays, snapshot)
    assert own_segments() == before


def test_sigfpe_in_one_worker_mid_region_is_a_clean_crash():
    assert_clean_crash(BOOM, {"A": np.zeros(41)}, {"n": 40, "d": 17})


def test_sigfpe_in_one_worker_of_a_single_doall_is_a_clean_crash():
    _, arrays, scalars = saxpy_case()
    healthy = copies(arrays)
    result = run_parallel_procedure(
        BOOM2D, healthy, {**scalars, "d": 41}, workers=2, timeout=60.0
    )
    assert result.claim_loop == "native" and result.region is None
    assert_clean_crash(BOOM2D, arrays, {**scalars, "d": 17})


def _kill_once_inside(pool, wid):
    """SIGKILL worker ``wid`` as soon as the region's barrier has turned
    over a few times (word 9 of the counter block is its generation)."""
    words = pool.counter._state.get_obj()
    start = words[9]

    def watch():
        give_up = time.monotonic() + 20.0
        while words[9] < start + 20 and time.monotonic() < give_up:
            time.sleep(0.0005)
        os.kill(pool._procs[wid].pid, signal.SIGKILL)

    thread = threading.Thread(target=watch)
    thread.start()
    return thread


def test_killed_worker_does_not_strand_its_peer_at_the_barrier():
    arrays = {"A": np.zeros(65)}
    scalars = {"n": 64, "rounds": 400_000}
    before = own_segments()
    pool = WorkerPool(arrays, workers=2)
    try:
        killer = _kill_once_inside(pool, 1)
        t0 = time.monotonic()
        with pytest.raises(WorkerCrashError, match="worker 1: died"):
            run_parallel_procedure(
                LONG, arrays, scalars, workers=2, pool=pool, timeout=60.0,
                log_events=False,
            )
        killer.join(timeout=30.0)
        assert not killer.is_alive()
        assert time.monotonic() - t0 < 15.0
        assert pool.broken
        assert not any(p.is_alive() for p in pool._procs)
    finally:
        pool.close()
    assert not arrays["A"].any()
    assert own_segments() == before


def slow_to_bind(monkeypatch):
    """Worker 1 (forked after this) takes a minute to bind any driver."""
    real = cload.load_region_driver

    def slow(so_path, fname):
        import multiprocessing

        if multiprocessing.current_process().name.endswith("-1"):
            time.sleep(60.0)
        return real(so_path, fname)

    monkeypatch.setattr(cload, "load_region_driver", slow)


def test_killed_worker_of_a_single_doall_does_not_strand_its_peer(
    monkeypatch,
):
    """Worker 0 is parked at the one-instance driver's entry barrier when
    its peer, still binding, is killed."""
    slow_to_bind(monkeypatch)
    proc, arrays, scalars = saxpy_case()
    snapshot = copies(arrays)
    before = own_segments()
    pool = WorkerPool(arrays, workers=2)
    words = pool.counter._state.get_obj()

    def kill_when_parked():
        give_up = time.monotonic() + 20.0
        while words[8] < 1 and time.monotonic() < give_up:  # arrived
            time.sleep(0.0005)
        os.kill(pool._procs[1].pid, signal.SIGKILL)

    killer = threading.Thread(target=kill_when_parked)
    try:
        killer.start()
        t0 = time.monotonic()
        with pytest.raises(WorkerCrashError, match="worker 1: died"):
            run_parallel_procedure(
                proc, arrays, scalars, workers=2, pool=pool, timeout=60.0,
            )
        killer.join(timeout=30.0)
        assert not killer.is_alive()
        assert time.monotonic() - t0 < 15.0
        assert pool.broken
        assert not any(p.is_alive() for p in pool._procs)
    finally:
        pool.close()
    assert same(arrays, snapshot)
    assert own_segments() == before


def test_deadline_shorter_than_the_region_is_a_timeout_not_a_hang():
    arrays = {"A": np.zeros(65)}
    before = own_segments()
    t0 = time.monotonic()
    must_time_out(
        LONG, arrays, {"n": 64, "rounds": 400_000}, workers=2,
        timeout=0.5, log_events=False,  # the region needs seconds
    )
    assert time.monotonic() - t0 < 15.0
    assert not arrays["A"].any()
    assert own_segments() == before


def test_deadline_shorter_than_a_single_doall_is_a_timeout_not_a_hang(
    monkeypatch,
):
    """Worker 0 waits at the entry barrier for a peer that is still
    binding when the deadline passes."""
    slow_to_bind(monkeypatch)
    proc, arrays, scalars = saxpy_case()
    snapshot = copies(arrays)
    before = own_segments()
    t0 = time.monotonic()
    with pytest.raises(ParallelTimeoutError):
        run_parallel_procedure(
            proc, arrays, scalars, workers=2, timeout=0.5, log_events=False,
        )
    assert time.monotonic() - t0 < 15.0
    assert same(arrays, snapshot)
    assert own_segments() == before


LONG_PY = """
def long_py(A, n, rounds):
    for t in range(1, rounds + 1):
        for i in range(1, n + 1):
            A[i] = A[i] + 1.0
"""

BOOM_PY = """
def boom_py(A, n, d):
    for t in range(1, 7):
        for i in range(1, n + 1):
            A[i] = A[i] + float(i // ((i - d) * (i - d) + (t - 3) * (t - 3)))
"""


def test_through_the_api_a_timeout_falls_back_and_a_crash_is_raised():
    """``backend="mp"``'s documented degradation: a deadline overrun
    reruns serially on the untouched arrays; a crash is the program's own
    bug and is re-raised."""
    slow = transform_function(
        LONG_PY, backend="mp", workers=2, timeout=0.02, log_events=False,
        cache=None,
    )
    a = np.zeros(17)
    t0 = time.monotonic()
    slow(a, 16, 50_000)  # >= 50 000 barriers: far more than 20 ms
    assert time.monotonic() - t0 < 30.0
    assert "ParallelTimeoutError" in slow._backend.fallback_reason
    assert a[0] == 0.0 and (a[1:] == 50_000.0).all()

    boom = transform_function(
        BOOM_PY, backend="mp", workers=2, timeout=30.0, cache=None
    )
    a = np.zeros(41)
    boom(a, 40, 41)
    assert boom._backend.last.region == "native" and a.any()
    b = np.zeros(41)
    with pytest.raises(WorkerCrashError):
        boom(b, 40, 17)
    assert not b.any()
