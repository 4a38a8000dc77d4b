"""The claim log stays in shared memory: a report ships counts, not rows.

Each worker writes its claim-log rows into its slice of one ring block
the pool maps at spawn; its report carries the row count, and the parent
copies the rows out after the gather.  Rows cross the result pipe only
when the ring is full.  These tests pin what that must not change — one
event per chunk, in claim order, on both claim protocols and under
``spawn`` — and what it is for: a logged ``nest_claims``-shaped dispatch
(saxpy2d 150², ``unit``, 22 500 chunks) sends each worker's report in a
few hundred bytes, and hundreds of warm runs map nothing new.
"""

import multiprocessing
import os
import pickle

import numpy as np
import pytest

from repro.codegen.cload import have_compiler
from repro.frontend.dsl import parse
from repro.parallel import WorkerPool, run_parallel_procedure, worker
from repro.runtime.interp import Interpreter
from repro.transforms import coalesce_procedure
from repro.workloads import get_workload, make_env
from tests.parallel import handles, own_segments, pin_chunk_lang

needs_gcc = pytest.mark.skipif(not have_compiler(), reason="no gcc on PATH")

#: How each case runs: the claim protocol it must report, and the
#: multiprocessing context of its pool (None: the runtime's default).
CASES = {
    "native": ("native", None),
    "locked": ("py", None),
    "spawn": ("native", "spawn"),
}

#: ``A(i) := A(i) + 1`` over a span wide enough for both dispatches.
INCREMENT = parse(
    """
    procedure incr(A[1]; lo, hi)
      doall i = lo, hi
        A(i) := A(i) + 1.0
      end
    end
    """
)


def protocol(case, monkeypatch):
    """Pin ``case``'s claim protocol; return (claim_loop, pool context)."""
    claim_loop, ctx = CASES[case]
    if claim_loop == "native" and not have_compiler():
        pytest.skip("no gcc on PATH")
    if claim_loop == "py":
        pin_chunk_lang(monkeypatch, "numpy")  # no compiler: lock-guarded
    return claim_loop, ctx and multiprocessing.get_context(ctx)


def increment(pool, lo, hi):
    arrays = {"A": np.zeros(pool.views["A"].shape)}
    result = run_parallel_procedure(
        INCREMENT, arrays, {"lo": lo, "hi": hi}, pool=pool, policy="unit",
        safety="off", timeout=60.0,
    )
    assert np.all(arrays["A"][lo : hi + 1] == 1.0)
    (d,) = result.dispatches
    return d


def assert_log(d, lo, hi):
    """One row per unit chunk of ``[lo, hi]``, each worker's rows in claim
    order (spilled rows before the ring's), times inside the dispatch."""
    chunks = []
    for _, raw in d.event_log:
        rows = np.frombuffer(raw).reshape(-1, 5)
        assert np.all(rows[:, 0] == rows[:, 1])  # unit chunks
        assert np.all(np.diff(rows[:, 2:], axis=1) >= 0)  # claim, work, end
        assert np.all(np.diff(rows[:, 2]) >= 0)  # claim order, as written
        assert 0 <= rows[:, 2].min() - d.t_base
        assert rows[:, 4].max() - d.t_base <= d.wall_time + 1e-9
        chunks += rows[:, 0].astype(int).tolist()
    assert sorted(chunks) == list(range(lo, hi + 1))
    assert len(d.events) == d.claims == hi - lo + 1


@pytest.mark.parametrize("case", sorted(CASES))
def test_a_result_outlives_the_ring(case, monkeypatch):
    """The second dispatch rewrites the ring; the first result keeps its
    own copy of the rows."""
    claim_loop, ctx = protocol(case, monkeypatch)
    before = own_segments()
    with WorkerPool({"A": np.zeros(6000)}, workers=2, ctx=ctx) as pool:
        first = increment(pool, 1, 5000)
        kept = [(wid, bytes(rows)) for wid, rows in first.event_log]
        second = increment(pool, 101, 400)
        assert first.claim_loop == second.claim_loop == claim_loop
        assert first.event_log == kept
        assert_log(first, 1, 5000)
        assert_log(second, 101, 400)
    assert own_segments() == before


@pytest.mark.parametrize("case", sorted(CASES))
def test_a_spilled_log_keeps_every_row_in_order(case, monkeypatch):
    """A ring of 64 rows (the batch cap) against 5000 chunks: most rows
    spill through the pipe, and the parent puts them before the ring's."""
    claim_loop, ctx = protocol(case, monkeypatch)
    monkeypatch.setattr(worker, "RING_ROWS", 8)
    with WorkerPool({"A": np.zeros(6000)}, workers=2, ctx=ctx) as pool:
        assert pool._ring.shape == (2, 64, 5)
        d = increment(pool, 1, 5000)
    assert d.claim_loop == claim_loop
    assert_log(d, 1, 5000)


class _Sized:
    """The pool's result queue, recording each message's pickled size."""

    def __init__(self, queue):
        self.queue, self.sizes = queue, []

    def get(self, block=True, timeout=None):
        msg = self.queue.get(block, timeout)
        self.sizes.append(len(pickle.dumps(msg)))
        return msg

    def get_nowait(self):
        return self.get(False)

    def __getattr__(self, name):
        return getattr(self.queue, name)


def nest_claims():
    """saxpy2d 150² coalesced: 22 500 unit chunks, and the serial answer."""
    w = get_workload("saxpy2d")
    proc, _ = coalesce_procedure(w.proc)
    arrays, scalars = make_env(w, scalars={"n": 150, "m": 150}, seed=0)
    want = {k: v.copy() for k, v in arrays.items()}
    Interpreter().run(w.proc, want, scalars)
    return proc, arrays, scalars, want


@pytest.mark.parametrize("case", ["native", "locked"])
def test_the_log_stays_off_the_pipe(case, monkeypatch):
    claim_loop, _ = protocol(case, monkeypatch)
    proc, arrays, scalars, want = nest_claims()
    with WorkerPool(arrays, workers=2) as pool:
        pool._results = sized = _Sized(pool._results)
        result = run_parallel_procedure(
            proc, arrays, scalars, pool=pool, policy="unit", timeout=60.0
        )
    (d,) = result.dispatches
    assert d.claim_loop == claim_loop
    assert len(sized.sizes) == 2 and max(sized.sizes) < 4096, sized.sizes
    assert len(d.events) == 22_500
    assert sorted(e.lo for e in d.events) == list(range(1, 22_501))
    assert all(np.array_equal(arrays[k], want[k]) for k in want)


@needs_gcc
@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc")
def test_warm_logged_runs_map_nothing_new():
    """300 logged runs on one pool: every log whole, every array equal to
    serial, each worker's open files and mapped segments as after run 1."""
    proc, arrays, scalars, want = nest_claims()
    with WorkerPool(arrays, workers=2) as pool:
        first = None
        for i in range(300):
            got = {k: v.copy() for k, v in arrays.items()}
            result = run_parallel_procedure(
                proc, got, scalars, pool=pool, policy="unit", timeout=60.0
            )
            (d,) = result.dispatches
            assert sum(len(rows) for _, rows in d.event_log) == 40 * 22_500, i
            assert all(np.array_equal(got[k], want[k]) for k in want), i
            if first is None:
                first = handles(pool._procs)
            assert handles(pool._procs) == first, i
    assert not own_segments()
