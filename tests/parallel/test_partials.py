"""Reduction partials live in the claim counter's shared block.

A reduction dispatch binds its partial array to slots next to the
counter's words, which every worker inherits at spawn: no dispatch
creates a segment, and no worker attaches one after it starts.  Hundreds
of warm runs — on one pool, and through one server pool over ``/run`` —
leave each worker's open files and mapped segments as they were after the
first run, and every result is bit-identical to serial.  Slots a longer
run filled are never read by a shorter one, on either claim protocol.
"""

import os

import numpy as np
import pytest

from repro.cache import ArtifactCache
from repro.codegen.pygen import compile_procedure
from repro.parallel import WorkerPool, run_parallel_procedure
from repro.service import ServiceClient, serve_background
from repro.transforms.fission import fission_procedure
from repro.workloads import dot_product, make_env
from tests.parallel import handles, own_segments, pin_chunk_lang

pytestmark = pytest.mark.skipif(
    not os.path.isdir("/proc/self/fd"), reason="needs /proc"
)

#: Warm runs per pool: well past the ~100 that exhausted a 256-fd limit
#: when each reduction dispatch shipped a fresh partials segment.
RUNS = 300

DOT_PRODUCT = """
procedure dot_product(A[1], B[1], R[1]; n, s)
  for i = 1, n
    s := s + A(i) * B(i)
  end
  R(1) := s
end
"""


def reduced():
    w = dot_product()
    return w, fission_procedure(w.proc, fission=False, reduction=True).procedure


def inputs(w, n, seed=1):
    arrays, scalars = make_env(w, scalars={"n": n}, seed=seed)
    want = {k: v.copy() for k, v in arrays.items()}
    compile_procedure(w.proc).run(want, dict(scalars))
    return arrays, scalars, want


def test_warm_pool_reductions_attach_nothing():
    w, proc = reduced()
    arrays, scalars, want = inputs(w, 500)
    with WorkerPool(arrays, workers=2) as pool:
        first = None
        for i in range(RUNS):
            got = {k: v.copy() for k, v in arrays.items()}
            result = run_parallel_procedure(
                proc, got, scalars, pool=pool, timeout=60.0
            )
            assert result.reductions == 1
            assert np.array_equal(got["R"], want["R"]), i
            if first is None:
                first = handles(pool._procs)
            assert handles(pool._procs) == first, i
    assert not own_segments()


def test_warm_server_pool_reductions_attach_nothing(tmp_path):
    w, _ = reduced()
    arrays, scalars, want = inputs(w, 500)
    server, thread = serve_background(cache=ArtifactCache(tmp_path / "cache"))
    client = ServiceClient(port=server.port, timeout=60.0)
    try:
        key = client.compile(
            DOT_PRODUCT, backend="mp", transforms="fission,reduction"
        )["key"]
        first = None
        for i in range(RUNS):
            reply = client.run(key, arrays, scalars, backend="mp", workers=2)
            assert np.array_equal(reply["arrays"]["R"], want["R"]), i
            (warm,) = server.pools._pools.values()
            if first is None:
                first = handles(warm.pool._procs)
            assert handles(warm.pool._procs) == first, i
            assert (reply["engine"], reply["reductions"]) == ("mp-pool", 1)
            assert reply["iterations"] == 500
    finally:
        client.close()
        server.shutdown()
        server.close()
        thread.join(timeout=10)
    assert not own_segments()


@pytest.mark.parametrize("native", [True, False], ids=["region", "locked"])
def test_a_shorter_run_reads_no_stale_slot(native, monkeypatch):
    """n=500 fills every slot; n=10 then uses ten of them."""
    if not native:
        pin_chunk_lang(monkeypatch, "numpy")  # no compiler: lock-guarded
    w, proc = reduced()
    long_in, scalars, long_want = inputs(w, 500)
    short_in, short_sc, short_want = inputs(w, 10, seed=2)
    short = {k: np.zeros_like(v) for k, v in long_in.items()}
    for k, v in short_in.items():
        short[k][: len(v)] = v
    with WorkerPool(long_in, workers=2) as pool:
        for arrays, sc, want in (
            (long_in, scalars, long_want["R"]),
            (short, short_sc, short_want["R"]),
        ):
            got = {k: v.copy() for k, v in arrays.items()}
            result = run_parallel_procedure(
                proc, got, sc, pool=pool, timeout=60.0
            )
            (dispatch,) = result.dispatches
            assert dispatch.claim_loop == ("native" if native else "py")
            assert np.array_equal(got["R"], want)


def test_a_reduction_reports_the_loop_as_written():
    w, proc = reduced()
    arrays, scalars, _ = inputs(w, 500)
    result = run_parallel_procedure(proc, arrays, scalars, workers=2)
    (d,) = result.dispatches
    assert (d.loop_var, d.lo, d.hi) == ("i", 1, 500)
    assert d.total_iterations == sum(e.size for e in d.events) == 500
    assert result.to_dict()["iterations"] == 500
    quiet = run_parallel_procedure(
        proc, arrays, scalars, workers=2, log_events=False
    )
    (d,) = quiet.dispatches
    assert d.total_iterations == 500 and not d.events
