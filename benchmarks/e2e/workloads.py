"""The seven workloads: what one op is, how it is set up and checked.

Every workload answers the same five calls — ``setup``, ``inputs``, ``op``,
``check``, ``teardown`` — so one timed loop (``passrun.py``) drives them
all.  The reason each workload exists is in ``BENCHMARK.json`` and the
README; sizes are chosen for the 2-core reference host (``nest_compute``'s
three arrays fit its 2 MiB L2: at n=384 they spill to the shared L3 and the
op's run-to-run spread doubles).

Correctness has three links, all outside the timed window:

1. at a reduced size the *untransformed* procedure runs through
   ``repro.runtime.interp.Interpreter`` and the workload's own execution
   path must match it bit for bit;
2. at full size whole-procedure serial C fixes the expected arrays once,
   and the numpy reference oracle must agree with them within 1e-9;
3. every timed op's output is compared to the expected arrays with
   ``np.array_equal`` after its clock has stopped.
"""

from __future__ import annotations

import os
import re
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import repro.parallel  # noqa: F401  (must precede repro.tuning: import cycle)
from repro.analysis.doall import mark_doall
from repro.api import lower_and_coalesce, transform_function
from repro.cache import configure, default_cache
from repro.cluster.loadtest import RUN_KERNEL
from repro.codegen.cload import compile_c_procedure
from repro.ir.printer import to_source
from repro.parallel import WorkerPool, run_parallel_procedure
from repro.runtime.interp import Interpreter
from repro.service import ServiceClient
from repro.transforms import coalesce_procedure
from repro.transforms.normalize import normalize_procedure
from repro.tuning import reset_tuning_memo
from repro.workloads import gauss_reference, get_workload, make_env

WORKERS = 2
#: Finite deadline on every call into the program, so no op can hang a pass.
OP_TIMEOUT_S = 60.0
WARMUP_OPS = 3

SAXPY1D = """
procedure saxpy1d(X[1], Y[1]; n)
  doall i = 1, n
    Y(i) := Y(i) + 2.5 * X(i)
  end
end
"""

COLD_KERNEL = """
def cold{tag}(A, B, n, m):
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            B[i, j] = {c!r} * A[i, j] + B[i, j]
"""


class CheckError(RuntimeError):
    """An oracle disagreed during set-up: the pass cannot be trusted."""


def copy_arrays(arrays: dict) -> dict:
    return {k: v.copy() for k, v in arrays.items()}


def mismatch(got: dict, want: dict) -> str | None:
    """Which array is not bit-identical to ``want``'s, else None."""
    for name, ref in want.items():
        if not np.array_equal(np.asarray(got[name]), ref):
            return f"array {name!r} differs"
    return None


def interpreter_gate(original, arrays, scalars, run) -> None:
    """Link 1: ``run`` (the workload's path) ≡ interpreter, reduced size."""
    want = copy_arrays(arrays)
    Interpreter().run(original, want, scalars)
    bad = mismatch(run(copy_arrays(arrays), scalars), want)
    if bad is not None:
        raise CheckError(f"reduced-size run against the interpreter: {bad}")


def fix_expected(original, arrays, scalars, reference) -> dict:
    """Link 2: serial C fixes the expected arrays; numpy must agree."""
    expected = copy_arrays(arrays)
    compile_c_procedure(original, omp=False).run(expected, scalars)
    for name, ref in reference(copy_arrays(arrays), scalars).items():
        if not np.allclose(expected[name], ref, rtol=1e-9, atol=0.0):
            raise CheckError(f"serial C and numpy reference differ in {name!r}")
    return expected


def registry_reference(workload):
    def reference(arrays, scalars):
        workload.reference(arrays, scalars)
        return arrays

    return reference


def gauss_solution(arrays, scalars):
    x = np.zeros_like(arrays["X"])
    x[1:, 1:] = gauss_reference(arrays, scalars)
    return {"X": x}


class Bench:
    """What the timed loop and the probes need from a workload."""

    name = ""
    clients = 1
    #: Array transport the service probes use for this workload's arrays.
    transport = "wire"
    #: Set by setup(): the program, its inputs and how it is run.
    source: str
    frontend = "dsl"
    original: object
    proc: object
    arrays: dict
    scalars: dict
    expected: dict
    #: Options of the run call (policy, claim_batch, safety); never mutated.
    run_kwargs: dict = {}
    #: Whether the compile path re-derives DOALL tags (False: hand-tagged).
    analyze = True

    def setup(self, seed: int, workdir: Path) -> None:
        raise NotImplementedError

    def inputs(self):
        """Fresh inputs for the next op, prepared outside the clock."""
        return None

    def op(self, prepared):
        """The timed call.  Returns ``(arrays, info)``."""
        raise NotImplementedError

    def check(self, arrays, info) -> str | None:
        """Why the op failed, or None.  Runs after the clock stops."""
        raise NotImplementedError

    def coalesce_input(self):
        """The procedure this workload's compile path hands to coalescing."""
        return mark_doall(normalize_procedure(self.original))

    def cache_counts(self) -> tuple[int, int] | None:
        """Cumulative (hits, misses) of the store the ops use, if readable."""
        return None

    def warm_up(self) -> None:
        for _ in range(WARMUP_OPS):
            arrays, info = self.op(self.inputs())
            why = self.check(arrays, info)
            if why is not None:
                raise CheckError(f"warm-up op failed: {why}")

    def teardown(self) -> None:
        pass


def result_stats(result) -> dict:
    """Counts and timing split of one ``ParallelProcedureResult``.

    ``uncovered_s`` is Σ over dispatches of (dispatch wall − the busiest
    worker's in-chunk time): what the fork/join, the claims and the wait
    for the slowest worker cost.  (Summing every worker's in-chunk time,
    as ``bench_p02`` does, goes negative as soon as two workers overlap.)
    """
    per_worker: dict[int, int] = {}
    uncovered = 0.0
    for d in result.dispatches:
        for w, n in enumerate(d.iterations_per_worker):
            per_worker[w] = per_worker.get(w, 0) + n
        busy: dict[int, float] = {}
        for e in d.events:
            busy[e.worker] = busy.get(e.worker, 0.0) + (e.t_end - e.t_work)
        uncovered += d.wall_time - max(busy.values(), default=0.0)
    iters = list(per_worker.values()) or [0]
    mean = sum(iters) / len(iters)
    return {
        "dispatches": len(result.dispatches),
        "claims": result.claims,
        "lock_ops": result.lock_ops,
        "claim_batch": result.dispatches[0].claim_batch,
        "imbalance": max(iters) / mean if mean else 1.0,
        "uncovered_s": uncovered,
    }


class NestBench(Bench):
    """In-process ``run_parallel_procedure`` on a warm ``WorkerPool``."""

    analyze = False  # the registry kernels carry the paper's hand-set tags

    def __init__(self, name, kernel, size, small, reference=None, **run_kwargs):
        self.name = name
        self.kernel = kernel
        self.size = size
        self.small = small
        self.reference = reference
        self.run_kwargs = run_kwargs
        self.pool = None

    def _run(self, arrays, scalars, pool=None):
        return run_parallel_procedure(
            self.proc, arrays, scalars, workers=WORKERS, pool=pool,
            timeout=OP_TIMEOUT_S, **self.run_kwargs,
        )

    def setup(self, seed, workdir):
        w = get_workload(self.kernel)
        self.original = w.proc
        self.source = to_source(w.proc)
        self.proc, _ = coalesce_procedure(w.proc)

        def run_small(arrays, scalars):
            self._run(arrays, scalars)
            return arrays

        interpreter_gate(
            w.proc, *make_env(w, scalars=self.small, seed=seed), run_small
        )
        self.arrays, self.scalars = make_env(w, scalars=self.size, seed=seed)
        self.expected = fix_expected(
            w.proc, self.arrays, self.scalars,
            self.reference or registry_reference(w),
        )
        self.pool = WorkerPool(self.arrays, workers=WORKERS)
        self.warm_up()

    def inputs(self):
        return copy_arrays(self.arrays)

    def op(self, prepared):
        return prepared, self._run(prepared, self.scalars, self.pool)

    def check(self, arrays, result):
        if result.chunk_lang != "c":
            return f"chunk_lang {result.chunk_lang!r}"
        return mismatch(arrays, self.expected)

    def coalesce_input(self):
        return self.original

    def cache_counts(self):
        stats = default_cache().stats
        return stats.hits, stats.misses

    def teardown(self):
        if self.pool is not None:
            self.pool.close()


def start_service(args: list[str], workdir: Path, tag: str):
    """Start ``python -m repro <args>`` in its own process; return
    ``(process, first stderr line)`` once it has announced its ports."""
    cache = workdir / f"{tag}-cache"
    log = workdir / f"{tag}.log"
    env = dict(os.environ, REPRO_CACHE_DIR=str(cache))
    with open(log, "w") as fh:
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", *args, "--port", "0",
             "--cache-dir", str(cache)],
            env=env, stdout=fh, stderr=fh,
        )
    deadline = time.monotonic() + OP_TIMEOUT_S
    while time.monotonic() < deadline:
        line = log.read_text().partition("\n")
        if line[1]:
            return proc, line[0]
        if proc.poll() is not None:
            break
        time.sleep(0.02)
    stop_service(proc)
    raise CheckError(f"{tag} did not start: {log.read_text()[-500:]}")


def stop_service(proc) -> None:
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=15.0)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def start_lone_server(workdir: Path, tag: str = "server"):
    proc, line = start_service(["serve"], workdir, tag)
    return proc, int(re.search(r"http://[\d.]+:(\d+)", line).group(1))


def start_small_cluster(workdir: Path, tag: str = "cluster"):
    """1-replica cluster → ``(process, router port, replica port)``."""
    proc, line = start_service(["cluster", "--replicas", "1"], workdir, tag)
    router = int(re.search(r"router on http://[\d.]+:(\d+)", line).group(1))
    replica = int(re.search(r"ports \[(\d+)", line).group(1))
    return proc, router, replica


class ServeBench(Bench):
    """``ServiceClient.run`` against a server in its own process."""

    def __init__(
        self, name, source, size, small, reference, make_arrays,
        transport, clients, cluster,
    ):
        self.name = name
        self.source = source
        self.frontend = (
            "dsl" if source.lstrip().startswith("procedure") else "python"
        )
        self.size = size
        self.small = small
        self.reference = reference
        self.make_arrays = make_arrays
        self.transport = transport
        self.clients = clients
        self.cluster = cluster
        self.service = None
        self.client = None
        self.key = None

    def _run(self, arrays, scalars):
        return self.client.run(
            self.key, arrays, scalars, workers=WORKERS, timeout=OP_TIMEOUT_S
        )

    def setup(self, seed, workdir):
        if self.cluster:
            self.service, port, _ = start_small_cluster(workdir)
        else:
            self.service, port = start_lone_server(workdir)
        self.client = ServiceClient(
            port=port, timeout=OP_TIMEOUT_S, transport=self.transport
        )
        self.key = self.client.compile(self.source, backend="mp")["key"]
        self.original, self.proc, _, _ = lower_and_coalesce(
            self.source, frontend=self.frontend, cache=None
        )
        rng = np.random.default_rng(seed)

        def run_small(arrays, scalars):
            return self._run(arrays, scalars)["arrays"]

        interpreter_gate(
            self.original, self.make_arrays(rng, self.small), self.small,
            run_small,
        )
        self.scalars = self.size
        self.arrays = self.make_arrays(rng, self.size)
        self.expected = fix_expected(
            self.original, self.arrays, self.scalars, self.reference
        )
        self.warm_up()

    def op(self, prepared):
        out = self._run(self.arrays, self.scalars)
        return out["arrays"], out

    def check(self, arrays, out):
        if out.get("engine") != "mp-pool":
            return f"engine {out.get('engine')!r}"
        if out.get("chunk_lang") != "c":
            return f"chunk_lang {out.get('chunk_lang')!r}"
        return mismatch(arrays, self.expected)

    def teardown(self):
        if self.client is not None:
            self.client.close()
        if self.service is not None:
            stop_service(self.service)


class ColdBench(Bench):
    """``transform_function`` + first call + teardown, new source per op."""

    name = "cold_start"
    frontend = "python"
    transport = "json"
    n = 64
    small_n = 12

    def __init__(self):
        self.workdir = None
        self.rng = None
        self.counter = 0
        self.hits = 0
        self.misses = 0

    def _source(self):
        # Distinct per op: a fresh tag and a fresh seeded constant, so no
        # cache layer can have seen it.
        self.counter += 1
        c = float(self.rng.integers(2, 10**6)) + 0.5
        return COLD_KERNEL.format(tag=self.counter, c=c), c

    @staticmethod
    def _reference(c):
        def reference(arrays, scalars):
            b = arrays["B"]
            b[1:, 1:] = c * arrays["A"][1:, 1:] + b[1:, 1:]
            return {"B": b}

        return reference

    def _arrays(self, n):
        return {
            "A": self.rng.random((n + 1, n + 1)),
            "B": self.rng.random((n + 1, n + 1)),
        }

    def setup(self, seed, workdir):
        self.workdir = workdir
        self.rng = np.random.default_rng(seed)
        self.source, c = self._source()
        self.original, self.proc, _, _ = lower_and_coalesce(
            self.source, cache=None
        )

        def run_small(arrays, scalars):
            fn = transform_function(
                self.source, backend="mp", workers=WORKERS, cache=None,
                timeout=OP_TIMEOUT_S,
            )
            fn(arrays["A"], arrays["B"], scalars["n"], scalars["m"])
            return arrays

        small = {"n": self.small_n, "m": self.small_n}
        interpreter_gate(
            self.original, self._arrays(self.small_n), small, run_small
        )
        self.scalars = {"n": self.n, "m": self.n}
        self.arrays = self._arrays(self.n)
        # Serial C vouches for the numpy closure once, bit for bit; the
        # closure then gives each op's expected arrays without a compile.
        self.expected = fix_expected(
            self.original, self.arrays, self.scalars, self._reference(c)
        )
        closure = self._reference(c)(copy_arrays(self.arrays), self.scalars)
        if mismatch(closure, {"B": self.expected["B"]}) is not None:
            raise CheckError("numpy closure is not bit-identical to serial C")
        self.warm_up()

    def inputs(self):
        source, c = self._source()
        cache_dir = self.workdir / f"cold-{self.counter}"
        reset_tuning_memo()
        return source, c, cache_dir, copy_arrays(self.arrays)

    def op(self, prepared):
        source, c, cache_dir, arrays = prepared
        # One store object for the pipeline blob and the chunk artifacts,
        # so its counters see every lookup this op makes.
        store = configure(dir=cache_dir)
        fn = transform_function(
            source, backend="mp", workers=WORKERS, cache=store,
            timeout=OP_TIMEOUT_S,
        )
        fn(arrays["A"], arrays["B"], self.n, self.n)
        return arrays, (fn, c, store)

    def check(self, arrays, info):
        fn, c, store = info
        self.hits += store.stats.hits
        self.misses += store.stats.misses
        shutil.rmtree(store.root, ignore_errors=True)
        result = fn.last_parallel
        if result is None:
            return "serial fallback"
        if result.chunk_lang != "c":
            return f"chunk_lang {result.chunk_lang!r}"
        want = self._reference(c)(copy_arrays(self.arrays), self.scalars)
        return mismatch(arrays, want)

    def cache_counts(self):
        return self.hits, self.misses


def _saxpy1d_arrays(rng, scalars):
    n = scalars["n"]
    return {"X": rng.standard_normal(n + 1), "Y": rng.standard_normal(n + 1)}


def _saxpy1d_reference(arrays, scalars):
    arrays["Y"][1:] += 2.5 * arrays["X"][1:]
    return arrays


def _ltwork_arrays(rng, scalars):
    n, m = scalars["n"], scalars["m"]
    return {"A": rng.random((n + 1, m + 1)), "B": rng.random((n + 1, m + 1))}


def _ltwork_reference(arrays, scalars):
    b = arrays["B"]
    b[1:, 1:] = 2.0 * arrays["A"][1:, 1:] + 0.5 * b[1:, 1:] + 1.0
    return arrays


def make_bench(name: str) -> Bench:
    if name == "nest_compute":
        return NestBench(name, "matmul", {"n": 256}, {"n": 16}, policy="gss")
    if name == "nest_dispatch":
        return NestBench(
            name, "gauss_jordan", {"n": 256, "m": 1}, {"n": 12, "m": 1},
            reference=gauss_solution, policy="gss",
        )
    if name == "nest_claims":
        return NestBench(
            name, "saxpy2d", {"n": 150, "m": 150}, {"n": 20, "m": 20},
            policy="unit", claim_batch="auto",
        )
    if name == "nest_irregular":
        return NestBench(
            name, "scatter_perm", {"n": 400_000}, {"n": 500},
            safety="speculate",
        )
    if name == "serve_bulk":
        return ServeBench(
            name, SAXPY1D, {"n": 1 << 20}, {"n": 64}, _saxpy1d_reference,
            _saxpy1d_arrays, transport="wire", clients=1, cluster=False,
        )
    if name == "serve_small":
        return ServeBench(
            name, RUN_KERNEL, {"n": 48, "m": 48}, {"n": 8, "m": 8},
            _ltwork_reference, _ltwork_arrays, transport="json", clients=2,
            cluster=True,
        )
    if name == "cold_start":
        return ColdBench()
    raise ValueError(f"unknown workload {name!r}")
