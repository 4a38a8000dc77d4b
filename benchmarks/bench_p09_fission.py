"""P9 bench — partial parallelism: what fission + reduction recover.

The all-or-nothing pipeline treats a mixed loop body as serial the moment
any statement carries a dependence: one first-order recurrence next to a
heavy element-wise update serializes the whole program, and a scalar
accumulator blocks its loop outright (PRIV002).  The transform layer
splits the difference — ``transforms="fission,reduction"`` fissions the
mixed body along its PDG's SCC condensation (the clean statement becomes
its own DOALL loop, the recurrence stays serial) and re-tags the
recognized accumulation loop for per-chunk partials with a deterministic
ordered combine.

Measurements:

* wall time for the whole program run enforce-serial (no transforms:
  nothing is dispatchable, the compiled serial kernel runs everything)
  vs the same source under fission+reduction (DOALL piece and reduction
  loop dispatched to the worker fleet, the recurrence residue compiled
  in the parent);
* bit-identity of every output array between the two runs — asserted
  unconditionally, every environment (inputs are integer-valued floats,
  so ``+``/``*`` chains are exact and combine order cannot show);
* acceptance: on a host with >= 4 CPUs (full mode, compiler present)
  the transformed run is >= 2x faster than enforce-serial.

``REPRO_BENCH_SMOKE=1`` shrinks the trip count for CI; the timing
assertion is full-mode only.
"""

import os
import time

import numpy as np

from repro.api import lower_and_coalesce
from repro.codegen.cload import have_compiler
from repro.codegen.pygen import compile_procedure
from repro.experiments.report import Table
from repro.parallel import run_parallel_procedure
from repro.transforms.fission import FissionResult
from repro.workloads import get_workload, make_env

SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE"))
CPUS = os.cpu_count() or 1
WORKERS = min(4, CPUS) if CPUS >= 2 else 2
N = 4_096 if SMOKE else 400_000

# One program exercising both recoveries: a mixed body (heavy clean
# statement + cheap recurrence -> FISS001 splits it) followed by a sum
# reduction over the computed array (RED001 dispatches it).  The B
# polynomial uses only power-of-two coefficients so integer-valued A
# keeps every intermediate exact in binary floating point.
SOURCE = """
procedure p09_mixed(A[1], B[1], C[1], R[1]; n, s)
  for i = 1, n
    B(i) := (A(i) * 0.5 + 1.0) * (A(i) - 2.0) + A(i) * A(i) * 0.25 + 8.0
    C(i) := C(i - 1) + A(i)
  end
  for i = 1, n
    s := s + B(i)
  end
  R(1) := s
end
"""


def _env(n, seed=0):
    rng = np.random.default_rng(seed)
    arrays = {
        "A": np.rint(rng.standard_normal(n + 1) * 8.0),
        "B": np.zeros(n + 1),
        "C": np.rint(rng.standard_normal(n + 1) * 8.0),
        "R": np.zeros(2),
    }
    return arrays, {"n": n, "s": 0}


def _compare() -> dict:
    # Untransformed: nothing is dispatchable (both loops stay serial).
    _, plain, _, _ = lower_and_coalesce(SOURCE, frontend="dsl", cache=None)
    assert not any(
        getattr(s, "is_doall", False) for s in plain.body.stmts
    ), "without transforms the mixed program must stay fully serial"

    arrays, sc = _env(N)
    serial_env = {k: v.copy() for k, v in arrays.items()}
    kernel = compile_procedure(plain)
    t0 = time.perf_counter()
    kernel.run(serial_env, sc)
    serial_s = time.perf_counter() - t0

    # Transformed: fission splits the mixed body, reduction re-tags the
    # accumulation loop; both parallel pieces dispatch.
    _, proc, results, _ = lower_and_coalesce(
        SOURCE, frontend="dsl", cache=None, transforms="fission,reduction"
    )
    codes = sorted(
        {
            f.rule
            for r in results
            if isinstance(r, FissionResult)
            for f in r.findings
        }
    )
    assert codes == ["FISS001", "RED001"], codes

    # Warm up once (chunk-kernel compile, pool spin-up), then measure
    # the steady state the recovery economics are about.
    warm = {k: v.copy() for k, v in arrays.items()}
    run_parallel_procedure(proc, warm, sc, workers=WORKERS)
    par_env = {k: v.copy() for k, v in arrays.items()}
    t0 = time.perf_counter()
    result = run_parallel_procedure(proc, par_env, sc, workers=WORKERS)
    par_s = time.perf_counter() - t0
    assert len(result.dispatches) == 2, result.dispatches
    assert result.reductions == 1

    bit_identical = all(
        np.array_equal(serial_env[k], par_env[k]) for k in arrays
    )
    assert bit_identical, "transformed run diverged from serial semantics"
    return {
        "n": N,
        "codes": codes,
        "dispatches": len(result.dispatches),
        "reductions": result.reductions,
        "chunk_langs": sorted({d.chunk_lang for d in result.dispatches}),
        "bit_identical": bit_identical,
        "serial_s": round(serial_s, 4),
        "transformed_s": round(par_s, 4),
        "speedup": round(serial_s / par_s, 2) if par_s > 0 else None,
    }


def run() -> tuple[Table, dict]:
    table = Table(
        "P9: fission + reduction — partial parallelism vs enforce-serial",
        ["mode", "wall_s", "dispatches", "outcome"],
        notes=(
            f"host has {CPUS} CPU(s); {WORKERS} workers; n={N}; the "
            "untransformed program has no dispatchable loop at all; "
            "fission splits the mixed body (FISS001), reduction re-tags "
            "the accumulator (RED001); outputs asserted bit-identical."
        ),
    )
    cmp = _compare()
    table.add("enforce-serial", cmp["serial_s"], 0, "no dispatchable loop")
    table.add(
        "fission+reduction",
        cmp["transformed_s"],
        cmp["dispatches"],
        f"speedup {cmp['speedup']}x, bit-identical",
    )
    payload = {
        "smoke": SMOKE,
        "cpus": CPUS,
        "workers": WORKERS,
        "have_compiler": have_compiler(),
        "compare": cmp,
    }
    return table, payload


def test_p09_fission(benchmark, save_table, save_json):
    table, payload = benchmark.pedantic(run, rounds=1, iterations=1)
    save_table("p09_fission", table)
    save_json("BENCH_p09_fission", payload)

    # Acceptance: recovered partial parallelism beats refuse-and-serialize
    # by >= 2x when real parallelism is available.  Timing claims need
    # >= 4 CPUs, real sizes, and native chunks; correctness (bit-identity,
    # both rule codes, both dispatches) is asserted unconditionally above.
    if CPUS >= 4 and not SMOKE and payload["have_compiler"]:
        assert payload["compare"]["speedup"] >= 2.0, payload["compare"]


if __name__ == "__main__":
    t, p = run()
    print(t.format())
    print(
        f"\nspeedup={p['compare']['speedup']}x, "
        f"bit_identical={p['compare']['bit_identical']}"
    )
