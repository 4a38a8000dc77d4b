"""P5 bench — the inspector: what the default safety mode buys over serial.

A scatter through a permutation array is race-free for the data actually
supplied, yet its subscripts are not affine, so static verification
cannot prove it; without the inspector the only sound way to run it is
the serial build.  The default safety mode closes that gap at runtime —
the subscript-only inspector walks the flat index space, proves the
per-iteration write sets disjoint, and dispatches the normal parallel
executor (native C chunks when a compiler is present) under a dynamic
certificate.

Measurements:

* wall time of the serial build (``compile_procedure``, what a refused
  run falls back to) vs the inspector-proven dispatch of the same
  procedure through ``compile_mp_procedure`` under the default mode;
* acceptance: on a host with >= 4 CPUs (full mode, compiler present) the
  inspected run is >= 2x faster than the serial build; both results are
  asserted bit-identical to the serial build in every environment.

(A loop the inspector cannot decide — an array both written and read,
like the duplicate-key histogram — runs serially; DESIGN.md §4f says why
no speculative tier follows.)

``REPRO_BENCH_SMOKE=1`` shrinks the scatter size for CI; the timing
assertion is full-mode only.
"""

import os
import time

import numpy as np

from repro.codegen.cload import have_compiler
from repro.codegen.pygen import compile_procedure
from repro.experiments.report import Table
from repro.parallel.backend import compile_mp_procedure
from repro.workloads import get_workload, make_env

SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE"))
CPUS = os.cpu_count() or 1
WORKERS = min(4, CPUS) if CPUS >= 2 else 2
SCATTER_N = 4_096 if SMOKE else 200_000


def _timed(run, arrays, sc) -> tuple[float, dict]:
    """Warm up once (native chunk-kernel compile, pool spin-up), then time
    the steady state the inspector economics are about."""
    run({k: v.copy() for k, v in arrays.items()}, sc)
    env = {k: v.copy() for k, v in arrays.items()}
    t0 = time.perf_counter()
    run(env, sc)
    return time.perf_counter() - t0, env


def _proven_speedup() -> dict:
    """scatter_perm: the serial build vs the inspector-proven dispatch."""
    w = get_workload("scatter_perm")
    arrays, sc = make_env(w, scalars={"n": SCATTER_N}, seed=0)
    serial = compile_procedure(w.proc)
    wall_serial, expected = _timed(serial.run, arrays, sc)
    compiled = compile_mp_procedure(w.proc, workers=WORKERS)
    wall_inspect, env = _timed(compiled.run, arrays, sc)
    assert np.array_equal(env["B"], expected["B"])
    assert compiled.fallback_reason is None, compiled.fallback_reason
    assert compiled.last.proven_dynamic == 1, compiled.last
    return {
        "workload": "scatter_perm",
        "n": SCATTER_N,
        "modes": {
            "serial": {"wall_s": round(wall_serial, 4)},
            "inspect": {
                "wall_s": round(wall_inspect, 4),
                "certificates": [
                    c.to_dict() for c in compiled.last.certificates
                ],
            },
        },
        "speedup": (
            round(wall_serial / wall_inspect, 2) if wall_inspect > 0 else None
        ),
    }


def run() -> tuple[Table, dict]:
    table = Table(
        "P5: inspector-proven dispatch vs the serial build",
        ["workload", "mode", "wall_s", "outcome", "speedup"],
        notes=(
            f"host has {CPUS} CPU(s); {WORKERS} workers; "
            f"scatter n={SCATTER_N}; the serial build is what a refused "
            "run falls back to; the default safety mode proves the "
            "non-affine subscript at runtime and dispatches; both asserted "
            "bit-for-bit."
        ),
    )
    proven = _proven_speedup()
    table.add(
        proven["workload"], "serial",
        proven["modes"]["serial"]["wall_s"], "serial build", "",
    )
    table.add(
        proven["workload"], "inspect",
        proven["modes"]["inspect"]["wall_s"], "proven-dynamic",
        proven["speedup"],
    )
    payload = {
        "smoke": SMOKE,
        "cpus": CPUS,
        "workers": WORKERS,
        "have_compiler": have_compiler(),
        "proven": proven,
    }
    return table, payload


def test_p05_speculate(benchmark, save_table, save_json):
    table, payload = benchmark.pedantic(run, rounds=1, iterations=1)
    save_table("p05_speculate", table)
    save_json("BENCH_p05_speculate", payload)

    # Acceptance: with real parallelism available, runtime proof beats
    # the serial build by >= 2x on the indirect-subscript workload.
    # Timing claims need >= 4 CPUs, real sizes, and native chunks; every
    # environment still asserted correctness above.
    if CPUS >= 4 and not SMOKE and payload["have_compiler"]:
        assert payload["proven"]["speedup"] >= 2.0, payload["proven"]


if __name__ == "__main__":
    t, p = run()
    print(t.format())
    print(f"\nspeedup={p['proven']['speedup']}x")
