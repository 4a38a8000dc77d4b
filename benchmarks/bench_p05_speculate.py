"""P5 bench — the inspector: what safety=speculate buys over enforce.

Enforce-mode is sound but blind: a scatter through a permutation array is
race-free for the data actually supplied, yet its subscripts are not
affine, so static verification refuses it and the backend falls back to
the serial kernel.  ``safety="speculate"`` closes that gap at runtime —
the subscript-only inspector walks the flat index space, proves the
per-iteration write sets disjoint, and dispatches the normal parallel
executor (native C chunks when a compiler is present) under a dynamic
certificate.

Measurements, both sides through ``compile_mp_procedure``:

* wall time for the inspector-proven scatter workload under
  ``safety="speculate"`` vs the same compiled procedure under
  ``safety="enforce"`` (which refuses and reruns serially);
* acceptance: on a host with >= 4 CPUs (full mode, compiler present) the
  speculate run is >= 2x faster than the enforce-mode serial fallback;
  both results are asserted bit-identical to the serial build in every
  environment.

(A loop the inspector cannot decide — an array both written and read,
like the duplicate-key histogram — is refused under ``speculate`` as
under ``enforce``; DESIGN.md §4f says why no speculative tier follows.)

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


def _proven_speedup() -> dict:
    """scatter_perm: enforce-mode serial fallback vs speculate dispatch."""
    w = get_workload("scatter_perm")
    arrays, sc = make_env(w, scalars={"n": SCATTER_N}, seed=0)
    expected = {k: v.copy() for k, v in arrays.items()}
    compile_procedure(w.proc).run(expected, sc)

    case = {"workload": "scatter_perm", "n": SCATTER_N, "modes": {}}
    for mode in ("enforce", "speculate"):
        compiled = compile_mp_procedure(
            w.proc, workers=WORKERS, safety=mode
        )
        # Warm up once (native chunk-kernel compile, pool spin-up), then
        # measure the steady state the inspector economics are about.
        warm = {k: v.copy() for k, v in arrays.items()}
        compiled.run(warm, sc)
        env = {k: v.copy() for k, v in arrays.items()}
        t0 = time.perf_counter()
        compiled.run(env, sc)
        wall = time.perf_counter() - t0
        assert np.array_equal(env["B"], expected["B"]), mode
        entry = {"wall_s": round(wall, 4)}
        if mode == "enforce":
            # Static verification must refuse; the result above came from
            # the serial rerun.
            assert compiled.fallback_reason is not None
            entry["fallback_reason"] = compiled.fallback_reason
        else:
            assert compiled.fallback_reason is None, (
                compiled.fallback_reason
            )
            assert compiled.last is not None
            assert compiled.last.proven_dynamic == 1, compiled.last
            entry["certificates"] = [
                c.to_dict() for c in compiled.last.certificates
            ]
        case["modes"][mode] = entry
    wall_spec = case["modes"]["speculate"]["wall_s"]
    case["speedup"] = (
        round(case["modes"]["enforce"]["wall_s"] / wall_spec, 2)
        if wall_spec > 0
        else None
    )
    return case


def run() -> tuple[Table, dict]:
    table = Table(
        "P5: inspector-proven dispatch vs enforce fallback",
        ["workload", "mode", "wall_s", "outcome", "speedup"],
        notes=(
            f"host has {CPUS} CPU(s); {WORKERS} workers; "
            f"scatter n={SCATTER_N}; enforce refuses the non-affine "
            "subscript and reruns serially, speculate proves it at "
            "runtime and dispatches; both asserted bit-for-bit."
        ),
    )
    proven = _proven_speedup()
    table.add(
        proven["workload"], "enforce",
        proven["modes"]["enforce"]["wall_s"], "serial fallback", "",
    )
    table.add(
        proven["workload"], "speculate",
        proven["modes"]["speculate"]["wall_s"], "proven-dynamic",
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
    # refuse-and-serialize by >= 2x on the indirect-subscript workload.
    # Timing claims need >= 4 CPUs, real sizes, and native chunks; every
    # environment still asserted correctness above.
    if CPUS >= 4 and not SMOKE and payload["have_compiler"]:
        assert payload["proven"]["speedup"] >= 2.0, payload["proven"]


if __name__ == "__main__":
    t, p = run()
    print(t.format())
    print(f"\nspeedup={p['proven']['speedup']}x")
