"""P4 bench — chunk language: native C kernels vs interpreted Python chunks.

The paper's economics assume the loop *body* runs at machine speed — the
fetch&add and the index recovery are the costs worth optimizing because
everything else is hardware-bound work.  With Python chunks the body is
interpreter-bound and the scheduling terms vanish into noise; the C chunk
path (``chunk_lang="c"``) executes each claimed block as a compiled,
strength-reduced kernel on the same shared-memory buffers (zero-copy
ctypes), which is what makes the P-benches measure scheduling rather than
interpretation.

Measurements, same pool engine and fixed chunking on both sides:

* per-iteration throughput for Python vs C chunks on the P1 workloads
  (matmul, saxpy2d), with bit-for-bit equality against serial pygen on
  every run;
* acceptance: C chunks deliver >= 5x body throughput on at least two
  workloads (full mode, with a compiler);
* a claim-batch x chunk-lang interaction grid: batching claims matters
  more as the body gets faster, because the counter round-trip is a fixed
  cost that interpretation used to hide.

Without a compiler the C rows are skipped (the bench still runs and the
Python rows still verify).  ``REPRO_BENCH_SMOKE=1`` shrinks sizes for CI;
the 5x assertion is full-mode only.
"""

import os
import time

import numpy as np

from repro.codegen.cload import have_compiler
from repro.codegen.pygen import compile_procedure
from repro.experiments.report import Table
from repro.parallel import run_parallel_doall
from repro.transforms import coalesce_procedure
from repro.workloads import get_workload, make_env

SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE"))
WORKERS = 2
#: (workload, scalars, fixed chunk size) — the P1 rectangular workloads.
CASES = (
    ("matmul", {"n": 16} if SMOKE else {"n": 96}, 8),
    ("saxpy2d", {"n": 40, "m": 40} if SMOKE else {"n": 600, "m": 600}, 64),
)
SWEEP_SCALARS = {"n": 40, "m": 40} if SMOKE else {"n": 400, "m": 400}
CLAIM_BATCHES = (1, 32)
LANGS = ("py", "c") if have_compiler() else ("py",)


def _lang_case(name: str, scalars: dict, chunk: int) -> dict:
    """One workload through both chunk languages at fixed chunking."""
    w = get_workload(name)
    proc, _ = coalesce_procedure(w.proc)
    arrays, sc = make_env(w, scalars=scalars, seed=0)
    baseline = {k: v.copy() for k, v in arrays.items()}
    t0 = time.perf_counter()
    compile_procedure(w.proc).run(baseline, sc)
    serial_s = time.perf_counter() - t0

    case = {
        "workload": name,
        "scalars": scalars,
        "chunk": chunk,
        "serial_s": round(serial_s, 4),
        "langs": {},
    }
    for lang in LANGS:
        env = {k: v.copy() for k, v in arrays.items()}
        result = run_parallel_doall(
            proc, env, sc, workers=WORKERS, policy="fixed", chunk=chunk,
            log_events=False, chunk_lang=lang,
        )
        for k in env:  # bit-identical across languages, every size
            assert np.array_equal(env[k], baseline[k]), (name, lang, k)
        assert result.chunk_lang == lang, (name, lang, result.chunk_lang)
        iters = result.total_iterations
        case["iterations"] = iters
        case["langs"][lang] = {
            "wall_s": round(result.wall_time, 4),
            "iters_per_s": round(iters / result.wall_time)
            if result.wall_time > 0
            else None,
        }
    if "c" in case["langs"]:
        wall_py = case["langs"]["py"]["wall_s"]
        wall_c = case["langs"]["c"]["wall_s"]
        case["throughput_ratio"] = (
            round(wall_py / wall_c, 2) if wall_c > 0 else None
        )
    else:
        case["throughput_ratio"] = None
    return case


def _interaction_grid() -> list[dict]:
    """claim_batch x chunk_lang on the element-wise workload.

    The counter critical section is a fixed per-claim cost; once the body
    runs natively it is a visible fraction of the wall time, so batching
    pays off where the Python rows barely move.
    """
    w = get_workload("saxpy2d")
    proc, _ = coalesce_procedure(w.proc)
    arrays, sc = make_env(w, scalars=SWEEP_SCALARS, seed=1)
    baseline = {k: v.copy() for k, v in arrays.items()}
    compile_procedure(w.proc).run(baseline, sc)
    rows = []
    for lang in LANGS:
        for batch in CLAIM_BATCHES:
            env = {k: v.copy() for k, v in arrays.items()}
            stats = run_parallel_doall(
                proc, env, sc, workers=WORKERS, policy="unit",
                claim_batch=batch, log_events=False,
                chunk_lang=lang,
            )
            for k in env:
                assert np.array_equal(env[k], baseline[k]), (lang, batch, k)
            rows.append(
                {
                    "lang": lang,
                    "batch": batch,
                    "claims": stats.claims,
                    "lock_ops": stats.lock_ops,
                    "wall_s": round(stats.wall_time, 4),
                }
            )
    return rows


def run() -> tuple[Table, dict]:
    cpus = os.cpu_count() or 1
    table = Table(
        "P4: chunk language — native C kernels vs Python chunks",
        ["workload", "iterations", "lang", "wall_s", "iters/s", "C/py"],
        notes=(
            f"host has {cpus} CPU(s); policy=fixed, {WORKERS} workers, "
            "persistent pool, event logging off; identical chunking on "
            "both sides, results bit-identical to serial pygen. "
            + ("no C compiler: Python rows only." if len(LANGS) == 1 else "")
        ),
    )
    cases = [_lang_case(*c) for c in CASES]
    for case in cases:
        for lang in LANGS:
            e = case["langs"][lang]
            table.add(
                case["workload"],
                case["iterations"],
                lang,
                e["wall_s"],
                e["iters_per_s"],
                case["throughput_ratio"] if lang == "c" else "",
            )
    payload = {
        "smoke": SMOKE,
        "cpus": cpus,
        "workers": WORKERS,
        "have_compiler": have_compiler(),
        "cases": cases,
        "claim_batch_interaction": _interaction_grid(),
    }
    return table, payload


def test_p04_chunk_lang(benchmark, save_table, save_json):
    table, payload = benchmark.pedantic(run, rounds=1, iterations=1)
    save_table("p04_chunk_lang", table)
    save_json("BENCH_p04_chunk_lang", payload)

    # Acceptance: native kernels deliver >= 5x per-iteration throughput on
    # at least two workloads.  Timing claims need real sizes and a real
    # compiler; smoke/compiler-less runs still exercised the full path and
    # the bit-for-bit asserts above.
    if not SMOKE and payload["have_compiler"]:
        ratios = [
            c["throughput_ratio"]
            for c in payload["cases"]
            if c["throughput_ratio"] is not None
        ]
        fast = [r for r in ratios if r >= 5.0]
        assert len(fast) >= 2, f"expected >=5x on >=2 workloads, got {ratios}"


if __name__ == "__main__":
    t, p = run()
    print(t.format())
    print(f"\nclaim-batch x chunk-lang: {p['claim_batch_interaction']}")
