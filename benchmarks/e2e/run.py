"""End-to-end + per-layer benchmark of compile → dispatch → claim → kernel
→ serve.  One command, from the repository root::

    python3 benchmarks/e2e/run.py [--workload W] [--seed N] [--seconds S]
                                  [--trace [0|1]] [--quick] [--check-repeat]

A run is ``PASSES`` interleaved passes over the workload list (order
rotated per pass), each pass of each workload in its own fresh process
with a fresh cache and a parent-side watchdog.  Every end-to-end number
comes from passes with tracing off; ``--trace`` adds one traced pass per
workload that yields the per-layer numbers and a span file.

With ``--workload`` the last line of standard output is one JSON object
``{correct, attempted, failed, metrics}`` (the end-to-end metrics, or with
``--trace 1`` the per-layer metrics); without it every workload runs and
the last line carries one such object per workload under a host envelope.
See README.md beside this file for what each name means.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
# Run as a script, Python puts this directory first on sys.path, where
# trace.py would shadow the standard library's ``trace``.
sys.path[:] = [str(ROOT), str(ROOT / "src")] + [
    p for p in sys.path if Path(p or ".").resolve() != HERE
]

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

import numpy  # noqa: E402

try:
    from repro.parallel.shm import leaked_segments  # noqa: E402
except ImportError as exc:  # a checkout without src/: nothing to measure
    sys.exit(f"benchmarks/e2e: the program under test is missing ({exc})")

from benchmarks.e2e.passrun import tail  # noqa: E402

WORKERS = 2
PASSES = 3
#: Watchdog: what a pass may take beyond its timed windows (set-up with
#: gcc and servers, oracles, probes) before the parent kills its group.
PASS_GRACE_S = 45.0
TRACED_GRACE_S = 120.0
WORK = HERE / ".work"
RESULTS = HERE / "results"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = tuple(w["name"] for w in SPEC["workloads"])
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}


def host_stamp(args) -> dict:
    cc = shutil.which("gcc")
    version = None
    if cc:
        out = subprocess.run([cc, "--version"], capture_output=True, text=True)
        version = out.stdout.splitlines()[0] if out.stdout else None
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True,
        ).stdout.strip() or None
    except OSError:
        sha = None
    nproc = os.cpu_count() or 1
    affinity = len(os.sched_getaffinity(0))
    invalid = None
    if min(nproc, affinity) < WORKERS:
        invalid = f"{min(nproc, affinity)} usable CPUs < {WORKERS} workers"
    elif cc is None:
        invalid = "no C compiler (gcc) on PATH"
    return {
        "schema": "repro.e2e/v1",
        "nproc": nproc,
        "affinity": affinity,
        "loadavg_before": os.getloadavg(),
        "compiler": version,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": sha,
        "seed": args.seed,
        "seconds": args.seconds,
        "passes": args.passes,
        "quick": args.quick,
        "invalid": invalid,
    }


def run_pass(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    """One pass in a fresh process group; never hangs, never leaks."""
    workdir = WORK / f"{workload}-{os.getpid()}-{time.monotonic_ns()}"
    (workdir / "tmp").mkdir(parents=True)
    out = workdir / "pass.json"
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join((str(ROOT), str(ROOT / "src"))),
        REPRO_CACHE_DIR=str(workdir / "cache"),
        TMPDIR=str(workdir / "tmp"),
    )
    env.pop("REPRO_NO_CACHE", None)
    cmd = [
        sys.executable, "-m", "benchmarks.e2e.passrun",
        "--workload", workload, "--seed", str(seed),
        "--seconds", repr(seconds), "--trace", str(int(traced)),
        "--workdir", str(workdir), "--out", str(out),
    ]
    if traced:
        RESULTS.mkdir(exist_ok=True)
        cmd += ["--trace-out", str(RESULTS / f"trace_{workload}.json")]
    windows = 2 if traced else 1
    limit = (TRACED_GRACE_S if traced else PASS_GRACE_S) + 4 * windows * seconds
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, start_new_session=True)
    try:
        proc.wait(timeout=limit)
        error = None
    except subprocess.TimeoutExpired:
        error = f"watchdog: pass exceeded {limit:.0f}s and was killed"
    try:  # the pass's group: workers, servers and replicas it left behind
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    doc = {"workload": workload, "error": error}
    if error is None:
        try:
            doc = json.loads(out.read_text())
        except (OSError, ValueError):
            doc["error"] = f"pass exited {proc.returncode} without a result"
    leaked = leaked_segments()
    doc["shm_leaked"] = len(leaked)
    for name in leaked:  # counted once; must not fail every later pass too
        try:
            os.unlink(f"/dev/shm/{name}")
        except OSError:
            pass
    shutil.rmtree(workdir, ignore_errors=True)
    return doc


def end_to_end(passes: list[dict]) -> dict:
    """Fold one workload's untraced passes into the end-to-end metrics.

    A pass that died (error, watchdog) or leaked a segment counts as one
    failed op on top of whatever it had recorded.
    """
    attempted = failed = 0
    good = []
    notes = []
    for p in passes:
        attempted += p.get("attempted", 0)
        failed += p.get("failed", 0)
        notes += p.get("reasons", [])
        if p.get("error") or p["shm_leaked"]:
            attempted += 1
            failed += 1
            notes.append(p.get("error") or f"{p['shm_leaked']} shm leaked")
        elif p.get("op_ms"):
            good.append(p)
    metrics = {}
    if good:
        ok_ops = sum(len(p["op_ms"]) for p in good)
        metrics = {
            "setup_s": statistics.median(p["setup_s"] for p in good),
            "op_p50_ms": statistics.median(p["op_p50_ms"] for p in good),
            "ops_per_s": ok_ops / sum(p["timed_wall_s"] for p in good),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in good),
        }
    pooled = [ms for p in good for ms in p["op_ms"]]
    return {
        "correct": failed == 0 and bool(good),
        "attempted": max(1, attempted),
        "failed": failed,
        "metrics": metrics,
        "tail": tail(pooled) if pooled else None,
        "notes": notes[:5],
        "pass_op_ms": [p["op_ms"] for p in good],
    }


def per_layer(p: dict) -> dict:
    """Fold one workload's traced pass into the per-layer metrics."""
    broken = p.get("error") or "layers" not in p
    failed = p.get("failed", 0) + (1 if broken or p["shm_leaked"] else 0)
    metrics = dict(p.get("layers", {}))
    metrics["parallel.shm_leaked"] = p["shm_leaked"]
    return {
        "correct": failed == 0,
        "attempted": max(1, p.get("attempted", 0) + (1 if broken else 0)),
        "failed": failed,
        "metrics": metrics,
        "span_self_ms": p.get("span_self_ms"),
        "span_unaccounted_ns": p.get("span_unaccounted_ns"),
        "spans_skipped": p.get("spans_skipped"),
        "notes": ([p["error"]] if p.get("error") else []) + p.get("reasons", []),
    }


def run_set(names, args) -> dict:
    """All untraced passes (interleaved), then the traced pass if asked.

    ``--workload W --trace 1`` is the per-layer half on its own: only the
    traced pass runs (it carries its own untraced window for the ratios).
    """
    out: dict[str, dict] = {w: {} for w in names}
    if not (args.workload and args.trace):
        passes: dict[str, list] = {w: [] for w in names}
        for k in range(args.passes):
            shift = k % len(names)
            for w in names[shift:] + names[:shift]:
                passes[w].append(
                    run_pass(w, args.seed, args.seconds / args.passes, False)
                )
        for w in names:
            out[w]["end_to_end"] = end_to_end(passes[w])
    if args.trace:
        for w in names:
            out[w]["per_layer"] = per_layer(
                run_pass(w, args.seed, args.seconds / 4, True)
            )
    return out


def contract(part: dict) -> dict:
    """The result object the benchmark driver reads."""
    return {
        "correct": part["correct"],
        "attempted": part["attempted"],
        "failed": part["failed"],
        "metrics": {
            k: {"value": v, "unit": UNITS[k]}
            for k, v in part["metrics"].items()
        },
    }


def report(results: dict, stamp: dict) -> None:
    label = "quick, not comparable with full runs" if stamp["quick"] else "full"
    print(f"# e2e benchmark ({label}): seed {stamp['seed']}, "
          f"{stamp['seconds']}s timed per workload in {stamp['passes']} "
          f"passes, nproc {stamp['nproc']}, {stamp['compiler']}")
    for w, r in results.items():
        print(f"{w}:")
        e = r.get("end_to_end")
        if e:
            print(f"  {'fail_ratio':<34}{e['failed'] / e['attempted']:>14.4f} "
                  f"ratio ({e['failed']} of {e['attempted']} ops)")
            for k, v in e["metrics"].items():
                print(f"  {k:<34}{v:>14.4f} {UNITS[k]}")
            if e["tail"]:
                t = e["tail"]
                print(f"  {'driver.op_tail_ms':<34}{t['ms']:>14.4f} ms "
                      f"(p{t['percentile']:.1f} of {t['samples']} ops, "
                      "not gated)")
            for note in e["notes"]:
                print(f"  ! {note.strip().splitlines()[-1]}")
        layer = r.get("per_layer")
        if layer:
            for k, v in sorted(layer["metrics"].items()):
                print(f"  {k:<34}{v:>14.4f} {UNITS[k]}")
            if layer["span_self_ms"]:
                print("  span self time per traced op (ms): " + ", ".join(
                    f"{k} {v:.3f}" for k, v in layer["span_self_ms"].items()))
                print(f"  spans unaccounted: {layer['span_unaccounted_ns']} ns; "
                      f"layer calls not found: {layer['spans_skipped'] or 'none'}")
            for note in layer["notes"]:
                print(f"  ! {note.strip().splitlines()[-1]}")


def failures(results: dict) -> int:
    return sum(
        part["failed"] + (0 if part["correct"] else 1)
        for r in results.values() for part in r.values()
    )


#: Per-layer counts that must read the same on every run of one commit.
EXACT = (
    "parallel.dispatches_per_op", "parallel.claims_per_op",
    "parallel.lock_ops_per_op", "tuning.claim_batch",
    "transforms.ir_nodes_after", "codegen.chunk_so_bytes", "cache.hit_ratio",
)


def check_repeat(first: dict, second: dict) -> int:
    """Two sets of the same code: end-to-end metrics must agree within
    their bounds, exact counts must be equal.  Returns the violations."""
    over = 0
    print("# --check-repeat: second set against first, per (metric, workload)")
    for w in first:
        a = first[w].get("end_to_end", {}).get("metrics", {})
        b = second[w].get("end_to_end", {}).get("metrics", {})
        for spec in SPEC["end_to_end"] if "end_to_end" in first[w] else ():
            name = spec["name"]
            if name not in a or name not in b:
                over += 1
                print(f"{w:<16}{name:<28} missing")
                continue
            worse = (b[name] - a[name]) / a[name]
            if spec["better"] == "higher":
                worse = -worse
            flag = "OVER" if worse > spec["bound"] else "ok"
            over += flag == "OVER"
            print(f"{w:<16}{name:<28}{a[name]:>12.4f}{b[name]:>12.4f} "
                  f"{worse:>+8.3f} worse (bound {spec['bound']}) {flag}")
        a = first[w].get("per_layer", {}).get("metrics", {})
        b = second[w].get("per_layer", {}).get("metrics", {})
        for name in EXACT if "per_layer" in first[w] else ():
            same = name in a and a.get(name) == b.get(name)
            over += not same
            print(f"{w:<16}{name:<28}{a.get(name)!s:>12}{b.get(name)!s:>12} "
                  f"{'exact' if same else 'DIFFERS'}")
    return over


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=SPEC["run_seconds"],
                    help="timed seconds per workload per run")
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0)
    ap.add_argument("--quick", action="store_true",
                    help="one pass, a tenth of the time; never compare "
                    "with a full run")
    ap.add_argument("--check-repeat", action="store_true")
    args = ap.parse_args(argv)
    args.passes = PASSES
    if args.quick:
        args.passes, args.seconds = 1, args.seconds / 10

    stamp = host_stamp(args)
    if stamp["invalid"]:
        print(f"invalid run, no numbers: {stamp['invalid']}", file=sys.stderr)
        return 2
    names = [args.workload] if args.workload else list(WORKLOADS)
    results = run_set(names, args)
    status = 1 if failures(results) else 0
    second = run_set(names, args) if args.check_repeat else None
    stamp["loadavg_after"] = os.getloadavg()
    report(results, stamp)
    if second is not None:
        status |= 1 if failures(second) or check_repeat(results, second) else 0
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / "last_run.json").write_text(
        json.dumps({"host": stamp, "workloads": results}, indent=1)
    )
    if args.workload:
        part = "per_layer" if args.trace else "end_to_end"
        print(json.dumps(contract(results[args.workload][part])))
    else:
        print(json.dumps({"host": stamp, "workloads": {
            w: {k: contract(v) for k, v in r.items()}
            for w, r in results.items()
        }}))
    return status


if __name__ == "__main__":
    sys.exit(main())
