"""One pass of one workload, in a fresh process started by ``run.py``.

A pass is: set up (timed as ``setup_s``), run the closed-loop timed window
with tracing off, optionally repeat the window with the tracer on and run
the per-layer probes, read peak memory, tear down, and write one JSON
document to ``--out``.  The parent holds the watchdog; this process only
promises finite deadlines on every call it makes into the program.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()  # before the heavy imports: they are set-up

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

MIN_OPS = 3


def timed_window(bench, seconds: float, tracer=None, first_op: int = 0) -> dict:
    """Closed loop for ``seconds``: each caller waits for its reply.

    Inputs are prepared before an op's clock starts and its output is
    checked after the clock stops.  With ``bench.clients > 1`` the same
    loop runs on that many threads sharing one deadline.
    """
    lock = threading.Lock()
    out = {"op_ms": [], "failed": 0, "reasons": []}
    counter = iter(range(first_op, 1 << 30))
    deadline = time.perf_counter() + seconds

    def loop() -> None:
        done = 0
        while done < MIN_OPS or time.perf_counter() < deadline:
            with lock:
                i = next(counter)
            prepared = bench.inputs()
            why = info = None
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    arrays, info = bench.op(prepared)
                else:
                    with tracer.span("op", op=i):
                        arrays, info = bench.op(prepared)
            except Exception as exc:  # a raised op is a failed op, counted
                why = f"{type(exc).__name__}: {exc}"
            dt = time.perf_counter() - t0
            if why is None:
                why = bench.check(arrays, info)
            with lock:
                if why is None:
                    out["op_ms"].append(dt * 1e3)
                else:
                    out["failed"] += 1
                    out["reasons"].append(why[:300])
            done += 1

    if bench.clients == 1:
        loop()
    else:
        threads = [
            threading.Thread(target=loop, name=f"client-{k}")
            for k in range(bench.clients)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    out["attempted"] = len(out["op_ms"]) + out["failed"]
    # Σ op wall ÷ clients is the window's wall with the checks taken out.
    out["timed_wall_s"] = sum(out["op_ms"]) / 1e3 / bench.clients
    return out


def merged(a: dict, b: dict) -> dict:
    """Two windows of the same kind as one."""
    return {k: a[k] + b[k] for k in a}


def descendants(pid: int) -> list[int]:
    found, stack = [], [pid]
    while stack:
        p = stack.pop()
        found.append(p)
        for task in Path(f"/proc/{p}/task").glob("*/children"):
            try:
                stack.extend(int(c) for c in task.read_text().split())
            except OSError:
                pass
    return found


def peak_rss_mb() -> float:
    """Σ VmHWM of this process and every process it started, in MiB."""
    total_kb = 0
    for pid in descendants(os.getpid()):
        try:
            status = Path(f"/proc/{pid}/status").read_text()
        except OSError:
            continue
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                total_kb += int(line.split()[1])
    return total_kb / 1024.0


def tail(op_ms: list[float]) -> dict:
    """Highest percentile with at least ten samples beyond it."""
    ordered = sorted(op_ms)
    n = len(ordered)
    if n <= 10:
        return {"ms": ordered[-1], "percentile": 100.0, "samples": n}
    return {
        "ms": ordered[n - 11],
        "percentile": 100.0 * (n - 10) / n,
        "samples": n,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--trace-out", default=None)
    args = ap.parse_args(argv)

    workdir = Path(args.workdir)
    doc = {"workload": args.workload, "seed": args.seed, "error": None}
    bench = None
    try:
        from benchmarks.e2e import workloads

        workloads.reset_tuning_memo()
        bench = workloads.make_bench(args.workload)
        bench.setup(args.seed, workdir)
        doc["setup_s"] = time.perf_counter() - T_START
        hits0 = bench.cache_counts()
        if not args.trace:
            window = timed_window(bench, args.seconds)
        else:
            from benchmarks.e2e import probes, trace

            # Untraced and traced half-windows alternate, so drift over the
            # pass lands on both sides of driver.trace_overhead_x.
            tracer = trace.Tracer()
            halves = []
            for k in range(4):
                if k % 2:
                    tracer.install()
                try:
                    halves.append(timed_window(
                        bench, args.seconds / 2, tracer if k % 2 else None,
                        first_op=sum(h["attempted"] for h in halves),
                    ))
                finally:
                    tracer.uninstall()
            window = merged(halves[0], halves[2])
            traced = merged(halves[1], halves[3])
        doc.update(
            op_ms=window["op_ms"], attempted=window["attempted"],
            failed=window["failed"], reasons=window["reasons"][:5],
            timed_wall_s=window["timed_wall_s"],
        )
        if args.trace:
            doc["attempted"] += traced["attempted"]
            doc["failed"] += traced["failed"]
            doc["reasons"] = (doc["reasons"] + traced["reasons"])[:5]
            if window["op_ms"] and traced["op_ms"]:
                doc["layers"] = probes.layer_metrics(
                    bench, window, traced, hits0, workdir
                )
                doc["layers"]["driver.op_tail_ms"] = tail(window["op_ms"])["ms"]
                doc["span_self_ms"] = trace.layer_self_ms(tracer.spans)
                doc["span_unaccounted_ns"] = trace.unaccounted_ns(tracer.spans)
                doc["spans_skipped"] = tracer.skipped
            if args.trace_out:
                tracer.dump(
                    args.trace_out, workload=args.workload, seed=args.seed
                )
        doc["peak_rss_mb"] = peak_rss_mb()
    except Exception:
        doc["error"] = traceback.format_exc()[-2000:]
    finally:
        if bench is not None:
            try:
                bench.teardown()
            except Exception:
                doc["error"] = doc["error"] or traceback.format_exc()[-2000:]
    if doc.get("op_ms"):
        doc["op_p50_ms"] = statistics.median(doc["op_ms"])
    Path(args.out).write_text(json.dumps(doc))
    return 0 if doc["error"] is None else 1


if __name__ == "__main__":
    sys.exit(main())
