"""Command-line driver: a miniature loop-coalescing compiler.

Usage::

    python -m repro INPUT.loop [options]
    python -m repro - < program.loop

Reads a procedure in the mini-language, runs a configurable pass pipeline,
and prints the transformed program (mini-language or generated Python).

Options:
    --passes LIST   comma-separated passes to run, a subset of
                    normalize,analyze,fission,reduction,distribute,coalesce
                    kept in that order and naming normalize and coalesce
                    (default: normalize,analyze,distribute,coalesce);
                    fission, reduction and distribute are one
                    loop-splitting walk (repro.transforms.fission)
    --transforms T  opt-in parallelism-recovery passes, the same as
                    naming them in --passes: fission (split mixed serial
                    bodies along their dependence SCCs) and/or reduction
                    (dispatch s := s + expr loops as ordered partial
                    accumulators)
    --style S       index-recovery style: ceiling (paper) or divmod
    --depth N       coalesce at most N levels per nest
    --emit FORM     loop (default) | python | both
    --backend B     python (serial codegen) | mp (process-parallel runtime;
                    --emit python then shows the worker chunk function)
    --report        print per-nest coalescing metadata to stderr

Instead of an input file, ``--workload NAME`` compiles a registered
workload, and ``--run`` executes it with the chosen backend —
``--backend mp --workers 4 --policy gss`` runs the coalesced program on
real worker processes and prints the measured schedule (``--gantt``).

Compilation artifacts are cached on disk by content (``repro.cache``);
``--cache-dir DIR`` points the cache somewhere explicit and ``--no-cache``
bypasses it for one invocation.

``python -m repro serve`` starts the compile-and-run HTTP server
(:mod:`repro.service`) instead: ``POST /compile``, ``POST /run``,
``POST /lint``, ``GET /healthz``, ``GET /metrics``.

``python -m repro cluster --replicas N`` starts the N-replica deployment
(:mod:`repro.cluster`): a front-door router load-balancing those same
endpoints — plus the async job protocol ``POST /submit`` →
``GET /poll/<id>`` / ``GET /result/<id>`` / ``POST /cancel/<id>`` — over
replica server processes that share one artifact-cache directory.

``python -m repro loadtest`` hammers a server or cluster with a mixed
compile/run/lint/submit-poll workload (open- or closed-loop) and reports
p50/p99 latency and throughput (``--json`` for machine-readable output).

``python -m repro lint`` runs the chunk-safety verifier
(:mod:`repro.lint`) over source files or registered workloads and
reports structured findings (RACE001/RACE002/RACE003/PRIV002, plus
FISS001/FISS002/RED001 under ``--transforms``) as text, JSON, or
SARIF 2.1.0 (``--sarif``).
"""

from __future__ import annotations

import argparse
import sys

from repro.api import TRANSFORM_NAMES, lower_and_coalesce, normalize_transforms
from repro.codegen.pygen import generate_source
from repro.frontend.dsl import ParseError, parse
from repro.ir.printer import to_source
from repro.ir.validate import ValidationError, validate
from repro.transforms.fission import FissionResult

#: Every pass ``--passes`` may name, in the one order they run.
PASS_ORDER = ("normalize", "analyze", *TRANSFORM_NAMES, "distribute", "coalesce")
DEFAULT_PASSES = "normalize,analyze,distribute,coalesce"


def _workers(text: str) -> int:
    """``--workers``: an integer >= 1."""
    from repro.parallel.pool import resolve_workers

    try:
        return resolve_workers(int(text))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"workers must be an integer >= 1 (got {text!r})"
        ) from None


def build_parser() -> argparse.ArgumentParser:
    from repro.parallel.runtime import SAFETY_MODES

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Loop coalescing compiler (ICPP'87 reproduction)",
    )
    parser.add_argument(
        "input",
        nargs="?",
        help="mini-language source file, or '-' for stdin "
        "(omit when using --workload)",
    )
    parser.add_argument(
        "--passes",
        default=DEFAULT_PASSES,
        help="comma-separated passes, a subset of "
        f"{','.join(PASS_ORDER)} in that order that names normalize and "
        f"coalesce (default: {DEFAULT_PASSES})",
    )
    parser.add_argument(
        "--transforms",
        metavar="NAMES",
        default=None,
        help="comma-separated parallelism-recovery passes run between "
        "analysis and distribution: fission,reduction (default: none); "
        "the same as naming them in --passes",
    )
    parser.add_argument("--style", choices=("ceiling", "divmod"), default="ceiling")
    parser.add_argument("--depth", type=int, default=None)
    parser.add_argument("--emit", choices=("loop", "python", "both"), default="loop")
    parser.add_argument(
        "--backend",
        choices=("python", "mp"),
        default="python",
        help="execution/codegen backend: serial Python or the "
        "process-parallel runtime (repro.parallel)",
    )
    parser.add_argument(
        "--workload",
        metavar="NAME",
        help="compile a registered workload instead of an input file",
    )
    parser.add_argument(
        "--run",
        action="store_true",
        help="execute the transformed program (requires --workload for the "
        "array environment) and report timing + a serial cross-check",
    )
    parser.add_argument("--workers", type=_workers, default=4)
    parser.add_argument(
        "--policy",
        default="gss",
        help="mp scheduling policy: unit | fixed | gss | static "
        "(or any repro.scheduling.policies name)",
    )
    parser.add_argument("--chunk", type=int, default=None)
    parser.add_argument(
        "--safety",
        choices=SAFETY_MODES,
        default=None,
        help="chunk-safety mode for --backend mp --run: inspect (default) "
        "dispatches proven loops and the unproven ones a runtime inspector "
        "proves disjoint, runs the rest serially and reports findings on "
        "stderr (a fully-refused run is an error); off skips verification "
        "and dispatches as tagged",
    )
    parser.add_argument(
        "--gantt",
        action="store_true",
        help="with --run --backend mp: print the measured schedule",
    )
    parser.add_argument(
        "--triangular",
        action="store_true",
        help="also coalesce triangular (outer-dependent-bound) nests",
    )
    parser.add_argument(
        "--cache-dir",
        metavar="DIR",
        default=None,
        help="root of the on-disk compilation artifact cache "
        "(default: $REPRO_CACHE_DIR or ~/.cache/repro)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="bypass the compilation artifact cache entirely",
    )
    parser.add_argument("--report", action="store_true")
    parser.add_argument(
        "--analyze",
        action="store_true",
        help="print the dependence-analysis report and coalescing plan "
        "instead of transforming",
    )
    return parser


def run_pipeline(
    source: str,
    passes: str = DEFAULT_PASSES,
    style: str = "ceiling",
    depth: int | None = None,
    triangular: bool = False,
    cache: object = "default",
    transforms: object = None,
):
    """Parse + transform; returns (procedure, coalesce results).

    ``passes`` names a subset of :data:`PASS_ORDER`, in that order, that
    includes ``normalize`` and ``coalesce``; ``transforms`` adds
    fission/reduction as if they were named there.  The names select
    :func:`repro.api.lower_and_coalesce`'s options, so every pass list
    runs the one pipeline and is served through the artifact cache.
    """
    names = [p.strip() for p in passes.split(",") if p.strip()]
    for name in names:
        if name not in PASS_ORDER:
            raise ValueError(
                f"unknown pass {name!r} (available: {', '.join(PASS_ORDER)})"
            )
        if names.count(name) > 1:
            raise ValueError(f"pass {name!r} is named more than once")
    if names != sorted(names, key=PASS_ORDER.index):
        raise ValueError(
            f"passes {','.join(names)} are out of order; they run as "
            f"{','.join(PASS_ORDER)}"
        )
    for name in ("normalize", "coalesce"):
        if name not in names:
            raise ValueError(f"the pass list must include {name!r}")
    named = set(names) | set(normalize_transforms(transforms))
    _, proc, results, _ = lower_and_coalesce(
        source,
        frontend="dsl",
        style=style,
        depth=depth,
        distribute="distribute" in named,
        analyze="analyze" in named,
        triangular=triangular,
        transforms=[t for t in TRANSFORM_NAMES if t in named],
        cache=cache,
    )
    return proc, results


def _run_transformed(args, workload, proc) -> int:
    """Execute a transformed workload with the chosen backend (--run)."""
    import time

    import numpy as np

    from repro.codegen.pygen import compile_procedure
    from repro.workloads import make_env

    arrays, sc = make_env(workload)
    baseline = {k: v.copy() for k, v in arrays.items()}
    t0 = time.perf_counter()
    compile_procedure(workload.proc).run(baseline, sc)
    serial_t = time.perf_counter() - t0

    if args.backend == "mp":
        from repro.parallel import ParallelError, run_parallel_procedure

        try:
            result = run_parallel_procedure(
                proc,
                arrays,
                sc,
                workers=args.workers,
                policy=args.policy,
                chunk=args.chunk,
                safety=args.safety,
            )
        except (ParallelError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2 if isinstance(exc, ValueError) else 1
        if result.safety is not None and not result.safety.ok:
            for f in result.safety.findings:
                print(f"safety: {f.format()}", file=sys.stderr)
        elapsed = result.wall_time
        blocked = (
            f", {result.blocked_dispatches} blocked"
            if result.blocked_dispatches
            else ""
        )
        if result.reductions:
            blocked += f", {result.reductions} reduction(s)"
        label = (
            f"mp[{args.policy}, {args.workers} workers, "
            f"{result.chunk_lang} chunks, "
            f"{len(result.table)} dispatches in "
            f"{result.fork_joins} fork/join"
            f"{'' if result.fork_joins == 1 else 's'}{blocked}, "
            f"{result.claims} claims, {result.lock_ops} lock ops, "
            f"{result.claim_loop} claim loop]"
        )
        if result.region not in (None, "native"):
            print(f"region: not used ({result.region})")
        if result.safety_mode == "inspect":
            print(
                f"inspect: inspected={result.inspected} "
                f"proven_dynamic={result.proven_dynamic}"
            )
            for cert in result.certificates:
                print(f"inspect: {cert}")
        if args.gantt:
            for d in result.dispatches:
                print(f"-- measured schedule of DOALL {d.loop_var} (µs) --")
                print(d.gantt())
    else:
        t0 = time.perf_counter()
        compile_procedure(proc).run(arrays, sc)
        elapsed = time.perf_counter() - t0
        label = "python"

    match = all(np.array_equal(baseline[k], arrays[k]) for k in arrays)
    speedup = serial_t / elapsed if elapsed > 0 else float("inf")
    print(
        f"serial {serial_t:.4f}s | {label} {elapsed:.4f}s | "
        f"speedup {speedup:.2f}x | results match serial: {match}"
    )
    return 0 if match else 1


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv[:1] == ["serve"]:
        from repro.service.server import serve_main

        return serve_main(argv[1:])
    if argv[:1] == ["cluster"]:
        from repro.cluster.router import cluster_main

        return cluster_main(argv[1:])
    if argv[:1] == ["loadtest"]:
        from repro.cluster.loadtest import loadtest_main

        return loadtest_main(argv[1:])
    if argv[:1] == ["lint"]:
        from repro.lint.cli import lint_main

        return lint_main(argv[1:])
    args = build_parser().parse_args(argv)
    if args.no_cache or args.cache_dir:
        from repro.cache import configure

        configure(dir=args.cache_dir, enabled=not args.no_cache)
    workload = None
    if args.workload:
        if args.input:
            print(
                "error: give either an input file or --workload, not both",
                file=sys.stderr,
            )
            return 2
        from repro.workloads import get_workload

        try:
            workload = get_workload(args.workload)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        source = to_source(workload.proc)
    elif args.input is None:
        print("error: provide an input file or --workload", file=sys.stderr)
        return 2
    elif args.input == "-":
        source = sys.stdin.read()
    else:
        try:
            with open(args.input) as fh:
                source = fh.read()
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    if args.run and workload is None:
        print(
            "error: --run needs --workload (it supplies the array "
            "environment)",
            file=sys.stderr,
        )
        return 2
    if args.analyze:
        from repro.analysis.summary import analyze_procedure

        try:
            proc = parse(source)
            validate(proc)
        except (ParseError, ValidationError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print(analyze_procedure(proc).format())
        return 0

    try:
        proc, results = run_pipeline(
            source,
            args.passes,
            args.style,
            args.depth,
            args.triangular,
            transforms=args.transforms,
        )
    except (ParseError, ValidationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.report:
        for r in results:
            if isinstance(r, FissionResult):
                for summary, findings in r.sections():
                    print(summary, file=sys.stderr)
                    for f in findings:
                        print(f"  {f.format()}", file=sys.stderr)
                        edge = f.edge()
                        if edge is not None:
                            print(f"    edge: {edge}", file=sys.stderr)
            elif hasattr(r, "bounds"):  # rectangular CoalesceResult
                nest = " x ".join(to_source(b) for b in r.bounds)
                print(
                    f"coalesced nest ({', '.join(r.index_vars)}) "
                    f"depth={r.depth} bounds=[{nest}] flat={r.flat_var}",
                    file=sys.stderr,
                )
            else:  # TriangularResult
                print(
                    f"coalesced triangular nest ({', '.join(r.index_vars)}) "
                    f"strategy={r.strategy} total={to_source(r.total_iterations)} "
                    f"flat={r.flat_var}",
                    file=sys.stderr,
                )
        if not results:
            print("no nests coalesced", file=sys.stderr)

    if args.run:
        return _run_transformed(args, workload, proc)

    if args.emit in ("loop", "both"):
        print(to_source(proc))
    if args.emit in ("python", "both"):
        if args.emit == "both":
            print()
        if args.backend == "mp":
            from repro.parallel.backend import compile_mp_procedure

            print(compile_mp_procedure(proc).source, end="")
        else:
            print(generate_source(proc), end="")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
