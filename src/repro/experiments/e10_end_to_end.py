"""E10 — End-to-end correctness across workloads, transforms and backends.

Every registered workload is run through: original vs coalesced (both
recovery styles), strength-reduced block form (where applicable), and both
execution backends (interpreter and generated Python), plus shuffled-order
execution of the coalesced DOALL.  One row per check; the only acceptable
status is ``ok``.
"""

from __future__ import annotations

import random
from typing import Mapping

import numpy as np

from repro.codegen import compile_procedure
from repro.experiments.report import Table
from repro.ir.stmt import Block, Loop, Procedure
from repro.ir.validate import validate
from repro.runtime.equivalence import copy_env
from repro.runtime.interp import Interpreter, InterpreterError, eval_bound
from repro.runtime.interp import run as interp_run
from repro.transforms import (
    TransformError,
    block_recovered_loop,
    coalesce_procedure,
)
from repro.workloads import WORKLOADS, get_workload, make_env


def run_doall_shuffled(
    proc: Procedure,
    arrays: Mapping[str, np.ndarray],
    scalars: Mapping[str, int | float] | None = None,
    seed: int = 0,
) -> None:
    """Run the procedure's one outermost DOALL in a seeded random order.

    A DOALL tag claims its iterations are independent; this sequential
    driver makes the claim testable.  Any order-dependence in the body
    (an incorrect tag or a transformation bug) shows up as a result
    difference against the serial interpreter.
    """
    body = proc.body
    if len(body) != 1 or not isinstance(body.stmts[0], Loop):
        raise InterpreterError(
            "procedure body must be a single loop to drive it as a DOALL"
        )
    loop = body.stmts[0]
    if not loop.is_doall:
        raise InterpreterError(f"outermost loop {loop.var!r} is not a DOALL")
    env: dict[str, int | float] = dict(scalars or {})
    lo = eval_bound(loop.lower, env, arrays, "lower bound")
    hi = eval_bound(loop.upper, env, arrays, "upper bound")
    st = eval_bound(loop.step, env, arrays, "step")
    values = list(range(lo, hi + 1, st))
    random.Random(seed).shuffle(values)
    interp = Interpreter()
    for value in values:
        interp._exec(loop.body, {**env, loop.var: value}, arrays)


def _agrees(baseline, arrays, names) -> bool:
    return all(np.array_equal(baseline[n], arrays[n]) for n in names)


def run(seed: int = 0) -> Table:
    table = Table(
        "E10: end-to-end equivalence checks",
        ["workload", "check", "status"],
        notes="Transformed programs must reproduce the original bit-for-bit.",
    )
    for name in sorted(WORKLOADS):
        w = get_workload(name)
        arrays, sc = make_env(w, seed=seed)
        initial = copy_env(arrays)
        baseline = copy_env(arrays)
        interp_run(w.proc, baseline, sc)
        names = list(w.proc.arrays)

        def check(label: str, runner) -> None:
            env = copy_env(initial)
            try:
                runner(env)
                status = "ok" if _agrees(baseline, env, names) else "MISMATCH"
            except Exception as exc:  # pragma: no cover - surfaced in table
                status = f"ERROR: {type(exc).__name__}"
            table.add(name, label, status)

        for style in ("ceiling", "divmod"):
            coalesced, results = coalesce_procedure(w.proc, style=style)
            validate(coalesced)
            check(
                f"coalesce[{style}] + interpreter",
                lambda env, p=coalesced: interp_run(p, env, sc),
            )
            check(
                f"coalesce[{style}] + codegen",
                lambda env, p=coalesced: compile_procedure(p).run(env, sc),
            )

        # Strength-reduced block form where the whole body is one flat DOALL
        # (hybrid workloads keep their serial wrapper and are skipped here;
        # their coalesced form was already checked above).
        coalesced, results = coalesce_procedure(w.proc)
        if (
            results
            and len(coalesced.body) == 1
            and coalesced.body.stmts[0] is results[0].loop
        ):
            try:
                blocked = coalesced.with_body(
                    Block((block_recovered_loop(results[0], 7),))
                )
                validate(blocked)
                check(
                    "block-recovered + interpreter",
                    lambda env, p=blocked: interp_run(p, env, sc),
                )
                check(
                    "block-recovered + codegen",
                    lambda env, p=blocked: compile_procedure(p).run(env, sc),
                )
            except TransformError:
                pass

        # Shuffled-order execution of a flat outer DOALL.
        if len(coalesced.body) == 1 and getattr(
            coalesced.body.stmts[0], "is_doall", False
        ):
            check(
                "coalesced + shuffled order",
                lambda env, p=coalesced: run_doall_shuffled(p, env, sc, seed=5),
            )
    return table


def main() -> None:
    t = run()
    print(t.format())
    bad = [row for row in t.rows if row[2] != "ok"]
    if bad:
        raise SystemExit(f"{len(bad)} checks failed")


if __name__ == "__main__":
    main()
