"""DOALL executors: run a parallel loop's iterations in arbitrary order.

A DOALL tag is a *claim* — iterations are independent.  This driver makes
the claim testable: :func:`run_doall_shuffled` executes iterations in a
seeded random order, so if a transformed program is equivalent to the
original under it, the DOALL semantics survived the transformation (the
order-independence oracle of E10 and the coalescing tests).

The driver is sequential.  Real concurrency — and measured wall-clock
speedup — is the process-parallel runtime's job (:mod:`repro.parallel`:
worker processes claiming chunks over shared-memory arrays, checked chunk
by chunk by the shadow validator); the simulated machine
(:mod:`repro.machine`) additionally reproduces the paper's own
instruction-count methodology.
"""

from __future__ import annotations

import random
from typing import Mapping

import numpy as np

from repro.ir.stmt import Loop, Procedure
from repro.runtime.interp import Interpreter, InterpreterError, eval_bound


def _outer_doall(proc: Procedure) -> Loop:
    """The procedure body must be a single outermost DOALL loop."""
    body = proc.body
    if len(body) != 1 or not isinstance(body.stmts[0], Loop):
        raise InterpreterError(
            "procedure body must be a single loop to drive it as a DOALL"
        )
    loop = body.stmts[0]
    if not loop.is_doall:
        raise InterpreterError(f"outermost loop {loop.var!r} is not a DOALL")
    return loop


def _iteration_values(
    loop: Loop, env: dict, arrays: Mapping[str, np.ndarray]
) -> list[int]:
    lo = eval_bound(loop.lower, env, arrays, "lower bound")
    hi = eval_bound(loop.upper, env, arrays, "upper bound")
    st = eval_bound(loop.step, env, arrays, "step")
    return list(range(lo, hi + 1, st))


def run_doall_shuffled(
    proc: Procedure,
    arrays: Mapping[str, np.ndarray],
    scalars: Mapping[str, int | float] | None = None,
    seed: int = 0,
) -> None:
    """Run the outermost DOALL in a seeded random order.

    Any order-dependence in the loop body (i.e. an incorrect DOALL tag or a
    transformation bug) shows up as a result difference against the serial
    driver.
    """
    interp = Interpreter()
    env: dict[str, int | float] = dict(scalars or {})
    loop = _outer_doall(proc)
    values = _iteration_values(loop, env, arrays)
    random.Random(seed).shuffle(values)
    for value in values:
        local = dict(env)
        local[loop.var] = value
        interp._exec(loop.body, local, arrays)
