"""Python code generation from IR procedures.

Emits a plain Python function whose loops, assignments and arithmetic mirror
the IR exactly (inclusive bounds become ``range(lo, hi + 1, step)``; floor
division ``//``; ``mod`` ``%``; ``ceildiv`` ``-(-a // b)``), compiles it with
:func:`compile`, and wraps it behind the same ``(arrays, scalars)`` calling
convention as the interpreter.  This is the "what a compiler would emit" end
of the reproduction: E10 checks interpreter and generated code agree
bit-for-bit on transformed programs.

DOALL loops are emitted as ordinary ``for`` loops tagged with a ``# DOALL``
comment — correct for any serial execution of a valid DOALL, and the
starting point a parallel runtime would carve tasks from.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from repro.ir.expr import INTRINSICS, Const
from repro.ir.printer import expr_to_source
from repro.ir.stmt import Assign, Block, If, Loop, Procedure, Stmt
from repro.ir.validate import validate

#: Names injected into the generated function's globals: the IR
#: intrinsics, the builtins codegen emits, and numpy for the whole-slice
#: chunk's lane vectors (:mod:`repro.codegen.npgen`).
_NAMESPACE = {**INTRINSICS, "min": min, "max": max, "range": range, "np": np}


def generate_source(proc: Procedure, name: str | None = None) -> str:
    """Generate the Python source text of ``proc`` as a function definition.

    Parameter order: arrays in declaration order, then scalars.
    """
    fname = name or proc.name
    params = list(proc.arrays) + list(proc.scalars)
    lines = [f"def {fname}({', '.join(params)}):"]
    body_lines: list[str] = []
    _emit_block(proc.body, body_lines, 1)
    if not body_lines:
        body_lines = ["    pass"]
    return "\n".join(lines + body_lines) + "\n"


def _emit_block(block: Block, lines: list[str], depth: int) -> None:
    if not block.stmts:
        lines.append("    " * depth + "pass")
        return
    for s in block.stmts:
        _emit_stmt(s, lines, depth)


def _emit_stmt(s: Stmt, lines: list[str], depth: int) -> None:
    pad = "    " * depth
    if isinstance(s, Assign):
        tgt = expr_to_source(s.target, "python")
        val = expr_to_source(s.value, "python")
        lines.append(f"{pad}{tgt} = {val}")
        return
    if isinstance(s, If):
        cond = expr_to_source(s.cond, "python")
        lines.append(f"{pad}if {cond}:")
        _emit_block(s.then, lines, depth + 1)
        if len(s.orelse):
            lines.append(f"{pad}else:")
            _emit_block(s.orelse, lines, depth + 1)
        return
    if isinstance(s, Loop):
        lo = expr_to_source(s.lower, "python")
        hi = expr_to_source(s.upper, "python")
        if isinstance(s.step, Const) and s.step.value == 1:
            header = f"{pad}for {s.var} in range({lo}, ({hi}) + 1):"
        else:
            st = expr_to_source(s.step, "python")
            header = f"{pad}for {s.var} in range({lo}, ({hi}) + 1, {st}):"
        if s.is_doall:
            header += "  # DOALL"
        lines.append(header)
        _emit_block(s.body, lines, depth + 1)
        return
    if isinstance(s, Block):
        _emit_block(s, lines, depth)
        return
    raise TypeError(f"cannot generate code for {type(s).__name__}")


def generate_chunk_source(
    proc: Procedure, loop: Loop | None = None, name: str | None = None
) -> str:
    """Generate a *chunk function* for one DOALL loop of ``proc``.

    The function runs the loop body over an inclusive sub-range of the
    loop's iteration space::

        def <proc>__chunk(__lo, __hi, <arrays...>, <scalars...>):
            for <var> in range(__lo, __hi + 1):
                <body>

    This is the unit of work the process-parallel runtime
    (:mod:`repro.parallel`) ships to workers: each fetch&add claim maps to
    one call.  ``loop`` defaults to the procedure's single top-level loop
    (the shape coalescing produces).
    """
    if loop is None:
        if len(proc.body) != 1 or not isinstance(proc.body.stmts[0], Loop):
            raise ValueError(
                "procedure body must be a single loop (or pass loop= explicitly)"
            )
        loop = proc.body.stmts[0]
    if not isinstance(loop.step, Const) or loop.step.value != 1:
        raise ValueError("chunk functions require a unit-step loop")
    fname = name or f"{proc.name}__chunk"
    params = ["__lo", "__hi"] + list(proc.arrays) + list(proc.scalars)
    lines = [
        f"def {fname}({', '.join(params)}):",
        f"    for {loop.var} in range(__lo, __hi + 1):",
    ]
    body_lines: list[str] = []
    _emit_block(loop.body, body_lines, 2)
    return "\n".join(lines + body_lines) + "\n"


@functools.lru_cache(maxsize=256)
def compile_chunk_source(source: str, fname: str) -> Callable:
    """Compile a chunk function's source text into a callable.

    Used on the worker side of :mod:`repro.parallel` (the source string is
    what crosses the process boundary — always picklable, spawn-safe), for
    the scalar chunks above and npgen's whole-slice ones alike.
    Memoized on the source text: a persistent pool worker receiving the
    same loop shape across many dispatches (one per pivot row in a hybrid
    program) compiles it exactly once.
    """
    return compile_function(source, fname)


def compile_function(source: str, fname: str) -> Callable:
    """The function ``fname`` defined by generated ``source`` — the one
    ``exec`` of generated Python (procedures, chunks, serial residues)."""
    namespace = dict(_NAMESPACE)
    exec(compile(source, filename=f"<generated:{fname}>", mode="exec"), namespace)
    return namespace[fname]


@dataclass
class CompiledProcedure:
    """A procedure compiled to a live Python function.

    ``raw`` is the positional function; :meth:`run` adapts the interpreter's
    ``(arrays, scalars)`` dict convention so the two backends are drop-in
    interchangeable in tests and benchmarks.
    """

    proc: Procedure
    source: str
    raw: Callable

    def run(
        self,
        arrays: Mapping[str, np.ndarray],
        scalars: Mapping[str, int | float] | None = None,
    ) -> None:
        scalars = scalars or {}
        args = [arrays[name] for name in self.proc.arrays]
        args += [scalars[name] for name in self.proc.scalars]
        self.raw(*args)


def compile_procedure(proc: Procedure, check: bool = True) -> CompiledProcedure:
    """Validate, generate, and compile ``proc`` into a callable."""
    if check:
        validate(proc)
    source = generate_source(proc)
    return CompiledProcedure(proc, source, compile_function(source, proc.name))
