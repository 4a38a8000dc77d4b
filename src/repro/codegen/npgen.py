"""Whole-slice numpy chunk codegen (the ``"numpy"`` chunk language).

The middle rung of the chunk ladder: instead of iterating the
claimed flat range ``[__lo, __hi]`` one index at a time (the interpreted
``py`` chunk) or compiling it (the native ``c`` chunk), the numpy chunk
evaluates the *whole slice at once* — the flat loop variable becomes
``np.arange(__lo, __hi + 1)`` and every statement that depends on it is
executed as a vectorized array expression.  A plan runs it wherever the C
kernel is out of reach — no compiler, or a kernel that failed to build —
and every array is float64; it recovers much of the native kernel's
advantage without invoking a compiler at all.  The emitted text is a
plain Python function that :func:`repro.codegen.pygen.compile_chunk_source`
compiles like any other chunk.

Vectorizing a loop body reorders execution from iteration-major to
statement-major, so the translation refuses (``NumpyGenError``) any shape
where that reorder — or numpy's full-RHS-then-assign fancy-indexed store —
could change results:

* every array written in the body must be referenced (reads *and* writes)
  through one structurally identical index tuple, and that tuple must be
  injective over the chunk: each index an affine ``v`` / ``v ± c`` over the
  verified recovered index variables (:mod:`repro.analysis.recovery`) or
  the flat variable itself, with either the flat variable present or every
  recovered variable present.  Distinct lanes then touch distinct
  elements, so per-lane arithmetic is exactly the serial arithmetic —
  bit-identical results, same FP op order per element;
* control flow may not depend on the lanes: ``If`` conditions and inner
  ``Loop`` bounds must be scalar (inner loops with scalar bounds are
  emitted as ordinary serial ``for`` loops over vectorized bodies — the
  matmul reduction dimension, for example);
* lane-dependent ``and``/``or``/``not``, ``int()``, and ``isqrt()`` have no
  semantics-preserving vectorization here and are refused.

Scalar locals assigned from lane-dependent values become lane vectors
transparently (the emitted text is identical; numpy broadcasting does the
rest).  Ineligible shapes raise ``NumpyGenError`` and the plan steps down
to the interpreted chunk.
"""

from __future__ import annotations

from repro.analysis.recovery import recovery_prefix, verified_rectangular_recovery
from repro.ir.expr import ArrayRef, BinOp, Call, Const, Expr, Unary, Var
from repro.ir.stmt import Assign, Block, If, Loop, Procedure, Stmt
from repro.ir.visitor import walk_exprs, walk_stmts


class NumpyGenError(ValueError):
    """The loop body cannot be vectorized with serial-identical semantics."""


#: Intrinsics with a direct elementwise numpy lowering.
_NP_FUNCS = {
    "sin": "np.sin",
    "cos": "np.cos",
    "sqrt": "np.sqrt",
    "exp": "np.exp",
    "log": "np.log",
    "abs": "np.abs",
}


def _vector_names(loop: Loop) -> set[str]:
    """Fixed point of 'assigned from something lane-dependent'.

    Starts at the flat loop variable; any scalar assigned a value that
    mentions a vectorized name becomes vectorized itself.  Conservative:
    names are only ever added, so a scalar that is vectorized on *any*
    path is treated as vectorized everywhere.
    """
    vec = {loop.var}
    changed = True
    while changed:
        changed = False
        for s in walk_stmts(loop.body):
            if not (isinstance(s, Assign) and isinstance(s.target, Var)):
                continue
            if s.target.name in vec:
                continue
            if any(
                isinstance(e, Var) and e.name in vec
                for e in walk_exprs(s.value)
            ):
                vec.add(s.target.name)
                changed = True
    return vec


def _affine_index_var(e: Expr) -> str | None:
    """The variable of an injective single-variable affine index, else None.

    Accepts any expression built from ``+``/``-``/``*``/unary-minus over
    constants and exactly one variable occurrence (``i``, ``i - 1``,
    ``2 + (i - 1)``, ``3 * i``…).  One occurrence over those operators is a
    degree-1 polynomial; a numeric two-point probe rejects slope zero, so
    the map lane → index is injective.
    """

    def scan(x: Expr) -> list[str] | None:
        if isinstance(x, Const):
            return [] if isinstance(x.value, int) else None
        if isinstance(x, Var):
            return [x.name]
        if isinstance(x, Unary) and x.op == "-":
            return scan(x.operand)
        if isinstance(x, BinOp) and x.op in ("+", "-", "*"):
            lhs, rhs = scan(x.lhs), scan(x.rhs)
            if lhs is None or rhs is None:
                return None
            return lhs + rhs
        return None

    occurrences = scan(e)
    if occurrences is None or len(occurrences) != 1:
        return None
    name = occurrences[0]

    def value_at(x: Expr, v: int) -> int:
        if isinstance(x, Const):
            return int(x.value)
        if isinstance(x, Var):
            return v
        if isinstance(x, Unary):
            return -value_at(x.operand, v)
        assert isinstance(x, BinOp)
        lhs, rhs = value_at(x.lhs, v), value_at(x.rhs, v)
        return {"+": lhs + rhs, "-": lhs - rhs, "*": lhs * rhs}[x.op]

    if value_at(e, 1) == value_at(e, 0):
        return None
    return name


def _check_written_arrays(proc: Procedure, loop: Loop) -> None:
    """Refuse bodies where a vectorized store could diverge from serial."""
    heads, rest = recovery_prefix(loop, set(proc.scalars))
    shape = verified_rectangular_recovery(loop, heads, rest)
    rvars: set[str] = set(shape[0]) if shape is not None else set()
    injective = rvars | {loop.var}

    refs: dict[str, list[tuple[Expr, ...]]] = {}
    written: set[str] = set()
    for s in walk_stmts(loop.body):
        if isinstance(s, Assign) and isinstance(s.target, ArrayRef):
            written.add(s.target.name)
        for e in walk_exprs(s):
            if isinstance(e, ArrayRef):
                refs.setdefault(e.name, []).append(tuple(e.indices))

    for name in sorted(written):
        tuples = refs[name]
        first = tuples[0]
        if any(t != first for t in tuples[1:]):
            raise NumpyGenError(
                f"array {name!r} is written but referenced through "
                f"differing index tuples — lanes could alias"
            )
        used: set[str] = set()
        for ix in first:
            if isinstance(ix, Const):
                continue
            v = _affine_index_var(ix)
            if v is None:
                raise NumpyGenError(
                    f"array {name!r}: written index is not affine in a "
                    f"single variable"
                )
            used.add(v)
        if loop.var in used:
            continue
        if rvars and rvars <= used:
            continue
        raise NumpyGenError(
            f"array {name!r}: written index tuple {sorted(used)} is not "
            f"provably injective over the chunk"
        )


class _NpEmitter:
    def __init__(self, vec: set[str]) -> None:
        self.vec = vec

    def is_vec(self, e: Expr) -> bool:
        return any(
            isinstance(s, Var) and s.name in self.vec for s in walk_exprs(e)
        )

    def emit(self, e: Expr) -> str:
        if isinstance(e, Const):
            return repr(e.value)
        if isinstance(e, Var):
            return e.name
        if isinstance(e, ArrayRef):
            return self.emit_array(e)
        if isinstance(e, Call):
            return self._emit_call(e)
        if isinstance(e, Unary):
            if e.op == "-":
                return f"(-({self.emit(e.operand)}))"
            if self.is_vec(e.operand):
                raise NumpyGenError("lane-dependent 'not' cannot vectorize")
            return f"(not ({self.emit(e.operand)}))"
        if isinstance(e, BinOp):
            return self._emit_binop(e)
        raise NumpyGenError(f"cannot emit {type(e).__name__}")

    def emit_array(self, ref: ArrayRef) -> str:
        indices = ", ".join(self.emit(ix) for ix in ref.indices)
        return f"{ref.name}[{indices}]"

    def _emit_call(self, e: Call) -> str:
        args = ", ".join(self.emit(a) for a in e.args)
        fn = _NP_FUNCS.get(e.func)
        if fn is not None:
            return f"{fn}({args})"
        if e.func == "float":
            if self.is_vec(e):
                # Promote without collapsing the lane vector to a scalar.
                return f"(({args}) * 1.0)"
            return f"float({args})"
        if e.func in ("int", "isqrt"):
            if self.is_vec(e):
                raise NumpyGenError(
                    f"lane-dependent {e.func}() has no exact vectorization"
                )
            return f"{e.func}({args})"
        raise NumpyGenError(f"intrinsic {e.func!r} has no numpy lowering")

    def _emit_binop(self, e: BinOp) -> str:
        lhs, rhs = self.emit(e.lhs), self.emit(e.rhs)
        if e.op == "floordiv":
            return f"(({lhs}) // ({rhs}))"
        if e.op == "mod":
            return f"(({lhs}) % ({rhs}))"
        if e.op == "ceildiv":
            return f"(-((-({lhs})) // ({rhs})))"
        if e.op in ("min", "max"):
            fn = "np.minimum" if e.op == "min" else "np.maximum"
            return f"{fn}({lhs}, {rhs})"
        if e.op in ("and", "or"):
            if self.is_vec(e):
                raise NumpyGenError(
                    f"lane-dependent {e.op!r} cannot vectorize"
                )
            return f"(({lhs}) {e.op} ({rhs}))"
        return f"(({lhs}) {e.op} ({rhs}))"


def _emit_stmt(s: Stmt, lines: list[str], depth: int, em: _NpEmitter) -> None:
    pad = "    " * depth
    if isinstance(s, Assign):
        if isinstance(s.target, Var):
            lines.append(f"{pad}{s.target.name} = {em.emit(s.value)}")
        else:
            lines.append(f"{pad}{em.emit_array(s.target)} = {em.emit(s.value)}")
        return
    if isinstance(s, If):
        if em.is_vec(s.cond):
            raise NumpyGenError("lane-dependent branch cannot vectorize")
        lines.append(f"{pad}if {em.emit(s.cond)}:")
        _emit_block(s.then, lines, depth + 1, em)
        if len(s.orelse):
            lines.append(f"{pad}else:")
            _emit_block(s.orelse, lines, depth + 1, em)
        return
    if isinstance(s, Loop):
        for bound in (s.lower, s.upper, s.step):
            if em.is_vec(bound):
                raise NumpyGenError(
                    "lane-dependent inner-loop bounds cannot vectorize"
                )
        if s.var in em.vec:
            raise NumpyGenError(
                f"inner loop variable {s.var!r} shadows a vectorized name"
            )
        lo, hi = em.emit(s.lower), em.emit(s.upper)
        if isinstance(s.step, Const) and s.step.value == 1:
            header = f"{pad}for {s.var} in range({lo}, ({hi}) + 1):"
        else:
            header = (
                f"{pad}for {s.var} in range({lo}, ({hi}) + 1, "
                f"{em.emit(s.step)}):"
            )
        lines.append(header)
        _emit_block(s.body, lines, depth + 1, em)
        return
    if isinstance(s, Block):
        _emit_block(s, lines, depth, em)
        return
    raise NumpyGenError(f"cannot vectorize statement {type(s).__name__}")


def _emit_block(block: Block, lines: list[str], depth: int, em: _NpEmitter) -> None:
    if not block.stmts:
        lines.append("    " * depth + "pass")
        return
    for s in block.stmts:
        _emit_stmt(s, lines, depth, em)


def generate_chunk_numpy(
    proc: Procedure, loop: Loop | None = None, name: str | None = None
) -> str:
    """Whole-slice numpy chunk function for one DOALL loop of ``proc``.

    Same calling convention as :func:`repro.codegen.pygen.
    generate_chunk_source` (``__lo``, ``__hi``, arrays in declaration
    order, then scalars), so the three chunk languages are drop-in
    interchangeable behind one job descriptor::

        def <proc>__chunk_np(__lo, __hi, <arrays...>, <scalars...>):
            <flat var> = np.arange(__lo, __hi + 1)
            <vectorized body>

    Raises :class:`NumpyGenError` for any shape the module docstring's
    safety rules exclude — callers fall back to the interpreted chunk.
    """
    if loop is None:
        if len(proc.body) != 1 or not isinstance(proc.body.stmts[0], Loop):
            raise NumpyGenError(
                "procedure body must be a single loop (or pass loop= "
                "explicitly)"
            )
        loop = proc.body.stmts[0]
    if not isinstance(loop.step, Const) or loop.step.value != 1:
        raise NumpyGenError("numpy chunks require a unit-step loop")
    _check_written_arrays(proc, loop)
    fname = name or f"{proc.name}__chunk_np"
    em = _NpEmitter(_vector_names(loop))
    params = ["__lo", "__hi"] + list(proc.arrays) + list(proc.scalars)
    lines = [
        f"def {fname}({', '.join(params)}):",
        f"    {loop.var} = np.arange(__lo, __hi + 1)",
    ]
    _emit_block(loop.body, lines, 1, em)
    return "\n".join(lines) + "\n"
