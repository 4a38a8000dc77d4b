"""C / OpenMP code generation.

Loop coalescing survives today as OpenMP's ``collapse`` clause; this backend
makes the lineage concrete by emitting compilable C from IR procedures:

* DOALL loops carry ``#pragma omp parallel for``; a perfect DOALL subnest
  gets ``collapse(k)`` — so the *untransformed* nest compiled with this
  backend is exactly what a modern programmer writes, while the *coalesced*
  IR compiled with it is what the 1987 transformation produces.  Both can be
  compiled with ``gcc -fopenmp``, executed through ctypes, and compared
  bit-for-bit against the Python backends (the test suite does).

Conventions:

* arrays are passed as ``double *`` plus one ``long`` extent per dimension
  (row-major indexing is generated explicitly);
* scalar parameters are ``long`` (all registered workloads use integral
  parameters; floating coefficients belong in arrays);
* ``div``/``mod``/``ceildiv`` compile to floor-semantics helpers matching
  the IR exactly (C's ``/`` truncates toward zero);
* body-local scalars are declared at the top of the innermost loop body
  that contains all their uses, which also makes them OpenMP-private.
"""

from __future__ import annotations

from repro.ir.expr import ArrayRef, BinOp, Call, Const, Expr, Unary, Var
from repro.ir.stmt import Assign, Block, If, Loop, Procedure, Stmt
from repro.ir.validate import validate
from repro.ir.visitor import substitute, walk_exprs, walk_stmts

#: Opens every kernel and region unit.  The libm functions
#: :data:`_INTRINSIC_C` and ``isqrt_`` call are declared here, not taken
#: from the ``<math.h>`` header, whose parsing was a sixth of a kernel
#: build; gcc treats a declared ``sqrt`` as the same builtin either way,
#: so the object code does not change.
_PRELUDE = """\
double sqrt(double);
double sin(double);
double cos(double);
double exp(double);
double log(double);
double fabs(double);

static long floordiv_(long a, long b) {
    long q = a / b, r = a % b;
    return (r != 0 && ((r < 0) != (b < 0))) ? q - 1 : q;
}
static long mod_(long a, long b) {
    long r = a % b;
    return (r != 0 && ((r < 0) != (b < 0))) ? r + b : r;
}
static long ceildiv_(long a, long b) { return -floordiv_(-a, b); }
static long isqrt_(long a) {
    long x = (long)sqrt((double)a);
    while (x > 0 && x * x > a) x--;
    while ((x + 1) * (x + 1) <= a) x++;
    return x;
}
static double min_(double a, double b) { return a < b ? a : b; }
static double max_(double a, double b) { return a > b ? a : b; }
static long lmin_(long a, long b) { return a < b ? a : b; }
static long lmax_(long a, long b) { return a > b ? a : b; }
"""

_INTRINSIC_C = {
    "sin": "sin",
    "cos": "cos",
    "sqrt": "sqrt",
    "exp": "exp",
    "log": "log",
    "abs": "fabs",
    "float": "(double)",
    "int": "(long)",
    "isqrt": "isqrt_",
}


class CGenError(ValueError):
    """The procedure cannot be lowered to the C conventions."""


# ---------------------------------------------------------------------------
# Type inference: every scalar is either "long" (index-like) or "double".
# ---------------------------------------------------------------------------


def _infer_scalar_types(proc: Procedure) -> dict[str, str]:
    """Map every assigned scalar to 'long' or 'double'.

    A scalar is double when any assignment to it involves a float constant,
    an array element, true division, or a floating intrinsic; otherwise
    long.  Iterated to a fixed point so doubles propagate through chains.
    """
    types: dict[str, str] = {}
    loop_vars = {lp.var for lp in walk_stmts(proc) if isinstance(lp, Loop)}
    for name in proc.scalars:
        types[name] = "long"
    for var in loop_vars:
        types[var] = "long"

    assigns = [
        s
        for s in walk_stmts(proc)
        if isinstance(s, Assign) and isinstance(s.target, Var)
    ]
    for s in assigns:
        types.setdefault(s.target.name, "long")

    def expr_is_double(e: Expr) -> bool:
        for sub in walk_exprs(e):
            if isinstance(sub, Const) and isinstance(sub.value, float):
                return True
            if isinstance(sub, ArrayRef):
                return True
            if isinstance(sub, BinOp) and sub.op == "/":
                return True
            if isinstance(sub, Call) and sub.func in (
                "sin", "cos", "sqrt", "exp", "log", "float",
            ):
                return True
            if isinstance(sub, Var) and types.get(sub.name) == "double":
                return True
        return False

    changed = True
    while changed:
        changed = False
        for s in assigns:
            name = s.target.name
            if types.get(name) == "double":
                continue
            if expr_is_double(s.value):
                types[name] = "double"
                changed = True
    return types


# ---------------------------------------------------------------------------
# Scalar declaration placement
# ---------------------------------------------------------------------------


def _declaration_sites(proc: Procedure) -> dict[int, list[str]]:
    """Map id(loop-body Block) → scalar names to declare at its top.

    Each assigned scalar is declared in the innermost loop body containing
    *all* its references (assignments and reads); scalars not enclosed by
    any loop are declared at function scope (key: id(proc.body)).
    """
    mentions: dict[str, list[tuple[int, ...]]] = {}

    def visit(s: Stmt, path: tuple[int, ...]) -> None:
        if isinstance(s, Block):
            for child in s.stmts:
                visit(child, path)
            return
        if isinstance(s, Loop):
            visit(s.body, path + (id(s.body),))
            return
        if isinstance(s, If):
            visit(s.then, path)
            visit(s.orelse, path)
        names = set()
        for e in walk_exprs(s):
            if isinstance(e, Var):
                names.add(e.name)
        if isinstance(s, Assign) and isinstance(s.target, Var):
            names.add(s.target.name)
        for name in names:
            mentions.setdefault(name, []).append(path)

    visit(proc.body, (id(proc.body),))

    loop_vars = {lp.var for lp in walk_stmts(proc) if isinstance(lp, Loop)}
    assigned = {
        s.target.name
        for s in walk_stmts(proc)
        if isinstance(s, Assign) and isinstance(s.target, Var)
    }

    sites: dict[int, list[str]] = {}
    for name in sorted(assigned - set(proc.scalars) - loop_vars):
        paths = mentions.get(name, [])
        if not paths:
            continue
        # Longest common prefix of all mention paths.
        prefix = paths[0]
        for p in paths[1:]:
            k = 0
            while k < len(prefix) and k < len(p) and prefix[k] == p[k]:
                k += 1
            prefix = prefix[:k]
        key = prefix[-1] if prefix else id(proc.body)
        sites.setdefault(key, []).append(name)
    return sites


# ---------------------------------------------------------------------------
# Expression emission
# ---------------------------------------------------------------------------


class _CEmitter:
    def __init__(self, proc: Procedure, types: dict[str, str]) -> None:
        self.proc = proc
        self.types = types

    def is_long(self, e: Expr) -> bool:
        if isinstance(e, Const):
            return isinstance(e.value, int)
        if isinstance(e, Var):
            return self.types.get(e.name, "long") == "long"
        if isinstance(e, ArrayRef):
            return False
        if isinstance(e, Call):
            return e.func in ("int", "isqrt", "abs")
        if isinstance(e, Unary):
            return self.is_long(e.operand)
        if isinstance(e, BinOp):
            if e.op in ("floordiv", "ceildiv", "mod"):
                return True
            if e.op == "/":
                return False
            if e.op in ("==", "!=", "<", "<=", ">", ">=", "and", "or"):
                return True
            return self.is_long(e.lhs) and self.is_long(e.rhs)
        return False

    def emit(self, e: Expr) -> str:
        if isinstance(e, Const):
            if isinstance(e.value, int):
                return f"{e.value}L" if e.value >= 0 else f"({e.value}L)"
            return repr(e.value)
        if isinstance(e, Var):
            return e.name
        if isinstance(e, ArrayRef):
            return self._emit_array(e)
        if isinstance(e, Call):
            fn = _INTRINSIC_C.get(e.func)
            if fn is None:
                raise CGenError(f"intrinsic {e.func!r} has no C lowering")
            args = ", ".join(self.emit(a) for a in e.args)
            if fn.startswith("("):  # cast style
                return f"{fn}({args})"
            return f"{fn}({args})"
        if isinstance(e, Unary):
            if e.op == "-":
                return f"(-{self.emit(e.operand)})"
            return f"(!{self.emit(e.operand)})"
        if isinstance(e, BinOp):
            return self._emit_binop(e)
        raise CGenError(f"cannot emit {type(e).__name__}")

    def _emit_binop(self, e: BinOp) -> str:
        lhs, rhs = self.emit(e.lhs), self.emit(e.rhs)
        if e.op in ("floordiv", "ceildiv", "mod"):
            fn = {"floordiv": "floordiv_", "ceildiv": "ceildiv_", "mod": "mod_"}[e.op]
            return f"{fn}({lhs}, {rhs})"
        if e.op in ("min", "max"):
            both_long = self.is_long(e.lhs) and self.is_long(e.rhs)
            fn = ("lmin_" if e.op == "min" else "lmax_") if both_long else (
                "min_" if e.op == "min" else "max_"
            )
            return f"{fn}({lhs}, {rhs})"
        if e.op == "/":
            # IR '/' is true division even on integers.
            return f"((double)({lhs}) / (double)({rhs}))"
        token = {"and": "&&", "or": "||"}.get(e.op, e.op)
        return f"({lhs} {token} {rhs})"

    def assign(self, s: Assign) -> str:
        t = s.target
        lhs = t.name if isinstance(t, Var) else self._emit_array(t)
        return f"{lhs} = {self.emit(s.value)};"

    def loop_head(self, s: Loop) -> str:
        lo, hi, step = (self.emit(b) for b in (s.lower, s.upper, s.step))
        return f"for (long {s.var} = {lo}; {s.var} <= {hi}; {s.var} += {step}) {{"

    def _emit_array(self, ref: ArrayRef) -> str:
        dims = [f"{ref.name}_d{k}" for k in range(ref.rank)]
        index = self.emit(ref.indices[0])
        for k in range(1, ref.rank):
            index = f"({index}) * {dims[k]} + ({self.emit(ref.indices[k])})"
        return f"{ref.name}[{index}]"


# ---------------------------------------------------------------------------
# Statement emission
# ---------------------------------------------------------------------------


def _doall_subnest_depth(loop: Loop) -> int:
    """Depth of the perfect all-DOALL nest rooted at ``loop``."""
    depth = 1
    current = loop
    while (
        len(current.body) == 1
        and isinstance(current.body.stmts[0], Loop)
        and current.body.stmts[0].is_doall
    ):
        current = current.body.stmts[0]
        depth += 1
    return depth


def generate_c(proc: Procedure, omp: bool = True, check: bool = True) -> str:
    """Generate a complete C translation unit for ``proc``.

    Signature: one ``double *`` + per-dimension ``long`` extents per array
    (declaration order), then the scalar parameters as ``long``.
    """
    if check:
        validate(proc)
    types = _infer_scalar_types(proc)
    sites = _declaration_sites(proc)
    emitter = _CEmitter(proc, types)

    params: list[str] = []
    for name, rank in proc.arrays.items():
        params.append(f"double *{name}")
        params.extend(f"long {name}_d{k}" for k in range(rank))
    params.extend(f"long {name}" for name in proc.scalars)

    lines: list[str] = [_PRELUDE]
    lines.append(f"void {proc.name}({', '.join(params)}) {{")
    for name in sites.get(id(proc.body), []):
        lines.append(f"    {types[name]} {name};")
    _emit_block(proc.body, lines, 1, emitter, sites, types, omp, top=True)
    lines.append("}")
    return "\n".join(lines) + "\n"


def _emit_block(
    block: Block, lines, depth, emitter, sites, types, omp, top=False, suppress=0
):
    pad = "    " * depth
    for name in () if top else sites.get(id(block), []):
        lines.append(f"{pad}{types[name]} {name};")
    for s in block.stmts:
        _emit_stmt(s, lines, depth, emitter, sites, types, omp, suppress)


def _emit_stmt(s: Stmt, lines, depth, emitter, sites, types, omp, suppress=0):
    pad = "    " * depth
    if isinstance(s, Assign):
        lines.append(pad + emitter.assign(s))
        return
    if isinstance(s, If):
        lines.append(f"{pad}if ({emitter.emit(s.cond)}) {{")
        _emit_block(s.then, lines, depth + 1, emitter, sites, types, omp)
        if len(s.orelse):
            lines.append(f"{pad}}} else {{")
            _emit_block(s.orelse, lines, depth + 1, emitter, sites, types, omp)
        lines.append(f"{pad}}}")
        return
    if isinstance(s, Loop):
        inner_suppress = max(0, suppress - 1)
        if omp and s.is_doall and suppress == 0:
            collapse = _doall_subnest_depth(s)
            clause = f" collapse({collapse})" if collapse > 1 else ""
            lines.append(f"{pad}#pragma omp parallel for{clause}")
            # Loops folded into this collapse region must not get pragmas.
            inner_suppress = collapse - 1
        lines.append(pad + emitter.loop_head(s))
        _emit_block(
            s.body, lines, depth + 1, emitter, sites, types, omp,
            suppress=inner_suppress,
        )
        lines.append(f"{pad}}}")
        return
    if isinstance(s, Block):
        _emit_block(s, lines, depth, emitter, sites, types, omp, suppress=suppress)
        return
    raise CGenError(f"cannot emit statement {type(s).__name__}")


# ---------------------------------------------------------------------------
# Chunk kernels: the native unit of work of the process-parallel runtime
# ---------------------------------------------------------------------------

#: Marker comments the tests key on to tell the two recovery emissions apart.
SR_MARKER = "/* strength-reduced block recovery */"
NAIVE_MARKER = "/* per-iteration index recovery */"

#: ``<kernel symbol> + THUNK_SUFFIX`` is the kernel's uniform-entry thunk.
THUNK_SUFFIX = "__v"

_ARGD_HELPER = """\
static double argd_(void *slot) {
    union { void *p; double d; } u;
    u.p = slot;
    return u.d;
}"""

#: The native claim loop: part of one fixed translation unit with no
#: per-program content (:data:`CLAIM_LIBRARY_C`), built once per process
#: (:func:`repro.codegen.cload.claim_loop_library`).  A region driver
#: calls ``repro_claim_loop`` once per DOALL instance; it claims from
#: the two int64 words of the shared counter (``ctr[0]`` next unclaimed
#: value, ``ctr[1]`` inclusive stop) and runs every claimed chunk through
#: the kernel's thunk, so nothing returns to Python between claims.
#:
#: * ``kind`` 0 (unit/fixed): one ``__atomic_fetch_add`` of ``k * batch``,
#:   then up to ``batch`` chunks of ``k`` — what
#:   ``SharedClaimCounter.claim_batch(rule, batch)`` hands out in one
#:   critical section.  ``kind`` 1 (GSS, ``k`` = p): the size
#:   ⌈remaining/p⌉ is computed from the value the compare-exchange then
#:   claims from, so remaining is read atomically with the add.
#: * ``out`` accumulates ``{iterations, claims, lock_ops}`` across calls;
#:   ``out[3]`` is the number of ring rows this call wrote.
#: * ``ring`` (``cap`` rows of ``lo, hi, t_claim, t_work, t_end``;
#:   ``CLOCK_MONOTONIC`` is ``time.monotonic()``'s clock) may be NULL: no
#:   log, no clock reads.  When the next claim might not fit, the loop
#:   returns 1 *before* claiming; the caller drains the rows and calls
#:   again.  Returns 0 once the counter is drained.
CLAIM_LOOP_C = """\
#include <stdint.h>
#include <time.h>

_Static_assert(sizeof(void *) == 8 && sizeof(long) == 8 && sizeof(double) == 8,
               "argv slots are 8 bytes");

typedef void (*chunk_fn)(long, long, void **);

static double now_(void) {
    struct timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return (double)ts.tv_sec + 1e-9 * (double)ts.tv_nsec;
}

long repro_claim_loop(int64_t *ctr, long kind, long k, long batch,
                      int64_t *out, double *ring, long cap,
                      chunk_fn fn, void **argv) {
    const int64_t stop = ctr[1];
    long rows = 0, full = 0;
    for (;;) {
        int64_t lo, end, step;
        double t0 = 0.0, t1 = 0.0;
        if (ring) {
            if (rows + batch > cap) { full = 1; break; }
            t0 = now_();
        }
        if (kind == 1) {
            lo = __atomic_load_n(&ctr[0], __ATOMIC_SEQ_CST);
            do {
                if (lo > stop) break;
                step = (stop - lo + k) / k;
            } while (!__atomic_compare_exchange_n(
                &ctr[0], &lo, lo + step, 0, __ATOMIC_SEQ_CST, __ATOMIC_SEQ_CST));
            if (lo > stop) break;
            end = lo + step - 1;
        } else {
            lo = __atomic_fetch_add(&ctr[0], k * batch, __ATOMIC_SEQ_CST);
            if (lo > stop) break;
            step = k;
            end = lo + k * batch - 1;
            if (end > stop) end = stop;
        }
        out[2] += 1;
        if (ring) t1 = now_();
        for (; lo <= end; lo += step) {
            int64_t hi = lo + step - 1;
            if (hi > end) hi = end;
            fn(lo, hi, argv);
            if (ring) {
                double *row = ring + 5 * rows++;
                row[0] = (double)lo;
                row[1] = (double)hi;
                row[2] = t0;
                row[3] = t1;
                row[4] = t0 = t1 = now_();
            }
            out[0] += hi - lo + 1;
            out[1] += 1;
        }
    }
    out[3] = rows;
    return full;
}
"""


# De-coalescing recognition lives in :mod:`repro.analysis.recovery` (shared
# with the chunk-safety verifier); these aliases keep this module's internal
# call sites and history readable.
from repro.analysis.recovery import (  # noqa: E402
    recovery_prefix as _recovery_prefix,
    verified_rectangular_recovery as _verified_rectangular_recovery,
)


def generate_chunk_c(
    proc: Procedure,
    loop: Loop | None = None,
    name: str | None = None,
    scalar_types: dict[str, str] | None = None,
    check: bool = False,
    inspect: bool = False,
) -> str:
    """C translation unit for one DOALL chunk of ``proc``.

    The emitted function runs the loop body over an inclusive sub-range of
    the flat iteration space — the exact unit of work a worker claims with
    one fetch&add::

        void <proc>__chunk(long __lo, long __hi,
                           double *A, long A_d0, ..., long n, ...);

    Parameter order matches :func:`repro.codegen.pygen.generate_chunk_source`
    (``lo``, ``hi``, arrays in declaration order — each a ``double*`` plus
    one ``long`` extent per dimension — then scalars), so the two chunk
    languages are drop-in interchangeable behind one job descriptor.

    When the body opens with the recovery assignments coalescing
    materializes *and* they verify as rectangular recovery, the kernel is
    strength-reduced (DESIGN §1.4/E2): indices are recovered with div/mod
    once at ``__lo``, then advanced odometer-style
    (:func:`repro.transforms.strength.odometer_advance`) — O(1) increments
    per iteration across the contiguous block.  Anything else (triangular
    recovery, hand-written prefixes) falls back to per-iteration emission,
    which is still native code, just not strength-reduced.

    ``scalar_types`` maps scalar parameter names to ``"long"``/``"double"``
    (default ``"long"``, the :func:`generate_c` convention) — the runtime
    passes the types of the live environment values so serially computed
    floating scalars cross the boundary intact.

    The unit closes with a *uniform-entry thunk*::

        void <proc>__chunk__v(long __lo, long __hi, void **__argv);

    which unpacks ``__argv`` and calls the kernel above.  It is what lets
    one fixed claim library (:data:`CLAIM_LOOP_C`) drive every kernel
    through a single function-pointer type, whatever the kernel's own
    parameter list.  ``__argv`` holds one 8-byte slot per parameter after
    the two bounds, in parameter order: an array's ``double *`` then each
    of its ``long`` extents by value, then the scalars — a ``long`` by
    value, a ``double`` bit-cast into its slot (same bytes, no
    conversion).  The kernel symbol and its parameter order are untouched
    by the thunk's presence.

    ``inspect=True`` adds the loop's native inspector
    (:func:`_inspect_function`), unless the loop is one it cannot check.
    """
    from repro.transforms.strength import odometer_advance

    if loop is None:
        if len(proc.body) != 1 or not isinstance(proc.body.stmts[0], Loop):
            raise CGenError(
                "procedure body must be a single loop (or pass loop= "
                "explicitly)"
            )
        loop = proc.body.stmts[0]
    if not isinstance(loop.step, Const) or loop.step.value != 1:
        raise CGenError("chunk kernels require a unit-step loop")
    if check:
        validate(proc)
    fname = name or f"{proc.name}__chunk"

    # Type inference runs over a shell procedure holding just this loop, so
    # body-locals of *other* loops of proc cannot shadow anything here.
    shell = Procedure(proc.name, Block((loop,)), proc.arrays, proc.scalars)
    types = _infer_scalar_types(shell)
    for sname, ty in (scalar_types or {}).items():
        if ty not in ("long", "double"):
            raise CGenError(f"scalar {sname!r}: unknown C type {ty!r}")
        types[sname] = ty
    emitter = _CEmitter(shell, types)

    params: list[str] = ["long __lo", "long __hi"]
    for aname, rank in proc.arrays.items():
        params.append(f"double *{aname}")
        params.extend(f"long {aname}_d{k}" for k in range(rank))
    params.extend(f"{types.get(s, 'long')} {s}" for s in proc.scalars)

    # Every body-local scalar is declared at function scope: the kernel is
    # single-threaded (process parallelism lives outside), so the OpenMP
    # privacy concern that drives generate_c's placement does not apply.
    loop_vars = {lp.var for lp in walk_stmts(shell) if isinstance(lp, Loop)}
    locals_ = sorted(
        {
            s.target.name
            for s in walk_stmts(shell)
            if isinstance(s, Assign) and isinstance(s.target, Var)
        }
        - set(proc.scalars)
        - loop_vars
    )

    lines: list[str] = [_PRELUDE]
    lines.append(f"void {fname}({', '.join(params)}) {{")
    for lname in locals_:
        lines.append(f"    {types[lname]} {lname};")

    heads, rest = _recovery_prefix(loop, set(proc.scalars))
    shape = _verified_rectangular_recovery(loop, heads, rest)
    no_sites: dict = {}
    if shape is not None:
        index_vars, bounds = shape
        lines.append(f"    {SR_MARKER}")
        lines.append(f"    if (__hi < __lo) return;")
        for s in heads:
            lo_value = substitute(s.value, {loop.var: Var("__lo")})
            lines.append(f"    {s.target.name} = {emitter.emit(lo_value)};")
        lines.append(
            f"    for (long {loop.var} = __lo; {loop.var} <= __hi; "
            f"{loop.var} += 1) {{"
        )
        for s in rest:
            _emit_stmt(s, lines, 2, emitter, no_sites, types, omp=False)
        for s in odometer_advance(index_vars, bounds):
            _emit_stmt(s, lines, 2, emitter, no_sites, types, omp=False)
        lines.append("    }")
    else:
        if heads:
            lines.append(f"    {NAIVE_MARKER}")
        lines.append(
            f"    for (long {loop.var} = __lo; {loop.var} <= __hi; "
            f"{loop.var} += 1) {{"
        )
        for s in loop.body.stmts:
            _emit_stmt(s, lines, 2, emitter, no_sites, types, omp=False)
        lines.append("    }")
    lines.append("}")

    casts: list[str] = []
    for rank in proc.arrays.values():
        casts += ["(double *)"] + ["(long)"] * rank
    casts += [
        "argd_" if types.get(s, "long") == "double" else "(long)"
        for s in proc.scalars
    ]
    slots = [f"{cast}(__argv[{i}])" for i, cast in enumerate(casts)]
    if "argd_" in casts:
        lines.append(_ARGD_HELPER)
    lines.append(
        f"void {fname}{THUNK_SUFFIX}(long __lo, long __hi, void **__argv) {{"
    )
    lines.append(f"    {fname}({', '.join(['__lo', '__hi'] + slots)});")
    lines.append("}")
    try:
        if inspect:
            lines.append(_inspect_function(proc, loop, fname, params, locals_, types))
    except CGenError:
        pass  # a loop the inspector cannot check: the kernel alone
    return "\n".join(lines) + "\n"


#: ``<kernel symbol> + INSPECT_SUFFIX`` is the kernel's native inspector.
INSPECT_SUFFIX = "__inspect"

#: Checked forms of what the inspector evaluates (GNU statement
#: expressions): a failed check leaves the pass at once, result still 2.
_INSPECT_HELPERS = """\
#include <limits.h>
#include <stdint.h>
#include <stdlib.h>
#define FAIL_IF_(c) if (c) goto __done
#define CHECKED_(op, a, b) ({ long __r; FAIL_IF_(op((a), (b), &__r)); __r; })
#define DIVIDED_(fn, a, b) \\
    ({ long __a = (a), __b = (b); FAIL_IF_(__b == 0 || __a == LONG_MIN); fn(__a, __b); })
#define IX_(s, n) ({ long __s = (s); FAIL_IF_(__s < 0 || __s >= (n)); __s; })
#define CAST_(x) /* NaN fails both; |x| >= 2^53 too */ \\
    ({ double __x = (x); FAIL_IF_(!(__x > -0x1p53 && __x < 0x1p53)); (long)__x; })
#define FIN_(x) ({ double __x = (x); FAIL_IF_(!__builtin_isfinite(__x)); __x; })
#define DIV_(a, b) ({ double __a = (a), __b = (b); FAIL_IF_(__b == 0.0); __a / __b; })
/* A store to element g of array a: the first store (by any iteration)
   sets g's bit and joins this iteration's log; a set bit outside the log
   is another iteration's store (1), or unknown once the log overflowed. */
#define LOG_ 32
#define STAMP_(a, f) do { \\
    long __g = (f), __k = 0, __top = __nlog_##a < LOG_ ? __nlog_##a : LOG_; \\
    uint64_t __m = 1UL << (__g & 63); \\
    if (!(__own_##a[__g >> 6] & __m)) { \\
        __own_##a[__g >> 6] |= __m; __elems++; \\
        if (__nlog_##a < LOG_) __log_##a[__nlog_##a] = __g; \\
        __nlog_##a++; \\
    } else { \\
        while (__k < __top && __log_##a[__k] != __g) __k++; \\
        if (__k == __top) { __status = __nlog_##a > LOG_ ? 2 : 1; goto __done; } \\
    } } while (0)
"""

_INSPECT_FUNCTION = """\
long {name}({params}, long *__out) {{
{decls}
    long __status = 2, __elems = 0;
{alloc}
    for (long {var} = __lo; {var} <= __hi; {var} += 1) {{
{reset}
{body}
    }}
    *__out = __elems;
    __status = 0;
__done:
{free}
    return __status;
}}"""

_CHECKED_LONG = {
    "+": "CHECKED_(__builtin_add_overflow, {}, {})",
    "-": "CHECKED_(__builtin_sub_overflow, {}, {})",
    "*": "CHECKED_(__builtin_mul_overflow, {}, {})",
    **{op: f"DIVIDED_({op}_, {{}}, {{}})" for op in ("floordiv", "ceildiv", "mod")},
}


class _InspectEmitter(_CEmitter):
    """The kernel's emitter (same types, so the same addresses), every
    evaluation checked, ``and``/``or`` evaluating both sides as the
    interpreter does, each store a mark; refuses what it cannot check."""

    def emit(self, e: Expr) -> str:
        if isinstance(e, ArrayRef):
            return f"{e.name}[{self.flat(e)}]"
        if isinstance(e, Call):
            (arg,) = e.args
            inner = self.emit(arg)
            if e.func == "int":
                return inner if self.is_long(arg) else f"CAST_({inner})"
            if e.func in ("abs", "isqrt"):  # is_long() says long, even of a double
                raise CGenError(f"the inspector does not check {e.func!r}")
            return f"FIN_({_INTRINSIC_C[e.func]}({inner}))"
        if isinstance(e, Unary) and e.op == "-" and self.is_long(e.operand):
            return _CHECKED_LONG["-"].format("0L", self.emit(e.operand))
        return super().emit(e)

    def _emit_binop(self, e: BinOp) -> str:
        lhs, rhs = self.emit(e.lhs), self.emit(e.rhs)
        if e.op in _CHECKED_LONG and self.is_long(e.lhs) and self.is_long(e.rhs):
            return _CHECKED_LONG[e.op].format(lhs, rhs)
        if e.op in ("floordiv", "ceildiv", "mod"):
            raise CGenError(f"{e.op!r} on a double")
        if e.op == "/":
            return f"DIV_((double)({lhs}), (double)({rhs}))"
        if e.op in ("and", "or"):
            return f"(!!({lhs}) {'&' if e.op == 'and' else '|'} !!({rhs}))"
        return super()._emit_binop(e)

    def flat(self, ref: ArrayRef) -> str:
        """Row-major element number of ``ref``, every subscript checked
        against its extent (so the element is in the array)."""
        index = ""
        if not all(map(self.is_long, ref.indices)):
            raise CGenError(f"a subscript of {ref.name!r} is not an integer")
        for k, ix in enumerate(ref.indices):
            checked = f"IX_({self.emit(ix)}, {ref.name}_d{k})"
            index = f"({index}) * {ref.name}_d{k} + {checked}" if k else checked
        return index

    def assign(self, s: Assign) -> str:
        if isinstance(s.target, Var):
            return super().assign(s)
        return f"STAMP_({s.target.name}, {self.flat(s.target)});"

    def loop_head(self, s: Loop) -> str:
        # C re-reads the upper bound per trip, range() once: nothing the
        # loop assigns may feed the bounds; the step is a positive int.
        moved = {s.var} | {a.target.name for a in walk_stmts(s.body)
                           if isinstance(a, Assign)}
        fed = {getattr(v, "name", None) for b in (s.lower, s.upper)
               for v in walk_exprs(b)}
        step = s.step.value if isinstance(s.step, Const) else 0
        longs = self.is_long(s.lower) and self.is_long(s.upper)
        if moved & fed or not (longs and isinstance(step, int) and step > 0):
            raise CGenError(f"the inspector cannot bound loop {s.var!r}")
        lo, hi = self.emit(s.lower), self.emit(s.upper)
        return (
            f"for (long {s.var} = {lo}; {s.var} <= {hi}; {s.var} += {step}L) {{"
        )


def _inspect_function(proc, loop, fname, params, locals_, types) -> str:
    """``long <fname>__inspect(<kernel params>, long *__out)``: the kernel's
    loop, but a store only marks its element in the array's (zeroed)
    owner bitmap (:data:`_INSPECT_HELPERS`' ``STAMP_``); another
    iteration's element is a collision (1), a failed check gives 2, and 0
    proves the writes disjoint with the distinct elements in ``*__out``.
    A bitmap keeps a 400 000-element target's owners in 50 KB."""
    em = _InspectEmitter(proc, types)
    written = sorted({s.target.name for s in walk_stmts(loop.body)
                      if isinstance(s, Assign) and isinstance(s.target, ArrayRef)})
    body: list[str] = []
    for s in loop.body.stmts:
        _emit_stmt(s, body, 2, em, {}, types, omp=False)
    decls = [f"    {types[name]} {name};" for name in locals_]
    decls += [f"    uint64_t *__own_{a} = NULL; long __log_{a}[LOG_], __nlog_{a};"
              for a in written]
    alloc = [f"    if (!(__own_{a} = calloc(" + " * ".join(
        f"{a}_d{k}" for k in range(proc.arrays[a])) + " / 64 + 1, 8))) goto __done;"
        for a in written]
    return _INSPECT_HELPERS + _INSPECT_FUNCTION.format(
        name=fname + INSPECT_SUFFIX, params=", ".join(params), var=loop.var,
        decls="\n".join(decls), alloc="\n".join(alloc), body="\n".join(body),
        reset="\n".join(f"        __nlog_{a} = 0;" for a in written),
        free="\n".join(f"    free(__own_{name});" for name in written),
    )


# ---------------------------------------------------------------------------
# The SPMD region: one native fork/join for a serial-outer nest
# ---------------------------------------------------------------------------

#: ``<procedure name> + REGION_SUFFIX`` is the program's region driver.
REGION_SUFFIX = "__region"

#: The fixed half of every region driver (the other half is a program's
#: serial skeleton, :func:`generate_region_c`, or :data:`ONE_INSTANCE`'s
#: one instance).  Every worker of the fleet runs the whole skeleton
#: (SPMD); at each non-empty DOALL *instance* they meet at ``barrier_``,
#: whose last arriver arms the two counter words with that instance's
#: range, and then drain it through the claim loop (:data:`CLAIM_LOOP_C`,
#: reached through a function pointer).  An empty instance is no
#: dispatch: no barrier, nothing armed, exactly as the per-dispatch path
#: sends no job for one.
#:
#: * ``bar`` is three int64 words beside the counter: arrived count,
#:   generation (the sense), stop.  A waiter spins at most ``spin`` times
#:   (0 when workers outnumber CPUs), then sleeps on the generation word's
#:   futex, waking every 50 ms to poll the stop word — set by the parent
#:   when a peer died, or by a peer that could not enter the region.  A
#:   stopped barrier returns -1 and the driver unwinds.
#: * ``rules`` holds ``kind, k`` per loop; the batch of one instance is
#:   derived here by the one batch rule, exactly as
#:   ``repro.parallel.dispatch._resolve_claim_batch`` derives it for the
#:   lock-guarded loop, so both protocols hand out the same chunks and
#:   report the same batch.
#: * ``rec`` gets one row per instance and worker — ``loop, lo, hi,
#:   iterations, claims, lock_ops, log rows, batch`` — and ``tim`` its
#:   arrival and finish instants; the parent rebuilds one result per
#:   instance from them.  With ``run`` 0 the skeleton only counts
#:   instances.
#: * claim-log rows of successive instances share one ring: the worker's
#:   slice of a block the pool shares with every worker, so the rows the
#:   driver leaves there (``info[1]``) never cross the result pipe.  It
#:   must hold a batch (at most 64 rows; the pool makes it no shorter).
#:   When the claim loop reports it full, ``drain(rows)`` hands the rows
#:   to the caller, which spills them through the pipe, and the ring
#:   starts over — no row is ever dropped.
_REGION_RUNTIME = """\
#include <limits.h>
#include <stdint.h>
#include <time.h>
#include <unistd.h>
#include <sys/syscall.h>
#include <linux/futex.h>

#if __BYTE_ORDER__ != __ORDER_LITTLE_ENDIAN__
#error "the barrier's futex word is the low half of an int64"
#endif

typedef void (*chunk_fn)(long, long, void **);
typedef long (*claim_fn)(int64_t *, long, long, long, int64_t *, double *,
                         long, chunk_fn, void **);
typedef void (*drain_fn)(long);

struct region_ {
    int64_t *ctr, *bar;
    long wid, workers, spin, run;
    claim_fn claim;
    chunk_fn *fns;
    void ***argvs;
    const int64_t *rules;
    int64_t *rec;
    double *tim;
    double *ring;
    long cap, used;
    drain_fn drain;
    long phases;
};

static double rnow_(void) {
    struct timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return (double)ts.tv_sec + 1e-9 * (double)ts.tv_nsec;
}

static long barrier_(struct region_ *r, int64_t lo, int64_t hi) {
    int64_t *bar = r->bar;
    const struct timespec tick = {0, 50 * 1000 * 1000};
    const int64_t gen = __atomic_load_n(&bar[1], __ATOMIC_SEQ_CST);
    if (__atomic_add_fetch(&bar[0], 1, __ATOMIC_SEQ_CST) == r->workers) {
        /* Last to arrive: every peer has left the previous claim loop. */
        __atomic_store_n(&r->ctr[1], hi, __ATOMIC_RELAXED);
        __atomic_store_n(&r->ctr[0], lo, __ATOMIC_RELAXED);
        __atomic_store_n(&bar[0], 0, __ATOMIC_RELAXED);
        __atomic_store_n(&bar[1], gen + 1, __ATOMIC_SEQ_CST);
        syscall(SYS_futex, (uint32_t *)&bar[1], FUTEX_WAKE, INT_MAX,
                NULL, NULL, 0);
        return 0;
    }
    for (long i = 0; i < r->spin; i++) {
        if (__atomic_load_n(&bar[1], __ATOMIC_SEQ_CST) != gen) return 0;
#if defined(__x86_64__) || defined(__i386__)
        __builtin_ia32_pause();
#endif
    }
    while (__atomic_load_n(&bar[1], __ATOMIC_SEQ_CST) == gen) {
        if (__atomic_load_n(&bar[2], __ATOMIC_SEQ_CST)) return -1;
        syscall(SYS_futex, (uint32_t *)&bar[1], FUTEX_WAIT, (uint32_t)gen,
                &tick, NULL, 0);
    }
    return 0;
}

static long phase_(struct region_ *r, long loop, int64_t lo, int64_t hi) {
    const long ph = r->phases++;
    const int64_t n = hi >= lo ? hi - lo + 1 : 0;
    const int64_t *rule = r->rules + 2 * loop;
    const long active = n < r->workers ? (long)n : r->workers;
    long kind = rule[0], k = 1, batch = 1;
    if (n > 0) {
        if (kind == 1) {
            k = active;  /* GSS never batches */
        } else {
            const int64_t chunks = (n + rule[1] - 1) / rule[1];
            batch = chunks / (active * 8) < 64 ? chunks / (active * 8) : 64;
            if (batch < 1) batch = 1;
            k = rule[1] < n ? rule[1] : n;
        }
    }
    if (!r->run) return 0;
    int64_t *rec = r->rec + 8 * ph;
    double *tim = r->tim + 2 * ph;
    rec[0] = loop;
    rec[1] = lo;
    rec[2] = hi;
    rec[7] = batch;
    if (n == 0) return 0;
    tim[0] = rnow_();
    if (barrier_(r, lo, hi)) return -1;
    if (r->wid < active) {
        int64_t out[4] = {0, 0, 0, 0};
        for (;;) {
            long full = r->claim(
                r->ctr, kind, k, batch, out,
                r->ring ? r->ring + 5 * r->used : 0, r->cap - r->used,
                r->fns[loop], r->argvs[loop]);
            r->used += out[3];
            rec[6] += out[3];
            if (!full) break;
            r->drain(r->used);
            r->used = 0;
        }
        rec[3] = out[0];
        rec[4] = out[1];
        rec[5] = out[2];
    }
    tim[1] = rnow_();
    return 0;
}
"""


#: A region driver: the fixed signature, state and epilogue around a
#: ``body`` of C lines that may ``goto __out`` on a stopped barrier.
_DRIVER = """\
long {fname}(int64_t *__ctr, int64_t *__bar, long __wid, long __workers,
        long __spin, long __run, claim_fn __claim, chunk_fn *__fns,
        void ***__argvs, const int64_t *__rules, int64_t *__rec,
        double *__tim, double *__ring, long __cap, drain_fn __drain,
        const int64_t *__params, int64_t *__info) {{
    struct region_ __r = {{__ctr, __bar, __wid, __workers, __spin, __run,
        __claim, __fns, __argvs, __rules, __rec, __tim, __ring, __cap, 0,
        __drain, 0}};
    long __status = -1;
{body}
    __status = 0;
__out:
    __info[0] = __r.phases, __info[1] = __r.used;
    return __status;
}}
"""


#: The claim library's fixed driver entry, which every dynamic dispatch
#: with a C kernel enters: one instance of loop 0, bounds in ``params[0]``
#: and ``params[1]``, no closing barrier (the parent's gather joins).
ONE_INSTANCE = "repro_one_instance"

#: The claim library (:func:`repro.codegen.cload.claim_loop_library`):
#: claim loop, region runtime and fixed entry, no per-program content.
CLAIM_LIBRARY_C = CLAIM_LOOP_C + _REGION_RUNTIME + _DRIVER.format(
    fname=ONE_INSTANCE,
    body="    if (phase_(&__r, 0, __params[0], __params[1])) goto __out;",
)


def generate_region_c(
    proc: Procedure,
    loops: list[Loop],
    scalar_orders: list[list[str]],
    name: str | None = None,
) -> str:
    """C translation unit of ``proc``'s SPMD region driver.

    The driver is the procedure's serial skeleton — serial loops and
    ``if``s lowered exactly as :func:`generate_c` lowers them — with each
    loop of ``loops`` (the dispatchable DOALLs, in program order) replaced
    by one ``phase_`` call on its bounds; before it, the enclosing serial
    induction variables are written into that loop's kernel ``argv``
    (``scalar_orders[i]`` is the kernel's scalar parameter order, which
    fixes their slots — see :func:`generate_chunk_c`).  The skeleton may
    hold nothing else: a statement that is neither control around a
    listed loop nor such a loop raises :class:`CGenError`, as does a
    serial step that is not a positive constant.  Scalars the control
    reads arrive as ``params`` (``proc.scalars`` order, all ``long``).

    ``long <name>(ctr, bar, wid, workers, spin, run, claim, fns, argvs,
    rules, rec, tim, ring, cap, drain, params, info)`` returns 0, or -1
    when a barrier was stopped; ``info`` receives the instance count and
    the rows left in the ring.
    """
    index = {id(lp): i for i, lp in enumerate(loops)}
    base = sum(1 + rank for rank in proc.arrays.values())
    emitter = _CEmitter(proc, {})
    lines: list[str] = []
    for slot, sname in enumerate(proc.scalars):
        lines.append(f"    const long {sname} = (long)__params[{slot}];")

    def emit(s: Stmt, depth: int, ivs: tuple[str, ...]) -> None:
        pad = "    " * depth
        if isinstance(s, Block):
            for child in s.stmts:
                emit(child, depth, ivs)
        elif isinstance(s, Loop) and id(s) in index:
            i = index[id(s)]
            order = scalar_orders[i]
            writes = " ".join(
                f"__argvs[{i}][{base + order.index(iv)}] = (void *){iv};"
                for iv in ivs
            )
            if writes:
                lines.append(f"{pad}if (__run) {{ {writes} }}")
            lines.append(
                f"{pad}if (phase_(&__r, {i}, {emitter.emit(s.lower)}, "
                f"{emitter.emit(s.upper)})) goto __out;"
            )
        elif isinstance(s, Loop):
            if not isinstance(s.step, Const) or s.step.value < 1:
                raise CGenError(
                    f"serial loop {s.var!r}: step is not a positive constant"
                )
            lines.append(
                f"{pad}for (long {s.var} = {emitter.emit(s.lower)}; "
                f"{s.var} <= {emitter.emit(s.upper)}; "
                f"{s.var} += {emitter.emit(s.step)}) {{"
            )
            emit(s.body, depth + 1, ivs + (s.var,))
            lines.append(f"{pad}}}")
        elif isinstance(s, If):
            lines.append(f"{pad}if ({emitter.emit(s.cond)}) {{")
            emit(s.then, depth + 1, ivs)
            if len(s.orelse):
                lines.append(f"{pad}}} else {{")
                emit(s.orelse, depth + 1, ivs)
            lines.append(f"{pad}}}")
        else:
            raise CGenError(
                f"region skeleton cannot hold a {type(s).__name__}"
            )

    emit(proc.body, 1, ())
    # Nobody reports before everybody is done; leaves the counter drained.
    lines.append("    if (__run && barrier_(&__r, 0, -1)) goto __out;")
    driver = _DRIVER.format(
        fname=name or proc.name + REGION_SUFFIX, body="\n".join(lines)
    )
    return "\n".join([_PRELUDE, _REGION_RUNTIME, driver])
