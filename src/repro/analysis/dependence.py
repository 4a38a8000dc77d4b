"""Accesses and feasibility: the two lower layers of the one dependence story.

Every dependence question in this package — DOALL tags, the statement
PDG, the chunk-safety verifier — is answered from the same three
layers::

    accesses → feasibility → edge set (:mod:`repro.analysis.pdg`)

**Accesses.**  :func:`collect_guarded_accesses` is the only walk that
collects array references: each comes with the chain of loops enclosing
it and the path condition (``If`` guards with polarity) dominating it.
The scalar side is :func:`written_scalars`,
:func:`upward_exposed_scalars` and the one privacy test built from them,
:func:`exposed_written_scalars`.

**Feasibility.**  :class:`DependenceTester` answers: can two subscripted
references to the same array touch the same element on two iterations
related by a given *direction vector* (one of ``<``, ``=``, ``>`` per
common loop)?  Per array dimension:

* affine extraction (:mod:`repro.analysis.subscripts`); non-affine ⇒ assume
  dependence (conservative);
* **ZIV**: both subscripts constant ⇒ dependence iff equal;
* **GCD test**: the linear Diophantine equation must be solvable in integers;
* **Banerjee bounds**: the equation must be solvable in *reals within the
  loop bounds*, evaluated separately under each direction constraint —
  implemented exactly by enumerating the vertices of the (i, i′) order
  polytope, which is tight for linear forms.  Symbolic loop bounds are
  treated as unbounded here.

Vectors that survive are re-checked against an **exact rational linear
system** — the subscript equalities, the ``=``-direction merges, the
affine (numeric *or symbolic*) loop bounds, and the equality /
disequality guards dominating each access.  An infeasible system refutes
the vector; this is what proves the pivot-guarded Gauss–Jordan update
(``if i != j``, ``k = j+1..``) independent where the interval tests alone
cannot.  Refutation only ever *removes* a vector, and only on a provable
contradiction.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import AbstractSet, Iterable, NamedTuple, Sequence

from repro.analysis.subscripts import AffineForm, affine_of
from repro.ir.expr import ArrayRef, BinOp, Const, Expr, Var
from repro.ir.stmt import Assign, Block, If, Loop, Stmt
from repro.ir.visitor import free_vars, walk_stmts

#: Direction symbols, ordered for display.
DIRECTIONS = ("<", "=", ">")

#: A direction vector seen from the other access's side.
_FLIP = {"<": ">", "=": "=", ">": "<"}

_INF = math.inf

#: One affine dimension, prepared: the constant to hit, ``(a, b, lo, hi)``
#: per common loop, and the range contributed by one-sided indices.
_Dim = tuple[int, list[tuple[int, int, float, float]], float, float]

#: A path condition: ``(cond, polarity)`` per enclosing ``If`` —
#: polarity False for the else branch.
Guards = tuple[tuple[Expr, bool], ...]


@dataclass(frozen=True)
class LoopInfo:
    """A loop level as the tester sees it: name plus (maybe unknown) bounds.

    A bound is an integer, an expression, or None.  The interval tests
    use it when it is a constant; the rational refutation uses it
    whenever it is affine in loop indices and invariant symbols.
    """

    var: str
    lower: Expr | int | None
    upper: Expr | int | None

    @staticmethod
    def of(loop: Loop) -> "LoopInfo":
        return LoopInfo(loop.var, loop.lower, loop.upper)

    def interval(self) -> tuple[float, float]:
        """Numeric ``[lo, hi]``, unbounded where a bound is not constant."""
        lo = self.lower.value if isinstance(self.lower, Const) else self.lower
        hi = self.upper.value if isinstance(self.upper, Const) else self.upper
        return (
            lo if isinstance(lo, (int, float)) else -_INF,
            hi if isinstance(hi, (int, float)) else _INF,
        )


@dataclass(frozen=True)
class Dependence:
    """One dependence between a write and another access of one array.

    ``src`` is always the *write*; ``kind`` says which instance runs
    first — ``flow`` (the write, then the read), ``anti`` (the read,
    then the overwrite) or ``output`` (two writes) — and ``src_first``
    says it for output pairs too.  ``directions`` relates the write's
    iteration to the other access's, one symbol per common loop,
    outermost first.  ``carried`` is True when the two instances sit in
    different iterations of the levels the scan ranged over; otherwise
    they share an iteration and textual order decides.  ``exact`` is
    False when a non-affine subscript forced the assumption.
    """

    kind: str  # "flow" | "anti" | "output"
    directions: tuple[str, ...]
    exact: bool
    carried: bool
    src_stmt: int
    dst_stmt: int
    src_ref: ArrayRef
    dst_ref: ArrayRef
    src_first: bool

    @property
    def array(self) -> str:
        return self.src_ref.name

    def oriented(self) -> tuple[int, int, tuple[str, ...]]:
        """``(first, second, directions)`` in execution order."""
        if self.src_first:
            return self.src_stmt, self.dst_stmt, self.directions
        flipped = tuple(_FLIP[d] for d in self.directions)
        return self.dst_stmt, self.src_stmt, flipped


def edge_label(
    src: int, dst: int, directions: Sequence[str] | None, what: str = ""
) -> str:
    """``S1 -> S2[what] at directions (<, =)``: how every edge is printed."""
    span = f" at directions ({', '.join(directions)})" if directions else ""
    return f"S{src} -> S{dst}{what}{span}"


# ---------------------------------------------------------------------------
# accesses
# ---------------------------------------------------------------------------


class GuardedAccess(NamedTuple):
    """An array access, its inner loop chain, and its dominating guards."""

    ref: ArrayRef
    is_write: bool
    inner_chain: tuple[Loop, ...]
    guards: Guards


def collect_guarded_accesses(
    body: Block,
    chain: tuple[Loop, ...] = (),
    guards: Guards = (),
) -> list[GuardedAccess]:
    """All array accesses in ``body`` with chains and path conditions.

    Reads include subscript expressions, guard conditions, loop bounds
    and right-hand sides — everything except the written reference.
    """
    out: list[GuardedAccess] = []

    def reads_of(e: Expr) -> None:
        stack = [e]
        while stack:
            cur = stack.pop()
            if isinstance(cur, ArrayRef):
                out.append(GuardedAccess(cur, False, chain, guards))
            stack.extend(cur.children())

    for s in body.stmts:
        if isinstance(s, Assign):
            if isinstance(s.target, ArrayRef):
                out.append(GuardedAccess(s.target, True, chain, guards))
                for idx in s.target.indices:
                    reads_of(idx)
            reads_of(s.value)
        elif isinstance(s, If):
            reads_of(s.cond)
            for branch, polarity in ((s.then, True), (s.orelse, False)):
                out.extend(
                    collect_guarded_accesses(
                        branch, chain, guards + ((s.cond, polarity),)
                    )
                )
        elif isinstance(s, Loop):
            for e in (s.lower, s.upper, s.step):
                reads_of(e)
            out.extend(collect_guarded_accesses(s.body, chain + (s,), guards))
        elif isinstance(s, Block):
            out.extend(collect_guarded_accesses(s, chain, guards))
    return out


def array_access_sets(stmts: Iterable[Stmt]) -> tuple[set[str], set[str]]:
    """``(written, read)`` array *names* touched anywhere in ``stmts``.

    Name-level (not element-level): this is the eligibility test for the
    runtime inspector, which is exact only when ``written & read`` is
    empty (then every value an iteration consumes is loop-invariant, so
    subscript-only inspection sees the same addresses any interleaving
    would produce).
    """
    accesses = collect_guarded_accesses(Block(tuple(stmts)))
    return (
        {a.ref.name for a in accesses if a.is_write},
        {a.ref.name for a in accesses if not a.is_write},
    )


def written_scalars(stmts: Iterable[Stmt]) -> set[str]:
    """Scalars assigned anywhere under ``stmts``."""
    return {
        sub.target.name
        for s in stmts
        for sub in walk_stmts(s)
        if isinstance(sub, Assign) and isinstance(sub.target, Var)
    }


def upward_exposed_scalars(
    body: Block, written: set[str] | None = None
) -> tuple[set[str], set[str]]:
    """Scalars read before any same-iteration write, plus definite writes.

    Returns ``(exposed, written_after)``.  Conditional writes only count as
    definite when they occur on both branches; loop bodies may execute zero
    times, so their writes never count as definite.
    """
    written = set(written or ())
    exposed: set[str] = set()
    for s in body.stmts:
        if isinstance(s, Assign):
            reads = free_vars(s.value)
            if isinstance(s.target, ArrayRef):
                for idx in s.target.indices:
                    reads |= free_vars(idx)
            exposed |= reads - written
            if isinstance(s.target, Var):
                written.add(s.target.name)
        elif isinstance(s, If):
            exposed |= free_vars(s.cond) - written
            e1, w1 = upward_exposed_scalars(s.then, written)
            e2, w2 = upward_exposed_scalars(s.orelse, written)
            exposed |= e1 | e2
            written = w1 & w2
        elif isinstance(s, Loop):
            for bound in (s.lower, s.upper, s.step):
                exposed |= free_vars(bound) - written
            inner_written = set(written) | {s.var}
            e1, _ = upward_exposed_scalars(s.body, inner_written)
            exposed |= e1
            # zero-trip possibility: writes inside do not become definite
    return exposed, written


def exposed_written_scalars(body: Block, bound: set[str]) -> set[str]:
    """Scalars that are *not* private to one execution of ``body``.

    A scalar written in ``body`` is private when every path defines it
    before using it; one that is also read before any such write carries
    a value in from the previous execution.  ``bound`` names the loop
    indices in scope, which are never such carriers.
    """
    exposed, _ = upward_exposed_scalars(body)
    return (exposed - bound) & written_scalars(body.stmts)


# ---------------------------------------------------------------------------
# interval tests
# ---------------------------------------------------------------------------


def _interval_mul(coeff: int, lo: float, hi: float) -> tuple[float, float]:
    """Range of ``coeff · x`` for x in [lo, hi] (handles ±inf, coeff 0)."""
    if coeff == 0:
        return (0.0, 0.0)
    a, b = coeff * lo, coeff * hi
    return (min(a, b), max(a, b))


def _vertices_for_direction(
    direction: str, lo: float, hi: float
) -> list[tuple[float, float]]:
    """Vertices of {(i, i′) : lo ≤ i, i′ ≤ hi, i direction i′}.

    Linear forms attain extrema at vertices; for unbounded regions the
    "vertices" include ±inf corners, which propagate through
    :func:`_interval_mul` correctly.
    """
    if direction == "=":
        return [(lo, lo), (hi, hi)]
    if hi - lo < 1:
        return []  # i < i' (or i > i') impossible in a width-<1 range
    if direction == "<":
        return [(lo, lo + 1), (lo, hi), (hi - 1, hi)]
    return [(lo + 1, lo), (hi, lo), (hi, hi - 1)]


def _term_range(
    a: int, b: int, direction: str, lo: float, hi: float
) -> tuple[float, float] | None:
    """Range of ``a·i − b·i′`` under the direction constraint, or None if
    the constraint is unsatisfiable."""
    verts = _vertices_for_direction(direction, lo, hi)
    if not verts:
        return None
    if math.isfinite(lo) and math.isfinite(hi):
        values = [a * i - b * j for i, j in verts]
        return (min(values), max(values))
    # Unbounded range: vertex evaluation would form ``inf - inf``.
    # Substitute i′ = i + d (``<``) or i = i′ + d (``>``) with d >= 1 and
    # range the decoupled form by interval arithmetic — exact for ``=``
    # (the form collapses to (a-b)·i) and a sound superset otherwise.
    if direction == "=":
        return _interval_mul(a - b, lo, hi)
    base = _interval_mul(a - b, lo, hi - 1)
    step = _interval_mul(-b if direction == "<" else a, 1.0, hi - lo)
    return (base[0] + step[0], base[1] + step[1])


def _gcd_feasible(coeffs: Iterable[int], delta: int) -> bool:
    """Solvable as a linear Diophantine equation?"""
    g = 0
    for a in coeffs:
        g = math.gcd(g, abs(a))
    if g == 0:
        return delta == 0
    return delta % g == 0


# ---------------------------------------------------------------------------
# exact rational refutation of a direction vector
# ---------------------------------------------------------------------------

#: A column of the linear system: ("s"|"t"|"g", variable name) - source
#: side, sink side, or shared (loop-invariant symbol).
_Col = tuple[str, str]
_Form = tuple[dict[_Col, Fraction], Fraction]


class _Eliminator:
    """Incremental Gaussian elimination over exact rationals.

    Rows are linear equalities ``Σ c_v·x_v = const`` kept in reduced row
    echelon form, so a query form reduces in one pass.  ``infeasible``
    flips when a contradictory row (0 = nonzero) is added.
    """

    def __init__(self, base: "_Eliminator | None" = None) -> None:
        # Row dicts are replaced, never mutated, so a shallow copy forks.
        self.rows: dict[_Col, _Form] = dict(base.rows) if base else {}
        self.infeasible = base.infeasible if base else False

    def _reduce(self, form: dict[_Col, Fraction], const: Fraction) -> _Form:
        form = dict(form)
        for col in sorted(form):
            coeff = form.get(col)
            if not coeff:
                continue
            pivot = self.rows.get(col)
            if pivot is None:
                continue
            p_form, p_const = pivot
            for v, c in p_form.items():
                form[v] = form.get(v, Fraction(0)) - coeff * c
            const -= coeff * p_const
            form.pop(col, None)
        return {v: c for v, c in form.items() if c}, const

    def add(self, form: dict[_Col, Fraction], const: Fraction) -> None:
        form, const = self._reduce(form, const)
        if not form:
            if const != 0:
                self.infeasible = True
            return
        pivot_col = sorted(form)[0]
        pivot_coeff = form.pop(pivot_col)
        new_form = {v: c / pivot_coeff for v, c in form.items()}
        new_const = const / pivot_coeff
        # Keep RREF: eliminate the new pivot from every existing row.
        for col, (r_form, r_const) in list(self.rows.items()):
            c = r_form.get(pivot_col)
            if not c:
                continue
            merged = dict(r_form)
            merged.pop(pivot_col)
            for v, cv in new_form.items():
                merged[v] = merged.get(v, Fraction(0)) - c * cv
            self.rows[col] = (
                {v: cv for v, cv in merged.items() if cv},
                r_const - c * new_const,
            )
        self.rows[pivot_col] = (new_form, new_const)

    def implied_constant(
        self, form: dict[_Col, Fraction], const: Fraction
    ) -> Fraction | None:
        """The constant the system forces ``form + const`` to, or None."""
        r_form, r_const = self._reduce(form, const)
        return r_const if not r_form else None


def _difference(a: _Form, b: _Form) -> _Form:
    form = dict(a[0])
    for v, c in b[0].items():
        form[v] = form.get(v, Fraction(0)) - c
    return {v: c for v, c in form.items() if c}, a[1] - b[1]


class _Side:
    """The names usable on one side of a pair (``in``), and their columns.

    A common or own-side index gets a per-side column; any other symbol
    the run provably never changes gets a shared one.  The other side's
    private indices — and anything possibly mutated — are not usable,
    which makes an expression mentioning them non-linear.
    """

    def __init__(
        self,
        tag: str,
        own: Sequence[LoopInfo],
        hidden: Sequence[LoopInfo],
        mutated: AbstractSet[str] | None,
    ) -> None:
        self.tag = tag
        self.own = {lv.var for lv in own}
        self.hidden = {lv.var for lv in hidden}
        self.mutated = mutated

    def __contains__(self, var: object) -> bool:
        return var in self.own or (
            self.mutated is not None
            and var not in self.mutated
            and var not in self.hidden
        )

    def column(self, var: str) -> _Col:
        return (self.tag, var) if var in self.own else ("g", var)


class _PairSystem:
    """Refutes direction vectors for one access pair, exactly.

    Builds, once per pair, the equality system implied by "both
    references touch the same element" (subscripts and equality guards),
    then per vector adds the ``=`` merges and checks every strict
    constraint (disequality guards, strict directions, loop bounds) for
    a forced violation.  Only a *provable* contradiction refutes.
    """

    def __init__(
        self,
        tester: "DependenceTester",
        src: ArrayRef,
        sink: ArrayRef,
        src_guards: Guards,
        sink_guards: Guards,
    ) -> None:
        self.common = tester.common
        levels = {
            "s": [*tester.common, *tester.extra_src],
            "t": [*tester.common, *tester.extra_sink],
        }
        self.sides = {
            "s": _Side("s", levels["s"], tester.extra_sink, tester.mutated),
            "t": _Side("t", levels["t"], tester.extra_src, tester.mutated),
        }

        self.base = _Eliminator()
        # 1. subscript equalities, dimension by dimension
        for se, te in zip(src.indices, sink.indices):
            a = self._linear(se, "s")
            b = self._linear(te, "t")
            if a is None or b is None:
                continue  # non-linear dimension contributes no equation
            self.base.add(*_difference(a, b))
        # 2. equality guards join the system; disequalities are checks
        self.checks_ne: list[_Form] = []
        for guards, side in ((src_guards, "s"), (sink_guards, "t")):
            for cond, polarity in guards:
                classified = self._guard_form(cond, polarity, side)
                if classified is None:
                    continue
                is_eq, form = classified
                if is_eq:
                    self.base.add(*form)
                else:
                    self.checks_ne.append(form)
        # 3. affine loop bounds, as forms that must stay >= 0 on each side
        self.checks_bound: list[_Form] = []
        for side, infos in levels.items():
            for lv in infos:
                idx: _Form = ({(side, lv.var): Fraction(1)}, Fraction(0))
                for bound, is_lower in ((lv.lower, True), (lv.upper, False)):
                    be = None if bound is None else self._linear(bound, side)
                    if be is not None:
                        self.checks_bound.append(
                            _difference(idx, be) if is_lower else _difference(be, idx)
                        )

    def _linear(self, e: Expr | int, side: str) -> _Form | None:
        """``e`` as an exact linear form over tagged columns, or None."""
        names = self.sides[side]
        affine = affine_of(Const(e) if isinstance(e, int) else e, names)
        if affine is None:
            return None
        form = {names.column(v): Fraction(c) for v, c in affine.coeffs}
        return form, Fraction(affine.const)

    def _guard_form(
        self, cond: Expr, polarity: bool, side: str
    ) -> tuple[bool, _Form] | None:
        """Classify a guard as (is-equality, form) over one side."""
        if not isinstance(cond, BinOp) or cond.op not in ("==", "!="):
            return None
        form = self._linear(BinOp("-", cond.lhs, cond.rhs), side)
        if form is None:
            return None
        return (cond.op == "==") == polarity, form

    def refutes(self, directions: Sequence[str]) -> bool:
        elim = _Eliminator(self.base)
        for lv, d in zip(self.common, directions):
            if d == "=":
                elim.add(
                    {("s", lv.var): Fraction(1), ("t", lv.var): Fraction(-1)},
                    Fraction(0),
                )
        if elim.infeasible:
            return True
        # disequality guards: forced to 0 => contradiction
        for form, const in self.checks_ne:
            if elim.implied_constant(form, const) == 0:
                return True
        # strict directions: "<" forces sink index - src index >= 1
        for lv, d in zip(self.common, directions):
            if d == "=":
                continue
            sign = Fraction(1 if d == "<" else -1)
            c = elim.implied_constant(
                {("t", lv.var): sign, ("s", lv.var): -sign}, Fraction(0)
            )
            if c is not None and c < 1:
                return True
        # loop bounds: index - lower >= 0 and upper - index >= 0
        for form, const in self.checks_bound:
            c = elim.implied_constant(form, const)
            if c is not None and c < 0:
                return True
        return False


# ---------------------------------------------------------------------------
# the tester
# ---------------------------------------------------------------------------


class DependenceTester:
    """Tests a pair of references under common loops.

    ``common``: the loops enclosing *both* references, outermost first;
    the first ``pinned`` of them are held at ``=`` (one iteration of the
    enclosing serial loops).  ``extra_src`` / ``extra_sink``: loops
    enclosing only one side (e.g. when the two statements sit in sibling
    inner loops); their indices range freely.  ``mutated``: the symbols
    that may take different values at the two accesses; every other one
    is invariant and usable in the rational system's bounds, subscripts
    and guards (None, the default: assume any symbol may change).
    """

    def __init__(
        self,
        common: Sequence[LoopInfo],
        extra_src: Sequence[LoopInfo] = (),
        extra_sink: Sequence[LoopInfo] = (),
        mutated: AbstractSet[str] | None = None,
        pinned: int = 0,
    ) -> None:
        self.common = list(common)
        self.extra_src = list(extra_src)
        self.extra_sink = list(extra_sink)
        self.mutated = mutated
        self.pinned = pinned
        self._vars = [
            info.var for info in (*self.common, *self.extra_src, *self.extra_sink)
        ]

    # -- single dimension ------------------------------------------------
    def _dimension(self, f: AffineForm, g: AffineForm) -> _Dim | None:
        """Set up ``f(i) == g(i′)`` for one affine dimension.

        Returns None when the GCD test already rules it out (source and
        sink indices treated as distinct unknowns); otherwise the
        constant to hit, the per-common-loop terms, and the range the
        freely ranging one-sided indices contribute.
        """
        delta = g.const - f.const  # move constants right: Σ terms = delta
        terms = [
            (f.coeff(info.var), g.coeff(info.var), *info.interval())
            for info in self.common
        ]
        free = [(f.coeff(info.var), info) for info in self.extra_src]
        free += [(-g.coeff(info.var), info) for info in self.extra_sink]
        coeffs = [c for a, b, _, _ in terms for c in (a, b)]
        if not _gcd_feasible(coeffs + [c for c, _ in free], delta):
            return None
        lo = hi = 0.0
        for coeff, info in free:
            r = _interval_mul(coeff, *info.interval())
            lo += r[0]
            hi += r[1]
        return delta, terms, lo, hi

    @staticmethod
    def _banerjee(dim: _Dim, directions: Sequence[str]) -> bool:
        """Is Σ (a_v·i_v − b_v·i′_v) = delta solvable in reals over the
        box, under the direction constraints?"""
        delta, terms, lo, hi = dim
        for (a, b, t_lo, t_hi), direction in zip(terms, directions):
            rng = _term_range(a, b, direction, t_lo, t_hi)
            if rng is None:
                return False
            lo += rng[0]
            hi += rng[1]
        return lo <= delta <= hi

    # -- whole reference pair ------------------------------------------------
    def _forms(self, ref: ArrayRef) -> list[AffineForm | None]:
        return [affine_of(e, self._vars) for e in ref.indices]

    def is_affine(self, src: ArrayRef, sink: ArrayRef) -> bool:
        """False when a subscript forces the dependence to be *assumed*."""
        return None not in self._forms(src) and None not in self._forms(sink)

    def feasible_directions(
        self,
        src: ArrayRef,
        sink: ArrayRef,
        src_guards: Guards = (),
        sink_guards: Guards = (),
        carried: int = 0,
    ) -> list[tuple[str, ...]]:
        """All direction vectors under which src and sink may collide.

        ``src_guards`` / ``sink_guards`` are the path conditions
        dominating the two accesses.  With ``carried=k`` only vectors
        with a non-``=`` among the ``k`` levels after the pinned ones
        are considered (the two instances sit in different iterations of
        those levels).
        """
        if src.name != sink.name:
            return []
        dims: list[_Dim] = []
        for f, g in zip(self._forms(src), self._forms(sink)):
            if f is None or g is None:
                continue  # non-affine: assume dependence
            if f.is_constant and g.is_constant:  # ZIV
                if f.const != g.const:
                    return []
                continue
            dim = self._dimension(f, g)
            if dim is None:
                return []
            dims.append(dim)
        head = ("=",) * self.pinned
        system: _PairSystem | None = None
        out: list[tuple[str, ...]] = []
        free = len(self.common) - self.pinned
        for tail in itertools.product(DIRECTIONS, repeat=free):
            if carried and all(d == "=" for d in tail[:carried]):
                continue
            directions = head + tail
            if not all(self._banerjee(dim, directions) for dim in dims):
                continue
            if system is None:
                system = _PairSystem(self, src, sink, src_guards, sink_guards)
            if not system.refutes(directions):
                out.append(directions)
        return out
